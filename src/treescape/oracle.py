"""Brute-force reference implementations for cross-checking graph builds.

Everything here is deliberately naive: neighborhoods come from exhaustively
applying every candidate move and comparing canonical strings, and pairwise
graphs cost O(m^2) string lookups. The tree walks only reference code and
tests need live here: edges lists a tree's edges, to_newick writes plain
Newick through canonical's emitter and validate_tree checks a tree's
structural invariants. So does
the move surgery: yield_forest cuts edges out of a tree into a
canonical.Forest, and apply_spr and apply_tbr rebuild the tree after one
move. nni_moves lists interchange results directly, a cross-check on the
contracted-edge keys the interchange graph indexes (forestgen.nni_keys).
reference_forest_keys cuts and re-encodes the whole tree for every key, the
construction the spliced keys of forestgen must match byte for byte. None
of the indexing machinery is used, so agreement between this module and
the container-driven builders is evidence for both. Builds never import
this module.
"""

from collections import deque

from .canonical import (
    Component,
    Forest,
    RootMarker,
    _render,
    _walk,
    sdlnewick_forest,
    sdlnewick_tree,
)
from .errors import MoveError, ModeError, TreescapeError
from .graph import AdjacencyGraph
from .tree import RHO, Tree, _compact, _splice_degree2

# ---------------------------------------------------------------------------
# tree walks


def edges(tree):
    """All edges as (u, v) index pairs with u < v, in node-index order."""
    out = []
    for u, nbrs in enumerate(tree.neighbors):
        for v in nbrs:
            if u < v:
                out.append((u, v))
    return out


def to_newick(tree):
    """Standard Newick text (no root marker), invertible by parse_newick.

    Rooted trees serialize from the root node with two top-level children;
    unrooted trees serialize from an internal node with three. Child order
    follows adjacency order, so the output is deterministic but not
    canonical.
    """
    labels = tree.labels
    if len(labels) == 1:
        raise ValueError("a single leaf has no Newick text that parse_newick accepts")
    if tree.rooted:
        start, skip = tree.root_index(), tree.rho_index()
    else:  # the first internal node; a two-leaf tree has none, so its second leaf
        start, skip = (labels.index(None) if len(labels) > 2 else 1), -1
    # every node ranks alike, so the stable sorts keep adjacency order
    return _render(labels, tree.neighbors, start, skip, [0] * len(labels)) + ";"


def validate_tree(tree):
    """Check a tree's structural invariants; raises ValueError on violation."""
    labels, adj = tree.labels, tree.neighbors
    n = len(labels)
    if n == 0:
        raise ValueError("empty tree")
    for u, nbrs in enumerate(adj):
        if len(set(nbrs)) != len(nbrs) or u in nbrs:
            raise ValueError(f"node {u}: bad adjacency {nbrs}")
        for v in nbrs:
            if u not in adj[v]:
                raise ValueError(f"asymmetric edge ({u}, {v})")
        deg = len(nbrs)
        want = (1, 3) if n > 1 else (0,)
        if deg not in want:
            raise ValueError(f"node {u} has degree {deg}")
        if labels[u] is not None and deg > 1:
            raise ValueError(f"labelled node {u} is not a leaf")
    seen = set()
    for lab in labels:
        if lab is None:
            continue
        if lab in seen:
            raise ValueError(f"duplicate label {lab}")
        seen.add(lab)
    markers = [i for i, lab in enumerate(labels) if lab == RHO]
    if tree.rooted:
        if len(markers) != 1:
            raise ValueError("rooted tree must have exactly one root marker")
        if not adj[markers[0]] or labels[adj[markers[0]][0]] is not None:
            raise ValueError("root marker must attach to an internal node")
    elif markers:
        raise ValueError("unrooted tree carries a root marker")
    # connectivity
    reach = {0}
    work = [0]
    while work:
        for w in adj[work.pop()]:
            if w not in reach:
                reach.add(w)
                work.append(w)
    if len(reach) != n:
        raise ValueError("tree is not connected")


# ---------------------------------------------------------------------------
# forest cutting and rearrangement surgery


def _orient(adj, start):
    """Parent array of the tree rooted at start; parent[start] = -1."""
    par = [-1] * len(adj)
    for node, parent in _walk(adj, start):
        par[node] = parent
    return par


def parents(tree):
    """Parent of each node of a rooted tree, oriented toward the root
    marker; the root marker's entry is -1."""
    if not tree.rooted:
        raise ValueError("parents() requires a rooted tree")
    return _orient(tree.neighbors, tree.rho_index())


def _side_nodes(adj, u, v):
    """Nodes reachable from u without crossing the edge (u, v)."""
    return {node for node, _ in _walk(adj, u, v)}


def _require_edge(tree, a, b, what):
    if a == b or not (0 <= a < len(tree.labels)) or b not in tree.neighbors[a]:
        raise MoveError(f"{what} ({a}, {b}) is not an edge of the tree")


def _unlink(adj, a, b):
    adj[a].remove(b)
    adj[b].remove(a)


def _link(adj, a, b):
    adj[a].append(b)
    adj[b].append(a)


def _subdivide(labels, adj, a, b):
    """Put a new unlabelled node on the edge (a, b); returns its index."""
    w = len(labels)
    labels.append(None)
    adj.append([])
    _unlink(adj, a, b)
    _link(adj, w, a)
    _link(adj, w, b)
    return w


def yield_forest(tree, cut_edges, keep_roots=()):
    """Cut the given edges out of the tree and return the resulting forest.

    In a rooted tree each cut component is automatically rooted at the node
    whose parent edge was cut (kept as a degree-2 COMPONENT root, or the leaf
    itself), and the marker-leaf component carries the ORIGINAL marker. In an
    unrooted tree, ``keep_roots`` lists cut-edge endpoints to retain as
    COMPONENT roots; every other unlabelled node of degree below three is
    suppressed. With no cut edges the forest is the whole tree.
    """
    labels = tree.labels
    n = len(labels)
    cuts = []
    seen_cuts = set()
    for a, b in cut_edges:
        _require_edge(tree, a, b, "cut edge")
        key = (a, b) if a < b else (b, a)
        if key in seen_cuts:
            raise MoveError(f"duplicate cut edge {key}")
        seen_cuts.add(key)
        cuts.append(key)

    protected = set()
    if tree.rooted:
        if keep_roots:
            raise MoveError("keep_roots applies to unrooted trees only")
        par = parents(tree)
        for a, b in cuts:
            protected.add(a if par[a] == b else b)
    else:
        for k in keep_roots:
            if not any(k == a or k == b for a, b in cuts):
                raise MoveError(f"keep_roots node {k} is not a cut-edge endpoint")
            protected.add(k)

    adj = [list(nbrs) for nbrs in tree.neighbors]
    for a, b in cuts:
        _unlink(adj, a, b)

    removed = [False] * n
    work = deque(
        v for v in range(n) if labels[v] is None and v not in protected and len(adj[v]) < 3
    )
    while work:
        v = work.popleft()
        if removed[v] or labels[v] is not None or v in protected:
            continue
        deg = len(adj[v])
        if deg == 2:
            _splice_degree2(labels, adj, v, removed)
        elif deg <= 1:
            for u in adj[v]:
                adj[u].remove(v)
                if labels[u] is None and u not in protected and len(adj[u]) < 3:
                    work.append(u)
            adj[v] = []
            removed[v] = True

    for v in protected:
        if labels[v] is None and len(adj[v]) < 2:
            raise MoveError("cut combination leaves a kept component root below degree two")

    components = []
    for start in range(n):
        if removed[start]:  # suppressed, or in a component already taken
            continue
        nodes = sorted(node for node, _ in _walk(adj, start))
        for v in nodes:
            removed[v] = True
        remap = {old: new for new, old in enumerate(nodes)}
        clabels = [labels[old] for old in nodes]
        cadj = [[remap[w] for w in adj[old]] for old in nodes]
        marker = None
        root = None
        roots_here = [remap[v] for v in protected if v in remap]
        has_rho = tree.rooted and any(lab == RHO for lab in clabels)
        if has_rho:
            if roots_here:
                raise MoveError("the root-marker component cannot also hold a kept root")
            marker = RootMarker.ORIGINAL
            root = clabels.index(RHO)
        elif roots_here:
            if len(roots_here) != 1:
                raise MoveError("keep_roots names two nodes of one component")
            marker = RootMarker.COMPONENT
            root = roots_here[0]
        components.append(Component(clabels, cadj, marker, root))

    forest = Forest(components)
    if forest.leaf_labels() != tree.leaf_labels():
        raise MoveError("the cut forest does not partition the tree's leaf set")
    return forest


def apply_spr(tree, prune, regraft):
    """One subtree-prune-regraft move; returns the resulting tree.

    ``prune = (u, v)`` cuts that edge and moves the u-side subtree, keeping u
    as its attachment point; in a rooted tree v must be the parent of u.
    ``regraft = (x, y)`` is the edge of the stationary side that gets
    subdivided to receive the subtree. Regrafting next to the original
    attachment recreates the input tree; that identity move is legal.
    """
    u, v = prune
    _require_edge(tree, u, v, "prune edge")
    x, y = regraft
    _require_edge(tree, x, y, "regraft edge")
    if {u, v} == {x, y}:
        raise MoveError("regraft edge equals the pruned edge")
    uside = _side_nodes(tree.neighbors, u, v)
    if tree.rooted and tree.rho_index() in uside:
        raise MoveError("prune edge must be (child, parent) in a rooted tree")
    if x in uside or y in uside:
        raise MoveError("regraft edge lies on the pruned side")

    labels = list(tree.labels)
    adj = [list(nbrs) for nbrs in tree.neighbors]
    _unlink(adj, u, v)
    _link(adj, _subdivide(labels, adj, x, y), u)
    removed = [False] * len(labels)
    _splice_degree2(labels, adj, v, removed)
    new_labels, new_adj = _compact(labels, adj, removed)
    return Tree(new_labels, new_adj, tree.rooted)


def apply_tbr(tree, bisect, reattach_u=None, reattach_v=None):
    """One tree-bisection-reconnection move on an unrooted tree.

    ``bisect = (u, v)`` is the edge removed. ``reattach_u``/``reattach_v``
    name the edge subdivided on each side to carry the reconnecting edge;
    pass None exactly when that side is a single leaf (there is nothing to
    subdivide). Returns the resulting tree.
    """
    if tree.rooted:
        raise MoveError("tree-bisection-reconnection applies to unrooted trees")
    u, v = bisect
    _require_edge(tree, u, v, "bisection edge")
    uside = _side_nodes(tree.neighbors, u, v)

    def check_side(reattach, side, name):
        if reattach is None:
            if len(side) > 1:
                raise MoveError(f"{name} reattachment edge required on a multi-node side")
            return
        a, b = reattach
        _require_edge(tree, a, b, f"{name} reattachment edge")
        if a not in side or b not in side:
            raise MoveError(f"{name} reattachment edge is not inside that side")

    vside = set(range(len(tree.labels))) - uside
    check_side(reattach_u, uside, "u-side")
    check_side(reattach_v, vside, "v-side")

    labels = list(tree.labels)
    adj = [list(nbrs) for nbrs in tree.neighbors]
    _unlink(adj, u, v)
    up = u if reattach_u is None else _subdivide(labels, adj, *reattach_u)
    vp = v if reattach_v is None else _subdivide(labels, adj, *reattach_v)
    _link(adj, up, vp)
    removed = [False] * len(labels)
    _splice_degree2(labels, adj, u, removed)
    _splice_degree2(labels, adj, v, removed)
    new_labels, new_adj = _compact(labels, adj, removed)
    return Tree(new_labels, new_adj, False)


# ---------------------------------------------------------------------------
# neighborhoods by exhaustive moves


MOVES = ("rspr", "uspr", "nni", "tbr")


def _oriented_prunes(tree):
    """Prune pairs (moving endpoint, fixed endpoint) for each edge."""
    if tree.rooted:
        par = parents(tree)
        return [(a, b) if par[a] == b else (b, a) for a, b in edges(tree)]
    prunes = []
    for a, b in edges(tree):
        prunes.append((a, b))
        prunes.append((b, a))
    return prunes


def _spr_moves(tree, nni):
    """(prune, regraft) pairs; an interchange's regraft edge touches a
    neighbour of the prune's fixed endpoint."""
    adj = tree.neighbors
    regrafts = edges(tree)
    for u, v in _oriented_prunes(tree):
        near = set(adj[v]) - {u}
        for x, y in regrafts:
            if not nni or x in near or y in near:
                yield (u, v), (x, y)


def _tbr_moves(tree):
    """(bisect, reattach_u, reattach_v) for every edge pair, one per side."""
    all_edges = edges(tree)
    for u, v in all_edges:
        side = _side_nodes(tree.neighbors, u, v)
        u_edges = [e for e in all_edges if e[0] in side and e[1] in side]
        v_edges = [e for e in all_edges if e[0] not in side and e[1] not in side]
        for ru in u_edges or [None]:
            for rv in v_edges or [None]:
                yield (u, v), ru, rv


def _collect(tree, apply, moves):
    """Canonical strings of apply(tree, *move) over moves, skipping refused
    moves, without the tree's own."""
    out = set()
    for move in moves:
        try:
            moved = apply(tree, *move)
        except MoveError:
            continue
        out.add(sdlnewick_tree(moved))
    out.discard(sdlnewick_tree(tree))
    return out


def enumerate_neighbors(tree, move):
    """Canonical strings of every tree one move away (never the tree itself).

    move is one of "rspr", "uspr", "nni", "tbr"; interchange neighborhoods
    are the prune-regraft moves whose regraft edge touches a neighbor of the
    fixed prune endpoint, which lands the pruned part across exactly one
    internal edge.
    """
    if move not in MOVES:
        raise ValueError(f"unknown move {move!r}")
    if move != "nni" and tree.rooted != (move == "rspr"):
        raise ModeError(
            f"{move} neighborhoods are defined on {'unrooted' if tree.rooted else 'rooted'} trees"
        )
    if move == "tbr":
        return _collect(tree, apply_tbr, _tbr_moves(tree))
    return _collect(tree, apply_spr, _spr_moves(tree, move == "nni"))


def nni_moves(tree):
    """Result trees of every aunt-edge nearest-neighbor interchange.

    Each edge whose parent edge has a sibling yields one move: the subtree
    below it is regrafted onto that sibling (aunt) edge. Rooted trees orient
    from the root marker; unrooted trees orient from the internal node next
    to the smallest leaf, whose trifurcation contributes two aunts per edge
    below it. The list may repeat isomorphic results; callers deduplicate.
    """
    labels, adj = tree.labels, tree.neighbors
    if tree.rooted:
        top = tree.rho_index()
    else:
        if len(labels) < 4:
            return []
        small = min(
            (i for i, lab in enumerate(labels) if lab is not None), key=labels.__getitem__
        )
        top = adj[small][0]
    par = _orient(adj, top)
    out = []
    for x in range(len(labels)):
        if x == top:
            continue
        p = par[x]
        g = par[p]
        if g < 0:
            continue
        gp = par[g]
        for sibling in adj[g]:
            if sibling != p and sibling != gp:
                out.append(apply_spr(tree, (x, p), (g, sibling)))
    return out


def reference_forest_keys(tree, move):
    """Forest keys by cutting each edge (a, b) of edges(tree), in order,
    out of a copy of the tree and encoding the whole forest.

    move is "rspr" (cut-off side rooted), "uspr" (two keys per edge: a's
    side rooted at a, then b's at b) or "tbr" (both cut endpoints
    suppressed).
    """
    if move not in ("rspr", "uspr", "tbr"):
        raise ValueError(f"unknown move {move!r}")
    if tree.rooted != (move == "rspr"):
        raise ModeError(f"{move} keys need {'an unrooted' if tree.rooted else 'a rooted'} tree")
    keys = []
    for a, b in edges(tree):
        if move == "uspr":
            for kept in (a, b):
                keys.append(sdlnewick_forest(yield_forest(tree, ((a, b),), keep_roots=(kept,))))
        else:
            keys.append(sdlnewick_forest(yield_forest(tree, ((a, b),))))
    return keys


def pairwise_graph(trees, move):
    """Adjacency graph by all-pairs comparison; returns (graph, canonicals).

    Vertices are distinct trees in first-appearance order, matching the
    container-driven builders vertex for vertex.
    """
    canon = []
    index = {}
    reps = []
    for tree in trees:
        c = sdlnewick_tree(tree)
        if c not in index:
            index[c] = len(reps)
            reps.append(tree)
            canon.append(c)
    graph = AdjacencyGraph()
    for i, tree in enumerate(reps):
        nbrs = enumerate_neighbors(tree, move)
        graph.add_vertex([j for j in range(i) if canon[j] in nbrs])
    return graph, canon


def _rooted_pair():
    return Tree([1, 2, None, RHO], [[2], [2], [0, 1, 3], [2]], True)


def _unrooted_triple():
    return Tree([1, 2, 3, None], [[3], [3], [3], [0, 1, 2]], False)


def _insert_leaf(tree, edge, label):
    u, v = edge
    labels = list(tree.labels) + [None, label]
    adj = [list(nbrs) for nbrs in tree.neighbors] + [[], []]
    w = len(labels) - 2
    leaf = len(labels) - 1
    adj[u][adj[u].index(v)] = w
    adj[v][adj[v].index(u)] = w
    adj[w] = [u, v, leaf]
    adj[leaf] = [w]
    return Tree(labels, adj, tree.rooted)


def _base(n, rooted):
    if rooted:
        if n < 2:
            raise ValueError("rooted generation needs at least 2 leaves")
        return _rooted_pair(), 2
    if n < 3:
        raise ValueError("unrooted generation needs at least 3 leaves")
    return _unrooted_triple(), 3


def enumerate_all_trees(n, *, rooted):
    """Every tree on leaf labels 1..n, distinct and exhaustive.

    Grown by inserting leaf k into every edge of every (k-1)-leaf tree; the
    result is checked against the doubled-factorial counting recurrence
    (factor 2k-3 rooted, 2k-5 unrooted) and for canonical distinctness.
    """
    base, k0 = _base(n, rooted)
    level = [base]
    for k in range(k0 + 1, n + 1):
        grown = []
        for tree in level:
            for edge in edges(tree):
                grown.append(_insert_leaf(tree, edge, k))
        expected = len(level) * ((2 * k - 3) if rooted else (2 * k - 5))
        if len(grown) != expected:
            raise TreescapeError(f"level {k} has {len(grown)} trees, expected {expected}")
        seen = set()
        for tree in grown:
            c = sdlnewick_tree(tree)
            if c in seen:
                raise TreescapeError(f"duplicate tree at level {k}")
            seen.add(c)
        level = grown
    return level


def random_tree(n, *, rooted, rng):
    """Uniform random tree shape by random edge insertion, with the leaf
    labels 1..n shuffled over the tips."""
    tree, k0 = _base(n, rooted)
    for k in range(k0 + 1, n + 1):
        slots = edges(tree)
        tree = _insert_leaf(tree, slots[rng.randrange(len(slots))], k)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels = [perm[lab - 1] if isinstance(lab, int) and lab > 0 else lab for lab in tree.labels]
    return Tree(labels, [list(nbrs) for nbrs in tree.neighbors], rooted)
