"""The reference: the canonical encoding, its decoder, and brute-force
implementations for cross-checking graph builds.

The encoding is a smallest-descendant-label Newick: children are ordered
by the smallest leaf label in their subtree, unrooted components are
rooted at the internal node adjacent to their smallest leaf, and rooted
components order the root marker (rendered ``r``) before every integer
label. Pruned components keep their attachment node as an anonymous root
and carry a ``p`` suffix. Components are ordered by smallest contained
leaf label with the ``r`` component first, separated by single spaces,
with one trailing ``;``.

Grammar of a canonical forest string::

    forest       := component (" " component)* ";"
    component    := rootedcomp | prunedcomp | unrootedcomp
    rootedcomp   := "(" "r" ("," subtree)* ")"
    prunedcomp   := "(" subtree ("," subtree)? ")" "p"
    unrootedcomp := label | "(" subtree "," subtree ("," subtree)? ")"
    subtree      := label | "(" subtree "," subtree ")"
    label        := [1-9][0-9]*

Two trees (or forests) are isomorphic exactly when their encodings are
byte-identical, which is what makes these strings usable as index keys.
sdlnewick_tree encodes a tree with the component renderer here, and
decode_tree reads a canonical tree string with tree.parse_newick and
checks it against that encoder.

Everything else is deliberately naive: neighborhoods come from
exhaustively applying every candidate move and comparing canonical
strings, and pairwise graphs cost O(m^2) string lookups. The tree walks
only reference code and tests need live here too: edges lists a tree's
edges, to_newick writes plain Newick through the encoder's emitter and
validate_tree checks a tree's structural invariants. So does the move
surgery: apply_spr and apply_tbr rebuild the tree after one move.
Interchange neighborhoods apply only the aunt-edge moves, a cross-check
on the contracted-edge keys the interchange graph indexes (forestgen.nni_keys).
reference_forest_keys cuts one edge out of a copy of the tree for every
key and renders its two sides with the component renderer, the
construction the spliced keys of forestgen must match byte for byte.
Of treescape this module imports only tree and errors, so none of the
indexing machinery or the graph class is used, and agreement between
this module and the container-driven builders is evidence for both.
Builds never import this module.
"""

from bisect import bisect_left
from itertools import product

from .errors import CanonicalError, ModeError, MoveError, NewickError, TreescapeError
from .tree import MAX_LABEL, RHO, Tree, parse_newick

# ---------------------------------------------------------------------------
# canonical encoding and decoding


def _walk(adj, start, parent=-1):
    """(node, parent) pairs of the tree at start, entered from parent, in
    preorder; the walk never steps back into a node's parent."""
    order = []
    stack = [(start, parent)]
    while stack:
        item = stack.pop()
        order.append(item)
        node, par = item
        for w in adj[node]:
            if w != par:
                stack.append((w, node))
    return order


def _min_labels(labels, adj, start):
    """Smallest label in the subtree at each node, oriented away from start."""
    mins = [float("inf")] * len(labels)
    for node, parent in reversed(_walk(adj, start)):
        lab = labels[node]
        m = mins[node]
        if lab is not None and lab < m:
            m = lab
            mins[node] = m
        if node != start and m < mins[parent]:
            mins[parent] = m
    return mins


def _emit(labels, adj, start, parent, rank, out):
    """Append the subtree tokens for start (entered from parent) to out,
    each node's two children in the order of their rank."""
    stack = [(start, parent)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, par = item
        lab = labels[node]
        if lab is not None:
            out.append("r" if lab == RHO else str(lab))
            continue
        kids = [w for w in adj[node] if w != par]
        if len(kids) != 2:
            raise CanonicalError(
                f"subtree node below the top level has {len(kids)} children, not two"
            )
        kids.sort(key=rank.__getitem__)
        out.append("(")
        stack.append(")")
        stack.append((kids[1], node))
        stack.append(",")
        stack.append((kids[0], node))


def _render(labels, adj, start, skip, rank):
    """The subtrees around start, but for skip's, in the order of their
    rank, comma-separated in parentheses. A labelled start is one of them:
    it is a leaf whose only neighbour, if any, ties with it and comes first.
    """
    kids = [w for w in adj[start] if w != skip]
    if labels[start] is not None:
        kids.append(start)
    kids.sort(key=rank.__getitem__)
    out = ["("]
    for k, kid in enumerate(kids):
        if k:
            out.append(",")
        _emit(labels, adj, kid, start, rank, out)
    out.append(")")
    return "".join(out)


def _component_part(labels, adj, root=None, pruned=False):
    """Render one component; returns (ordering_key, text).

    A pruned component renders from root, the node that attached it to the
    rest of the tree, with a ``p`` suffix. Any other renders from the
    neighbour of its top leaf: root, the root marker, if given, or else the
    smallest leaf. A lone leaf renders from itself, and bare when unrooted.
    """
    if root is None:
        if len(labels) == 1:
            return labels[0], str(labels[0])
        root = min((i for i, lab in enumerate(labels) if lab is not None), key=labels.__getitem__)
    if not pruned and adj[root]:
        root = adj[root][0]
    mins = _min_labels(labels, adj, root)
    text = _render(labels, adj, root, -1, mins)
    return mins[root], (text + "p" if pruned else text)


def sdlnewick_tree(tree):
    """Canonical byte string of a tree. Inverse of decode_tree."""
    root = tree.rho_index() if tree.rooted else None
    _, text = _component_part(tree.labels, tree.neighbors, root)
    return (text + ";").encode("ascii")


def decode_tree(data):
    """Parse a canonical tree string (str, bytes or bytearray) back into a Tree.

    Rootedness is inferred from a leading ``(r,``. The string is read with
    parse_newick after dropping that ``r,``, and must equal the canonical
    string of the tree it yields byte for byte; parse_newick refuses a
    single leaf, so a one-leaf string such as ``1;`` is read here. Raises
    CanonicalError otherwise, with parse_newick's message and a column into
    data.
    """
    if not data.isascii():
        raise CanonicalError("canonical strings are ASCII")
    text = data if isinstance(data, str) else data.decode("ascii")
    label = text[:-1]
    if label.isdigit() and text.endswith(";"):
        if label[0] == "0" or len(label) > 20 or int(label) > MAX_LABEL:
            raise CanonicalError(f"bad label {label}: zero, leading zero or over 2**64-1")
        return Tree([int(label)], [[]], False)
    rooted = text.startswith("(r,")
    try:
        tree = parse_newick("(" + text[3:] if rooted else text, rooted=rooted)
    except NewickError as exc:
        if rooted and exc.pos is not None:
            exc = NewickError(exc.reason, exc.pos + 2)
        raise CanonicalError(str(exc)) from None
    if sdlnewick_tree(tree).decode("ascii") != text:
        raise CanonicalError(f"{text!r} is not in canonical form")
    return tree


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
        start, skip = tree.neighbors[tree.rho_index()][0], tree.rho_index()
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
        if type(lab) is not int or not RHO <= lab <= MAX_LABEL:
            raise ValueError(f"label {lab!r} is neither the root marker nor in 1..2**64-1")
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
    # connected with n - 1 edges: a tree
    reach = {0}
    work = [0]
    while work:
        for w in adj[work.pop()]:
            if w not in reach:
                reach.add(w)
                work.append(w)
    if len(reach) != n or sum(map(len, adj)) != 2 * (n - 1):
        raise ValueError(f"not a tree: {len(reach)} of {n} nodes reached, or not {n - 1} edges")


# ---------------------------------------------------------------------------
# edge cutting and rearrangement surgery


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


def _splice_degree2(labels, adj, v):
    """Suppress v if it is unlabelled with exactly two neighbors; a
    suppressed node keeps no neighbors."""
    if labels[v] is None and len(adj[v]) == 2:
        a, b = adj[v]
        adj[a][adj[a].index(v)] = b
        adj[b][adj[b].index(v)] = a
        adj[v] = []


def _renumber(labels, adj, nodes):
    """(labels, adjacency) of the nodes listed, renumbered in list order;
    no listed node may neighbour one left out."""
    index = {v: i for i, v in enumerate(nodes)}
    return [labels[v] for v in nodes], [[index[w] for w in adj[v]] for v in nodes]


def _cut_key(tree, a, b, kept):
    """Canonical key of the two-component forest left by cutting the edge
    (a, b) out of a copy of the tree. kept, a or b or None, stays as the
    pruned root of its side; every other unlabelled cut end is suppressed.
    The side that holds the root marker of a rooted tree is rooted there.
    """
    labels = tree.labels
    adj = [list(nbrs) for nbrs in tree.neighbors]
    _unlink(adj, a, b)
    parts = []
    for end in (a, b):
        start = end
        if end != kept and labels[end] is None:
            start = adj[end][0]
            _splice_degree2(labels, adj, end)
        # the side's nodes in walk order, so that kept is its node 0
        side_labels, side_adj = _renumber(labels, adj, [node for node, _ in _walk(adj, start)])
        if end == kept:
            parts.append(_component_part(side_labels, side_adj, 0, pruned=True))
        else:
            root = side_labels.index(RHO) if RHO in side_labels else None
            parts.append(_component_part(side_labels, side_adj, root))
    parts.sort()
    return (" ".join(text for _, text in parts) + ";").encode("ascii")


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
    _splice_degree2(labels, adj, v)
    # every node but a suppressed one has a neighbour
    return Tree(*_renumber(labels, adj, [i for i, nbrs in enumerate(adj) if nbrs]), tree.rooted)


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
    _splice_degree2(labels, adj, u)
    _splice_degree2(labels, adj, v)
    return Tree(*_renumber(labels, adj, [i for i, nbrs in enumerate(adj) if nbrs]), False)


# ---------------------------------------------------------------------------
# neighborhoods by exhaustive moves


MOVES = ("rspr", "uspr", "nni", "tbr")


def _oriented_prunes(tree):
    """Prune pairs (moving end, fixed end) of each edge (a, b) of
    edges(tree), in order: the child end moves in a rooted tree, and in an
    unrooted one each end in turn, (a, b) and then (b, a)."""
    if tree.rooted:
        par = parents(tree)
        return [(a, b) if par[a] == b else (b, a) for a, b in edges(tree)]
    return [prune for a, b in edges(tree) for prune in ((a, b), (b, a))]


def _spr_moves(tree):
    """(prune, regraft) pairs: every oriented prune with every edge."""
    return product(_oriented_prunes(tree), edges(tree))


def _aunt_moves(tree):
    """(prune, regraft) pairs of the aunt-edge interchanges.

    The tree is oriented from a leaf: the root marker, whose label 0 is the
    smallest, or else the smallest leaf. Each edge whose parent edge has a
    sibling yields one move: the subtree below it is regrafted onto that
    sibling (aunt) edge, two moves for each internal edge.
    """
    labels, adj = tree.labels, tree.neighbors
    top = min((i for i, lab in enumerate(labels) if lab is not None), key=labels.__getitem__)
    par = _orient(adj, top)
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
                yield (x, p), (g, sibling)


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

    move is one of "rspr", "uspr", "nni", "tbr". An interchange moves the
    subtree below an edge onto an aunt edge, a sibling of its parent edge,
    which swaps two subtrees across one internal edge.
    """
    if move not in MOVES:
        raise ValueError(f"unknown move {move!r}")
    if move != "nni" and tree.rooted != (move == "rspr"):
        raise ModeError(
            f"{move} neighborhoods are defined on {'unrooted' if tree.rooted else 'rooted'} trees"
        )
    if move == "tbr":
        return _collect(tree, apply_tbr, _tbr_moves(tree))
    return _collect(tree, apply_spr, (_aunt_moves if move == "nni" else _spr_moves)(tree))


def reference_forest_keys(tree, move):
    """Forest keys by cutting an edge out of a copy of the tree and encoding
    both sides, one key per cut.

    move is "rspr" or "uspr", one key per prune (u, v) of _oriented_prunes
    with u's side pruned at u, or "tbr", one key per edge of edges(tree)
    with both cut ends suppressed.
    """
    if move not in ("rspr", "uspr", "tbr"):
        raise ValueError(f"unknown move {move!r}")
    if tree.rooted != (move == "rspr"):
        raise ModeError(f"{move} keys need {'an unrooted' if tree.rooted else 'a rooted'} tree")
    if move == "tbr":
        return [_cut_key(tree, a, b, None) for a, b in edges(tree)]
    return [_cut_key(tree, u, v, u) for u, v in _oriented_prunes(tree)]


def pairwise_graph(trees, move):
    """Adjacency graph by all-pairs comparison; returns (edges, canonicals).

    Vertices are distinct trees in first-appearance order, matching the
    container-driven builders vertex for vertex. edges lists each pair
    (j, i) with j < i in ascending order, as AdjacencyGraph.edges does.
    """
    reps = {}
    for tree in trees:
        reps.setdefault(sdlnewick_tree(tree), tree)
    canon = list(reps)
    pairs = []
    for i, tree in enumerate(reps.values()):
        nbrs = enumerate_neighbors(tree, move)
        pairs += ((j, i) for j in range(i) if canon[j] in nbrs)
    return sorted(pairs), canon


def _grow(labels, adj, u, v, label):
    """In place, put a new node w on edge (u, v), in the slots where u and v
    listed each other, and hang a new leaf labelled label from w; returns w."""
    w = len(labels)
    labels += (None, label)
    adj[u][adj[u].index(v)] = w
    adj[v][adj[v].index(u)] = w
    adj += ([u, v, w + 1], [w])
    return w


def _insert_leaf(tree, edge, label):
    labels, adj = list(tree.labels), [list(nbrs) for nbrs in tree.neighbors]
    _grow(labels, adj, *edge, label)
    return Tree(labels, adj, tree.rooted)


def _base(n, rooted):
    if rooted:
        if n < 2:
            raise ValueError("rooted generation needs at least 2 leaves")
        return Tree([1, 2, None, RHO], [[2], [2], [0, 1, 3], [2]], True), 2
    if n < 3:
        raise ValueError("unrooted generation needs at least 3 leaves")
    return Tree([1, 2, 3, None], [[3], [3], [3], [0, 1, 2]], False), 3


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
    labels, adj, slots = tree.labels, tree.neighbors, edges(tree)
    for k in range(k0 + 1, n + 1):
        i = rng.randrange(len(slots))
        u, v = slots[i]
        w = _grow(labels, adj, u, v, k)
        # keep slots in edges() order: (v, w) goes where w sits among v's larger neighbours
        slots[i] = (u, w)
        j = bisect_left(slots, (v,)) + sum(x > v for x in adj[v][: adj[v].index(w)])
        slots.insert(j, (v, w))
        slots.append((w, w + 1))
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels = [perm[lab - 1] if isinstance(lab, int) and lab > 0 else lab for lab in labels]
    return Tree(labels, adj, rooted)
