"""Brute-force reference implementations for cross-checking graph builds.

Everything here is deliberately naive: neighborhoods come from exhaustively
applying every candidate move and comparing canonical strings, and pairwise
graphs cost O(m^2) string lookups. nni_moves lists interchange results
directly, a cross-check on the shared-key count the interchange graph is
built from. reference_forest_keys cuts and re-encodes the whole tree for
every key, the construction the spliced keys of forestgen must match byte
for byte. None of the indexing machinery is used, so agreement between
this module and the container-driven builders is evidence for both.
"""

from .canonical import sdlnewick_forest, sdlnewick_tree
from .errors import MoveError, ModeError, TreescapeError
from .graph import AdjacencyGraph
from .tree import RHO, Tree, _orient, apply_spr, apply_tbr, yield_forest

MOVES = ("rspr", "uspr", "nni", "tbr")


def _oriented_prunes(tree):
    """Prune pairs (moving endpoint, fixed endpoint) for each edge."""
    if tree.rooted:
        par = tree.parents()
        return [(a, b) if par[a] == b else (b, a) for a, b in tree.edges()]
    prunes = []
    for a, b in tree.edges():
        prunes.append((a, b))
        prunes.append((b, a))
    return prunes


def _spr_like(tree, prunes, regraft_ok):
    self_c = sdlnewick_tree(tree)
    edges = tree.edges()
    out = set()
    for prune in prunes:
        for regraft in edges:
            if not regraft_ok(prune, regraft):
                continue
            try:
                moved = apply_spr(tree, prune, regraft)
            except MoveError:
                continue
            c = sdlnewick_tree(moved)
            if c != self_c:
                out.add(c)
    return out


def _half(adj, u, v):
    """Nodes on u's side of edge (u, v)."""
    side = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != v and y not in side:
                side.add(y)
                stack.append(y)
    return side


def _tbr_neighbors(tree):
    self_c = sdlnewick_tree(tree)
    adj = tree.neighbors
    edges = tree.edges()
    out = set()
    for bisect in edges:
        u, v = bisect
        u_side = _half(adj, u, v)
        u_edges = [e for e in edges if e[0] in u_side and e[1] in u_side]
        v_edges = [e for e in edges if e[0] not in u_side and e[1] not in u_side]
        for ru in u_edges or [None]:
            for rv in v_edges or [None]:
                try:
                    moved = apply_tbr(tree, bisect, ru, rv)
                except MoveError:
                    continue
                c = sdlnewick_tree(moved)
                if c != self_c:
                    out.add(c)
    return out


def enumerate_neighbors(tree, move):
    """Canonical strings of every tree one move away (never the tree itself).

    move is one of "rspr", "uspr", "nni", "tbr"; interchange neighborhoods
    are the prune-regraft moves whose regraft edge touches a neighbor of the
    fixed prune endpoint, which lands the pruned part across exactly one
    internal edge.
    """
    if move == "rspr":
        if not tree.rooted:
            raise ModeError("rspr neighborhoods are defined on rooted trees")
        return _spr_like(tree, _oriented_prunes(tree), lambda p, e: True)
    if move == "uspr":
        if tree.rooted:
            raise ModeError("uspr neighborhoods are defined on unrooted trees")
        return _spr_like(tree, _oriented_prunes(tree), lambda p, e: True)
    if move == "nni":
        adj = tree.neighbors

        def regraft_ok(prune, regraft):
            u, v = prune
            allowed = set(adj[v]) - {u}
            return regraft[0] in allowed or regraft[1] in allowed

        return _spr_like(tree, _oriented_prunes(tree), regraft_ok)
    if move == "tbr":
        if tree.rooted:
            raise ModeError("tbr neighborhoods are defined on unrooted trees")
        return _tbr_neighbors(tree)
    raise ValueError(f"unknown move {move!r}")


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
    parents = _orient(adj, top)
    out = []
    for x in range(len(labels)):
        if x == top:
            continue
        p = parents[x]
        g = parents[p]
        if g < 0:
            continue
        gp = parents[g]
        for sibling in adj[g]:
            if sibling != p and sibling != gp:
                out.append(apply_spr(tree, (x, p), (g, sibling)))
    return out


def reference_forest_keys(tree, move):
    """Forest keys by cutting each edge out of a copy of the tree and
    encoding the whole forest, in the order of rspr/uspr/tbr_forest_keys.

    move is "rspr" (cut-off side rooted), "uspr" (either endpoint side
    rooted, two keys per edge) or "tbr" (both cut endpoints suppressed).
    """
    if move not in ("rspr", "uspr", "tbr"):
        raise ValueError(f"unknown move {move!r}")
    if tree.rooted != (move == "rspr"):
        raise ModeError(f"{move} keys need {'an unrooted' if tree.rooted else 'a rooted'} tree")
    keys = []
    for a, b in tree.edges():
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
    graph = AdjacencyGraph(len(reps))
    for i, tree in enumerate(reps):
        nbrs = enumerate_neighbors(tree, move)
        for j in range(i):
            if canon[j] in nbrs:
                graph.append_edge(i, j)
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
            for edge in tree.edges():
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
        edges = tree.edges()
        tree = _insert_leaf(tree, edges[rng.randrange(len(edges))], k)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels = [perm[lab - 1] if isinstance(lab, int) and lab > 0 else lab for lab in tree.labels]
    return Tree(labels, [list(nbrs) for nbrs in tree.neighbors], rooted)
