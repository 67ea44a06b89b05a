"""Core tree and forest model: Newick parsing, edge cutting, SPR/TBR surgery.

Trees are stored as parallel arrays indexed by node id: ``labels[i]`` is a
positive integer for a leaf, ``RHO`` (0) for the root-marker leaf of a rooted
tree, and ``None`` for an internal node; ``neighbors[i]`` is the adjacency
list. A rooted tree is represented as an unrooted binary tree with one extra
marker leaf attached to the root node, which lets every rearrangement below
be a plain neighbor-list edit. Instances are immutable by convention: moves
and forest yields return new objects, so trees can be shared freely.

Leaf labels are distinct integers in ``1 .. 2**64 - 1``. Label 0 is reserved
for the root marker and is never accepted from input.
"""

import enum
from collections import deque

from .errors import MoveError, NewickError

RHO = 0
MAX_LABEL = 2**64 - 1

_INF = float("inf")


class RootMarker(enum.Enum):
    """How a forest component is rooted.

    ORIGINAL marks the component holding the input tree's root-marker leaf;
    COMPONENT marks a component kept rooted at the node that attached it to
    the rest of the tree before cutting. Unrooted components carry no marker.
    """

    ORIGINAL = "original"
    COMPONENT = "component"


class Tree:
    """Binary phylogenetic tree over integer-labelled leaves.

    Do not mutate ``labels`` or ``neighbors`` after construction. Rooted
    trees contain exactly one node labelled ``RHO``; its single neighbor is
    the root node.
    """

    __slots__ = ("labels", "neighbors", "rooted", "_par")

    def __init__(self, labels, neighbors, rooted):
        self.labels = labels
        self.neighbors = neighbors
        self.rooted = rooted
        self._par = None

    def __len__(self):
        return len(self.labels)

    def __repr__(self):
        kind = "rooted" if self.rooted else "unrooted"
        return f"<Tree {kind} n={self.n_leaves}>"

    @property
    def n_leaves(self):
        """Number of integer-labelled leaves (the root marker not counted)."""
        return sum(1 for lab in self.labels if lab is not None and lab != RHO)

    def leaf_labels(self):
        return {lab for lab in self.labels if lab is not None and lab != RHO}

    def edges(self):
        """All edges as (u, v) index pairs with u < v, in node-index order."""
        out = []
        for u, nbrs in enumerate(self.neighbors):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out

    def rho_index(self):
        if not self.rooted:
            raise ValueError("unrooted tree has no root marker")
        return self.labels.index(RHO)

    def root_index(self):
        """The root node: the unique neighbor of the root-marker leaf."""
        return self.neighbors[self.rho_index()][0]

    def parents(self):
        """Parent of each node, oriented toward the root marker (rooted only).

        ``parents()[rho_index()]`` is -1. The result is cached; treat it as
        read-only.
        """
        if not self.rooted:
            raise ValueError("parents() requires a rooted tree")
        if self._par is None:
            self._par = _orient(self.neighbors, self.rho_index())
        return self._par

    def to_newick(self):
        """Standard Newick text (no root marker), invertible by parse_newick.

        Rooted trees serialize from the root node with two top-level
        children; unrooted trees serialize from an internal node with three.
        Child order follows adjacency order, so the output is deterministic
        but not canonical.
        """
        labels, adj = self.labels, self.neighbors
        if self.rooted:
            start, skip = self.root_index(), self.rho_index()
        else:
            if len(labels) == 2:  # two-leaf tree: no internal node to anchor at
                return f"({labels[0]},{labels[1]});"
            start = next(i for i, lab in enumerate(labels) if lab is None)
            skip = -1
        out = []
        stack = [(start, skip)]
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            node, parent = item
            lab = labels[node]
            if lab is not None:
                out.append(str(lab))
                continue
            kids = [w for w in adj[node] if w != parent]
            out.append("(")
            stack.append(")")
            for k in range(len(kids) - 1, 0, -1):
                stack.append((kids[k], node))
                stack.append(",")
            stack.append((kids[0], node))
        out.append(";")
        return "".join(out)

    def validate(self):
        """Check structural invariants; raises ValueError on violation."""
        labels, adj = self.labels, self.neighbors
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
        if self.rooted:
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


class Component:
    """One tree of a forest, in the same array layout as Tree.

    ``marker`` is a RootMarker or None; ``root`` is the marked node index
    (the RHO leaf for ORIGINAL, the kept attachment node for COMPONENT).
    """

    __slots__ = ("labels", "neighbors", "marker", "root")

    def __init__(self, labels, neighbors, marker=None, root=None):
        self.labels = labels
        self.neighbors = neighbors
        self.marker = marker
        self.root = root

    def __repr__(self):
        tag = self.marker.value if self.marker else "unrooted"
        return f"<Component {tag} labels={sorted(self.leaf_labels())}>"

    def leaf_labels(self):
        return {lab for lab in self.labels if lab is not None and lab != RHO}


class Forest:
    """An ordered collection of components produced by cutting a tree."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = list(components)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def leaf_labels(self):
        out = set()
        for comp in self.components:
            out |= comp.leaf_labels()
        return out

    def validate(self):
        originals = 0
        seen = set()
        for comp in self.components:
            if comp.marker is RootMarker.ORIGINAL:
                originals += 1
            labs = comp.leaf_labels()
            if labs & seen:
                raise ValueError("components share leaf labels")
            seen |= labs
            if not labs and len(comp.labels) > 1:
                raise ValueError("unlabelled multi-node component")
        if originals > 1:
            raise ValueError("more than one original-root component")


# ---------------------------------------------------------------------------
# shared low-level helpers


def _orient(adj, start):
    """Parent array of the tree rooted at start; parent[start] = -1."""
    par = [-2] * len(adj)
    par[start] = -1
    work = deque([start])
    while work:
        u = work.popleft()
        for w in adj[u]:
            if par[w] == -2:
                par[w] = u
                work.append(w)
    return par


def _side_nodes(adj, u, v):
    """Nodes reachable from u without crossing the edge (u, v)."""
    side = {u}
    work = [u]
    while work:
        x = work.pop()
        for w in adj[x]:
            if w not in side and not (x == u and w == v):
                side.add(w)
                work.append(w)
    return side


def _require_edge(tree, a, b, what):
    if a == b or not (0 <= a < len(tree.labels)) or b not in tree.neighbors[a]:
        raise MoveError(f"{what} ({a}, {b}) is not an edge of the tree")


def _unlink(adj, a, b):
    adj[a].remove(b)
    adj[b].remove(a)


def _link(adj, a, b):
    adj[a].append(b)
    adj[b].append(a)


def _splice_degree2(labels, adj, v, removed):
    """Suppress v if it is unlabelled with exactly two neighbors."""
    if labels[v] is None and len(adj[v]) == 2:
        a, b = adj[v]
        adj[a][adj[a].index(v)] = b
        adj[b][adj[b].index(v)] = a
        adj[v] = []
        removed[v] = True


def _compact(labels, adj, removed):
    """Drop removed nodes and renumber the rest, preserving index order."""
    remap = {}
    new_labels = []
    for i, lab in enumerate(labels):
        if not removed[i]:
            remap[i] = len(new_labels)
            new_labels.append(lab)
    new_adj = [[remap[w] for w in adj[i]] for i in range(len(labels)) if not removed[i]]
    return new_labels, new_adj


# ---------------------------------------------------------------------------
# Newick parsing

_LABEL_DELIMS = set("(),;:") | set(" \t\r\n")
_FLOAT_CHARS = set("0123456789.+-eE")


def _read_label(s, i):
    j = i
    n = len(s)
    while j < n and s[j].isdigit():
        j += 1
    run = s[i:j]
    if run == "0":
        raise NewickError("label 0 is reserved", pos=i)
    if run[0] == "0":
        raise NewickError("labels must not have leading zeros", pos=i)
    value = int(run)
    if value > MAX_LABEL:
        raise NewickError(f"label {run} exceeds the 64-bit limit", pos=i)
    return value, j


def _skip_ws(s, i):
    n = len(s)
    while i < n and s[i] in " \t\r\n":
        i += 1
    return i


def _skip_suffix(s, i, after_close, lenient):
    """Consume an internal-node label and/or a :length annotation."""
    n = len(s)
    if after_close and i < n and s[i] not in _LABEL_DELIMS:
        if not lenient:
            raise NewickError("internal node labels are not supported (use lenient mode)", pos=i)
        while i < n and s[i] not in _LABEL_DELIMS:
            i += 1
    if i < n and s[i] == ":":
        if not lenient:
            raise NewickError("branch lengths are not supported (use lenient mode)", pos=i)
        i += 1
        j = i
        while j < n and s[j] in _FLOAT_CHARS:
            j += 1
        if j == i:
            raise NewickError("expected a branch length after ':'", pos=i)
        i = j
    return i


def parse_newick(text, *, rooted, lenient=False):
    """Parse one standard Newick tree with positive-integer leaf labels.

    Rooted mode expects the usual degree-2 Newick root and attaches the root
    marker to it. Unrooted mode expects a trifurcating root; a degree-2 root
    is tolerated and suppressed. Multifurcations beyond that are rejected.
    In strict mode (default) branch lengths and internal-node labels are
    errors; lenient mode strips them. Raises NewickError with a column on
    any malformed input.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise NewickError(f"non-ASCII input: {exc}") from None
    s = text
    labels = []
    adj = []
    nkids = []
    stack = []
    root = None
    i = _skip_ws(s, 0)
    expect_item = True
    done = False

    def attach(idx):
        nonlocal root
        if stack:
            top = stack[-1]
            _link(adj, top, idx)
            nkids[top] += 1
        elif root is None:
            root = idx
        else:
            raise NewickError("multiple top-level subtrees", pos=i)

    while not done:
        i = _skip_ws(s, i)
        if i >= len(s):
            raise NewickError("unexpected end of input", pos=len(s))
        c = s[i]
        if expect_item:
            if c == "(":
                idx = len(labels)
                labels.append(None)
                adj.append([])
                nkids.append(0)
                attach(idx)
                stack.append(idx)
                i += 1
            elif c.isdigit():
                lab, j = _read_label(s, i)
                idx = len(labels)
                labels.append(lab)
                adj.append([])
                nkids.append(0)
                attach(idx)
                i = _skip_suffix(s, j, False, lenient)
                expect_item = False
            else:
                raise NewickError(f"expected '(' or a leaf label, found {c!r}", pos=i)
        else:
            if c == ",":
                if not stack:
                    raise NewickError("',' outside parentheses", pos=i)
                i += 1
                expect_item = True
            elif c == ")":
                if not stack:
                    raise NewickError("unbalanced ')'", pos=i)
                node = stack.pop()
                if nkids[node] < 2:
                    raise NewickError("internal nodes need at least two children", pos=i)
                i = _skip_suffix(s, i + 1, True, lenient)
            elif c == ";":
                if stack:
                    raise NewickError("unbalanced '(' before ';'", pos=i)
                i = _skip_ws(s, i + 1)
                if i != len(s):
                    raise NewickError("trailing characters after ';'", pos=i)
                done = True
            else:
                raise NewickError(f"unexpected character {c!r}", pos=i)

    if root is None:
        raise NewickError("empty input")
    if labels[root] is not None:
        raise NewickError("a single leaf is not a valid tree")

    seen = set()
    for lab in labels:
        if lab is not None:
            if lab in seen:
                raise NewickError(f"duplicate leaf label {lab}")
            seen.add(lab)

    for idx in range(len(labels)):
        if labels[idx] is None and idx != root and nkids[idx] != 2:
            raise NewickError(f"non-binary internal node with {nkids[idx]} children")

    removed = [False] * len(labels)
    if rooted:
        if nkids[root] != 2:
            raise NewickError(
                f"rooted input must have a bifurcating root, found {nkids[root]} children"
            )
        rho = len(labels)
        labels.append(RHO)
        adj.append([])
        _link(adj, rho, root)
        removed.append(False)
    else:
        if nkids[root] == 2:
            _splice_degree2(labels, adj, root, removed)
        elif nkids[root] != 3:
            raise NewickError(
                f"unrooted input must have a trifurcating root, found {nkids[root]} children"
            )
    new_labels, new_adj = _compact(labels, adj, removed)
    return Tree(new_labels, new_adj, rooted)


# ---------------------------------------------------------------------------
# forest yield


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
        par = tree.parents()
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
    assigned = [False] * n
    for start in range(n):
        if removed[start] or assigned[start]:
            continue
        nodes = [start]
        assigned[start] = True
        work2 = [start]
        while work2:
            for w in adj[work2.pop()]:
                if not assigned[w]:
                    assigned[w] = True
                    nodes.append(w)
                    work2.append(w)
        nodes.sort()
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


# ---------------------------------------------------------------------------
# rearrangement surgery


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
    if tree.rooted and tree.parents()[u] != v:
        raise MoveError("prune edge must be (child, parent) in a rooted tree")
    uside = _side_nodes(tree.neighbors, u, v)
    if x in uside or y in uside:
        raise MoveError("regraft edge lies on the pruned side")

    labels = list(tree.labels)
    adj = [list(nbrs) for nbrs in tree.neighbors]
    _unlink(adj, u, v)
    w = len(labels)
    labels.append(None)
    adj.append([])
    _unlink(adj, x, y)
    _link(adj, w, x)
    _link(adj, w, y)
    _link(adj, w, u)
    removed = [False] * len(labels)
    _splice_degree2(labels, adj, v, removed)
    new_labels, new_adj = _compact(labels, adj, removed)
    out = Tree(new_labels, new_adj, tree.rooted)
    return out


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

    def attach_point(reattach, endpoint):
        if reattach is None:
            return endpoint
        a, b = reattach
        w = len(labels)
        labels.append(None)
        adj.append([])
        _unlink(adj, a, b)
        _link(adj, w, a)
        _link(adj, w, b)
        return w

    up = attach_point(reattach_u, u)
    vp = attach_point(reattach_v, v)
    _link(adj, up, vp)
    removed = [False] * len(labels)
    _splice_degree2(labels, adj, u, removed)
    _splice_degree2(labels, adj, v, removed)
    new_labels, new_adj = _compact(labels, adj, removed)
    return Tree(new_labels, new_adj, False)
