"""Reference canonical encoding for trees and forests, and the tree decoder.

The format is a smallest-descendant-label Newick: children are ordered by
the smallest leaf label in their subtree, unrooted components are rooted at
the internal node adjacent to their smallest leaf, and rooted components
order the root marker (rendered ``r``) before every integer label. Pruned
components keep their attachment node as an anonymous root and carry a ``p``
suffix. Components are ordered by smallest contained leaf label with the
``r`` component first, separated by single spaces, with one trailing ``;``.

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

This module is the reference for that format: the forest model
(``Component``, ``Forest``, ``RootMarker``) and a whole-forest encoder.
``decode_tree`` reads a canonical tree string with ``tree.parse_newick``
and checks it against the encoder here. Builds do not import this module.
They read every key and tree string off ``forestgen.Oriented`` and read
snapshots with ``tree.parse_newick``; the tests compare both against the
functions here.
"""

import enum

from .errors import CanonicalError, NewickError
from .tree import MAX_LABEL, RHO, Tree, parse_newick

_BIG = float("inf")


class RootMarker(enum.Enum):
    """How a forest component is rooted.

    ORIGINAL marks the component holding the input tree's root-marker leaf;
    COMPONENT marks a component kept rooted at the node that attached it to
    the rest of the tree before cutting. Unrooted components carry no marker.
    """

    ORIGINAL = "original"
    COMPONENT = "component"


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

    def leaf_labels(self):
        out = set()
        for comp in self.components:
            out |= comp.leaf_labels()
        return out


def _min_labels(labels, adj, start, start_parent):
    """Smallest label in the subtree at each node, oriented away from start_parent."""
    order = []
    stack = [(start, start_parent)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for w in adj[node]:
            if w != parent:
                stack.append((w, node))
    mins = [_BIG] * len(labels)
    for node, parent in reversed(order):
        lab = labels[node]
        m = mins[node]
        if lab is not None and lab < m:
            m = lab
            mins[node] = m
        if node != start and m < mins[parent]:
            mins[parent] = m
    return mins


def _emit(labels, adj, start, parent, mins, out):
    """Append the subtree tokens for start (entered from parent) to out."""
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
        kids.sort(key=mins.__getitem__)
        out.append("(")
        stack.append(")")
        stack.append((kids[1], node))
        stack.append(",")
        stack.append((kids[0], node))


def _component_part(labels, adj, marker, root):
    """Render one component; returns (ordering_key, text)."""
    if marker is RootMarker.ORIGINAL:
        rho = root
        if len(labels) == 1:
            return -1, "(r)"
        anchor = adj[rho][0]
        if labels[anchor] is not None:
            return -1, f"(r,{labels[anchor]})"
        mins = _min_labels(labels, adj, rho, -1)
        kids = [w for w in adj[anchor] if w != rho]
        kids.sort(key=mins.__getitem__)
        out = ["(", "r"]
        for kid in kids:
            out.append(",")
            _emit(labels, adj, kid, anchor, mins, out)
        out.append(")")
        return -1, "".join(out)

    if marker is RootMarker.COMPONENT:
        w = root
        if labels[w] is not None:
            return labels[w], f"({labels[w]})p"
        mins = _min_labels(labels, adj, w, -1)
        kids = sorted(adj[w], key=mins.__getitem__)
        out = ["("]
        for k, kid in enumerate(kids):
            if k:
                out.append(",")
            _emit(labels, adj, kid, w, mins, out)
        out.append(")p")
        return mins[w], "".join(out)

    # unrooted component
    if len(labels) == 1:
        return labels[0], str(labels[0])
    if len(labels) == 2:
        a, b = sorted(labels)
        return a, f"({a},{b})"
    small = min(
        (i for i, lab in enumerate(labels) if lab is not None), key=labels.__getitem__
    )
    anchor = adj[small][0]
    mins = _min_labels(labels, adj, anchor, -1)
    kids = sorted(adj[anchor], key=mins.__getitem__)
    out = ["("]
    for k, kid in enumerate(kids):
        if k:
            out.append(",")
        _emit(labels, adj, kid, anchor, mins, out)
    out.append(")")
    return mins[anchor], "".join(out)


def sdlnewick_tree(tree):
    """Canonical byte string of a tree. Inverse of decode_tree."""
    if tree.rooted:
        _, text = _component_part(
            tree.labels, tree.neighbors, RootMarker.ORIGINAL, tree.rho_index()
        )
    else:
        _, text = _component_part(tree.labels, tree.neighbors, None, None)
    return (text + ";").encode("ascii")


def sdlnewick_forest(forest):
    """Canonical byte string of a forest."""
    parts = [
        _component_part(c.labels, c.neighbors, c.marker, c.root) for c in forest.components
    ]
    parts.sort(key=lambda kv: kv[0])
    keys = [k for k, _ in parts]
    if len(set(keys)) != len(keys):
        raise CanonicalError("components do not have disjoint label sets")
    return (" ".join(text for _, text in parts) + ";").encode("ascii")


# ---------------------------------------------------------------------------
# decoding


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
    text = data.encode("ascii") if isinstance(data, str) else data
    label = text[:-1]
    if label.isdigit() and text.endswith(b";"):
        if label[0] == ord("0") or len(label) > 20 or int(label) > MAX_LABEL:
            raise CanonicalError(f"bad label {label.decode()}: zero, leading zero or over 2**64-1")
        return Tree([int(label)], [[]], False)
    rooted = text.startswith(b"(r,")
    try:
        tree = parse_newick(b"(" + text[3:] if rooted else text, rooted=rooted)
    except NewickError as exc:
        if rooted and exc.pos is not None:
            exc = NewickError(exc.reason, exc.pos + 2)
        raise CanonicalError(str(exc)) from None
    if sdlnewick_tree(tree) != text:
        raise CanonicalError(f"{text.decode()!r} is not in canonical form")
    return tree
