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

This module is the reference for that format: ``sdlnewick_tree`` and the
component renderer under it. ``oracle`` renders the two sides of each cut
edge with that renderer to give the reference forest keys, and uses the
tree walk and Newick emitter here too.
``decode_tree`` reads a canonical tree string with ``tree.parse_newick``
and checks it against the encoder here. Builds do not import this module.
They read every key and tree string off ``forestgen.Oriented`` and read
snapshots with ``tree.parse_newick``; the tests compare both against the
functions here.
"""

from .errors import CanonicalError, NewickError
from .tree import MAX_LABEL, RHO, Tree, parse_newick

_BIG = float("inf")


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
    mins = [_BIG] * len(labels)
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
