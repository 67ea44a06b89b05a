"""Per-edge two-component forest keys.

Two trees on the same leaf set are one rearrangement apart exactly when
they share a key: cut any edge of each tree, keep the attachment point of
the moved part as a marked root where the move semantics require it, and
encode the resulting forest canonically. The three generators below differ
only in which side of the cut keeps its root.

Keys are spliced, not re-encoded. Each tree is oriented once from a top
leaf (the root marker of a rooted tree, the smallest leaf of an unrooted
one) into an Oriented table of per-node canonical spans and smallest
labels. The tree's own canonical string is the top leaf joined to the span
of its neighbour, and every key is assembled from slices of the same table:

* the side below a cut edge, kept rooted, is its span plus ``p``;
* the side below a cut edge, unrooted, is rendered from its own smallest
  leaf, which is reached by following first children down;
* the side above a cut edge, which holds the top leaf and is the first
  component of every key, loses the cut subtree and suppresses the cut
  parent, so child order changes only on the path from that parent up to
  the top and is rebuilt there from the cached spans of the subtrees that
  hang off the path;
* the side above, kept rooted at the cut parent, is that node's span seen
  from the cut child, computed for all nodes in one top-down pass.

Each generator cuts the parent edge of every node below the top leaf, in
the table's top-down order: key k cuts that of order[k + 1] (for uSPR,
keys 2k and 2k + 1, the child side rooted and then the parent side);
neither the index nor the graph depends on the order. Each key costs
Python work proportional to the depth of its cut, plus copying its O(n)
bytes. The cut-and-encode construction these keys are tested against byte
for byte is ``oracle.reference_forest_keys``, and the tree string is
tested against ``canonical.sdlnewick_tree``. An AFContainer orients a
tree, looks its string up and passes the same table to the key generators
only when the tree is new.
"""

from .errors import ModeError


def _orient(tree, top):
    """Orient the tree from leaf top; returns (order, par, kids, span, low).

    order lists nodes top-down; kids[x] holds x's two children ordered by
    smallest leaf label, span[x] is the canonical text of x's subtree and
    low[x] its smallest leaf label.
    """
    labels, adj = tree.labels, tree.neighbors
    n = len(labels)
    par = [-1] * n
    order = [top]
    for x in order:
        for w in adj[x]:
            if w != par[x]:
                par[w] = x
                order.append(w)
    kids = [None] * n
    span = [""] * n
    low = [0] * n
    for x in reversed(order):
        lab = labels[x]
        if lab is not None:
            span[x] = str(lab)
            low[x] = lab
            continue
        a, b = [w for w in adj[x] if w != par[x]]
        if low[b] < low[a]:
            a, b = b, a
        kids[x] = (a, b)
        span[x] = f"({span[a]},{span[b]})"
        low[x] = low[a]
    return order, par, kids, span, low


def _unrooted_top(tree):
    """Index of the smallest leaf of an unrooted tree."""
    labels = tree.labels
    return min((i for i, lab in enumerate(labels) if lab is not None), key=labels.__getitem__)


class Oriented:
    """A tree oriented once from its top leaf (the root marker of a rooted
    tree, the smallest leaf of an unrooted one), as _orient tabulates it;
    token renders the top leaf."""

    __slots__ = ("tree", "top", "token", "order", "par", "kids", "span", "low")

    def __init__(self, tree):
        if tree.rooted:
            self.top, self.token = tree.rho_index(), "r"
        else:
            self.top = _unrooted_top(tree)
            self.token = str(tree.labels[self.top])
        self.tree = tree
        self.order, self.par, self.kids, self.span, self.low = _orient(tree, self.top)

    def canonical(self):
        """The tree's canonical byte string, as canonical.sdlnewick_tree
        gives it: the top leaf's neighbour seen from the top leaf."""
        if len(self.order) == 1:
            text = "(r)" if self.tree.rooted else self.token
        else:
            text = _splice(self.token, self.order[1], (), self.tree.labels, self.span, self.low)
        return f"{text};".encode("ascii")


def _oriented(tree):
    return tree if type(tree) is Oriented else Oriented(tree)


def _splice(token, core, hangs, labels, span, low):
    """Render a component as seen from token: the root marker ``r``, or the
    component's smallest leaf label.

    The component is a path from token to the subtree core, with the
    subtrees in hangs attached along it, listed from the core outwards.
    """
    if not hangs:
        if labels[core] is not None:
            return f"({token},{span[core]})"
        return f"({token},{span[core][1:]}"
    body = span[core]
    m = low[core]
    head = []
    tail = []
    for o in hangs[:-1]:
        if low[o] < m:
            head.append(f"({span[o]},")
            tail.append(")")
            m = low[o]
        else:
            head.append("(")
            tail.append(f",{span[o]})")
    head.reverse()
    body = "".join(head) + body + "".join(tail)
    o = hangs[-1]
    if low[o] < m:
        return f"({token},{span[o]},{body})"
    return f"({token},{body},{span[o]})"


def _upper(c, top, token, par, kids, labels, span, low):
    """The side above c's parent edge: c's subtree removed, its parent
    suppressed, rendered from the top leaf. c's parent is not the top."""
    b = par[c]
    k0, k1 = kids[b]
    core = k1 if k0 == c else k0
    hangs = []
    y = b
    x = par[b]
    while x != top:
        k0, k1 = kids[x]
        hangs.append(k1 if k0 == y else k0)
        y = x
        x = par[x]
    return _splice(token, core, hangs, labels, span, low)


def _lower(c, kids, labels, span, low):
    """c's subtree as an unrooted component with c suppressed, rendered
    from its smallest leaf."""
    if labels[c] is not None:
        return span[c]
    y, core = kids[c]
    hangs = []
    while labels[y] is None:
        y, o = kids[y]
        hangs.append(o)
    return _splice(str(labels[y]), core, hangs, labels, span, low)


def _rooted(node, labels, span):
    """A component kept rooted at node, whose subtree text is span."""
    return f"{span}p" if labels[node] is None else f"({span})p"


def rspr_forest_keys(tree):
    """One key per edge of a rooted tree: cut it, root the cut-off side.
    tree may also be given already Oriented."""
    o = _oriented(tree)
    tree = o.tree
    if not tree.rooted:
        raise ModeError("rooted-move keys require a rooted tree")
    labels = tree.labels
    top, order, par, kids, span, low = o.top, o.order, o.par, o.kids, o.span, o.low
    keys = []
    for c in order[1:]:
        rest = "(r)" if par[c] == top else _upper(c, top, "r", par, kids, labels, span, low)
        keys.append(f"{rest} {_rooted(c, labels, span[c])};".encode("ascii"))
    return keys


def uspr_forest_keys(tree):
    """Two keys per edge of an unrooted tree: either endpoint side rooted.
    tree may also be given already Oriented."""
    o = _oriented(tree)
    tree = o.tree
    if tree.rooted:
        raise ModeError("unrooted-move keys require an unrooted tree")
    labels = tree.labels
    top, token, order, par, kids, span, low = o.top, o.token, o.order, o.par, o.kids, o.span, o.low
    # up[x]: the side above x's parent edge, rooted at x's parent; the top
    # leaf alone for the top's neighbour
    up = [token] * len(labels)
    for x in order[2:]:
        p = par[x]
        k0, k1 = kids[p]
        up[x] = f"({up[p]},{span[k1 if k0 == x else k0]})"
    keys = []
    for c in order[1:]:
        p = par[c]
        above = token if p == top else _upper(c, top, token, par, kids, labels, span, low)
        below = _lower(c, kids, labels, span, low)
        keys.append(f"{above} {_rooted(c, labels, span[c])};".encode("ascii"))
        keys.append(f"{_rooted(p, labels, up[c])} {below};".encode("ascii"))
    return keys


def tbr_forest_keys(tree):
    """One key per edge of an unrooted tree, both cut endpoints suppressed.
    tree may also be given already Oriented."""
    o = _oriented(tree)
    tree = o.tree
    if tree.rooted:
        raise ModeError("bisection keys require an unrooted tree")
    labels = tree.labels
    top, token, order, par, kids, span, low = o.top, o.token, o.order, o.par, o.kids, o.span, o.low
    keys = []
    for c in order[1:]:
        above = token if par[c] == top else _upper(c, top, token, par, kids, labels, span, low)
        keys.append(f"{above} {_lower(c, kids, labels, span, low)};".encode("ascii"))
    return keys
