"""Per-edge two-component forest keys, and per-internal-edge interchange keys.

Two trees on the same leaf set are one rearrangement apart exactly when
they share a key: cut any edge of each tree, keep the attachment point of
the moved part as a marked root where the move semantics require it, and
encode the resulting forest canonically. The three generators below differ
only in which side of the cut keeps its root: rSPR the child side, uSPR
each side in turn, TBR neither.

Keys are spliced, not re-encoded. Each tree is oriented once from a top
leaf (the root marker of a rooted tree, the smallest leaf of an unrooted
one) into an Oriented table: the tree's canonical text, rendered once, with
the position of every node's span in it, plus label-ordered children and
smallest labels. Every key is assembled from slices of that text:

* the side below a cut edge, kept rooted, is its span plus ``p``;
* the side below a cut edge, unrooted, is rendered from its own smallest
  leaf, which is reached by following first children down;
* the side above a cut edge holds the top leaf and is the first component
  of every key. It is the tree text with one span replaced. The cut parent
  is suppressed, so its span becomes its other child's, and child order
  can change only at the ancestors whose smallest leaf lies under the cut:
  those reached from the cut parent through first children. Of these,
  only the ones whose second child now holds a smaller label than the
  rebuilt piece swap their children. A jump table links each ancestor to
  the next that would, so only the swapping ancestors are rebuilt, each
  wrapping the piece in its second child and the unchanged text between,
  and the piece is sliced into the text in place of the last one's span;
* the side above, kept rooted at the cut parent, is that node's span seen
  from the cut child, computed top-down from the parent's.

A prune-regraft key is shared by exactly the trees that regraft its rooted
component onto an edge of the other component, its host. A host with
k >= 2 leaves has 2k - 3 edges and a lone leaf one place to attach, so a
key whose host has at most two leaves belongs to its own tree alone and
can never give an edge. The prune-regraft generators skip those cuts: in
rSPR and in uSPR with the child side rooted, the cut of the top leaf's
neighbour (the host is the top leaf alone) and the cuts of that
neighbour's children whose sibling is a leaf; in uSPR with the parent side
rooted, the cuts of leaves and cherries. A bisection key is shared by (2a - 3)(2b - 3) trees
for sides of a and b leaves, which is one only for n <= 4, so the
bisection generator skips nothing.

Each generator walks the parent edge of every node below the top leaf, in
the table's top-down order. One prune-regraft walk serves rSPR and uSPR: it
emits each cut's key with the child side rooted, then, for an unrooted tree
only, the key with the parent side rooted, starting with that of the top's
neighbour, whose parent side is the top leaf alone. Neither the index nor
the graph depends on the order. A key costs Python steps for each swapping
ancestor (and, for an unrooted lower side, for each node on the path down
to its smallest leaf) plus copying its O(n) bytes. The cut-and-encode
construction these keys are tested against byte for byte is
``oracle.reference_forest_keys``, and the tree string is tested against
``oracle.sdlnewick_tree``. An AFContainer orients a tree, looks its
string up and passes the same table to the key generators only when the
tree is new.

Interchange keys are not forests. Two binary trees are one interchange
apart exactly when contracting one internal edge in each gives the same
tree. So the interchange generator walks each internal node x whose parent
p is internal, and its key is the tree with the edge from x to p
contracted: p's span with x's two children and x's sibling inside, in
label order. p keeps its smallest label, so no ancestor reorders. A rooted
tree is keyed with its root marker as a leaf. Each key is shared by the
three trees that resolve its four-way node, and two distinct trees share
at most one key.
"""

from .errors import ModeError
from .tree import Tree


class Oriented(Tree):
    """A tree oriented once from its top leaf (the root marker of a rooted
    tree, the smallest leaf of an unrooted one); it shares the labels and
    adjacency of the tree it was made from.

    order lists nodes top-down from top, with each internal node's two
    children side by side: order[k] and order[k + 1] are siblings for
    every even k >= 2. par[x] is x's parent, kids[x] holds an internal
    node's children ordered by smallest leaf label and low[x] is the
    smallest label under x. text is the canonical tree string without its
    ``;``; token renders the top leaf. Every node x below the top's
    neighbour has its span, the canonical text of its subtree, at
    text[start[x]:stop[x]]. For an internal node x, jump[x] is the nearest
    ancestor reached through first children only whose second child's
    smallest label is below that of x's second child, or -1.
    """

    __slots__ = ("top", "token", "order", "par", "kids", "low", "text", "start", "stop", "jump")

    def __init__(self, tree):
        labels, adj = tree.labels, tree.neighbors
        super().__init__(labels, adj, tree.rooted)
        if tree.rooted:
            top, token = tree.rho_index(), "r"
        else:
            top = labels.index(min(filter(None, labels)))
            token = str(labels[top])
        n = len(labels)
        par = [-1] * n
        order = [top]
        if n > 1:
            par[adj[top][0]] = top
            order.append(adj[top][0])
        for x in order:
            if labels[x] is None:
                a, b, d = adj[x]
                p = par[x]
                if a == p:
                    a = d
                elif b == p:
                    b = d
                par[a] = par[b] = x
                order += a, b
        # spans and smallest labels bottom-up, one sibling pair at a time;
        # the internal nodes' entries are placeholders until then
        kids = [None] * n
        span = list(map(str, labels))
        low = labels[:]
        for k in range(n - 2, 1, -2):
            a = order[k]
            b = order[k + 1]
            if low[b] < low[a]:
                a, b = b, a
            x = par[a]
            kids[x] = a, b
            span[x] = f"({span[a]},{span[b]})"
            low[x] = low[a]
        start = [0] * n
        stop = [0] * n
        jump = [-1] * n
        if n == 1:
            text = "(r)" if tree.rooted else token
        else:
            # the top's neighbour opens the text, its "(" replaced by "(token,"
            core = order[1]
            first = len(token) + 1
            if kids[core] is None:
                text = f"({token},{span[core]})"
                first += 1
            else:
                text = f"({token},{span[core][1:]}"
            start[core] = first
            stop[core] = first + len(span[core])
            for k in range(2, n, 2):
                x = par[order[k]]
                a, b = kids[x]
                start[a] = at = start[x] + 1
                stop[a] = at = at + len(span[a])
                start[b] = at = at + 1
                stop[b] = at + len(span[b])
                if kids[a]:
                    # a shares x's smallest leaf: follow jumps from x to
                    # the first second child with a smaller label than a's
                    lo = low[kids[a][1]]
                    while x >= 0 and low[kids[x][1]] > lo:
                        x = jump[x]
                    jump[a] = x
        self.top, self.token, self.order, self.par, self.kids = top, token, order, par, kids
        self.low, self.text, self.start, self.stop, self.jump = low, text, start, stop, jump

    def canonical(self):
        """The tree's canonical byte string, as oracle.sdlnewick_tree
        gives it."""
        return f"{self.text};".encode("ascii")


def orient(tree):
    """tree as an Oriented table, oriented now only if it is not one yet."""
    return tree if isinstance(tree, Oriented) else Oriented(tree)


def _upper_key(o, c, s, rest):
    """The key of the cut above c in the Oriented table o: the side above
    the edge from c to its parent, c's subtree removed and the parent
    suppressed, rendered from the top leaf, then rest, the rest of the
    key. s is c's sibling; c's parent is not the top."""
    par, low, jump = o.par, o.low, o.jump
    text, start, stop = o.text, o.start, o.stop
    u = par[c]
    piece = text[start[s] : stop[s]]
    if low[c] < low[s] and jump[u] >= 0:
        # c held u's smallest leaf, and the ancestors that now swap their
        # children are the jumps from u. Each swap x wraps the piece in its
        # second child v and in the unchanged text of the levels from its
        # first child w down to the previous swap u.
        kids = o.kids
        head = []
        tail = []
        x = jump[u]
        while x >= 0:
            w, v = kids[x]
            head.append(f"({text[start[v] : stop[v]]},{text[start[w] : start[u]]}")
            tail.append(f"{text[stop[u] : stop[w]]})")
            u = x
            x = jump[x]
        head.reverse()
        piece = f"{''.join(head)}{piece}{''.join(tail)}"
    if par[u] != o.top:
        return f"{text[: start[u]]}{piece}{text[stop[u] :]}{rest}".encode("ascii")
    if piece[0] == "(":
        return f"({o.token},{piece[1:]}{rest}".encode("ascii")
    return f"({o.token},{piece}){rest}".encode("ascii")


def _lower(o, c):
    """c's subtree in the Oriented table o as an unrooted component with c
    suppressed, rendered from its smallest leaf."""
    labels, kids, low = o.labels, o.kids, o.low
    text, start, stop = o.text, o.start, o.stop
    if labels[c] is not None:
        return text[start[c] : stop[c]]
    # the path from c's smallest leaf y up to c, with a subtree hanging off
    # each node on it; c is suppressed, so its second child ends the path
    y, core = kids[c]
    hangs = []
    while labels[y] is None:
        y, other = kids[y]
        hangs.append(other)
    token = str(labels[y])
    body = text[start[core] : stop[core]]
    if not hangs:
        if labels[core] is not None:
            return f"({token},{body})"
        return f"({token},{body[1:]}"
    m = low[core]
    head = []
    tail = []
    for other in hangs[:-1]:
        if low[other] < m:
            head.append(f"({text[start[other] : stop[other]]},")
            tail.append(")")
            m = low[other]
        else:
            head.append("(")
            tail.append(f",{text[start[other] : stop[other]]})")
    head.reverse()
    body = f"{''.join(head)}{body}{''.join(tail)}"
    last = hangs[-1]
    if low[last] < m:
        return f"({token},{text[start[last] : stop[last]]},{body})"
    return f"({token},{body},{text[start[last] : stop[last]]})"


def _prune_regraft_keys(o):
    """The prune-regraft keys of the Oriented table o: for each cut not
    skipped, the child side rooted, then, if o is unrooted, the parent's."""
    top, token, order, par, kids = o.top, o.token, o.order, o.par, o.kids
    text, start, stop = o.text, o.start, o.stop
    unrooted = not o.rooted
    # up[x]: the side above x's parent edge, rooted at x's parent, for the
    # internal nodes x that are not cherries; the top leaf alone at the
    # top's neighbour, whose own cut is the only one with the top as parent
    up = [token] * len(order)
    keys = []
    ck = kids[order[1]] if unrooted and len(order) > 1 else None
    if ck and (kids[ck[0]] or kids[ck[1]]):
        keys.append(f"({token})p {_lower(o, order[1])};".encode("ascii"))
    for k in range(2, len(order)):
        c = order[k]
        s = order[k ^ 1]
        p = par[c]
        ck = kids[c]
        if kids[s] or par[p] != top:
            span = text[start[c] : stop[c]]
            rest = f" {span}p;" if ck else f" ({span})p;"
            keys.append(_upper_key(o, c, s, rest))
        if unrooted and ck and (kids[ck[0]] or kids[ck[1]]):
            up[c] = rooted = f"({up[p]},{text[start[s] : stop[s]]})"
            keys.append(f"{rooted}p {_lower(o, c)};".encode("ascii"))
    return keys


def _oriented(tree, rooted, keys):
    """tree as orient gives it; ModeError, naming the keys asked for, if its
    rootedness is not rooted."""
    o = orient(tree)
    if o.rooted != rooted:
        raise ModeError(f"{keys} keys require {'a rooted' if rooted else 'an unrooted'} tree")
    return o


def rspr_forest_keys(tree):
    """One key per edge of a rooted tree whose host keeps three or more
    leaves: cut it, root the cut-off side. tree may also be given already
    Oriented."""
    return _prune_regraft_keys(_oriented(tree, True, "rooted-move"))


def uspr_forest_keys(tree):
    """Up to two keys per edge of an unrooted tree, either endpoint side
    rooted, skipping those whose host has at most two leaves. tree may also
    be given already Oriented."""
    return _prune_regraft_keys(_oriented(tree, False, "unrooted-move"))


def nni_keys(tree, rooted):
    """One interchange key per internal edge: n - 3 unrooted, n - 2 rooted.
    A tree whose rootedness is not rooted raises ModeError. tree may also be
    given already Oriented."""
    o = _oriented(tree, rooted, f"{'rooted' if rooted else 'unrooted'} interchange")
    order, par, kids, low = o.order, o.par, o.kids, o.low
    text, start, stop = o.text, o.start, o.stop
    keys = []
    for k in range(2, len(order)):
        x = order[k]
        if kids[x] is None:
            continue
        # x's children a < b are adjacent in its span; the sibling s joins
        # them in label order, inside the "(" and ")" of the parent's span
        a, b = kids[x]
        s = order[k ^ 1]
        sib = text[start[s] : stop[s]]
        if low[s] < low[a]:
            inner = f"{sib},{text[start[a] : stop[b]]}"
        elif low[s] < low[b]:
            inner = f"{text[start[a] : stop[a]]},{sib},{text[start[b] : stop[b]]}"
        else:
            inner = f"{text[start[a] : stop[b]]},{sib}"
        p = par[x]
        keys.append(f"{text[: start[p] + 1]}{inner}{text[stop[p] - 1 :]}".encode("ascii"))
    return keys


def tbr_forest_keys(tree):
    """One key per edge of an unrooted tree, both cut endpoints suppressed.
    tree may also be given already Oriented."""
    o = _oriented(tree, False, "bisection")
    order = o.order
    keys = []
    for k in range(1, len(order)):
        c = order[k]
        rest = f" {_lower(o, c)};"
        if k == 1:
            keys.append(f"{o.token}{rest}".encode("ascii"))
        else:
            keys.append(_upper_key(o, c, order[k ^ 1], rest))
    return keys
