"""Core tree model and the Newick parser.

Trees are stored as parallel arrays indexed by node id: ``labels[i]`` is a
positive integer for a leaf, ``RHO`` (0) for the root-marker leaf of a rooted
tree, and ``None`` for an internal node; ``neighbors[i]`` is the adjacency
list. A rooted tree is represented as an unrooted binary tree with one extra
marker leaf attached to the root node, so rooted and unrooted trees share
one layout. Instances are immutable by convention, so trees can be shared
freely. The canonical encoder, the rearrangement surgery, the edge list and
the Newick writer built on this layout are reference code and live in
``oracle``.

Leaf labels are distinct integers in ``1 .. 2**64 - 1``. Label 0 is reserved
for the root marker and is never accepted from input.
"""

import re

from .errors import NewickError

RHO = 0
MAX_LABEL = 2**64 - 1


def integer(text):
    """int(text) if text is ASCII digits after at most one -, else ValueError."""
    if not re.fullmatch("-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


class Tree:
    """Binary phylogenetic tree over integer-labelled leaves.

    Do not mutate ``labels`` or ``neighbors`` after construction. Rooted
    trees contain exactly one node labelled ``RHO``; its single neighbor is
    the root node.
    """

    __slots__ = ("labels", "neighbors", "rooted")

    def __init__(self, labels, neighbors, rooted):
        self.labels = labels
        self.neighbors = neighbors
        self.rooted = rooted

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

    def rho_index(self):
        if not self.rooted:
            raise ValueError("unrooted tree has no root marker")
        return self.labels.index(RHO)


# ---------------------------------------------------------------------------
# Newick parsing

# One token per bracket or separator, per run of ASCII digits, per run of
# whitespace, per ':' with the number after it, and per run of any other
# characters up to a delimiter, so that the tokens tile the line and an
# error's column is the length of the tokens before it.
_TOKEN = re.compile(r"[(),;]|[0-9]+|[ \t\r\n]+|:[0-9.+eE-]*|[^(),;:0-9 \t\r\n]+")
_SPACE = " \t\r\n"


def _error(message, toks, k, shift=0):
    return NewickError(message, pos=sum(map(len, toks[:k])) + shift)


def parse_newick(text, *, rooted, lenient=False):
    """Parse one standard Newick tree with positive-integer leaf labels.

    Leaf labels are runs of ASCII digits without a leading zero. Rooted
    mode expects the usual degree-2 Newick root and attaches the root
    marker to it. Unrooted mode expects a trifurcating root; a degree-2 root
    is tolerated and suppressed. Multifurcations beyond that are rejected.
    In strict mode (default) branch lengths and internal-node labels are
    errors; lenient mode strips them. Either must follow its leaf or ')'
    without whitespace. Raises NewickError with a column on any malformed
    input.
    """
    toks = _TOKEN.findall(text)
    labels = []
    adj = []  # node 0 is the root; each other node lists its parent first
    stack = []
    expect = True  # a subtree comes next
    after = 0  # what the last token lets follow it at once: 1 a length, 2 a label or a length
    for k, tok in enumerate(toks):
        if expect:
            if tok == "(":
                lab = None
            elif "0" <= tok < ":":  # a run of ASCII digits
                if tok < "1" or len(tok) > 19:
                    if tok == "0":
                        raise _error("label 0 is reserved", toks, k)
                    if tok < "1":
                        raise _error("labels must not have leading zeros", toks, k)
                    if len(tok) > 20 or int(tok) > MAX_LABEL:
                        raise _error(f"label {tok} exceeds the 64-bit limit", toks, k)
                lab = int(tok)
            elif tok[0] in _SPACE:
                continue
            else:
                raise _error(f"expected '(' or a leaf label, found {tok[0]!r}", toks, k)
            idx = len(labels)
            labels.append(lab)
            if stack:
                top = stack[-1]
                adj[top].append(idx)
                adj.append([top])
            else:
                adj.append([])
            if lab is None:
                stack.append(idx)
            else:
                expect = False
                after = 1
        elif tok == ",":
            if not stack:
                raise _error("',' outside parentheses", toks, k)
            expect = True
        elif tok == ")":
            if not stack:
                raise _error("unbalanced ')'", toks, k)
            node = stack.pop()
            if len(adj[node]) < (3 if stack else 2):
                raise _error("internal nodes need at least two children", toks, k)
            after = 2
        elif tok == ";":
            if stack:
                raise _error("unbalanced '(' before ';'", toks, k)
            k += 1
            if k < len(toks) and toks[k][0] in _SPACE:
                k += 1
            if k < len(toks):
                raise _error("trailing characters after ';'", toks, k)
            break
        else:
            c = tok[0]
            if c in _SPACE:
                after = 0
            elif c == ":" and after:
                if not lenient:
                    raise _error("branch lengths are not supported (use lenient mode)", toks, k)
                if len(tok) == 1:
                    raise _error("expected a branch length after ':'", toks, k, 1)
                after = 0
            elif after == 2 and c != "(":
                if not lenient:
                    raise _error(
                        "internal node labels are not supported (use lenient mode)", toks, k
                    )
            else:
                raise _error(f"unexpected character {c!r}", toks, k)
    else:
        raise NewickError("unexpected end of input", pos=len(text))

    if labels[0] is not None:
        raise NewickError("a single leaf is not a valid tree")
    internal = labels.count(None)
    if len(set(labels)) != len(labels) - internal + 1:
        seen = set()
        for lab in labels:
            if lab in seen and lab is not None:
                raise NewickError(f"duplicate leaf label {lab}")
            seen.add(lab)
    kids = len(adj[0])
    # with every other internal node holding two or more children, they all
    # hold exactly two when the internal nodes number leaves + 1 - kids
    if internal != len(labels) - internal + 1 - kids:
        for idx in range(1, len(labels)):
            if labels[idx] is None and len(adj[idx]) != 3:
                raise NewickError(f"non-binary internal node with {len(adj[idx]) - 1} children")

    if rooted:
        if kids != 2:
            raise NewickError(f"rooted input must have a bifurcating root, found {kids} children")
        adj[0].append(len(labels))
        labels.append(RHO)
        adj.append([0])
    elif kids == 2:
        # suppress the top: its two children list it first, so each takes
        # the other in its place, and every index drops by one
        a, b = adj[0]
        adj[a][0], adj[b][0] = b, a
        labels, adj = labels[1:], [[w - 1 for w in nbrs] for nbrs in adj[1:]]
    elif kids != 3:
        raise NewickError(
            f"unrooted input must have a trifurcating root, found {kids} children"
        )
    return Tree(labels, adj, rooted)
