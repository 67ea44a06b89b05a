"""Canonical byte-string encoding for trees and forests, plus decoding.

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
"""

from .errors import CanonicalError
from .tree import MAX_LABEL, RHO, Component, Forest, RootMarker, Tree

_BIG = float("inf")


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
    """Canonical byte string of a forest. Inverse of decode_forest."""
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


def _as_text(data):
    if isinstance(data, (bytes, bytearray)):
        try:
            return data.decode("ascii")
        except UnicodeDecodeError:
            raise CanonicalError("canonical strings are ASCII") from None
    if not data.isascii():
        raise CanonicalError("canonical strings are ASCII")
    return data


def _read_label(s, i):
    j = i
    n = len(s)
    while j < n and "0" <= s[j] <= "9":
        j += 1
    run = s[i:j]
    if not run:
        raise CanonicalError(f"expected a label (column {i + 1})")
    if run[0] == "0":
        raise CanonicalError(f"bad label {run!r}: zero or leading zero (column {i + 1})")
    value = int(run[:21])  # 21 digits already exceed the limit; int() refuses very long runs
    if value > MAX_LABEL:
        raise CanonicalError(f"label {run} exceeds the 64-bit limit (column {i + 1})")
    return value, j


def _parse_subtree(s, i, labels, adj):
    """Parse one binary subtree; returns (root index, next offset)."""

    def new(lab):
        labels.append(lab)
        adj.append([])
        return len(labels) - 1

    n = len(s)
    if i < n and s[i].isdigit():
        lab, i = _read_label(s, i)
        return new(lab), i
    if i >= n or s[i] != "(":
        raise CanonicalError(f"expected a subtree (column {i + 1})")

    stack = []
    counts = []
    expect_item = True
    while True:
        if i >= n:
            raise CanonicalError("unexpected end of canonical string")
        c = s[i]
        if expect_item:
            if c == "(":
                idx = new(None)
                if stack:
                    adj[stack[-1]].append(idx)
                    adj[idx].append(stack[-1])
                    counts[-1] += 1
                stack.append(idx)
                counts.append(0)
                i += 1
            elif c.isdigit():
                lab, i = _read_label(s, i)
                idx = new(lab)
                adj[stack[-1]].append(idx)
                adj[idx].append(stack[-1])
                counts[-1] += 1
                expect_item = False
            else:
                raise CanonicalError(f"unexpected {c!r} in subtree (column {i + 1})")
        else:
            if c == ",":
                i += 1
                expect_item = True
            elif c == ")":
                node = stack.pop()
                cnt = counts.pop()
                if cnt != 2:
                    raise CanonicalError(
                        f"subtree nodes take exactly two children, found {cnt} (column {i + 1})"
                    )
                i += 1
                if not stack:
                    return node, i
            else:
                raise CanonicalError(f"unexpected {c!r} in subtree (column {i + 1})")


def _parse_component(s, i):
    """Parse one component; returns (Component, next offset)."""
    labels = []
    adj = []
    n = len(s)

    def new(lab):
        labels.append(lab)
        adj.append([])
        return len(labels) - 1

    def link(a, b):
        adj[a].append(b)
        adj[b].append(a)

    if i < n and s[i].isdigit():
        lab, i = _read_label(s, i)
        new(lab)
        return Component(labels, adj, None, None), i
    if i >= n or s[i] != "(":
        raise CanonicalError(f"expected a component (column {i + 1})")
    i += 1
    has_marker = i < n and s[i] == "r"
    if has_marker:
        i += 1
    children = []
    if has_marker:
        while i < n and s[i] == ",":
            node, i = _parse_subtree(s, i + 1, labels, adj)
            children.append(node)
    else:
        node, i = _parse_subtree(s, i, labels, adj)
        children.append(node)
        while i < n and s[i] == ",":
            node, i = _parse_subtree(s, i + 1, labels, adj)
            children.append(node)
    if i >= n or s[i] != ")":
        raise CanonicalError(f"expected ')' (column {i + 1})")
    i += 1
    pruned = i < n and s[i] == "p"
    if pruned:
        i += 1

    c = len(children)
    if has_marker:
        if pruned:
            raise CanonicalError("a component cannot carry both r and p markers")
        rho = new(RHO)
        if c == 0:
            pass
        elif c == 1:
            if labels[children[0]] is None:
                raise CanonicalError("rooted component with one internal child is not canonical")
            link(rho, children[0])
        elif c == 2:
            anchor = new(None)
            link(anchor, rho)
            link(anchor, children[0])
            link(anchor, children[1])
        else:
            raise CanonicalError(f"rooted component with {c} subtrees is not binary")
        return Component(labels, adj, RootMarker.ORIGINAL, rho), i
    if pruned:
        if c == 1:
            if labels[children[0]] is None:
                raise CanonicalError("pruned component with one internal subtree is invalid")
            return Component(labels, adj, RootMarker.COMPONENT, children[0]), i
        if c == 2:
            w = new(None)
            link(w, children[0])
            link(w, children[1])
            return Component(labels, adj, RootMarker.COMPONENT, w), i
        raise CanonicalError(f"pruned component takes one or two subtrees, found {c}")
    if c == 2:
        link(children[0], children[1])
        return Component(labels, adj, None, None), i
    if c == 3:
        anchor = new(None)
        for ch in children:
            link(anchor, ch)
        return Component(labels, adj, None, None), i
    raise CanonicalError(f"unrooted component takes two or three subtrees, found {c}")


def decode_forest(data, *, strict=True):
    """Parse a canonical forest string back into a Forest.

    Strict mode (the default) additionally requires the input to be in
    canonical form: re-encoding the result must reproduce the input bytes.
    Lenient mode accepts any ordering that fits the grammar.
    """
    s = _as_text(data)
    if not s or s[-1] != ";":
        raise CanonicalError("canonical strings end with ';'")
    comps = []
    i = 0
    n = len(s)
    while True:
        comp, i = _parse_component(s, i)
        comps.append(comp)
        if i >= n:
            raise CanonicalError("missing ';'")
        if s[i] == ";":
            if i + 1 != n:
                raise CanonicalError("trailing characters after ';'")
            break
        if s[i] == " ":
            i += 1
            continue
        raise CanonicalError(f"unexpected {s[i]!r} between components (column {i + 1})")

    forest = Forest(comps)
    try:
        forest.validate()
    except ValueError as exc:
        raise CanonicalError(str(exc)) from None
    if strict and sdlnewick_forest(forest) != s.encode("ascii"):
        raise CanonicalError(f"{s!r} is not in canonical form")
    return forest


def decode_tree(data, *, strict=True):
    """Parse a canonical tree string back into a Tree.

    The string must hold exactly one component; rootedness is inferred from
    the presence of the r token. Raises CanonicalError otherwise.
    """
    forest = decode_forest(data, strict=strict)
    if len(forest) != 1:
        raise CanonicalError(f"expected one component, found {len(forest)}")
    comp = forest.components[0]
    if comp.marker is RootMarker.COMPONENT:
        raise CanonicalError("a pruned component is not a standalone tree")
    tree = Tree(comp.labels, comp.neighbors, comp.marker is RootMarker.ORIGINAL)
    try:
        tree.validate()
    except ValueError as exc:
        raise CanonicalError(f"not a valid tree: {exc}") from None
    return tree
