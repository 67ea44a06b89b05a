import random
import re

import pytest

from treescape.errors import MoveError, NewickError
from treescape.oracle import (
    _renumber,
    _splice_degree2,
    apply_spr,
    apply_tbr,
    decode_tree,
    parents,
    random_tree,
    reference_forest_keys,
    sdlnewick_tree,
    to_newick,
    validate_tree,
)
from treescape.oracle import edges as tree_edges
from treescape.tree import RHO, Tree, parse_newick


def leaf_node(tree, label):
    return tree.labels.index(label)


def child_edge(tree, labels_below):
    """Edge (child, parent) whose child side carries exactly labels_below."""
    par = parents(tree)
    adj = tree.neighbors
    for a, b in tree_edges(tree):
        c, p = (a, b) if par[a] == b else (b, a)
        seen = set()
        stack = [(c, p)]
        while stack:
            x, px = stack.pop()
            if tree.labels[x] is not None and tree.labels[x] > 0:
                seen.add(tree.labels[x])
            stack.extend((y, x) for y in adj[x] if y != px)
        if seen == set(labels_below):
            return c, p
    raise AssertionError(f"no edge with leaf set {labels_below}")


class TestParse:
    def test_rooted_example(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        assert t.rooted
        assert t.leaf_labels() == {1, 2, 3, 4, 5}
        assert len(t) == 10  # 5 leaves, 4 internals, rho
        assert len(tree_edges(t)) == 9

    def test_unrooted_trifurcating(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        assert not t.rooted
        assert len(t) == 6
        assert len(tree_edges(t)) == 5

    def test_unrooted_bifurcating_top_is_suppressed(self):
        a = parse_newick("((3,4),(1,2));", rooted=False)
        b = parse_newick("(1,2,(3,4));", rooted=False)
        assert sdlnewick_tree(a) == sdlnewick_tree(b)

    def test_unrooted_bifurcating_top_layout(self):
        # the node layout, neighbour order included, sets the order of
        # edges() and so of the reference keys: it is the rooted layout with
        # the root marker dropped and the top suppressed
        rng = random.Random(216)
        for _ in range(500):
            text = to_newick(random_tree(rng.randint(2, 64), rooted=True, rng=rng))
            rooted = parse_newick(text, rooted=True)
            labels, adj = rooted.labels[:-1], [list(nbrs) for nbrs in rooted.neighbors[:-1]]
            adj[0].remove(len(labels))
            _splice_degree2(labels, adj, 0)
            labels, adj = _renumber(labels, adj, [i for i, nbrs in enumerate(adj) if nbrs])
            unrooted = parse_newick(text, rooted=False)
            assert (unrooted.labels, unrooted.neighbors) == (labels, adj)

    def test_two_leaves(self):
        t = parse_newick("(1,2);", rooted=False)
        assert len(tree_edges(t)) == 1
        r = parse_newick("(1,2);", rooted=True)
        assert r.rooted and r.leaf_labels() == {1, 2}

    def test_whitespace(self):
        t = parse_newick(" ( 1 , 2 , ( 3 , 4 ) ) ; ", rooted=False)
        assert t.leaf_labels() == {1, 2, 3, 4}

    @pytest.mark.parametrize(
        "text",
        [
            "1;",
            "(1);",
            "(1,2,3,4);",
            "(1,1);",
            "(0,1);",
            "(01,2);",
            "(1,2",
            "(1,2);x",
            "(1,2)(3,4);",
            ",1;",
            "(1,2));",
            "((1,2);",
            "(1,(2));",
            "(1,2,3);(4,5,6);",
            "",
        ],
    )
    def test_rejects_unrooted(self, text):
        with pytest.raises(NewickError):
            parse_newick(text, rooted=False)

    def test_rooted_rejects_trifurcating_root(self):
        with pytest.raises(NewickError):
            parse_newick("(1,2,(3,4));", rooted=True)

    def test_error_column_is_reported(self):
        with pytest.raises(NewickError, match=r"column"):
            parse_newick("((1,2),(3,4);", rooted=True)

    def test_strict_rejects_decorations(self):
        with pytest.raises(NewickError, match="lenient"):
            parse_newick("(1:0.5,2:1.5);", rooted=False)
        with pytest.raises(NewickError, match="lenient"):
            parse_newick("((1,2)anc,3,4);", rooted=False)

    def test_lenient_skips_decorations(self):
        t = parse_newick("((1:0.5,2:1e-3)anc:0.1,3,4)root;", rooted=False, lenient=True)
        assert t.leaf_labels() == {1, 2, 3, 4}
        assert sdlnewick_tree(t) == sdlnewick_tree(parse_newick("((1,2),3,4);", rooted=False))

    @pytest.mark.parametrize("text", ["((1,2),\u00b2);", "((1,2),\u0663);", "((1,2),\u06603);"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(NewickError, match=r"found '.' \(column 8\)$"):
            parse_newick(text, rooted=True)

    def test_huge_label_rejected(self):
        parse_newick(f"(1,{2**64 - 1});", rooted=False)
        with pytest.raises(NewickError):
            parse_newick(f"(1,{2**64});", rooted=False)
        with pytest.raises(NewickError, match="exceeds the 64-bit limit"):
            parse_newick(f"(1,2,{'9' * 5000});", rooted=False)


class TestTree:
    def test_parents_orientation(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        par = parents(t)
        rho = t.rho_index()
        assert par[rho] == -1
        assert par[t.neighbors[rho][0]] == rho
        # every non-rho node has its parent as a neighbor
        for v in range(len(t)):
            if v != rho:
                assert par[v] in t.neighbors[v]

    def test_to_newick_roundtrip(self):
        rng = random.Random(11)
        for _ in range(25):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(2 if rooted else 3, 12), rooted=rooted, rng=rng)
            back = parse_newick(to_newick(t), rooted=rooted)
            assert sdlnewick_tree(back) == sdlnewick_tree(t)

    def test_to_newick_refuses_a_single_leaf(self):
        # decode_tree accepts a lone leaf, but parse_newick reads no text as one
        with pytest.raises(ValueError, match="^a single leaf has no Newick text"):
            to_newick(decode_tree(b"1;"))

    def test_validate_rejects_broken_structures(self):
        with pytest.raises(ValueError):
            validate_tree(Tree([1, 2], [[1], []], False))  # asymmetric adjacency
        with pytest.raises(ValueError):
            validate_tree(Tree([1, 2, None], [[2], [2], [0, 1]], False))  # degree-2 internal
        with pytest.raises(ValueError):
            validate_tree(Tree([1, 1], [[1], [0]], False))  # duplicate labels
        with pytest.raises(ValueError):
            validate_tree(Tree([1, 2], [[1], [0]], True))  # rooted without rho
        # every degree right and connected, but a cycle: a pendant leaf on
        # each corner of a triangle, and K4 with no leaves
        triangle = Tree(
            [None, None, None, 1, 2, 3], [[1, 2, 3], [0, 2, 4], [0, 1, 5], [0], [1], [2]], False
        )
        k4 = Tree([None] * 4, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], False)
        for cyclic in (triangle, k4):
            with pytest.raises(ValueError, match="not a tree"):
                validate_tree(cyclic)
        for label in (-3, 2**64, "7", 2.5, True):
            with pytest.raises(ValueError, match="neither the root marker"):
                validate_tree(Tree([2, 3, label, None], [[3], [3], [3], [0, 1, 2]], False))
        ok = parse_newick("(1,2,(3,4));", rooted=False)
        validate_tree(ok)


def cut_key(tree, edge):
    """The rspr reference key of the edge (child, parent)."""
    key = tuple(sorted(edge))
    return reference_forest_keys(tree, "rspr")[tree_edges(tree).index(key)]


class TestReferenceKeys:
    def test_worked_rooted_cut(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        assert cut_key(t, child_edge(t, {4, 5})) == b"(r,1,(2,3)) (4,5)p;"

    def test_single_leaf_cut(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        assert cut_key(t, child_edge(t, {4})) == b"(r,(1,(2,3)),5) (4)p;"

    def test_sides_partition_the_leaf_set(self):
        rng = random.Random(23)
        for _ in range(40):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(4, 10), rooted=rooted, rng=rng)
            for move in ("rspr",) if rooted else ("uspr", "tbr"):
                for key in reference_forest_keys(t, move):
                    # a side of a rooted tree may be the root marker alone, "(r)"
                    sides = [set(map(int, re.findall(rb"[0-9]+", side))) for side in key.split()]
                    assert len(sides) == 2
                    assert not sides[0] & sides[1]
                    assert sides[0] | sides[1] == t.leaf_labels()
                    assert key.count(b"r") == rooted


def child_edge_unrooted(tree, labels_below):
    """Edge (inner endpoint of the clade, other endpoint) for an unrooted tree."""
    adj = tree.neighbors
    for a, b in tree_edges(tree):
        for c, p in ((a, b), (b, a)):
            seen = set()
            stack = [(c, p)]
            while stack:
                x, px = stack.pop()
                if tree.labels[x] is not None and tree.labels[x] > 0:
                    seen.add(tree.labels[x])
                stack.extend((y, x) for y in adj[x] if y != px)
            if seen == set(labels_below):
                return c, p
    raise AssertionError(f"no edge with leaf set {labels_below}")


class TestApplySpr:
    def test_worked_example(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        four, one = leaf_node(t, 4), leaf_node(t, 1)
        res = apply_spr(t, (four, t.neighbors[four][0]), (one, t.neighbors[one][0]))
        assert sdlnewick_tree(res) == b"(1,(2,3),4);"
        validate_tree(res)

    def test_identity_move(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        four = leaf_node(t, 4)
        hub = t.neighbors[four][0]
        other = next(x for x in t.neighbors[hub] if x != four and t.labels[x] == 3)
        res = apply_spr(t, (four, hub), (other, hub))
        assert sdlnewick_tree(res) == sdlnewick_tree(t)

    def test_rooted_needs_child_parent_order(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        c, p = child_edge(t, {1, 2})
        with pytest.raises(MoveError):
            apply_spr(t, (p, c), child_edge(t, {3}))

    def test_regraft_on_pruned_side_rejected(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        with pytest.raises(MoveError):
            apply_spr(t, child_edge(t, {1, 2}), child_edge(t, {1}))

    def test_regraft_equal_to_prune_rejected(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        e = tree_edges(t)[0]
        with pytest.raises(MoveError):
            apply_spr(t, e, e)

    def test_whole_tree_prune_has_no_target(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        rho = t.rho_index()
        root = t.neighbors[rho][0]
        for e in tree_edges(t):
            if set(e) != {rho, root}:
                with pytest.raises(MoveError):
                    apply_spr(t, (root, rho), e)

    def test_preserves_leaves_and_validates(self):
        rng = random.Random(31)
        for _ in range(60):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(4, 9), rooted=rooted, rng=rng)
            edges = tree_edges(t)
            par = parents(t) if rooted else None
            a, b = edges[rng.randrange(len(edges))]
            prune = ((a, b) if par[a] == b else (b, a)) if rooted else (a, b)
            regraft = edges[rng.randrange(len(edges))]
            try:
                res = apply_spr(t, prune, regraft)
            except MoveError:
                continue
            validate_tree(res)
            assert res.leaf_labels() == t.leaf_labels()
            assert res.rooted == t.rooted


class TestApplyTbr:
    def test_rooted_rejected(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        with pytest.raises(MoveError):
            apply_tbr(t, tree_edges(t)[0])

    def test_leaf_side_requires_none(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        one = leaf_node(t, 1)
        bisect = (one, t.neighbors[one][0])
        other = child_edge_unrooted(t, {3})
        res = apply_tbr(t, bisect, None, other)
        validate_tree(res)
        assert res.leaf_labels() == {1, 2, 3, 4}
        with pytest.raises(MoveError):
            apply_tbr(t, bisect, other, other)  # edge given for the single-node side

    def test_none_on_multinode_side_rejected(self):
        t = parse_newick("((1,2),3,(4,5));", rooted=False)
        e = child_edge_unrooted(t, {1, 2})
        with pytest.raises(MoveError):
            apply_tbr(t, e, None, None)

    def test_reattach_must_stay_on_its_side(self):
        t = parse_newick("((1,2),3,(4,5));", rooted=False)
        e = child_edge_unrooted(t, {1, 2})
        wrong = child_edge_unrooted(t, {4})
        with pytest.raises(MoveError):
            apply_tbr(t, e, wrong, wrong)

    def test_identity(self):
        t = parse_newick("((1,2),3,(4,5));", rooted=False)
        u, v = child_edge_unrooted(t, {1, 2})
        # reconnecting at the old attachment points reproduces the tree
        res = apply_tbr(t, (u, v), (leaf_node(t, 1), u), child_edge_unrooted(t, {4, 5}))
        validate_tree(res)
        assert sdlnewick_tree(res) == sdlnewick_tree(t)


def test_rho_constant():
    assert RHO == 0


# Every malformed input the parser is pinned on, with the exact message
# (column included): (text, rooted, lenient, message).
PARSE_ERRORS = [
    ('1;', False, False, 'a single leaf is not a valid tree'),
    ('(1);', False, False, 'internal nodes need at least two children (column 3)'),
    ('(1,2,3,4);', False, False, 'unrooted input must have a trifurcating root, found 4 children'),
    ('(1,1);', False, False, 'duplicate leaf label 1'),
    ('(0,1);', False, False, 'label 0 is reserved (column 2)'),
    ('(01,2);', False, False, 'labels must not have leading zeros (column 2)'),
    ('(1,2', False, False, 'unexpected end of input (column 5)'),
    ('(1,2);x', False, False, "trailing characters after ';' (column 7)"),
    ('(1,2)(3,4);', False, False, "unexpected character '(' (column 6)"),
    (',1;', False, False, "expected '(' or a leaf label, found ',' (column 1)"),
    ('(1,2));', False, False, "unbalanced ')' (column 6)"),
    ('((1,2);', False, False, "unbalanced '(' before ';' (column 7)"),
    ('(1,(2));', False, False, 'internal nodes need at least two children (column 6)'),
    ('(1,2,3);(4,5,6);', False, False, "trailing characters after ';' (column 9)"),
    ('', False, False, 'unexpected end of input (column 1)'),
    ('(1,2,(3,4));', True, False, 'rooted input must have a bifurcating root, found 3 children'),
    ('((1,2),(3,4);', True, False, "unbalanced '(' before ';' (column 13)"),
    ('(1:0.5,2:1.5);', False, False, 'branch lengths are not supported (use lenient mode) (column 3)'),
    ('((1,2)anc,3,4);', False, False, 'internal node labels are not supported (use lenient mode) (column 7)'),
    ('(1,18446744073709551616);', False, False, 'label 18446744073709551616 exceeds the 64-bit limit (column 4)'),
    ('((1 :0.5,2),3,4);', False, True, "unexpected character ':' (column 5)"),
    ('((1,2) :0.5,3,4);', False, True, "unexpected character ':' (column 8)"),
    ('((1,2)anc :0.5,3,4);', False, True, "unexpected character ':' (column 11)"),
    ('((1: 0.5,2),3,4);', False, True, "expected a branch length after ':' (column 5)"),
    ('((1,2) anc,3,4);', False, True, "unexpected character 'a' (column 8)"),
    ('((1,2)3 4,5,6);', False, True, "unexpected character '4' (column 9)"),
    ('((1:,2),3,4);', False, True, "expected a branch length after ':' (column 5)"),
    ('((1,2)x:,3,4);', False, True, "expected a branch length after ':' (column 9)"),
    ('((1,2),3,4)::1;', False, True, "expected a branch length after ':' (column 13)"),
    ('((1:1:2,2),3,4);', False, True, "unexpected character ':' (column 6)"),
    ('((1a,2),3,4);', False, True, "unexpected character 'a' (column 4)"),
    ('((1,2):1x,3,4);', False, True, "unexpected character 'x' (column 9)"),
    ('((1,2)x:1(3,4),5);', False, True, "unexpected character '(' (column 10)"),
    ('((1,2)x;', True, False, 'internal node labels are not supported (use lenient mode) (column 7)'),
    ('(1,2)x;', True, False, 'internal node labels are not supported (use lenient mode) (column 6)'),
    ('(1a,2);', False, False, "unexpected character 'a' (column 3)"),
    ('(1,2); x', False, False, "trailing characters after ';' (column 8)"),
    ('(1,(2,3,4),5);', False, False, 'non-binary internal node with 3 children'),
    ('((1,2,3),(4,5));', True, False, 'non-binary internal node with 3 children'),
    ('(,1);', False, False, "expected '(' or a leaf label, found ',' (column 2)"),
    ('(1;', False, False, "unbalanced '(' before ';' (column 3)"),
    ('((1,2),3,4);;', False, False, "trailing characters after ';' (column 13)"),
    ('(1,\x0c2);', False, False, "expected '(' or a leaf label, found '\\x0c' (column 4)"),
    ('(1,2)\x0c;', False, False, 'internal node labels are not supported (use lenient mode) (column 6)'),
    ('(1,2):1;', True, False, 'branch lengths are not supported (use lenient mode) (column 6)'),
    ('(1,2)3;', False, False, 'internal node labels are not supported (use lenient mode) (column 6)'),
    ('(1,2,3,(4,5));', False, False, 'unrooted input must have a trifurcating root, found 4 children'),
    ('(1,2)', False, False, 'unexpected end of input (column 6)'),
    ('(1,2);;', False, False, "trailing characters after ';' (column 7)"),
    ('(1,(2,3)) ;\n(1,2);', True, False, "trailing characters after ';' (column 13)"),
    ('(1,2)a b;', False, True, "unexpected character 'b' (column 8)"),
    ('(0a,2);', False, False, 'label 0 is reserved (column 2)'),
    ('(1,(1,2)x);', False, True, 'duplicate leaf label 1'),
    ('((1,2)(3,4));', True, False, "unexpected character '(' (column 7)"),
    ('(1,2,3)', True, False, 'unexpected end of input (column 8)'),
    ('(1,2, ;', False, False, "expected '(' or a leaf label, found ';' (column 7)"),
    ('(1,(1,2,3),4);', False, False, 'duplicate leaf label 1'),
    ('(1,2,(3,4,5),6);', False, False, 'non-binary internal node with 3 children'),
    ('((1,(2,3,4,5)),(6,7,8));', True, False, 'non-binary internal node with 4 children'),
    ('(:1,2);', False, True, "expected '(' or a leaf label, found ':' (column 2)"),
    ('((1,2)x(3,4),5);', False, True, "unexpected character '(' (column 8)"),
    ('(1,(2,3)x y,4);', False, True, "unexpected character 'y' (column 11)"),
]

# Inputs the parser accepts, with the canonical tree they must give.
PARSE_ACCEPTED = [
    ('(1, 2 )\t;', True, False, b'(r,1,2);'),
    ('((1:1e-3,2:2.5E+10)x:1,3,4);', False, True, b'(1,2,(3,4));'),
    ('((1:1e-3,2),3,4)r00t:7;', False, True, b'(1,2,(3,4));'),
    ('((1,2)a1b:3,3,4);', False, True, b'(1,2,(3,4));'),
    ('((1,2)0:3,3,4);', False, True, b'(1,2,(3,4));'),
    ('(1,18446744073709551615);', False, False, b'(1,18446744073709551615);'),
    ('( (1,2) , (3,4) ) ;', True, False, b'(r,(1,2),(3,4));'),
    ('(1,2);\t', True, False, b'(r,1,2);'),
    ('((1,2):0.5,3):-1;', True, True, b'(r,(1,2),3);'),
    ('  (1,2);', False, False, b'(1,2);'),
]


class TestParsePinned:
    @pytest.mark.parametrize("text,rooted,lenient,message", PARSE_ERRORS)
    def test_error_message(self, text, rooted, lenient, message):
        with pytest.raises(NewickError) as info:
            parse_newick(text, rooted=rooted, lenient=lenient)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,rooted,lenient,canonical", PARSE_ACCEPTED)
    def test_accepted(self, text, rooted, lenient, canonical):
        assert sdlnewick_tree(parse_newick(text, rooted=rooted, lenient=lenient)) == canonical


def tree_from_nested(nested, rooted):
    """Tree arrays built straight from nested tuples, without the parser; an
    unrooted tree's degree-two top node is suppressed."""
    labels, adj = [], []

    def node(x):
        idx = len(labels)
        labels.append(x if isinstance(x, int) else None)
        adj.append([])
        if not isinstance(x, int):
            for child in x:
                c = node(child)
                adj[idx].append(c)
                adj[c].append(idx)
        return idx

    node(nested)
    if rooted:
        labels.append(RHO)
        adj[0].append(len(adj))
        adj.append([0])
    elif len(adj[0]) == 2:  # the top node is 0: join its two children, drop it
        a, b = adj[0]
        adj[a][adj[a].index(0)] = b
        adj[b][adj[b].index(0)] = a
        labels = labels[1:]
        adj = [[w - 1 for w in nbrs] for nbrs in adj[1:]]
    return Tree(labels, adj, rooted)


def shaped(shape, n, rooted, rng):
    if shape == "random" and (rooted or n >= 3):
        return random_tree(n, rooted=rooted, rng=rng)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    if shape == "balanced":

        def nested(xs):
            if len(xs) == 1:
                return xs[0]
            half = len(xs) // 2
            return (nested(xs[:half]), nested(xs[half:]))

        return tree_from_nested(nested(labels), rooted)
    nest = labels[0]
    for lab in labels[1:]:
        nest = (nest, lab)
    return tree_from_nested(nest, rooted)


_NEWICK_TOKEN = re.compile(r"[(),;]|[0-9]+")


def decorate(newick, rng, lenient):
    """The same tree with random whitespace between tokens and, in lenient
    mode, random branch lengths and internal labels. Decorations stick to
    their leaf or ')' and whitespace never splits them, as the grammar asks."""
    out = []
    for tok in _NEWICK_TOKEN.findall(newick):
        if rng.random() < 0.3:
            out.append(rng.choice([" ", "\t", "  ", " \t "]))
        out.append(tok)
        if not lenient:
            continue
        if tok == ")" and rng.random() < 0.4:
            out.append(rng.choice(["anc", "x1", "7", "0", "n_2.b", "%"]))
        if (tok == ")" or tok[0].isdigit()) and rng.random() < 0.5:
            out.append(":" + rng.choice(["0.5", "1e-3", "2.5E+10", "3", ".25", "-1", "1e5"]))
    if rng.random() < 0.5:
        out.append(" ")
    return "".join(out)


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("rooted", [True, False])
@pytest.mark.parametrize("shape", ["random", "caterpillar", "balanced"])
def test_parse_roundtrip_with_whitespace_and_decorations(shape, rooted, lenient):
    rng = random.Random(f"{shape}-{rooted}-{lenient}")
    for n in list(range(2, 13)) + [31, 64, 128, 256]:
        t = shaped(shape, n, rooted, rng)
        text = decorate(to_newick(t), rng, lenient)
        parsed = parse_newick(text, rooted=rooted, lenient=lenient)
        assert sdlnewick_tree(parsed) == sdlnewick_tree(t), text
