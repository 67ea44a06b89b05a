import random

import pytest

from treescape.errors import MoveError, NewickError
from treescape.canonical import sdlnewick_forest, sdlnewick_tree
from treescape.oracle import random_tree
from treescape.tree import (
    RHO,
    RootMarker,
    Tree,
    apply_spr,
    apply_tbr,
    parse_newick,
    yield_forest,
)


def leaf_node(tree, label):
    return tree.labels.index(label)


def child_edge(tree, labels_below):
    """Edge (child, parent) whose child side carries exactly labels_below."""
    par = tree.parents()
    adj = tree.neighbors
    for a, b in tree.edges():
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
        assert t.n_leaves == 5
        assert t.leaf_labels() == {1, 2, 3, 4, 5}
        assert len(t) == 10  # 5 leaves, 4 internals, rho
        assert len(t.edges()) == 9

    def test_unrooted_trifurcating(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        assert not t.rooted
        assert len(t) == 6
        assert len(t.edges()) == 5

    def test_unrooted_bifurcating_top_is_suppressed(self):
        a = parse_newick("((3,4),(1,2));", rooted=False)
        b = parse_newick("(1,2,(3,4));", rooted=False)
        assert sdlnewick_tree(a) == sdlnewick_tree(b)

    def test_two_leaves(self):
        t = parse_newick("(1,2);", rooted=False)
        assert len(t.edges()) == 1
        r = parse_newick("(1,2);", rooted=True)
        assert r.rooted and r.n_leaves == 2

    def test_bytes_input(self):
        t = parse_newick(b"(1,2,(3,4));", rooted=False)
        assert t.leaf_labels() == {1, 2, 3, 4}

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

    def test_huge_label_rejected(self):
        parse_newick(f"(1,{2**64 - 1});", rooted=False)
        with pytest.raises(NewickError):
            parse_newick(f"(1,{2**64});", rooted=False)


class TestTree:
    def test_parents_orientation(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        par = t.parents()
        rho = t.rho_index()
        assert par[rho] == -1
        assert par[t.root_index()] == rho
        # every non-rho node has its parent as a neighbor
        for v in range(len(t)):
            if v != rho:
                assert par[v] in t.neighbors[v]

    def test_to_newick_roundtrip(self):
        rng = random.Random(11)
        for _ in range(25):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(2 if rooted else 3, 12), rooted=rooted, rng=rng)
            back = parse_newick(t.to_newick(), rooted=rooted)
            assert sdlnewick_tree(back) == sdlnewick_tree(t)

    def test_validate_rejects_broken_structures(self):
        with pytest.raises(ValueError):
            Tree([1, 2], [[1], []], False).validate()  # asymmetric adjacency
        with pytest.raises(ValueError):
            Tree([1, 2, None], [[2], [2], [0, 1]], False).validate()  # degree-2 internal
        with pytest.raises(ValueError):
            Tree([1, 1], [[1], [0]], False).validate()  # duplicate labels
        with pytest.raises(ValueError):
            Tree([1, 2], [[1], [0]], True).validate()  # rooted without rho
        ok = parse_newick("(1,2,(3,4));", rooted=False)
        ok.validate()


class TestYieldForest:
    def test_worked_rooted_cut(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        f = yield_forest(t, (child_edge(t, {4, 5}),))
        assert sdlnewick_forest(f) == b"(r,1,(2,3)) (4,5)p;"
        markers = sorted(c.marker.value for c in f.components if c.marker)
        assert markers == ["component", "original"]

    def test_single_leaf_cut(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        f = yield_forest(t, (child_edge(t, {4}),))
        assert sdlnewick_forest(f) == b"(r,(1,(2,3)),5) (4)p;"

    def test_label_partition(self):
        rng = random.Random(23)
        for _ in range(40):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(4, 10), rooted=rooted, rng=rng)
            edge = t.edges()[rng.randrange(len(t.edges()))]
            if rooted:
                f = yield_forest(t, (edge,))
            else:
                f = yield_forest(t, (edge,), keep_roots=(edge[0],))
            f.validate()
            assert f.leaf_labels() == t.leaf_labels()
            assert len(f.components) == 2

    def test_rooted_rejects_keep_roots(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        with pytest.raises(MoveError):
            yield_forest(t, (t.edges()[0],), keep_roots=(t.edges()[0][0],))

    def test_keep_root_must_touch_a_cut(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        e0, e1 = t.edges()[0], t.edges()[1]
        with pytest.raises(MoveError):
            yield_forest(t, (e0,), keep_roots=(e1[0],) if e1[0] not in e0 else (e1[1],))

    def test_duplicate_cut_rejected(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        e = t.edges()[0]
        with pytest.raises(MoveError):
            yield_forest(t, (e, (e[1], e[0])))

    def test_nonedge_rejected(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        with pytest.raises(MoveError):
            yield_forest(t, ((0, 0),))

    def test_multicut_degenerate_root_rejected(self):
        # cutting two edges of one internal node leaves it below degree 2
        t = parse_newick("(1,2,(3,4));", rooted=False)
        hub = t.neighbors[leaf_node(t, 3)][0]
        e1 = (leaf_node(t, 3), hub)
        e2 = (leaf_node(t, 4), hub)
        with pytest.raises(MoveError):
            yield_forest(t, (e1, e2), keep_roots=(hub,))

    def test_two_kept_roots_in_one_component_rejected(self):
        t = parse_newick("(1,2,(3,(4,(5,6))));", rooted=False)
        x1, x2 = t.neighbors[leaf_node(t, 3)][0], t.neighbors[leaf_node(t, 4)][0]
        hub, x3 = t.neighbors[leaf_node(t, 1)][0], t.neighbors[leaf_node(t, 5)][0]
        with pytest.raises(MoveError):
            yield_forest(t, ((hub, x1), (x2, x3)), keep_roots=(x1, x2))

    def test_multicut_valid(self):
        t = parse_newick("((1,2),(3,4),(5,6));", rooted=False)
        a = child_edge_unrooted(t, {1, 2})
        b = child_edge_unrooted(t, {3, 4})
        f = yield_forest(t, (a, b))
        assert len(f.components) == 3
        assert f.leaf_labels() == {1, 2, 3, 4, 5, 6}


def child_edge_unrooted(tree, labels_below):
    """Edge (inner endpoint of the clade, other endpoint) for an unrooted tree."""
    adj = tree.neighbors
    for a, b in tree.edges():
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
        res.validate()

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
        e = t.edges()[0]
        with pytest.raises(MoveError):
            apply_spr(t, e, e)

    def test_whole_tree_prune_has_no_target(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        rho = t.rho_index()
        root = t.root_index()
        for e in t.edges():
            if set(e) != {rho, root}:
                with pytest.raises(MoveError):
                    apply_spr(t, (root, rho), e)

    def test_preserves_leaves_and_validates(self):
        rng = random.Random(31)
        for _ in range(60):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(4, 9), rooted=rooted, rng=rng)
            edges = t.edges()
            par = t.parents() if rooted else None
            a, b = edges[rng.randrange(len(edges))]
            prune = ((a, b) if par[a] == b else (b, a)) if rooted else (a, b)
            regraft = edges[rng.randrange(len(edges))]
            try:
                res = apply_spr(t, prune, regraft)
            except MoveError:
                continue
            res.validate()
            assert res.leaf_labels() == t.leaf_labels()
            assert res.rooted == t.rooted


class TestApplyTbr:
    def test_rooted_rejected(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        with pytest.raises(MoveError):
            apply_tbr(t, t.edges()[0])

    def test_leaf_side_requires_none(self):
        t = parse_newick("(1,2,(3,4));", rooted=False)
        one = leaf_node(t, 1)
        bisect = (one, t.neighbors[one][0])
        other = child_edge_unrooted(t, {3})
        res = apply_tbr(t, bisect, None, other)
        res.validate()
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
        res.validate()
        assert sdlnewick_tree(res) == sdlnewick_tree(t)


def test_rho_constant_and_markers():
    assert RHO == 0
    assert {m.value for m in RootMarker} == {"original", "component"}
