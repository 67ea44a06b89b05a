"""Canonical byte-string encoding: pinned strings, uniqueness under
re-presentation, and decode round trips."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import treescape
from treescape.canonical import decode_forest, decode_tree, sdlnewick_forest, sdlnewick_tree
from treescape.errors import CanonicalError
from treescape.oracle import random_tree
from treescape.tree import Tree, parse_newick, yield_forest


def shuffled_presentation(tree, rng):
    """Same tree, new node numbering and neighbor order."""
    n = len(tree)
    perm = list(range(n))
    rng.shuffle(perm)
    labels = [None] * n
    adj = [None] * n
    for old, new in enumerate(perm):
        labels[new] = tree.labels[old]
        nbrs = [perm[x] for x in tree.neighbors[old]]
        rng.shuffle(nbrs)
        adj[new] = nbrs
    return Tree(labels, adj, tree.rooted)


class TestPinnedStrings:
    def test_rooted_tree(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        assert sdlnewick_tree(t) == b"(r,(1,(2,3)),(4,5));"

    def test_unrooted_tree(self):
        t = parse_newick("((3,4),(1,2));", rooted=False)
        assert sdlnewick_tree(t) == b"(1,2,(3,4));"

    def test_children_sorted_by_smallest_descendant(self):
        t = parse_newick("((5,(2,4)),(3,1));", rooted=True)
        assert sdlnewick_tree(t) == b"(r,(1,3),((2,4),5));"

    def test_two_leaf_trees(self):
        assert sdlnewick_tree(parse_newick("(2,1);", rooted=False)) == b"(1,2);"
        assert sdlnewick_tree(parse_newick("(2,1);", rooted=True)) == b"(r,1,2);"

    def test_component_ordering_in_forest(self):
        t = parse_newick("((1,(2,3)),(4,5));", rooted=True)
        par = t.parents()
        edge45 = next(
            (a, b) if par[a] == b else (b, a)
            for a, b in t.edges()
            if {t.labels[a], t.labels[b]} == {4, None}
        )
        f = yield_forest(t, (edge45,))
        assert sdlnewick_forest(f) == b"(r,(1,(2,3)),5) (4)p;"


class TestDecode:
    @pytest.mark.parametrize(
        "text",
        [
            "(r,(1,(2,3)),(4,5));",
            "(r,1,(2,3)) (4,5)p;",
            "(1,2,(3,4));",
            "(1,2,3) (4,5);",
            "(1,2,3) (4,5)p;",
            "((1,2),3)p (4,5);",
            "(r) ((1,2),(3,4))p;",
            "(r,1) (2)p (3)p;",
            "1 (2,3);",
            "(1,2);",
        ],
    )
    def test_roundtrip(self, text):
        f = decode_forest(text)
        assert sdlnewick_forest(f) == text.encode("ascii")

    def test_decode_tree(self):
        t = decode_tree(b"(r,(1,(2,3)),(4,5));")
        assert t.rooted and t.leaf_labels() == {1, 2, 3, 4, 5}
        u = decode_tree("(1,2,(3,4));")
        assert not u.rooted

    def test_decode_tree_rejects_forests_and_pruned(self):
        with pytest.raises(CanonicalError):
            decode_tree("(r,1,2) (3,4)p;")
        with pytest.raises(CanonicalError):
            decode_tree("(1,2)p;")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            ";",
            "(1,2,(3,4))",
            "(2,1,(3,4));",
            "(1,2,(4,3));",
            "(4,5) (r,1,(2,3))p;",
            "(1,2)  (3,4);",
            "(r,1,(2,3)) (4,5)p ;",
            "(r,(1,2)) (3,4)p;",
            "((1,2))p (3,4);",
            "(1,2,3,4);",
            "(r,1,2,3);",
            "(1,2) (2,3);",
            "(r,1,2) (r,3,4);",
            "(1,0);",
            "(1,2x);",
            "(r,1,2)p;",
        ],
    )
    def test_rejects_noncanonical_or_malformed(self, text):
        with pytest.raises(CanonicalError):
            decode_forest(text)

    def test_lenient_accepts_noncanonical_order(self):
        f = decode_forest("(2,1,(3,4));", strict=False)
        assert sdlnewick_forest(f) == b"(1,2,(3,4));"
        with pytest.raises(CanonicalError):
            decode_forest("(2,1,(3,4));", strict=True)

    @pytest.mark.parametrize("text", ["(r,(1,2),\u00b2);", "(r,(1,2),\u0663);", "(1,2,\u0660);"])
    @pytest.mark.parametrize("decode", [decode_tree, decode_forest])
    def test_non_ascii_digits_rejected(self, decode, text):
        with pytest.raises(CanonicalError):
            decode(text)

    def test_label_too_long_for_int_rejected(self):
        with pytest.raises(CanonicalError, match="exceeds the 64-bit limit"):
            decode_tree(f"(1,2,{'9' * 5000});")

    def test_error_carries_column(self):
        with pytest.raises(CanonicalError, match="column"):
            decode_forest("(1,2,(3,x));")


class TestUniqueness:
    def test_presentation_invariance_random(self):
        rng = random.Random(7)
        for _ in range(20):
            rooted = rng.random() < 0.5
            t = random_tree(rng.randint(4, 16), rooted=rooted, rng=rng)
            want = sdlnewick_tree(t)
            for _ in range(20):
                assert sdlnewick_tree(shuffled_presentation(t, rng)) == want

    def test_rerooted_newick_presentations(self):
        # the same unrooted tree written from different vantage points
        forms = [
            "(1,2,((3,5),4));",
            "(4,(3,5),(2,1));",
            "((4,(5,3)),(1,2));",
            "(3,5,(4,(1,2)));",
            "(5,3,((1,2),4));",
        ]
        strings = {sdlnewick_tree(parse_newick(s, rooted=False)) for s in forms}
        assert strings == {b"(1,2,((3,5),4));"}

    def test_distinct_trees_distinct_strings(self):
        from treescape.oracle import enumerate_all_trees

        seen = set()
        for t in enumerate_all_trees(5, rooted=True):
            seen.add(sdlnewick_tree(t))
        assert len(seen) == 105

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 11), st.booleans(), st.randoms(use_true_random=False))
    def test_decode_encode_identity(self, n, rooted, rng):
        t = random_tree(n, rooted=rooted, rng=rng)
        s = sdlnewick_tree(t)
        back = decode_tree(s)
        assert back.rooted == rooted
        assert sdlnewick_tree(back) == s

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 11), st.booleans(), st.randoms(use_true_random=False))
    def test_length_bound(self, n, rooted, rng):
        # labels up to 2^64 take 20 digits; structure adds a bounded
        # per-leaf overhead
        t = random_tree(n, rooted=rooted, rng=rng)
        assert len(sdlnewick_tree(t)) <= 23 * n + 8


def test_components_sharing_smallest_label_rejected():
    from treescape.tree import Component, Forest

    a = Component([1, 2, None], [[2], [2], [0, 1]])
    b = Component([1, 3, None], [[2], [2], [0, 1]])
    with pytest.raises(CanonicalError):
        sdlnewick_forest(Forest([a, b]))


def test_non_binary_subtree_rejected_under_optimisation():
    # the check must survive python -O, where a bare assert would vanish and
    # the encoder would silently drop leaf 4
    code = (
        "from treescape.canonical import sdlnewick_forest\n"
        "from treescape.errors import CanonicalError\n"
        "from treescape.tree import Component, Forest, RootMarker\n"
        "pruned = Component([None, None, 2, 3, 4, 5],\n"
        "                   [[1, 5], [0, 2, 3, 4], [1], [1], [1], [0]],\n"
        "                   RootMarker.COMPONENT, 0)\n"
        "try:\n"
        "    print(sdlnewick_forest(Forest([Component([1], [[]]), pruned])))\n"
        "except CanonicalError:\n"
        "    print('CanonicalError')\n"
    )
    src = os.path.dirname(os.path.dirname(treescape.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "CanonicalError"
