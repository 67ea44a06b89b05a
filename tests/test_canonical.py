"""Canonical byte-string encoding: pinned strings, uniqueness under
re-presentation, and tree decode round trips."""

import os
import random
import subprocess
import sys

import pytest
from conftest import shuffled_presentation
from hypothesis import given, settings, strategies as st

import treescape
from treescape.errors import CanonicalError
from treescape.oracle import edges as tree_edges
from treescape.oracle import decode_tree, random_tree, reference_forest_keys, sdlnewick_tree
from treescape.tree import parse_newick


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
        edge45 = next(
            k for k, (a, b) in enumerate(tree_edges(t)) if {t.labels[a], t.labels[b]} == {4, None}
        )
        assert reference_forest_keys(t, "rspr")[edge45] == b"(r,(1,(2,3)),5) (4)p;"


class TestDecode:
    @pytest.mark.parametrize(
        "text",
        [
            "(r,(1,(2,3)),(4,5));",
            "(r,1,2);",
            "(1,2,(3,4));",
            "(1,2);",
            "1;",
            "18446744073709551615;",
        ],
    )
    def test_roundtrip(self, text):
        assert sdlnewick_tree(decode_tree(text)) == text.encode("ascii")

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
            "(r,1,(2,3)) (4,5)p;",
            "(1,2,3) (4,5);",
            "(1,2,3) (4,5)p;",
            "((1,2),3)p (4,5);",
            "(r) ((1,2),(3,4))p;",
            "(r,1) (2)p (3)p;",
            "1 (2,3);",
        ],
    )
    def test_decode_tree_rejects_canonical_forests(self, text):
        # each is a canonical forest string; none of them is a tree
        with pytest.raises(CanonicalError):
            decode_tree(text)

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
            "0;",
            "01;",
            "18446744073709551616;",
        ],
    )
    def test_rejects_noncanonical_or_malformed(self, text):
        with pytest.raises(CanonicalError):
            decode_tree(text)

    @pytest.mark.parametrize("text", ["(r,(1,2),\u00b2);", "(r,(1,2),\u0663);", "(1,2,\u0660);"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(CanonicalError):
            decode_tree(text)

    def test_label_too_long_for_int_rejected(self):
        with pytest.raises(CanonicalError, match="exceeds the 64-bit limit"):
            decode_tree(f"(1,2,{'9' * 5000});")

    @pytest.mark.parametrize("text,column", [("(1,2,(3,x));", 9), ("(r,(1,2),(3,x));", 13)])
    def test_error_carries_column(self, text, column):
        # a rooted string is parsed without its "r,"; the column still counts it
        with pytest.raises(CanonicalError, match=rf"\(column {column}\)$"):
            decode_tree(text)

    @pytest.mark.parametrize(
        "text",
        ["(r,(1,(2,3)),(4,5));", "(1,2,(3,4));", "7;", "01;", "(2,1,(3,4));", "(r,(1,2),(3,x));",
         "(1,2,é);"],
    )
    def test_str_bytes_and_bytearray_read_alike(self, text):
        def outcome(data):
            try:
                t = decode_tree(data)
            except CanonicalError as exc:
                return str(exc)
            return t.labels, t.neighbors, t.rooted

        data = text.encode("utf-8")
        assert outcome(text) == outcome(data) == outcome(bytearray(data))


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
    @given(st.integers(4, 80), st.booleans(), st.randoms(use_true_random=False))
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


def test_non_binary_subtree_rejected_under_optimisation():
    # the check must survive python -O, where a bare assert would vanish and
    # the encoder would silently drop a leaf of the four-child node
    code = (
        "from treescape.oracle import sdlnewick_tree\n"
        "from treescape.errors import CanonicalError\n"
        "from treescape.tree import Tree\n"
        "tree = Tree([1, 2, None, None, 3, 4, 5, 6],\n"
        "            [[2], [2], [0, 1, 3], [2, 4, 5, 6, 7], [3], [3], [3], [3]], False)\n"
        "try:\n"
        "    print(sdlnewick_tree(tree))\n"
        "except CanonicalError:\n"
        "    print('CanonicalError')\n"
    )
    src = os.path.dirname(os.path.dirname(treescape.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "CanonicalError"
