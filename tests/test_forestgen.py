import random

import pytest

from treescape.canonical import decode_forest
from treescape.errors import ModeError
from treescape.forestgen import rspr_forest_keys, tbr_forest_keys, uspr_forest_keys
from treescape.oracle import enumerate_neighbors, random_tree
from treescape.tree import parse_newick


ROOTED5 = parse_newick("((1,(2,3)),(4,5));", rooted=True)
UNROOTED5 = parse_newick("((1,2),3,(4,5));", rooted=False)


class TestKeyCounts:
    def test_rspr_one_key_per_edge(self):
        keys = rspr_forest_keys(ROOTED5)
        assert len(keys) == 2 * 5 - 1
        assert len(set(keys)) == len(keys)

    def test_uspr_two_keys_per_edge(self):
        keys = uspr_forest_keys(UNROOTED5)
        assert len(keys) == 2 * (2 * 5 - 3)
        assert len(set(keys)) == len(keys)

    def test_tbr_one_key_per_edge(self):
        keys = tbr_forest_keys(UNROOTED5)
        assert len(keys) == 2 * 5 - 3
        assert len(set(keys)) == len(keys)

    def test_counts_hold_on_random_trees(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(4, 12)
            rt = random_tree(n, rooted=True, rng=rng)
            ut = random_tree(n, rooted=False, rng=rng)
            assert len(set(rspr_forest_keys(rt))) == 2 * n - 1
            assert len(set(uspr_forest_keys(ut))) == 2 * (2 * n - 3)
            assert len(set(tbr_forest_keys(ut))) == 2 * n - 3


class TestKeyShape:
    def test_every_key_is_a_two_component_forest(self):
        for key in (
            rspr_forest_keys(ROOTED5) + uspr_forest_keys(UNROOTED5) + tbr_forest_keys(UNROOTED5)
        ):
            forest = decode_forest(key)
            assert len(forest.components) == 2
            assert forest.leaf_labels() == {1, 2, 3, 4, 5}

    def test_worked_key_values(self):
        assert b"(r,1,(2,3)) (4,5)p;" in rspr_forest_keys(ROOTED5)
        assert b"(1,2,3) (4,5);" in tbr_forest_keys(UNROOTED5)
        uk = uspr_forest_keys(UNROOTED5)
        assert b"(1,2,3) (4,5)p;" in uk
        assert b"((1,2),3)p (4,5);" in uk

    def test_mode_checks(self):
        with pytest.raises(ModeError):
            rspr_forest_keys(UNROOTED5)
        with pytest.raises(ModeError):
            uspr_forest_keys(ROOTED5)
        with pytest.raises(ModeError):
            tbr_forest_keys(ROOTED5)


class TestMoveHierarchy:
    def test_nni_subset_of_uspr_subset_of_tbr(self):
        rng = random.Random(29)
        for _ in range(10):
            t = random_tree(rng.randint(4, 7), rooted=False, rng=rng)
            nni = enumerate_neighbors(t, "nni")
            uspr = enumerate_neighbors(t, "uspr")
            tbr = enumerate_neighbors(t, "tbr")
            assert nni <= uspr <= tbr

    def test_nni_subset_of_rspr(self):
        rng = random.Random(29)
        for _ in range(10):
            t = random_tree(rng.randint(4, 7), rooted=True, rng=rng)
            assert enumerate_neighbors(t, "nni") <= enumerate_neighbors(t, "rspr")
