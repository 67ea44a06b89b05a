import random

import pytest

from treescape.afcontainer import AFContainer
from treescape.canonical import decode_forest, decode_tree, sdlnewick_tree
from treescape.errors import ModeError
from treescape.forestgen import Oriented, rspr_forest_keys, tbr_forest_keys, uspr_forest_keys
from treescape.oracle import enumerate_neighbors, random_tree, reference_forest_keys
from treescape.tree import MAX_LABEL, RHO, Tree, parse_newick


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


MOVES = [
    ("rspr", rspr_forest_keys, True),
    ("uspr", uspr_forest_keys, False),
    ("tbr", tbr_forest_keys, False),
]


def leaf_labels(n, rng, sparse):
    """n distinct labels in random order: 1..n, or large ones up to 2**64 - 1."""
    if not sparse:
        labels = list(range(1, n + 1))
    else:
        chosen = {MAX_LABEL}
        while len(chosen) < n:
            chosen.add(rng.randint(1, MAX_LABEL))
        labels = sorted(chosen)
    rng.shuffle(labels)
    return labels


def shaped_tree(shape, n, rooted, rng, sparse):
    labels = leaf_labels(n, rng, sparse)
    if n == 1:  # a lone leaf, below the root marker when rooted
        if rooted:
            return Tree([RHO, labels[0]], [[1], [0]], True)
        return Tree(labels, [[]], False)
    if shape == "random" and (rooted or n >= 3):
        t = random_tree(n, rooted=rooted, rng=rng)
        relabelled = [labels[lab - 1] if lab else lab for lab in t.labels]
        return Tree(relabelled, t.neighbors, rooted)
    if shape == "balanced":

        def nested(xs):
            if len(xs) == 1:
                return str(xs[0])
            half = len(xs) // 2
            return f"({nested(xs[:half])},{nested(xs[half:])})"

        text = nested(labels)
    else:  # caterpillar: every cut parent lies on one long path
        text = str(labels[0])
        for lab in labels[1:]:
            text = f"({text},{lab})"
    return parse_newick(text + ";", rooted=rooted)


def check_keys_per_edge(move, keys, t):
    """Pair each key with the edge it cuts and compare it with the reference
    key for that edge: key k cuts the parent edge of Oriented(t).order[k + 1]
    (for uSPR keys 2k and 2k + 1, keeping the child side rooted and then the
    parent side)."""
    o = Oriented(t)
    got = keys(t)
    assert keys(o) == got
    ref = reference_forest_keys(t, move)
    want = {}
    for e, (a, b) in enumerate(t.edges()):
        if move == "uspr":
            want[(a, b), a], want[(a, b), b] = ref[2 * e], ref[2 * e + 1]
        else:
            want[(a, b), None] = ref[e]
    per = 2 if move == "uspr" else 1
    assert len(got) == len(want)
    cut = set()
    for k, key in enumerate(got):
        c = o.order[k // per + 1]
        p = o.par[c]
        edge = (min(c, p), max(c, p))
        kept = (c if k % 2 == 0 else p) if move == "uspr" else None
        assert key == want[edge, kept], (t.to_newick(), edge, kept)
        cut.add(edge)
    assert cut == set(t.edges())


class TestSplicedKeysMatchReference:
    """Every key equals the cut-and-re-encode construction for the edge it
    cuts."""

    @pytest.mark.parametrize("move, keys, rooted", MOVES)
    def test_small_trees(self, move, keys, rooted):
        rng = random.Random(move)
        for n in range(2, 13):
            for shape in ("random", "random", "random", "caterpillar", "balanced"):
                for sparse in (False, True):
                    check_keys_per_edge(move, keys, shaped_tree(shape, n, rooted, rng, sparse))

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("shape", ["random", "caterpillar", "balanced"])
    @pytest.mark.parametrize("move, keys, rooted", MOVES)
    def test_large_trees(self, move, keys, rooted, shape, n):
        rng = random.Random(n)
        check_keys_per_edge(move, keys, shaped_tree(shape, n, rooted, rng, sparse=shape != "random"))

    def test_single_leaf_tree_has_no_keys(self):
        t = decode_tree(b"7;")
        assert uspr_forest_keys(t) == reference_forest_keys(t, "uspr") == []
        assert tbr_forest_keys(t) == reference_forest_keys(t, "tbr") == []

    def test_reference_mode_checks(self):
        with pytest.raises(ModeError):
            reference_forest_keys(UNROOTED5, "rspr")
        with pytest.raises(ModeError):
            reference_forest_keys(ROOTED5, "tbr")
        with pytest.raises(ValueError):
            reference_forest_keys(ROOTED5, "nni")


class TestTreeStringFromKeyTable:
    """The tree string read off the key table equals the canonical encoder
    byte for byte, and is what the container stores in every mode."""

    @staticmethod
    def check(move, t):
        expected = sdlnewick_tree(t)
        assert Oriented(t).canonical() == expected, t.labels
        c = AFContainer(move)
        assert c.sdlnewick_of(c.insert(t)) == expected
        assert c.id(t) == 0

    @pytest.mark.parametrize("move, rooted", [(move, rooted) for move, _, rooted in MOVES])
    def test_small_trees(self, move, rooted):
        rng = random.Random(move)
        for n in range(1, 13):
            for shape in ("random", "random", "random", "caterpillar", "balanced"):
                for sparse in (False, True):
                    self.check(move, shaped_tree(shape, n, rooted, rng, sparse))

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("shape", ["random", "caterpillar", "balanced"])
    @pytest.mark.parametrize("move, rooted", [(move, rooted) for move, _, rooted in MOVES])
    def test_large_trees(self, move, rooted, shape, n):
        rng = random.Random(n)
        for sparse in (False, True):
            self.check(move, shaped_tree(shape, n, rooted, rng, sparse))

    def test_root_marker_alone(self):
        t = Tree([RHO], [[]], True)
        assert Oriented(t).canonical() == sdlnewick_tree(t) == b"(r);"
