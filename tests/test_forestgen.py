import random
import re
from collections import Counter

import pytest

from treescape.afcontainer import AFContainer
from treescape.errors import ModeError
from treescape.forestgen import (
    Oriented,
    nni_keys,
    rspr_forest_keys,
    tbr_forest_keys,
    uspr_forest_keys,
)
from treescape.oracle import edges as tree_edges
from treescape.oracle import (
    decode_tree,
    enumerate_all_trees,
    enumerate_neighbors,
    random_tree,
    reference_forest_keys,
    sdlnewick_tree,
    to_newick,
)
from treescape.tree import MAX_LABEL, RHO, Tree, parse_newick


ROOTED5 = parse_newick("((1,(2,3)),(4,5));", rooted=True)
UNROOTED5 = parse_newick("((1,2),3,(4,5));", rooted=False)


def side(t, a, b):
    """Labels of the leaves on a's side of the edge (a, b), the root marker
    included."""
    seen = {a, b}
    work = [a]
    labels = []
    while work:
        x = work.pop()
        if t.labels[x] is not None:
            labels.append(t.labels[x])
        for w in t.neighbors[x]:
            if w not in seen:
                seen.add(w)
                work.append(w)
    return labels


def shared_key_count(move, t):
    """How many keys a generator emits for t: one per edge for TBR, and for
    the prune-regraft moves one per cut and rooted side whose host, the
    other side, has at least three leaves. rSPR roots the side away from the
    root marker; uSPR roots each side in turn."""
    count = 0
    for a, b in tree_edges(t):
        sides = side(t, a, b), side(t, b, a)
        if move == "tbr":
            count += 1
        elif move == "uspr":
            count += sum(len(host) >= 3 for host in sides)
        else:
            count += len(next(host for host in sides if RHO in host)) >= 3
    return count


class TestKeyCounts:
    def test_rspr_one_key_per_edge_with_a_shared_host(self):
        # every edge but the root marker's, whose host is (r) alone
        keys = rspr_forest_keys(ROOTED5)
        assert len(keys) == 2 * 5 - 1 - 1
        assert len(set(keys)) == len(keys)

    def test_uspr_one_key_per_edge_side_with_a_shared_host(self):
        # both sides of the 7 edges, less the 5 leaf sides and the 2 cherries
        keys = uspr_forest_keys(UNROOTED5)
        assert len(keys) == 2 * (2 * 5 - 3) - 5 - 2
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
            assert len(set(rspr_forest_keys(rt))) == shared_key_count("rspr", rt)
            assert len(set(uspr_forest_keys(ut))) == shared_key_count("uspr", ut)
            assert len(set(tbr_forest_keys(ut))) == shared_key_count("tbr", ut) == 2 * n - 3


class TestKeyShape:
    def test_every_key_is_a_two_component_forest(self):
        for keys, t, move in (
            (rspr_forest_keys, ROOTED5, "rspr"),
            (uspr_forest_keys, UNROOTED5, "uspr"),
            (tbr_forest_keys, UNROOTED5, "tbr"),
        ):
            ref = reference_forest_keys(t, move)
            for key in keys(t):
                assert key in ref
                assert len(key[:-1].split(b" ")) == 2
                assert sorted(map(int, re.findall(rb"[0-9]+", key))) == [1, 2, 3, 4, 5]

    def test_worked_key_values(self):
        rk = rspr_forest_keys(ROOTED5)
        assert b"(r,1,(2,3)) (4,5)p;" in rk
        assert b"(r) ((1,(2,3)),(4,5))p;" not in rk  # host (r)
        assert b"(1,2,3) (4,5);" in tbr_forest_keys(UNROOTED5)
        uk = uspr_forest_keys(UNROOTED5)
        assert b"(1,2,3) (4,5)p;" in uk
        assert b"(1)p (2,3,(4,5));" in uk
        assert b"((1,2),3)p (4,5);" not in uk  # host (4,5)
        assert b"(((1,2),3),4)p 5;" not in uk  # host 5

    def test_mode_checks(self):
        with pytest.raises(ModeError):
            rspr_forest_keys(UNROOTED5)
        with pytest.raises(ModeError):
            uspr_forest_keys(ROOTED5)
        with pytest.raises(ModeError):
            tbr_forest_keys(ROOTED5)

    @pytest.mark.parametrize(
        "keys, tree, message",
        [
            (rspr_forest_keys, UNROOTED5, "rooted-move keys require a rooted tree"),
            (uspr_forest_keys, ROOTED5, "unrooted-move keys require an unrooted tree"),
            (tbr_forest_keys, ROOTED5, "bisection keys require an unrooted tree"),
            (lambda t: nni_keys(t, True), UNROOTED5,
             "rooted interchange keys require a rooted tree"),
            (lambda t: nni_keys(t, False), ROOTED5,
             "unrooted interchange keys require an unrooted tree"),
        ],
        ids=["rspr", "uspr", "tbr", "rooted-nni", "unrooted-nni"],
    )
    def test_mode_messages(self, keys, tree, message):
        with pytest.raises(ModeError) as info:
            keys(tree)
        assert str(info.value) == message


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
    if shape != "caterpillar" and shape.startswith("caterpillar"):
        # labels in order along the path. Ascending or descending, no cut
        # reorders an ancestor; with the second smallest deepest, the others
        # descending above it and the smallest last, every ancestor of the
        # deepest cut swaps its children, the longest chain _upper_key
        # rebuilds
        labels.sort(reverse=shape == "caterpillar-descending")
        if shape == "caterpillar-swapping":
            labels = [labels[1], *labels[:1:-1], labels[0]]
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


def host_leaves(key):
    """Leaves of a prune-regraft key's host, the component not kept rooted,
    the root marker counted."""
    host = next(comp for comp in key[:-1].split(b" ") if not comp.endswith(b"p"))
    return len(re.findall(rb"[0-9]+|r", host))


def check_keys_per_edge(move, keys, t):
    """Pair each key with the edge it cuts and compare it with the reference
    key for that edge. The generator walks the parent edge of each node of
    Oriented(t).order[1:] in order (for uSPR keeping the child side rooted
    and then the parent side) and skips exactly the prune-regraft keys whose
    host has at most two leaves."""
    o = Oriented(t)
    got = keys(t)
    assert keys(o) == got
    ref = reference_forest_keys(t, move)
    want = {}
    for e, (a, b) in enumerate(tree_edges(t)):
        if move == "uspr":
            want[(a, b), a], want[(a, b), b] = ref[2 * e], ref[2 * e + 1]
        else:
            want[(a, b), None] = ref[e]
    expected = []
    cut = set()
    for c in o.order[1:]:
        p = o.par[c]
        edge = (min(c, p), max(c, p))
        cut.add(edge)
        for kept in (c, p) if move == "uspr" else (None,):
            key = want[edge, kept]
            if move == "tbr" or host_leaves(key) >= 3:
                expected.append(key)
    assert cut == set(tree_edges(t))
    assert got == expected, to_newick(t)


LARGE_SHAPES = [
    "random",
    "caterpillar",
    "caterpillar-ascending",
    "caterpillar-descending",
    "caterpillar-swapping",
    "balanced",
]


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
    @pytest.mark.parametrize("shape", LARGE_SHAPES)
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


class TestSkippedKeysBelongToOneTree:
    """A prune-regraft key is shared by exactly the trees that regraft its
    rooted component onto an edge of its host: 2k - 3 trees for a host of
    k >= 2 leaves, and one for a lone leaf. So the keys the generators skip,
    those with at most two host leaves, each belong to one tree alone, and
    every other key to at least three. Checked over whole tree spaces."""

    @pytest.mark.parametrize(
        "move, n", [("uspr", 5), ("uspr", 6), ("uspr", 7), ("rspr", 4), ("rspr", 5), ("rspr", 6)]
    )
    def test_trees_per_key_follow_the_host(self, move, n):
        owners = Counter()
        for t in enumerate_all_trees(n, rooted=move == "rspr"):
            owners.update(set(reference_forest_keys(t, move)))
        for key, count in owners.items():
            k = host_leaves(key)
            assert count == (1 if k <= 2 else 2 * k - 3), key

    def test_space_of_seven_leaves(self):
        trees = enumerate_all_trees(7, rooted=False)
        c = AFContainer("uspr")
        for t in trees:
            c.insert(t)
        keys = sum(len(uspr_forest_keys(t)) for t in trees)
        # of the 20,790 reference keys, 8,820 belong to one tree each
        assert (len(c), keys, len(c._forest_trie)) == (945, 11970, 1890)


class TestTreeStringFromKeyTable:
    """The tree string read off the key table equals the canonical encoder
    byte for byte, and is what the container stores in every mode."""

    @staticmethod
    def check(move, t):
        expected = sdlnewick_tree(t)
        assert Oriented(t).canonical() == expected, t.labels
        c = AFContainer(move)
        assert c.insert(t) == (0, {})
        assert c.sdlnewick_of(0) == expected

    @pytest.mark.parametrize("move, rooted", [(move, rooted) for move, _, rooted in MOVES])
    def test_small_trees(self, move, rooted):
        rng = random.Random(move)
        for n in range(1, 13):
            for shape in ("random", "random", "random", "caterpillar", "balanced"):
                for sparse in (False, True):
                    self.check(move, shaped_tree(shape, n, rooted, rng, sparse))

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("shape", LARGE_SHAPES)
    @pytest.mark.parametrize("move, rooted", [(move, rooted) for move, _, rooted in MOVES])
    def test_large_trees(self, move, rooted, shape, n):
        rng = random.Random(n)
        for sparse in (False, True):
            self.check(move, shaped_tree(shape, n, rooted, rng, sparse))

    def test_root_marker_alone(self):
        t = Tree([RHO], [[]], True)
        assert Oriented(t).canonical() == sdlnewick_tree(t) == b"(r);"
