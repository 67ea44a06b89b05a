import hashlib
import random

import pytest

from treescape.errors import ModeError
from treescape.oracle import (
    MOVES,
    edges,
    enumerate_all_trees,
    enumerate_neighbors,
    pairwise_graph,
    random_tree,
    reference_forest_keys,
    sdlnewick_tree,
    to_newick,
    validate_tree,
)
from treescape.tree import RHO, Tree, parse_newick


class TestEnumerateAllTrees:
    @pytest.mark.parametrize(
        "n,rooted,count",
        [
            (2, True, 1),
            (3, True, 3),
            (4, True, 15),
            (5, True, 105),
            (3, False, 1),
            (4, False, 3),
            (5, False, 15),
            (6, False, 105),
            (7, False, 945),
        ],
    )
    def test_counts_follow_double_factorials(self, n, rooted, count):
        trees = enumerate_all_trees(n, rooted=rooted)
        assert len(trees) == count
        assert len({sdlnewick_tree(t) for t in trees}) == count

    def test_trees_are_valid(self):
        for t in enumerate_all_trees(5, rooted=True):
            validate_tree(t)
            assert t.leaf_labels() == {1, 2, 3, 4, 5}

    def test_too_small(self):
        with pytest.raises(ValueError):
            enumerate_all_trees(1, rooted=True)
        with pytest.raises(ValueError):
            enumerate_all_trees(2, rooted=False)


class TestRandomTree:
    def test_deterministic_per_seed(self):
        a = random_tree(10, rooted=False, rng=random.Random(5))
        b = random_tree(10, rooted=False, rng=random.Random(5))
        assert sdlnewick_tree(a) == sdlnewick_tree(b)

    def test_valid_and_fully_labeled(self):
        rng = random.Random(6)
        for _ in range(20):
            rooted = rng.random() < 0.5
            n = rng.randint(4, 20)
            t = random_tree(n, rooted=rooted, rng=rng)
            validate_tree(t)
            assert t.leaf_labels() == set(range(1, n + 1))
            assert t.rooted == rooted

    def test_hits_every_small_topology(self):
        rng = random.Random(8)
        seen = set()
        for _ in range(300):
            seen.add(sdlnewick_tree(random_tree(4, rooted=False, rng=rng)))
        assert len(seen) == 3

    def test_matches_the_copy_per_leaf_generator(self):
        for rooted in (True, False):
            for seed in range(100):
                n = random.Random(seed).randint(3, 120)
                want = _copy_per_leaf_tree(n, rooted=rooted, rng=random.Random(seed))
                got = random_tree(n, rooted=rooted, rng=random.Random(seed))
                assert (got.labels, got.neighbors, got.rooted) == (
                    want.labels,
                    want.neighbors,
                    want.rooted,
                )


def _copy_per_leaf_tree(n, *, rooted, rng):
    """random_tree as first written: list the slots with edges() and copy
    the tree for every leaf it inserts, which is O(n^2)."""
    if rooted:
        tree, k0 = Tree([1, 2, None, RHO], [[2], [2], [0, 1, 3], [2]], True), 2
    else:
        tree, k0 = Tree([1, 2, 3, None], [[3], [3], [3], [0, 1, 2]], False), 3
    for k in range(k0 + 1, n + 1):
        slots = edges(tree)
        u, v = slots[rng.randrange(len(slots))]
        labels = list(tree.labels) + [None, k]
        adj = [list(nbrs) for nbrs in tree.neighbors] + [[], []]
        w = len(labels) - 2
        adj[u][adj[u].index(v)] = w
        adj[v][adj[v].index(u)] = w
        adj[w] = [u, v, w + 1]
        adj[w + 1] = [w]
        tree = Tree(labels, adj, rooted)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    labels = [perm[lab - 1] if isinstance(lab, int) and lab > 0 else lab for lab in tree.labels]
    return Tree(labels, tree.neighbors, rooted)


class TestEnumerateNeighbors:
    def test_move_names(self):
        assert MOVES == ("rspr", "uspr", "nni", "tbr")
        with pytest.raises(ValueError):
            enumerate_neighbors(random_tree(4, rooted=False, rng=random.Random(0)), "spr")

    def test_mode_mismatches(self):
        rng = random.Random(1)
        rooted = random_tree(5, rooted=True, rng=rng)
        unrooted = random_tree(5, rooted=False, rng=rng)
        with pytest.raises(ModeError):
            enumerate_neighbors(rooted, "uspr")
        with pytest.raises(ModeError):
            enumerate_neighbors(rooted, "tbr")
        with pytest.raises(ModeError):
            enumerate_neighbors(unrooted, "rspr")

    def test_quartet_nni(self):
        trees = enumerate_all_trees(4, rooted=False)
        strings = {sdlnewick_tree(t) for t in trees}
        for t in trees:
            assert enumerate_neighbors(t, "nni") == strings - {sdlnewick_tree(t)}

    def test_symmetry(self):
        rng = random.Random(3)
        for move in MOVES:
            rooted = move == "rspr"
            trees = [random_tree(6, rooted=rooted, rng=rng) for _ in range(8)]
            strings = [sdlnewick_tree(t) for t in trees]
            hoods = [enumerate_neighbors(t, move) for t in trees]
            for i in range(len(trees)):
                for j in range(len(trees)):
                    assert (strings[j] in hoods[i]) == (strings[i] in hoods[j])

    def test_never_contains_self(self):
        rng = random.Random(4)
        for move in MOVES:
            rooted = move == "rspr"
            t = random_tree(6, rooted=rooted, rng=rng)
            assert sdlnewick_tree(t) not in enumerate_neighbors(t, move)

    def test_uspr_size_formula(self):
        rng = random.Random(9)
        for n in range(4, 8):
            t = random_tree(n, rooted=False, rng=rng)
            assert len(enumerate_neighbors(t, "uspr")) == 2 * (n - 3) * (2 * n - 7)


class TestPairwiseGraph:
    def test_single_tree_no_edges(self):
        edges, canon = pairwise_graph([random_tree(5, rooted=True, rng=random.Random(2))], "rspr")
        assert edges == [] and len(canon) == 1

    def test_first_occurrence_dedup(self):
        rng = random.Random(10)
        t = random_tree(5, rooted=False, rng=rng)
        edges, canon = pairwise_graph([t, t, t], "uspr")
        assert edges == [] and canon == [sdlnewick_tree(t)]


class TestNniMoves:
    def test_unrooted_count(self):
        # 2 swaps per internal edge, n-3 internal edges
        rng = random.Random(17)
        for n in range(4, 10):
            t = random_tree(n, rooted=False, rng=rng)
            assert len(enumerate_neighbors(t, "nni")) == 2 * (n - 3)

    def test_rooted_count(self):
        rng = random.Random(17)
        for n in range(3, 10):
            t = random_tree(n, rooted=True, rng=rng)
            assert len(enumerate_neighbors(t, "nni")) == 2 * (n - 2)

    def test_tiny_trees_have_no_moves(self):
        assert enumerate_neighbors(parse_newick("(1,2,3);", rooted=False), "nni") == set()
        assert enumerate_neighbors(parse_newick("(1,2);", rooted=False), "nni") == set()

    @pytest.mark.parametrize("n, rooted", [(5, True), (6, False)])
    def test_neighbours_differ_in_one_split(self, n, rooted):
        # the split definition: two binary trees are one interchange apart
        # when exactly one split of each is missing from the other
        world = {sdlnewick_tree(t): (t, splits(t)) for t in enumerate_all_trees(n, rooted=rooted)}
        for t, own in world.values():
            want = {s for s, (_, other) in world.items() if len(own - other) == 1}
            assert enumerate_neighbors(t, "nni") == want

    def test_neighbours_are_one_prune_regraft_away(self):
        rng = random.Random(23)
        for n in range(4, 10):
            for rooted in (True, False):
                t = random_tree(n, rooted=rooted, rng=rng)
                near = enumerate_neighbors(t, "nni")
                assert near and near <= enumerate_neighbors(t, "rspr" if rooted else "uspr")


def splits(tree):
    """The nontrivial splits of a tree, each as the side away from its
    smallest label (the root marker of a rooted tree)."""
    labels, adj = tree.labels, tree.neighbors
    out = []

    def below(x, parent):
        side = {labels[x]} - {None}
        for y in adj[x]:
            if y != parent:
                side |= below(y, x)
        out.append(frozenset(side))
        return side

    leaves = below(labels.index(min(lab for lab in labels if lab is not None)), -1)
    return {s for s in out if 1 < len(s) < len(leaves) - 1}


def reference_digest():
    """sha256 over the reference's outputs and errors on a fixed corpus."""
    h = hashlib.sha256()

    def put(item):
        h.update(item if isinstance(item, bytes) else item.encode())
        h.update(b"\n")

    for rooted, sizes in ((True, range(2, 6)), (False, range(3, 7))):
        for n in sizes:
            for t in enumerate_all_trees(n, rooted=rooted):
                put(sdlnewick_tree(t))
                put(to_newick(t))
                for move in MOVES:
                    try:
                        nbrs = enumerate_neighbors(t, move)
                    except ModeError as exc:
                        put(str(exc))
                        continue
                    put(move)
                    for c in sorted(nbrs):
                        put(c)
                for move in ("rspr", "uspr", "tbr"):
                    try:
                        keys = reference_forest_keys(t, move)
                    except ModeError as exc:
                        keys = [str(exc)]
                    for key in keys:
                        put(key)
    rng = random.Random(1606)
    for i in range(60):
        rooted = i % 2 == 0
        t = random_tree(rng.randint(4, 40), rooted=rooted, rng=rng)
        put(to_newick(t))
        for move in ("rspr",) if rooted else ("uspr", "tbr"):
            for key in reference_forest_keys(t, move):
                put(key)
    return h.hexdigest()


def test_reference_outputs_are_pinned():
    # every output and error message of the reference, byte for byte
    want = "752b3165c9aa3b31240a4c0a18979bfaf7f2e6d69dd962c49e6b0d92e23f0bfd"
    assert reference_digest() == want
