import random
import weakref

import pytest

from treescape.errors import GraphInvariantError, LabelSetError, ModeError, MoveError
from treescape.graph import (
    AdjacencyGraph,
    construct_nni_graph,
    construct_spr_graph,
    construct_tbr_graph,
)
from treescape.oracle import (
    apply_spr,
    apply_tbr,
    decode_tree,
    enumerate_all_trees,
    enumerate_neighbors,
    pairwise_graph,
    parents,
    random_tree,
    reference_forest_keys,
    sdlnewick_tree,
    to_newick,
)
from treescape.oracle import edges as tree_edges
from treescape.tree import Tree, parse_newick


class TestAdjacencyGraph:
    def test_edge_to_one_earlier_vertex(self):
        g = AdjacencyGraph(3)
        assert g.add_vertex([1]) == 3
        assert g.edges() == [(1, 3)]
        assert g.edge_count == 1

    def test_sorted_without_sorting(self):
        g = AdjacencyGraph(1)
        for i in range(1, 6):
            g.add_vertex([0] if i in (1, 2, 5) else [])
        assert g.edges() == [(0, 1), (0, 2), (0, 5)]

    def test_later_vertex_is_an_error(self):
        g = AdjacencyGraph(5)
        g.add_vertex([0])
        with pytest.raises(GraphInvariantError):
            g.add_vertex([7])

    def test_self_loop_rejected(self):
        g = AdjacencyGraph(1)
        with pytest.raises(GraphInvariantError):
            g.add_vertex([1])

    def test_range_enforced(self):
        g = AdjacencyGraph(3)
        with pytest.raises(GraphInvariantError):
            g.add_vertex([-1])
        with pytest.raises(GraphInvariantError):
            g.add_vertex([4])  # out of range

    def test_add_vertex(self):
        g = AdjacencyGraph()
        assert g.add_vertex() == 0 and g.add_vertex([0]) == 1
        assert g.n_vertices == 2 and g.edges() == [(0, 1)]


class TestAddVertex:
    @pytest.mark.parametrize("earlier", [[-1], [0, 3], [3], [1, 0, 1]])
    def test_bad_earlier_ids_rejected(self, earlier):
        g = AdjacencyGraph(2)
        g.add_vertex([0])
        with pytest.raises(GraphInvariantError):
            g.add_vertex(earlier)
        assert g.n_vertices == 3 and g.edges() == [(0, 2)] and g.edge_count == 1

    @pytest.mark.parametrize(
        "steps",
        [
            [[], [0], [1, 0], [2, 0, 1]],
            [[], [], [1, 0], [0, 2], [3, 1, 2, 0]],
            [[], [0], [], [2, 1], [3, 0], [4, 2, 1]],
            [[]] + [list(range(v - 1, -1, -1)) for v in range(1, 7)],
        ],
    )
    def test_buckets_ascend_whatever_order_earlier_ids_come_in(self, steps):
        g = AdjacencyGraph()
        for earlier in steps:
            g.add_vertex(earlier)
        n = g.n_vertices
        for j, bucket in enumerate(g.buckets()):
            bounded = [j, *bucket, n]
            assert all(a < b for a, b in zip(bounded, bounded[1:]))
        assert g.edge_count == sum(map(len, steps))


class TestConstruction:
    def test_single_tree(self):
        g, lab = construct_spr_graph([parse_newick("((1,2),(3,4));", rooted=True)])
        assert g.n_vertices == 1 and g.edge_count == 0
        assert lab.vertex_of_input == [0] and lab.first_input == [0]

    def test_empty_input(self):
        g, lab = construct_spr_graph([])
        assert g.n_vertices == 0 and g.edges() == []
        assert lab.canonical == []

    def test_two_isolated_vertices(self):
        trees = [
            parse_newick("((1,2),((3,4),(5,6)));", rooted=True),
            parse_newick("((5,(1,3)),(2,(4,6)));", rooted=True),
        ]
        g, _ = construct_nni_graph(trees)
        assert g.n_vertices == 2 and g.edge_count == 0

    def test_mixed_rootedness_rejected(self):
        trees = [
            parse_newick("((1,2),(3,4));", rooted=True),
            parse_newick("(1,2,(3,4));", rooted=False),
        ]
        for construct in (construct_spr_graph, construct_nni_graph):
            with pytest.raises(ModeError):
                construct(trees)

    def test_mismatched_label_sets_rejected(self):
        trees = [
            parse_newick("(1,2,(3,4));", rooted=False),
            parse_newick("(1,2,(3,5));", rooted=False),
        ]
        with pytest.raises(LabelSetError):
            construct_tbr_graph(trees)

    def test_tbr_needs_unrooted(self):
        with pytest.raises(ModeError):
            construct_tbr_graph([parse_newick("((1,2),(3,4));", rooted=True)])

    def test_leaf_set_is_checked_before_the_tree_is_inserted(self):
        # the second tree has another leaf set and the other rootedness;
        # the leaf-set check comes first
        trees = iter([
            parse_newick("(1,2,(3,4));", rooted=False),
            parse_newick("((1,2),(3,5));", rooted=True),
        ])
        with pytest.raises(LabelSetError):
            construct_spr_graph(trees)

    def test_duplicate_labeling(self):
        t0 = parse_newick("((1,2),(3,4));", rooted=True)
        t0b = parse_newick("((2,1),(4,3));", rooted=True)
        t1 = parse_newick("(((1,2),3),4);", rooted=True)
        g, lab = construct_spr_graph([t0, t1, t0b, t1])
        assert g.n_vertices == 2
        assert lab.vertex_of_input == [0, 1, 0, 1]
        assert lab.first_input == [0, 1]
        assert lab.duplicates() == [2, 3]
        assert len(lab.canonical) == 2

    def test_nni_edges_subset_of_spr(self):
        rng = random.Random(61)
        for rooted in (True, False):
            trees = [random_tree(6, rooted=rooted, rng=rng) for _ in range(25)]
            nni, _ = construct_nni_graph(trees)
            spr, _ = construct_spr_graph(trees)
            assert set(nni.edges()) <= set(spr.edges())

    def test_uspr_edges_subset_of_tbr(self):
        rng = random.Random(67)
        trees = [random_tree(7, rooted=False, rng=rng) for _ in range(25)]
        spr, _ = construct_spr_graph(trees)
        tbr, _ = construct_tbr_graph(trees)
        assert set(spr.edges()) <= set(tbr.edges())

    def test_monotone_under_extension(self):
        rng = random.Random(71)
        trees = [random_tree(6, rooted=True, rng=rng) for _ in range(20)]
        prev, _ = construct_spr_graph(trees[:10])
        full, _ = construct_spr_graph(trees)
        # vertex ids of the first 10 inputs are stable, so edges carry over
        assert set(prev.edges()) <= set(full.edges())

    def test_order_independence_up_to_relabeling(self):
        rng = random.Random(73)
        trees = [random_tree(5, rooted=False, rng=rng) for _ in range(15)]
        g1, lab1 = construct_spr_graph(trees)
        shuffled = trees[:]
        rng.shuffle(shuffled)
        g2, lab2 = construct_spr_graph(shuffled)
        to2 = {lab1.canonical[v]: lab2.canonical.index(lab1.canonical[v]) for v in range(g1.n_vertices)}
        remapped = {
            tuple(sorted((to2[lab1.canonical[u]], to2[lab1.canonical[v]])))
            for u, v in g1.edges()
        }
        assert remapped == set(g2.edges())

    def test_triangle(self):
        trees = [
            parse_newick("(((4,5),1),(2,3));", rooted=True),
            parse_newick("((((4,5),2),3),1);", rooted=True),
            parse_newick("(1,(2,((4,5),3)));", rooted=True),
        ]
        g, _ = construct_spr_graph(trees)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_complete_worlds_have_ascending_buckets(self):
        for g, _ in (
            construct_spr_graph(enumerate_all_trees(4, rooted=True)),
            construct_nni_graph(enumerate_all_trees(4, rooted=False)),
            construct_tbr_graph(enumerate_all_trees(5, rooted=False)),
        ):
            n = g.n_vertices
            for j, bucket in enumerate(g.buckets()):
                assert bucket == sorted(set(bucket)) and all(j < i < n for i in bucket)


@pytest.mark.parametrize(
    "build, n, rooted, degree",
    [
        (construct_nni_graph, 5, True, 6),  # 2(n - 2)
        (construct_nni_graph, 6, False, 6),  # 2(n - 3)
        (construct_spr_graph, 6, False, 30),  # 2(n - 3)(2n - 7)
    ],
    ids=["rnni", "unni", "uspr"],
)
def test_complete_worlds_are_regular(build, n, rooted, degree):
    # every vertex of a whole space has the closed-form neighbourhood size
    g, _ = build(enumerate_all_trees(n, rooted=rooted))
    seen = [0] * g.n_vertices
    for j, i in g.edges():
        seen[j] += 1
        seen[i] += 1
    assert set(seen) == {degree}


def one_move(tree, rng, *, bisect=False):
    """A random tree one prune-regraft (or bisection-reconnection) move
    from tree; the identity move is possible."""
    edges = tree_edges(tree)
    while True:
        u, v = rng.choice(edges)
        if tree.rooted and parents(tree)[u] != v:
            u, v = v, u
        try:
            if bisect:
                return apply_tbr(tree, (u, v), rng.choice(edges + [None]), rng.choice(edges + [None]))
            return apply_spr(tree, (u, v), rng.choice(edges))
        except MoveError:
            continue


def reference_key_graph(trees, move):
    """The pairs (j, i), j < i, of distinct trees that share any
    oracle.reference_forest_keys key, over the distinct trees in
    first-appearance order, in ascending order: the edges the single-pass
    builders must give, at any n. Returns (edges, canonicals)."""
    canonical = []
    keys = []
    for tree in trees:
        text = sdlnewick_tree(tree)
        if text not in canonical:
            canonical.append(text)
            keys.append(set(reference_forest_keys(tree, move)))
    pairs = sorted((j, i) for i, own in enumerate(keys) for j in range(i) if keys[j] & own)
    return pairs, canonical


@pytest.mark.parametrize(
    "move,build",
    [("rspr", construct_spr_graph), ("uspr", construct_spr_graph), ("tbr", construct_tbr_graph)],
)
def test_builders_match_reference_keys(move, build):
    rng = random.Random(83)
    rooted = move == "rspr"
    for n in (9, 24, 64):
        trees = [random_tree(n, rooted=rooted, rng=rng) for _ in range(4)]
        for k in range(9):
            source = rng.choice(trees)
            if k % 3 == 0:
                trees.append(parse_newick(to_newick(source), rooted=rooted))
            else:
                trees.append(one_move(source, rng, bisect=k % 3 == 1 and move == "tbr"))
        rng.shuffle(trees)
        graph, labeling = build(trees)
        want, canonical = reference_key_graph(trees, move)
        assert labeling.canonical == canonical
        assert graph.edges() == want
        assert graph.edge_count > 0 and labeling.duplicates()


def test_nni_walk_matches_oracle_neighbourhoods():
    rng = random.Random(89)
    for rooted in (True, False):
        tree = random_tree(rng.randint(32, 64), rooted=rooted, rng=rng)
        walk = [tree]
        for _ in range(40):
            if rng.random() < 0.2:
                tree = rng.choice(walk)
            else:  # sorted: a set of bytes iterates in PYTHONHASHSEED's order
                tree = decode_tree(rng.choice(sorted(enumerate_neighbors(tree, "nni"))))
            walk.append(tree)
        graph, labeling = construct_nni_graph(walk)
        index = {c: v for v, c in enumerate(labeling.canonical)}
        want = sorted(
            (index[c], i)
            for i, k in enumerate(labeling.first_input)
            for c in enumerate_neighbors(walk[k], "nni")
            if index.get(c, i) < i
        )
        assert graph.edges() == want
        assert graph.edge_count >= graph.n_vertices - 1
        assert construct_spr_graph(walk)[0].edge_count > graph.edge_count


class Tracked(Tree):
    """A Tree that can be weakly referenced (Tree has __slots__)."""


@pytest.mark.parametrize(
    "construct, rooted",
    [
        (construct_spr_graph, True),
        (construct_spr_graph, False),
        (construct_nni_graph, True),
        (construct_tbr_graph, False),
    ],
)
def test_construction_takes_one_tree_at_a_time(construct, rooted):
    rng = random.Random(17)
    pool = [random_tree(9, rooted=rooted, rng=rng) for _ in range(12)]
    order = [rng.choice(pool) for _ in range(40)]
    refs = []

    def trees():
        for k, t in enumerate(order):
            # only the previous tree may still be held
            held = any(ref() is not None for ref in refs[:-1])
            assert not held, f"tree {k}: an earlier tree is still held"
            tracked = Tracked(t.labels, t.neighbors, t.rooted)
            refs.append(weakref.ref(tracked))
            yield tracked

    graph, labeling = construct(trees())
    assert len(refs) == len(order)
    move = {construct_nni_graph: "nni", construct_tbr_graph: "tbr"}.get(
        construct, "rspr" if rooted else "uspr"
    )
    want_edges, canonical = pairwise_graph(order, move)
    assert graph.edges() == want_edges and labeling.canonical == canonical
    assert labeling.vertex_of_input == [canonical.index(sdlnewick_tree(t)) for t in order]
