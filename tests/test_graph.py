import random

import pytest

from treescape.afcontainer import AFContainer, Mode
from treescape.canonical import sdlnewick_tree
from treescape.errors import GraphInvariantError, LabelSetError, ModeError, MoveError
from treescape.graph import (
    AdjacencyGraph,
    construct_nni_graph,
    construct_spr_graph,
    construct_tbr_graph,
)
from treescape.oracle import enumerate_all_trees, nni_moves, random_tree
from treescape.tree import apply_spr, apply_tbr, parse_newick


class TestAppendEdge:
    def test_repeat_append_is_noop(self):
        g = AdjacencyGraph(5)
        g.append_edge(3, 1)
        g.append_edge(3, 1)
        assert g.neighbors(1) == [3]
        assert g.edge_count == 1

    def test_sorted_without_sorting(self):
        g = AdjacencyGraph(6)
        for i in (1, 2, 5):
            g.append_edge(i, 0)
        assert g.neighbors(0) == [1, 2, 5]
        assert g.edges() == [(0, 1), (0, 2), (0, 5)]

    def test_out_of_order_append_is_an_error(self):
        g = AdjacencyGraph(6)
        g.append_edge(5, 0)
        with pytest.raises(GraphInvariantError):
            g.append_edge(2, 0)

    def test_self_loop_rejected(self):
        g = AdjacencyGraph(3)
        with pytest.raises(GraphInvariantError):
            g.append_edge(1, 1)

    def test_range_and_order_enforced(self):
        g = AdjacencyGraph(3)
        with pytest.raises(GraphInvariantError):
            g.append_edge(1, 2)  # j must be the smaller endpoint
        with pytest.raises(GraphInvariantError):
            g.append_edge(3, 0)  # out of range

    def test_neighbors_symmetric_and_validate(self):
        g = AdjacencyGraph(4)
        g.append_edge(1, 0)
        g.append_edge(2, 0)
        g.append_edge(3, 2)
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
        g.validate()

    def test_add_vertex(self):
        g = AdjacencyGraph()
        assert g.add_vertex() == 0 and g.add_vertex() == 1
        g.append_edge(1, 0)
        assert g.n_vertices == 2 and g.neighbors(0) == [1]

    def test_equality(self):
        a, b = AdjacencyGraph(3), AdjacencyGraph(3)
        a.append_edge(1, 0)
        assert a != b
        b.append_edge(1, 0)
        assert a == b
        assert a != AdjacencyGraph(4)


class TestAddVertex:
    @pytest.mark.parametrize("earlier", [[-1], [0, 3], [3], [1, 0, 1]])
    def test_bad_earlier_ids_rejected(self, earlier):
        g = AdjacencyGraph(3)
        g.append_edge(2, 0)
        with pytest.raises(GraphInvariantError):
            g.add_vertex(earlier)
        assert g.n_vertices == 3 and g.edges() == [(0, 2)] and g.edge_count == 1

    def test_matches_append_edge(self):
        rng = random.Random(5)
        bulk, single = AdjacencyGraph(), AdjacencyGraph()
        for v in range(60):
            earlier = rng.sample(range(v), rng.randint(0, min(v, 8)))
            assert bulk.add_vertex(earlier) == v
            single.add_vertex()
            for j in sorted(earlier):
                single.append_edge(v, j)
        assert bulk == single and bulk.edge_count == single.edge_count
        assert bulk.neighbors(7) == single.neighbors(7)
        bulk.validate()


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

    def test_complete_worlds_validate(self):
        for g, _ in (
            construct_spr_graph(enumerate_all_trees(4, rooted=True)),
            construct_nni_graph(enumerate_all_trees(4, rooted=False)),
            construct_tbr_graph(enumerate_all_trees(5, rooted=False)),
        ):
            g.validate()
            for u in range(g.n_vertices):
                for v in g.neighbors(u):
                    assert u in g.neighbors(v)


def one_move(tree, rng, *, bisect=False):
    """A random tree one prune-regraft (or bisection-reconnection) move
    from tree; the identity move is possible."""
    edges = tree.edges()
    while True:
        u, v = rng.choice(edges)
        if tree.rooted and tree.parents()[u] != v:
            u, v = v, u
        try:
            if bisect:
                return apply_tbr(tree, (u, v), rng.choice(edges + [None]), rng.choice(edges + [None]))
            return apply_spr(tree, (u, v), rng.choice(edges))
        except MoveError:
            continue


def two_pass_graph(trees, mode):
    """Insert every tree, then query each distinct one: the construction
    the single-pass builders replace."""
    container = AFContainer(mode)
    reps = []
    for tree in trees:
        if container.insert(tree) == len(reps):
            reps.append(tree)
    query = container.tbr_neighbors if mode is Mode.TBR else container.spr_neighbors
    graph = AdjacencyGraph(len(reps))
    for i, tree in enumerate(reps):
        for j in query(tree):
            if j < i:
                graph.append_edge(i, j)
    return graph, [container.sdlnewick_of(v) for v in range(len(reps))]


@pytest.mark.parametrize(
    "mode,build",
    [(Mode.RSPR, construct_spr_graph), (Mode.USPR, construct_spr_graph), (Mode.TBR, construct_tbr_graph)],
)
def test_single_pass_matches_two_pass(mode, build):
    rng = random.Random(83)
    for n in (9, 24, 64):
        trees = [random_tree(n, rooted=mode.rooted, rng=rng) for _ in range(4)]
        for k in range(9):
            source = rng.choice(trees)
            if k % 3 == 0:
                trees.append(parse_newick(source.to_newick(), rooted=mode.rooted))
            else:
                trees.append(one_move(source, rng, bisect=k % 3 == 1 and mode is Mode.TBR))
        rng.shuffle(trees)
        graph, labeling = build(trees)
        want, canonical = two_pass_graph(trees, mode)
        assert labeling.canonical == canonical
        assert graph == want
        assert graph.edge_count > 0 and labeling.duplicates()


def test_nni_count_rule_matches_nni_moves():
    rng = random.Random(89)
    for rooted in (True, False):
        tree = random_tree(rng.randint(32, 64), rooted=rooted, rng=rng)
        walk = [tree]
        for _ in range(40):
            tree = rng.choice(walk) if rng.random() < 0.2 else rng.choice(nni_moves(tree))
            walk.append(tree)
        graph, labeling = construct_nni_graph(walk)
        index = {c: v for v, c in enumerate(labeling.canonical)}
        want = AdjacencyGraph(len(index))
        for i, k in enumerate(labeling.first_input):
            found = {index.get(sdlnewick_tree(t)) for t in nni_moves(walk[k])}
            for j in sorted(found - {None}):
                if j < i:
                    want.append_edge(i, j)
        assert graph == want
        assert graph.edge_count >= graph.n_vertices - 1
        assert construct_spr_graph(walk)[0].edge_count > graph.edge_count
