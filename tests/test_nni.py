"""Interchange keys and the interchange graph built from them.

An interchange key is a tree with one internal edge contracted, so a binary
tree on n leaves has n - 3 of them unrooted and n - 2 rooted (the root
marker counts as a leaf), two distinct trees share at most one, and they
share one exactly when they are one interchange apart. The graph built on
these keys must equal the count rule it replaced, the pairs that share two
or more prune-regraft forests by the counts AFContainer.insert returns, and
the pairwise oracle, on whole tree spaces in any order.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from test_forestgen import shaped_tree

from treescape.afcontainer import AFContainer, Mode
from treescape.errors import ModeError
from treescape.forestgen import Oriented, nni_keys
from treescape.graph import construct_nni_graph
from treescape.oracle import edges as tree_edges
from treescape.oracle import decode_tree, enumerate_all_trees, enumerate_neighbors, pairwise_graph
from treescape.tree import RHO, parse_newick

# (rooted, n) of the whole tree spaces checked
SPACES = [(False, 5), (False, 6), (False, 7), (True, 4), (True, 5), (True, 6)]


def contracted_text(tree, u, v):
    """The tree with the edge (u, v) contracted, rendered from its top leaf
    (the root marker, or the smallest leaf) with every node's subtrees in
    order of smallest label: the slow rendering of one interchange key."""
    labels = tree.labels
    adj = [set(nbrs) for nbrs in tree.neighbors]
    adj[u] |= adj[v] - {u}
    for w in adj[v] - {u}:
        adj[w] = adj[w] - {v} | {u}
    adj[u].discard(v)

    def render(x, parent):
        if labels[x] is not None:
            return labels[x], "r" if labels[x] == RHO else str(labels[x])
        parts = sorted(render(y, x) for y in adj[x] if y != parent)
        return parts[0][0], "(" + ",".join(text for _, text in parts) + ")"

    top = labels.index(min(lab for lab in labels if lab is not None))
    (core,) = adj[top]
    return render(core, -1)[1].encode("ascii")


def internal_edges(tree):
    return [(u, v) for u, v in tree_edges(tree) if tree.labels[u] is None and tree.labels[v] is None]


def count_rule_graph(trees):
    """The interchange graph by the count rule: each tree inserted into a
    prune-regraft container, and the earlier ids that share two or more
    forests with it. Returns (edges, canonical strings)."""
    container = AFContainer(Mode.RSPR if trees[0].rooted else Mode.USPR)
    edges = set()
    for t in trees:
        i, shared = container.insert(t)
        edges.update((j, i) for j, k in shared.items() if k >= 2)
    return edges, [container.sdlnewick_of(v) for v in range(len(container))]


class TestKeys:
    @pytest.mark.parametrize("rooted", [False, True])
    def test_keys_are_the_contracted_trees(self, rooted):
        # byte for byte against the slow rendering, well above the oracle's n
        rng = random.Random(f"contracted-{rooted}")
        for n in (4, 5, 9, 16, 64, 256):
            t = shaped_tree("random", n, rooted, rng, sparse=True)
            keys = nni_keys(t, rooted)
            assert keys == nni_keys(Oriented(t), rooted)
            assert sorted(keys) == sorted(contracted_text(t, u, v) for u, v in internal_edges(t))

    def test_worked_key_values(self):
        t = parse_newick("((1,2),3,(4,5));", rooted=False)
        assert nni_keys(t, False) == [b"(1,2,3,(4,5))", b"(1,2,(3,4,5))"]
        r = parse_newick("((1,2),(3,4));", rooted=True)
        assert sorted(nni_keys(r, True)) == [b"(r,(1,2),3,4)", b"(r,1,2,(3,4))"]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.booleans(), st.integers(0, 2**32))
    def test_one_distinct_key_per_internal_edge(self, n, rooted, seed):
        rng = random.Random(seed)
        if not rooted:
            n = max(n, 3)
        t = shaped_tree("random", n, rooted, rng, sparse=True)
        keys = nni_keys(t, rooted)
        assert len(keys) == (n - 2 if rooted else n - 3)
        assert len(set(keys)) == len(keys)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 16), st.booleans(), st.integers(0, 2**32))
    def test_neighbours_share_one_key_and_others_none(self, n, rooted, seed):
        rng = random.Random(seed)
        t = shaped_tree("random", n, rooted, rng, sparse=True)
        keys = set(nni_keys(t, rooted))
        near = enumerate_neighbors(t, "nni")
        spr_only = enumerate_neighbors(t, "rspr" if rooted else "uspr") - near
        for other in rng.sample(sorted(near), 2):
            assert len(keys & set(nni_keys(decode_tree(other), rooted))) == 1
        for other in rng.sample(sorted(spr_only), 2):
            assert not keys & set(nni_keys(decode_tree(other), rooted))

    @pytest.mark.parametrize("rooted, n", SPACES)
    def test_distinct_trees_share_at_most_one_key(self, rooted, n):
        # over a whole space: each key is owned by the three trees that
        # resolve its four-way node, and no two trees own two keys together
        owners = {}
        for i, t in enumerate(enumerate_all_trees(n, rooted=rooted)):
            for key in nni_keys(t, rooted):
                owners.setdefault(key, []).append(i)
        assert {len(ids) for ids in owners.values()} == {3}
        pairs = Counter((a, b) for ids in owners.values() for a in ids for b in ids if a < b)
        assert max(pairs.values()) == 1

    def test_smallest_trees_have_no_keys(self):
        unrooted = parse_newick("(1,2,3);", rooted=False)
        rooted = parse_newick("(1,2);", rooted=True)
        assert nni_keys(unrooted, False) == nni_keys(rooted, True) == []
        for t in (unrooted, rooted):
            again = parse_newick("(3,1,2);" if t is unrooted else "(2,1);", rooted=t.rooted)
            g, lab = construct_nni_graph([t, again])
            assert g.n_vertices == 1 and g.edges() == []
            assert lab.vertex_of_input == [0, 0]

    def test_rootedness_check(self):
        rooted = parse_newick("((1,2),(3,4));", rooted=True)
        unrooted = parse_newick("(1,2,(3,4));", rooted=False)
        with pytest.raises(ModeError):
            nni_keys(rooted, False)
        with pytest.raises(ModeError):
            nni_keys(unrooted, True)

    def test_container_refuses_the_other_rootedness_unchanged(self):
        c = AFContainer(Mode.USPR, nni=True)
        c.insert(parse_newick("(1,2,(3,(4,5)));", rooted=False))
        index = dict(c._forest_trie)
        with pytest.raises(ModeError):
            c.insert(parse_newick("((1,2),(3,(4,5)));", rooted=True))
        assert len(c) == 1 and c._forest_trie == index
        with pytest.raises(ModeError):
            AFContainer(Mode.TBR, nni=True)


@pytest.mark.parametrize("shuffled", [False, True], ids=["enumerated", "shuffled"])
@pytest.mark.parametrize("rooted, n", SPACES)
def test_graph_of_a_whole_space_matches_count_rule_and_oracle(rooted, n, shuffled):
    trees = enumerate_all_trees(n, rooted=rooted)
    if shuffled:
        random.Random(f"{rooted}-{n}").shuffle(trees)
    graph, labeling = construct_nni_graph(trees)
    edges, canonical = count_rule_graph(trees)
    assert labeling.canonical == canonical
    assert set(graph.edges()) == edges
    oracle_edges, oracle_canonical = pairwise_graph(trees, "nni")
    assert labeling.canonical == oracle_canonical
    assert graph.edges() == oracle_edges
    # every tree has 2(n - 3) interchange neighbours, 2(n - 2) rooted
    assert graph.edge_count == len(trees) * (n - 2 if rooted else n - 3)


def test_nni_container_counts_each_interchange_neighbour_once():
    trees = enumerate_all_trees(6, rooted=False)
    random.Random(5).shuffle(trees)
    keyed = AFContainer(Mode.USPR, nni=True)
    forests = AFContainer(Mode.USPR)
    found = 0
    for t in trees:
        _, got = keyed.insert(t)
        _, shared = forests.insert(t)
        assert set(got.values()) <= {1}
        assert set(got) == {j for j, k in shared.items() if k >= 2}
        found += len(got)
    # every tree has 6 interchange neighbours, each found by the later one
    assert found == len(trees) * 6 // 2
