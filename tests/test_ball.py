"""The paper's characterisation, checked on balls around random trees.

Two trees share a forest key exactly when they are one move apart
(arXiv:1606.08893), and one interchange key exactly when they are one
interchange apart. The vertex
set is a random tree T, every tree one move from T by the exhaustive
oracle, and a few trees two moves from T; the graph built through the key
index must give T, and a few sampled neighbours of T, exactly their oracle
neighbourhood within that set. The pairwise oracle of the other tests stops
at n = 8; these balls reach n = 24, and n = 64 for the interchange graph,
whose keys are the tree with one internal edge contracted.
"""

import random

import pytest

from treescape.graph import construct_nni_graph, construct_spr_graph, construct_tbr_graph
from treescape.oracle import decode_tree, enumerate_neighbors, random_tree, sdlnewick_tree

# move name -> (builder, rooted, the oracle's move)
BUILDERS = {
    "rspr": (construct_spr_graph, True, "rspr"),
    "uspr": (construct_spr_graph, False, "uspr"),
    "nni": (construct_nni_graph, False, "nni"),
    "rnni": (construct_nni_graph, True, "nni"),
    "tbr": (construct_tbr_graph, False, "tbr"),
}

# closed-form degrees (Allen & Steel 2001); a rooted tree on n leaves has
# the interchanges of an unrooted one on n + 1
DEGREE = {
    "uspr": lambda n: 2 * (n - 3) * (2 * n - 7),
    "nni": lambda n: 2 * (n - 3),
    "rnni": lambda n: 2 * (n - 2),
}


def graph_neighbourhoods(move, trees):
    """Build the graph of move over trees; returns {canonical: set of
    canonical neighbours}."""
    graph, labeling = BUILDERS[move][0](trees)
    canon = labeling.canonical
    near = {c: set() for c in canon}
    for j, i in graph.edges():
        near[canon[j]].add(canon[i])
        near[canon[i]].add(canon[j])
    return near


@pytest.mark.parametrize(
    "move, n",
    [
        ("rspr", 16), ("uspr", 16), ("nni", 16), ("tbr", 16), ("uspr", 24),
        ("nni", 32), ("nni", 64), ("rnni", 16),
    ],
)
def test_ball_neighbourhoods_match_oracle(move, n):
    rng = random.Random(f"{move}-{n}")
    _, rooted, oracle_move = BUILDERS[move]
    t = random_tree(n, rooted=rooted, rng=rng)
    home = sdlnewick_tree(t)
    near = enumerate_neighbors(t, oracle_move)
    if move in DEGREE:
        assert len(near) == DEGREE[move](n)

    sampled = rng.sample(sorted(near), 3)
    ring = {}  # sampled neighbour -> its oracle neighbourhood
    far = set()
    for s in sampled:
        ring[s] = enumerate_neighbors(decode_tree(s), oracle_move)
        outside = sorted(ring[s] - near - {home})
        far.update(rng.sample(outside, 2))
    assert far and not far & near and home not in far

    vertices = [home, *near, *far]
    rng.shuffle(vertices)
    got = graph_neighbourhoods(move, [decode_tree(c) for c in vertices])
    assert len(got) == len(vertices)
    assert got[home] == near
    for s, around in ring.items():
        assert got[s] == around & set(vertices)
