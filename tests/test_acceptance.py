"""Acceptance suite. One criterion per test, one summary line per criterion.

Budgets are wall-clock upper bounds on typical hardware; each test asserts
behavior, not timing, but stays well inside its budget by construction.
"""

import os
import random
import subprocess
import sys

from conftest import SRC, report_criterion

from treescape import cli
from treescape.afcontainer import AFContainer, Mode
from treescape.graph import construct_nni_graph, construct_spr_graph, construct_tbr_graph
from treescape.oracle import (
    decode_tree,
    enumerate_all_trees,
    enumerate_neighbors,
    pairwise_graph,
    random_tree,
    sdlnewick_tree,
    to_newick,
)
from treescape.tree import Tree


def shuffled_presentation(tree, rng):
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


def test_criterion_1_oracle_equivalence(tmp_path, capsys):
    """200 random verify runs per move family, n in 4..8, m in 1..50;
    every run must exit 0 (fast graph identical to the pairwise oracle)."""
    rng = random.Random(101)
    path = tmp_path / "trees.nwk"
    runs = 0
    failures = 0
    for move in ("rspr", "uspr", "nni", "tbr"):
        for k in range(200):
            n = rng.randint(4, 8)
            m = rng.randint(1, 50)
            if move == "nni":
                rooted = k % 2 == 0
            else:
                rooted = move == "rspr"
            mode = {"rspr": "spr", "uspr": "spr", "nni": "nni", "tbr": "tbr"}[move]
            trees = [random_tree(n, rooted=rooted, rng=rng) for _ in range(m)]
            path.write_text("".join(to_newick(t) + "\n" for t in trees))
            rc = cli.main(
                [
                    "verify",
                    str(path),
                    "--mode",
                    mode,
                    "--rooted" if rooted else "--unrooted",
                    "--max-m",
                    "50",
                ]
            )
            runs += 1
            if rc != 0:
                failures += 1
    capsys.readouterr()
    report_criterion(
        1, "oracle equivalence", failures == 0, f"{runs} verify runs, {failures} failed"
    )


def test_criterion_2_exhaustive_small_worlds():
    """Complete move graphs over every 4-leaf rooted tree (SPR), every
    4-leaf unrooted tree (NNI), and every 5-leaf unrooted tree (uSPR and
    TBR) equal the pairwise oracle exactly."""
    problems = []

    r4 = enumerate_all_trees(4, rooted=True)
    g, lab = construct_spr_graph(r4)
    edges, oc = pairwise_graph(r4, "rspr")
    if not (g.n_vertices == 15 and lab.canonical == oc and g.edges() == edges):
        problems.append("rooted-4 spr")

    u4 = enumerate_all_trees(4, rooted=False)
    g, lab = construct_nni_graph(u4)
    edges, oc = pairwise_graph(u4, "nni")
    if not (lab.canonical == oc and g.edges() == edges):
        problems.append("unrooted-4 nni")
    if g.edges() != [(0, 1), (0, 2), (1, 2)]:
        problems.append("unrooted-4 nni is not the triangle")

    u5 = enumerate_all_trees(5, rooted=False)
    for build, move in ((construct_spr_graph, "uspr"), (construct_tbr_graph, "tbr")):
        g, lab = build(u5)
        edges, oc = pairwise_graph(u5, move)
        if not (g.n_vertices == 15 and lab.canonical == oc and g.edges() == edges):
            problems.append(f"unrooted-5 {move}")

    report_criterion(
        2,
        "exhaustive small worlds",
        not problems,
        "rooted-4 spr, unrooted-4 nni, unrooted-5 uspr+tbr" if not problems else str(problems),
    )


def test_criterion_3_canonical_uniqueness():
    """1000 isomorphic presentations of each of 50 random 50-leaf trees
    encode byte-identically; decoding the string and re-encoding is the
    identity."""
    rng = random.Random(103)
    mismatches = 0
    for i in range(50):
        rooted = i % 2 == 0
        tree = random_tree(50, rooted=rooted, rng=rng)
        want = sdlnewick_tree(tree)
        for _ in range(1000):
            if sdlnewick_tree(shuffled_presentation(tree, rng)) != want:
                mismatches += 1
        back = decode_tree(want)
        if back.rooted != rooted or sdlnewick_tree(back) != want:
            mismatches += 1
    report_criterion(
        3,
        "canonical uniqueness",
        mismatches == 0,
        f"50 trees x 1000 presentations, {mismatches} mismatches",
    )


def _shape_signature(tree):
    """Unlabeled shape key: smallest subtree encoding over all leaf
    rootings, children sorted at every node."""
    adj = tree.neighbors
    best = None
    for root in range(len(tree)):
        if tree.labels[root] is None:
            continue
        enc = {}
        stack = [(root, -1, False)]
        while stack:
            node, parent, expanded = stack.pop()
            kids = [x for x in adj[node] if x != parent]
            if not kids:
                enc[node] = "()"
            elif expanded:
                enc[node] = "(" + "".join(sorted(enc[k] for k in kids)) + ")"
            else:
                stack.append((node, parent, True))
                stack.extend((k, node, False) for k in kids)
        if best is None or enc[root] < best:
            best = enc[root]
    return best


def test_criterion_4_neighborhood_formulas():
    """Every unrooted shape with n in 4..8 has exactly 2(n-3)(2n-7) uSPR
    neighbors and 2(n-3) NNI neighbors, checked by exhaustive enumeration
    on one labeled representative per shape."""
    bad = []
    shapes_checked = 0
    for n in range(4, 9):
        reps = {}
        for tree in enumerate_all_trees(n, rooted=False):
            sig = _shape_signature(tree)
            if sig not in reps:
                reps[sig] = tree
        shapes_checked += len(reps)
        for tree in reps.values():
            if len(enumerate_neighbors(tree, "uspr")) != 2 * (n - 3) * (2 * n - 7):
                bad.append(f"uspr n={n}")
            if len(enumerate_neighbors(tree, "nni")) != 2 * (n - 3):
                bad.append(f"nni n={n}")
    report_criterion(
        4,
        "neighborhood size formulas",
        not bad,
        f"{shapes_checked} shapes over n=4..8" if not bad else str(bad),
    )


def test_criterion_5_duplicate_bound():
    """The earlier ids an insert counts more than once are exactly the
    earlier NNI neighbors, every id it counts is an earlier SPR neighbor,
    and there are never more duplicated ids than NNI neighbors."""
    rng = random.Random(105)
    queries = 0
    violations = 0
    for _ in range(40):
        rooted = rng.random() < 0.5
        n = rng.randint(4, 8)
        m = rng.randint(2, 50)
        container = AFContainer(Mode.RSPR if rooted else Mode.USPR)
        for _ in range(m):
            tree = random_tree(n, rooted=rooted, rng=rng)
            before = len(container)
            tree_id, counts = container.insert(tree)
            queries += 1
            if tree_id < before:  # a repeat finds nothing
                violations += bool(counts)
                continue
            earlier = {container.sdlnewick_of(j): j for j in range(tree_id)}
            nni = enumerate_neighbors(tree, "nni")
            spr = enumerate_neighbors(tree, "rspr" if rooted else "uspr")
            duplicated = {i for i, k in counts.items() if k > 1}
            if (
                duplicated != {earlier[s] for s in nni if s in earlier}
                or set(counts) != {earlier[s] for s in spr if s in earlier}
                or len(duplicated) > len(nni)
            ):
                violations += 1
    report_criterion(
        5,
        "duplicates are the NNI neighbors",
        violations == 0,
        f"{queries} queries, {violations} violations",
    )


def _container_state(container):
    return (
        container.mode.value,
        [(k, list(v)) for k, v in container._forest_trie.items()],
        list(container._id_trie.items()),
        [container.sdlnewick_of(i) for i in range(len(container))],
    )


def test_criterion_6_insert_idempotence():
    """500 random insert sequences with roughly 20% duplicate trees:
    forest lists stay duplicate-free, the id trie and tree array are
    inverse bijections, and re-inserting everything changes nothing."""
    rng = random.Random(106)
    violations = []
    for seq in range(500):
        mode = rng.choice(list(Mode))
        n = rng.randint(4, 9)
        length = rng.randint(2, 12)
        trees = []
        for _ in range(length):
            if trees and rng.random() < 0.2:
                trees.append(shuffled_presentation(rng.choice(trees), rng))
            else:
                trees.append(random_tree(n, rooted=mode.rooted, rng=rng))
        container = AFContainer(mode)
        ids = [container.insert(t)[0] for t in trees]

        for key, lst in container._forest_trie.items():
            if len(lst) != len(set(lst)):
                violations.append(f"seq {seq}: duplicate id under {key!r}")
        if len(container._id_trie) != len(container):
            violations.append(f"seq {seq}: id trie size")
        for i in range(len(container)):
            if container._id_trie.get(container.sdlnewick_of(i)) != i:
                violations.append(f"seq {seq}: array->trie broken at {i}")
        for key, value in container._id_trie.items():
            if container.sdlnewick_of(value) != key:
                violations.append(f"seq {seq}: trie->array broken at {value}")

        before = _container_state(container)
        again = [container.insert(shuffled_presentation(t, rng))[0] for t in trees]
        if again != ids or _container_state(container) != before:
            violations.append(f"seq {seq}: reinsertion changed state")
    report_criterion(
        6,
        "insert idempotence and container conditions",
        not violations,
        "500 sequences" if not violations else violations[0],
    )


def test_criterion_7_empirical_scaling():
    """Time the spr-mode one-pass build (keys, index inserts and edges)
    over n in {64, 128, 256} with m = 200; the fitted time exponent must
    lie in the hard window [1.2, 3.0], with [1.2, 1.7] as the expected
    band (informational; measured 1.32-1.43 on a 2-vCPU VM). bench runs in
    a process of its own, so the test process's heap cannot skew it."""
    proc = subprocess.run(
        [sys.executable, "-m", "treescape.cli", "bench", "--mode", "spr", "--rooted",
         "--m", "200", "--sizes", "64,128,256", "--seed", "42"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=600,
    )
    rc, out = proc.returncode, proc.stdout
    exponent = None
    for line in out.splitlines():
        if line.startswith("exponent="):
            exponent = float(line.split("=", 1)[1])
    ok = rc == 0 and exponent is not None and 1.2 <= exponent <= 3.0
    totals = [line.partition("total=")[2] for line in out.splitlines() if "total=" in line]
    detail = f"exponent={exponent}; totals={','.join(totals)}"
    if exponent is not None and 1.7 < exponent <= 3.0:
        detail += " (outside the expected band [1.2, 1.7], within hard bounds)"
    report_criterion(7, "empirical scaling", ok, detail)
