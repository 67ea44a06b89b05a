"""The verify and bench commands. Both run reference code from oracle, so
cli imports this module only when one of them runs, and a build compiles
neither. Nothing here imports cli: under python -m treescape.cli the
running module is __main__, and importing treescape.cli would compile and
run cli.py a second time."""

import gc
import math
import random
import statistics
import sys
import time

from . import oracle
from .errors import TreescapeError, fail
from .graph import construct
from .tree import integer


def verify(args, numbered, construct_numbered):
    """treescape verify: build the (lineno, Tree) pairs numbered with
    construct_numbered, as build does, and compare the graph with the one
    all-pairs comparison gives."""
    if args.max_m < 0:
        raise TreescapeError(f"--max-m needs a tree count of at least 0, got {args.max_m}")
    # a list, not a stream: the trees are counted before --max-m is checked
    parsed = list(numbered)
    if len(parsed) > args.max_m:
        return fail(
            5, f"{len(parsed)} trees exceed --max-m {args.max_m} for the quadratic check"
        )
    graph, labeling, _ = construct_numbered(args, parsed)
    trees = [tree for _, tree in parsed]
    move = "nni" if args.mode == "nni" else args.container_mode.value
    slow_edges, slow_canon = oracle.pairwise_graph(trees, move)

    if labeling.canonical != slow_canon:
        return fail(1, "verify mismatch: vertex sets differ")
    fast, slow = set(graph.edges()), set(slow_edges)
    if fast != slow:
        for edge in sorted(fast - slow):
            print(f"only fast: {edge}", file=sys.stderr)
        for edge in sorted(slow - fast):
            print(f"only pairwise: {edge}", file=sys.stderr)
        return fail(1, "verify mismatch: edge sets differ")
    print(f"verify ok: m={len(slow_canon)} edges={len(slow_edges)}")
    return 0


def bench(args):
    """treescape bench: time the graph build of random trees at each size
    and fit the log-log slope of time against leaf count."""
    try:
        sizes = list(map(integer, args.sizes.split(",")))
    except ValueError:
        raise TreescapeError(f"bad --sizes {args.sizes!r}") from None
    if min(sizes) < 4:
        raise TreescapeError("--sizes needs integers of at least 4")
    if len(set(sizes)) != len(sizes):
        raise TreescapeError(f"--sizes repeats a leaf count: {args.sizes!r}")
    if args.m < 1:
        raise TreescapeError(f"--m needs at least one tree per size, got {args.m}")
    rng = random.Random(args.seed)
    collections = [
        [oracle.random_tree(n, rooted=args.rooted, rng=rng) for _ in range(args.m)] for n in sizes
    ]
    # each size's fastest build over seven rounds that visit every size, so
    # that a slow spell of the machine cannot set the fitted slope
    best = [math.inf] * len(sizes)
    for _ in range(7):
        for k, trees in enumerate(collections):
            # each build starts with no collection due from the caller's heap
            gc.collect()
            t0 = time.perf_counter()
            construct(args.mode, trees)
            best[k] = min(best[k], time.perf_counter() - t0)
    for n, total in zip(sizes, best):
        print(f"n={n} m={args.m} total={total:.3f}s")
    if len(sizes) > 1:
        fit = statistics.linear_regression(list(map(math.log, sizes)), list(map(math.log, best)))
        print(f"exponent={fit.slope:.3f}")
    return 0
