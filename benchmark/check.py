"""Output checks for one workload build, run outside the timed region.

A build writes, for every batch, an edge-list TSV and a vertex file. The
checks read only those files and what the input generator knows about its
trees, except for the posterior-nni neighbourhood sample, which compares
against treescape's brute-force oracle.
"""

import hashlib
import random


class Outputs:
    """Paths one batch of a build wrote."""

    def __init__(self, graph, vertices):
        self.graph = graph
        self.vertices = vertices


def read_graph(path):
    """(vertex count from the header, set of (u, v) edges with u < v)."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[:2] != ["#", "treescape"] or not header[3].startswith("m="):
            raise ValueError(f"{path}: bad header {header!r}")
        m = int(header[3][2:])
        edges = set()
        for line in fh:
            u, v = map(int, line.split("\t"))
            if not 0 <= u < v < m:
                raise ValueError(f"{path}: edge {u} {v} out of range for m={m}")
            edges.add((u, v))
    return m, edges


def read_vertices(path):
    """[(first input line, canonical string)] indexed by vertex."""
    out = []
    with open(path, "r", encoding="ascii") as fh:
        fh.readline()
        for k, line in enumerate(fh):
            v, lineno, canonical = line.rstrip("\n").split("\t")
            if int(v) != k:
                raise ValueError(f"{path}: vertex {v} out of order")
            out.append((int(lineno), canonical))
    return out


def edges_sha256(outputs):
    """Digest of every batch's edge-list file, in batch order."""
    h = hashlib.sha256()
    for out in outputs:
        with open(out.graph, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def vertex_map(inp, outputs):
    """Vertex of every input line in each batch's graph.

    Returns one list per batch, covering all lines of that batch and of
    the batches before it (an --append build numbers old vertices first).
    Raises ValueError when the vertex files disagree with the input.
    """
    first_vertex = {}  # tree id -> vertex, stable across appended batches
    offset = 0
    maps = []
    for b, (batch, out) in enumerate(zip(inp.batches, outputs)):
        verts = read_vertices(out.vertices)
        ids = inp.tree_ids[offset : offset + len(batch)]
        first_line = {}
        for k, t in enumerate(ids):
            first_line.setdefault(t, k + 1)
        old = len(first_vertex)
        if any(lineno != 0 for lineno, _ in verts[:old]):
            raise ValueError(f"batch {b}: appended vertices are not numbered first")
        for v, (lineno, _) in enumerate(verts[old:], start=old):
            if not 1 <= lineno <= len(batch):
                raise ValueError(f"batch {b}: vertex {v} names line {lineno}")
            t = ids[lineno - 1]
            if t in first_vertex or first_line[t] != lineno:
                raise ValueError(f"batch {b}: vertex {v} is not a new tree's first line")
            first_vertex[t] = v
        if len(first_vertex) != len(verts) or set(ids) - set(first_vertex):
            raise ValueError(f"batch {b}: {len(verts)} vertices for {len(set(ids))} trees")
        offset += len(batch)
        maps.append([first_vertex[t] for t in inp.tree_ids[:offset]])
    return maps


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _check_space(inp, graphs, maps, canonical):
    n = inp.leaves
    m, edges = graphs[-1]
    want_m = _double_factorial(2 * n - 5)
    if m != want_m:
        return [f"space: m={m}, expected {want_m}"]
    degree = [0] * m
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    want = 2 * (n - 3) * (2 * n - 7)
    bad = [v for v, d in enumerate(degree) if d != want]
    return [f"space: {len(bad)} vertices without degree {want}, e.g. {bad[0]}"] if bad else []


def _check_pairs(inp, graphs, maps, canonical):
    """Every required pair of lines is an edge of each graph holding both,
    and, when the input says so, there are no other edges."""
    problems = []
    for (_, edges), vmap in zip(graphs, maps):
        want = {tuple(sorted((vmap[a], vmap[b]))) for a, b in inp.pairs if b < len(vmap)}
        for u, v in sorted(want - edges):
            problems.append(f"missing edge {u} {v}")
        if inp.exact:
            for u, v in sorted(edges - want):
                problems.append(f"unexpected edge {u} {v}")
    return problems


def nni_sample(inp, k=3):
    """Fixed positions (into the concatenated lines) whose neighbourhoods
    are checked against the oracle."""
    firsts = {}
    for i, t in enumerate(inp.tree_ids):
        firsts.setdefault(t, i)
    return sorted(random.Random(len(inp.tree_ids)).sample(sorted(firsts.values()), k))


def _check_nni_oracle(inp, graphs, maps, canonical):
    from treescape.oracle import enumerate_neighbors
    from treescape.tree import parse_newick

    _, edges = graphs[-1]
    vmap = maps[-1]
    lines = [line for batch in inp.batches for line in batch]
    by_canonical = {c.encode("ascii"): v for v, c in enumerate(canonical)}
    problems = []
    for i in nni_sample(inp):
        v = vmap[i]
        tree = parse_newick(lines[i], rooted=False)
        want = {by_canonical[c] for c in enumerate_neighbors(tree, "nni") if c in by_canonical}
        got = {b for a, b in edges if a == v} | {a for a, b in edges if b == v}
        if got != want:
            problems.append(f"nni: vertex {v} neighbours {sorted(got)} != oracle {sorted(want)}")
    return problems


CHECKS = {
    "uniform-rspr": (_check_pairs,),
    "space-uspr": (_check_space,),
    "posterior-nni": (_check_pairs, _check_nni_oracle),
}


def check_build(workload, inp, outputs):
    """Problems found in one build's outputs; an empty list means correct."""
    try:
        graphs = [read_graph(out.graph) for out in outputs]
        maps = vertex_map(inp, outputs)
        canonical = [c for _, c in read_vertices(outputs[-1].vertices)]
    except (OSError, ValueError) as exc:
        return [str(exc)]
    for (m, _), vmap in zip(graphs, maps):
        if m != len(set(vmap)):
            return [f"header m={m} but {len(set(vmap))} vertices"]
    problems = []
    for check in CHECKS[workload]:
        problems += check(inp, graphs, maps, canonical)
    return problems
