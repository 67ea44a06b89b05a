"""Spans around the calls into each treescape module, for the traced run.

A Tracer replaces the names that callers resolve (``from x import f``
copies the binding, so ``afcontainer.uspr_forest_keys`` is patched, not
``forestgen.uspr_forest_keys``) with wrappers that record one span per
call: name, start, end, parent span and run id. Spans stay in memory
until the round ends. The untraced runs that give the end-to-end metrics
never install a Tracer.
"""

import json
import time

# (module, attribute path, span name): the names callers resolve
SPANNED = [
    ("cli", "parse_newick", "tree.parse_newick"),
    ("cli", "construct_spr_graph", "graph.construct"),
    ("cli", "construct_nni_graph", "graph.construct"),
    ("cli", "construct_tbr_graph", "graph.construct"),
    ("cli", "read_snapshot", "afcontainer.snapshot"),
    ("cli", "write_snapshot", "afcontainer.snapshot"),
    ("cli", "decode_tree", "canonical.decode_tree"),
    ("afcontainer", "AFContainer.insert", "afcontainer.insert"),
    ("afcontainer", "AFContainer.spr_neighbors", "afcontainer.query"),
    ("afcontainer", "AFContainer.tbr_neighbors", "afcontainer.query"),
    ("afcontainer", "AFContainer.nni_neighbors", "afcontainer.query"),
    ("afcontainer", "sdlnewick_tree", "canonical.sdlnewick_tree"),
    ("afcontainer", "rspr_forest_keys", "forestgen.keys"),
    ("afcontainer", "uspr_forest_keys", "forestgen.keys"),
    ("afcontainer", "tbr_forest_keys", "forestgen.keys"),
    ("afcontainer", "nni_moves", "forestgen.nni_moves"),
    ("forestgen", "yield_forest", "tree.yield_forest"),
    ("forestgen", "sdlnewick_forest", "canonical.sdlnewick_forest"),
    ("forestgen", "apply_spr", "tree.apply_spr"),
]
ROOT_SPAN = "cli.main"
SPAN_NAMES = [ROOT_SPAN] + sorted({name for _, _, name in SPANNED})


class Tracer:
    """Records spans and counters while installed.

    spans[i] = (name, start, end, parent index or -1, run id).
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.counts = {}
        self.query_s = []
        self.missing = []
        self._stack = []
        self._saved = []
        self.run_id = None

    def _count(self, key, k=1):
        self.counts[key] = self.counts.get(key, 0) + k

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
            if after is not None:
                after(result, t1 - t0)
            return result

        return wrapper

    # what each span counts besides its calls
    def _after(self, name, attr):
        if name == "forestgen.keys":

            def keys(result, dt):
                self._count("forestgen.keys.count", len(result))
                self._count("canonical.key_bytes", sum(map(len, result)))

            return keys
        if name == "afcontainer.query":

            def query(result, dt):
                self._count("afcontainer.query.ids", len(result))
                self.query_s.append(dt)
                if attr.endswith("nni_neighbors"):
                    self._count("afcontainer.nni_query.ids", len(result))

            return query
        if name == "forestgen.nni_moves":
            return lambda result, dt: self._count("forestgen.nni_moves.count", len(result))
        if name == "graph.construct":
            return lambda result, dt: self._count("graph.edges", result[0].edge_count)
        return None

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module, path, name in SPANNED:
            owner = self.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if not hasattr(owner, attr):
                self.missing.append(f"{module}.{path}")
                continue
            fn = getattr(owner, attr)
            if name == "afcontainer.insert":
                fn = self._insert_counter(fn)
            self._patch(owner, attr, self.span(name, fn, self._after(name, path)))
        graph_cls = getattr(self.modules["graph"], "AdjacencyGraph", None)
        if graph_cls is None or not hasattr(graph_cls, "append_edge"):
            self.missing.append("graph.AdjacencyGraph.append_edge")
        else:
            append_edge = graph_cls.append_edge

            def counted(graph, i, j):
                self._count("graph.append_edge.calls")
                return append_edge(graph, i, j)

            self._patch(graph_cls, "append_edge", counted)

    def _insert_counter(self, insert):
        def counted(container, tree):
            before = len(container)
            tree_id = insert(container, tree)
            if len(container) > before:
                self._count("afcontainer.insert.new")
            return tree_id

        return counted

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def call(self, main, argv, run_id):
        """main(argv) under the root span."""
        self.run_id = run_id
        return self.span(ROOT_SPAN, main)(argv)

    def summarize(self, path=None):
        """Fold the spans into per-name call counts and self times, write
        them to path if given, and drop them.

        Sets self.totals = {name: [calls, self seconds]}, self.root_s (time
        under root spans) and self.n_spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        for (name, t0, t1, _, _), c in zip(spans, child):
            totals[name][0] += 1
            totals[name][1] += (t1 - t0) - c
        self.totals = totals
        self.root_s = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0)
        self.n_spans = len(spans)
        if path is not None:
            with open(path, "w", encoding="ascii") as fh:
                for i, (name, t0, t1, parent, run_id) in enumerate(spans):
                    rec = {"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "run": run_id}
                    fh.write(json.dumps(rec) + "\n")
        self.spans = []


def tail_percentile(samples, beyond=10):
    """(p50, tail value, tail percentile): the tail is the highest of the
    listed percentiles with at least `beyond` samples above it, or the
    median when there are too few samples for any."""
    xs = sorted(samples)
    if not xs:
        return 0.0, 0.0, 50.0

    def pct(p):
        return xs[min(len(xs) - 1, int(p / 100 * len(xs)))]

    tail = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(xs) * (1 - p / 100) >= beyond:
            tail = p
    return pct(50.0), pct(tail), tail
