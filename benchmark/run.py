"""treescape build benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload uniform-rspr --seed 3 --seconds 35 --trace 0

Untraced (--trace 0): builds the workload's seeded Newick input with
``treescape build`` in a child process, one build at a time, for the given
seconds, checks every output, and reports the end-to-end metrics. Traced
(--trace 1): runs the same builds in process through ``cli.main``, once
plain and once with spans around each module's calls, and reports the
per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print each
metric with its unit and the run's environment.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBE = ["-c", "import treescape.cli"]
SETUP_SAMPLES = 2  # per timed build, taken between builds
REFERENCE = [str(HERE / "reference.py")]

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import inputs  # noqa: E402

# treescape build arguments of each workload, per batch
MODE_ARGS = {
    "uniform-rspr": ["--mode", "spr", "--rooted"],
    "space-uspr": ["--mode", "spr", "--unrooted"],
    "posterior-nni": ["--mode", "nni", "--unrooted"],
}


class Job:
    """A workload input written to disk, and the build invocations over it."""

    def __init__(self, workload, inp, workdir):
        self.workload = workload
        self.inp = inp
        self.workdir = workdir
        self.invocations = []
        self.outputs = []
        snap = workdir / "trees.snap"
        for b, batch in enumerate(inp.batches):
            nwk = workdir / f"batch{b}.nwk"
            nwk.write_text("\n".join(batch) + "\n", encoding="ascii")
            out = workdir / f"graph{b}.tsv"
            argv = ["build", str(nwk), *MODE_ARGS[workload], "--out", str(out)]
            if b:
                argv += ["--append", str(snap)]
            if b + 1 < len(inp.batches):
                argv += ["--snapshot", str(snap)]
            self.invocations.append(argv)
            self.outputs.append(check.Outputs(out, workdir / f"graph{b}.vertices.tsv"))

    def output_bytes(self):
        paths = [p for o in self.outputs for p in (o.graph, o.vertices)]
        paths.append(self.workdir / "trees.snap")
        return sum(p.stat().st_size for p in paths if p.exists())


class Round:
    """One timed build of a workload: every batch invocation in order."""

    def __init__(self):
        self.walls = []
        self.rss_mb = []
        self.problems = []

    @property
    def wall(self):
        return sum(self.walls)

    @property
    def ok(self):
        return not self.problems


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def spawn(argv, workdir):
    """Run a fresh interpreter on argv: (exit code, wall s, own max RSS MB)."""
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=workdir,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def spawn_build(argv, workdir):
    return spawn(["-m", "treescape.cli", *argv], workdir)


def build_round(job, call=spawn_build):
    """Run every invocation of the job, then check the outputs untimed."""
    rnd = Round()
    for argv in job.invocations:
        code, wall, rss = call(argv, job.workdir)
        rnd.walls.append(wall)
        rnd.rss_mb.append(rss)
        if code != 0:
            rnd.problems.append(f"{argv[0]} {argv[1]} exited {code}")
            return rnd
    rnd.problems += check.check_build(job.workload, job.inp, job.outputs)
    return rnd


class Tally:
    """Workload builds attempted and failed (non-zero exit or bad output)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, rnd):
        self.attempted += 1
        if not rnd.ok:
            self.failed += 1
            self.problems += rnd.problems

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def environment(args):
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "argv": sys.argv,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_untraced(args, expected, tally, workdir):
    """End-to-end metrics from child-process builds."""
    generate = inputs.GENERATORS[args.workload]
    default = Job(args.workload, generate(expected["default_seed"]), fresh_dir(workdir / "default"))
    job = Job(args.workload, generate(args.seed), fresh_dir(workdir / "seed"))

    # Untimed warm-up on the default input, whose edge digest is recorded.
    # It also compiles and caches treescape's bytecode before any timing.
    warm = build_round(default)
    digest = check.edges_sha256(default.outputs) if warm.ok else None
    if warm.ok and digest != expected["edges_sha256"][args.workload]:
        warm.problems.append("default-seed edge list differs from the recorded digest")
    tally.add(warm)

    # After each build, time the fixed reference program and a few fresh
    # imports, so that every build has a gauge of the machine's speed taken
    # next to it.
    rounds, refs, setup = [], [], []
    t_start = time.perf_counter()
    while True:
        rnd = build_round(job)
        tally.add(rnd)
        rounds.append(rnd)
        refs.append(spawn(REFERENCE, workdir)[1])
        setup += [(spawn(SETUP_PROBE, workdir)[1], refs[-1]) for _ in range(SETUP_SAMPLES)]
        if time.perf_counter() - t_start + rnd.wall + refs[-1] > args.seconds:
            break
    # A shared machine switches between fast and slow spells within seconds
    # and drifts over minutes, by up to a factor of 1.7. Each time is
    # therefore scaled by the nominal reference time over the reference
    # time taken right after it, and the scaled times give the medians.
    nominal = expected["reference_s"]
    walls = [r.wall for r in rounds]
    scaled = [w * nominal / ref for w, ref in zip(walls, refs)]
    return {
        "trees_per_s": (
            job.inp.n_trees / statistics.median(scaled),
            "1/s",
            f"median of {len(walls)} builds, speed-scaled",
        ),
        "peak_rss_mb": (statistics.median(max(r.rss_mb) for r in rounds), "MB", f"median of {len(rounds)} builds"),
        "setup_s": (
            statistics.median(w * nominal / ref for w, ref in setup),
            "s",
            f"median of {len(setup)} starts, speed-scaled",
        ),
        "ok_frac": (1.0 - tally.failed_frac, "frac", f"of {tally.attempted} builds"),
    }, {
        "default_edges_sha256": digest,
        "raw_trees_per_s": job.inp.n_trees / statistics.median(walls),
        "build_walls_s": walls,
        "reference_walls_s": refs,
        "raw_setup_s": statistics.median(w for w, _ in setup),
        "setup_samples_s": [w for w, _ in setup],
    }


def measure_traced(args, tally, workdir):
    """Per-layer metrics from in-process builds with and without spans."""
    import spans
    from treescape import afcontainer, cli, forestgen, graph

    modules = {"cli": cli, "afcontainer": afcontainer, "forestgen": forestgen, "graph": graph}
    job = Job(args.workload, inputs.GENERATORS[args.workload](args.seed), fresh_dir(workdir / "seed"))

    def in_process(main):
        def call(argv, _workdir):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = main(argv)
                return code, time.perf_counter() - t0, 0.0

        return call

    plain, traced = [], []  # (wall, tracer) per round
    t_start = time.perf_counter()
    while True:
        rnd = build_round(job, in_process(cli.main))
        tally.add(rnd)
        plain.append(rnd.wall)

        tracer = spans.Tracer(modules)
        tracer.install()
        runs = iter(range(len(job.invocations)))
        try:
            rnd = build_round(job, in_process(lambda argv: tracer.call(cli.main, argv, f"{len(traced)}.{next(runs)}")))
        finally:
            tracer.uninstall()
        tally.add(rnd)
        first = not traced
        tracer.summarize(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl" if first else None)
        traced.append((rnd.wall, tracer))
        if time.perf_counter() - t_start + rnd.wall + plain[-1] > args.seconds:
            break

    counts = [t.counts for _, t in traced]
    calls = [{k: c for k, (c, _) in t.totals.items()} for _, t in traced]
    repeat = all(c == counts[0] for c in counts) and all(c == calls[0] for c in calls)
    # Report the traced round of median wall time, so its self times and
    # remainder add up to its wall time exactly.
    wall, tracer = sorted(traced, key=lambda wt: wt[0])[(len(traced) - 1) // 2]
    metrics = layer_metrics(tracer, wall, statistics.median(plain), job.output_bytes())
    return metrics, {
        "counts_repeat": repeat,
        "traced_rounds": len(traced),
        "unwrapped": tracer.missing,
    }


def layer_metrics(tracer, wall, plain_wall, output_bytes):
    from spans import tail_percentile

    c = tracer.counts
    m = {}
    for name, (calls, self_s) in tracer.totals.items():
        key = "cli" if name == "cli.main" else name
        m[f"{key}.self_s"] = (self_s, "s")
        if key != "cli":
            m[f"{key}.calls"] = (calls, "count")
    for key in ("forestgen.keys.count", "canonical.key_bytes", "afcontainer.insert.new",
                "afcontainer.query.ids", "forestgen.nni_moves.count", "graph.edges",
                "graph.append_edge.calls"):
        m[key] = (c.get(key, 0), "bytes" if key.endswith("bytes") else "count")
    p50, tail, tail_pct = tail_percentile([s * 1000 for s in tracer.query_s])
    m["afcontainer.query_ms.p50"] = (p50, "ms")
    m["afcontainer.query_ms.tail"] = (tail, "ms")
    m["afcontainer.query_ms.tail_pct"] = (tail_pct, "%")
    ids = c.get("afcontainer.query.ids", 0)
    m["graph.useful_ratio"] = (c.get("graph.edges", 0) / ids if ids else 0.0, "ratio")
    moves = c.get("forestgen.nni_moves.count", 0)
    m["afcontainer.nni_hit_ratio"] = (c.get("afcontainer.nni_query.ids", 0) / moves if moves else 0.0, "ratio")
    m["cli.output_bytes"] = (output_bytes, "bytes")
    m["trace.wall_s"] = (wall, "s")
    m["trace.untraced_wall_s"] = (plain_wall, "s")
    m["trace.overhead_s"] = (wall - plain_wall, "s")
    m["trace.remainder_s"] = (wall - tracer.root_s, "s")
    m["trace.spans"] = (tracer.n_spans, "count")
    return {k: (v, unit, None) for k, (v, unit) in m.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "treescape" / "cli.py").is_file():
        print(f"error: no treescape sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = json.loads((HERE / "expected.json").read_text())
    correct = True
    digest = inputs.GENERATORS[args.workload](expected["default_seed"]).sha256()
    if digest != expected["input_sha256"][args.workload]:
        print(f"error: default-seed input digest {digest} differs from expected.json", file=sys.stderr)
        correct = False

    OUT.mkdir(exist_ok=True)
    workdir = fresh_dir(OUT / f"work-{args.workload}-{os.getpid()}")
    tally = Tally()
    try:
        if args.trace:
            metrics, extra = measure_traced(args, tally, workdir)
        else:
            metrics, extra = measure_untraced(args, expected, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and tally.failed == 0 and extra.get("counts_repeat", True)

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    record = {"env": environment(args), **extra}
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"{args.workload}  failed_frac = {tally.failed_frac:.6g}  ({tally.failed} of {tally.attempted} builds)")
    print("env " + json.dumps(record))
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
