"""Self-test of the benchmark's output checker on small real builds.

    python3 -m pytest -q benchmark/tests

Each workload is built at a small size with the real treescape CLI. A clean
build must pass; a dropped edge, an extra edge and a non-zero exit must each
count as a failed build.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SMALL = {
    "uniform-rspr": lambda seed: inputs.uniform_rspr(seed, n=12, m=6, planted=2),
    "space-uspr": lambda seed: inputs.space_uspr(seed, n=5),
    "posterior-nni": lambda seed: inputs.posterior_nni(seed, n=10, m=30),
}


@pytest.fixture(params=sorted(SMALL))
def job(request, tmp_path):
    return run.Job(request.param, SMALL[request.param](7), tmp_path)


def failed_frac(job, call=run.spawn_build):
    tally = run.Tally()
    tally.add(run.build_round(job, call))
    return tally.failed_frac


def after_last_invocation(job, mutate):
    """A build call that runs the real build, then mutates the final graph."""

    def call(argv, workdir):
        result = run.spawn_build(argv, workdir)
        if argv is job.invocations[-1]:
            mutate(job.outputs[-1].graph)
        return result

    return call


def graph_lines(path):
    return path.read_text(encoding="ascii").splitlines(keepends=True)


def test_clean_build_passes(job):
    assert failed_frac(job) == 0


def test_dropped_edge_fails(job):
    def drop(path):
        lines = graph_lines(path)
        if job.inp.pairs:  # drop an edge the input requires
            vmap = check.vertex_map(job.inp, job.outputs)[-1]
            a, b = job.inp.pairs[0]
            edge = "{}\t{}\n".format(*sorted((vmap[a], vmap[b])))
            lines.remove(edge)
        else:
            del lines[1]
        path.write_text("".join(lines), encoding="ascii")

    assert failed_frac(job, after_last_invocation(job, drop)) > 0


def test_extra_edge_fails(job):
    def add(path):
        lines = graph_lines(path)
        m = int(lines[0].split("m=")[1])
        present = {tuple(map(int, ln.split("\t"))) for ln in lines[1:]}
        extra = next((u, v) for v in range(m) for u in range(v) if (u, v) not in present)
        path.write_text("".join(lines) + "{}\t{}\n".format(*extra), encoding="ascii")

    assert failed_frac(job, after_last_invocation(job, add)) > 0


def test_nonzero_exit_fails(job):
    (job.workdir / "batch0.nwk").write_text("((1,2),3\n", encoding="ascii")
    assert failed_frac(job) > 0


def test_inputs_repeat_for_a_seed():
    for name, gen in inputs.GENERATORS.items():
        assert gen(11).sha256() == gen(11).sha256(), name
        assert gen(11).sha256() != gen(12).sha256(), name
