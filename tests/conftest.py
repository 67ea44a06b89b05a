import os
import subprocess
import sys
import tempfile
import time

from treescape.tree import Tree

_acceptance_lines = []

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# an --append build in a fresh interpreter; prints the files of the
# treescape modules it imported, and the other modules it added to those a
# bare interpreter holds
_BUILD_PATH_PROBE = """\
import sys
bare = set(sys.modules)
from treescape import cli
with open("t.nwk", "w") as fh:
    fh.write("(((4,5),1),(2,3));\\n((((4,5),2),3),1);\\n")
argv = ["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g.tsv"]
assert cli.main(argv + ["--snapshot", "c.snap"]) == 0
assert cli.main(argv + ["--append", "c.snap"]) == 0
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] == "treescape":
        print("module", module.__file__)
    elif name not in bare:
        print("other", name)
"""


def shuffled_presentation(tree, rng):
    """Same tree, new node numbering and neighbor order."""
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


def write(tmp_path, name, text):
    """Write text to the file name in tmp_path; returns its path as a str."""
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def report_criterion(num, name, ok, detail=""):
    """Record one acceptance line and fail the test when not ok."""
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {status}" + (f" [{detail}]" if detail else "")
    _acceptance_lines.append((num, line))
    print(f"[acceptance] {line}")
    assert ok, line


def _line_count(path):
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _line_counts():
    """(lines of src/, lines of the reference module oracle,
    lines of checks, taxa and usage, which a build does not import, lines of
    the treescape modules an --append build imports, the other modules it
    imports beyond a bare interpreter)."""
    package = os.path.join(SRC, "treescape")

    def count(names):
        return sum(_line_count(os.path.join(package, f)) for f in names)

    src = count(f for f in os.listdir(package) if f.endswith(".py"))
    reference = count(["oracle.py"])
    off_path = count(["checks.py", "taxa.py", "usage.py"])
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run(
            [sys.executable, "-c", _BUILD_PATH_PROBE],
            cwd=tmp,
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    lines = [line.partition(" ") for line in out.splitlines()]
    modules = [value for kind, _, value in lines if kind == "module"]
    others = [value for kind, _, value in lines if kind == "other"]
    return src, reference, off_path, sum(map(_line_count, modules)), others


# the commands whose wall the start-up line reports, each run in a fresh
# interpreter in a directory that holds t.nwk and space.nwk
_START_UP = {
    "python -c pass": ["-c", "pass"],
    "import treescape.cli": ["-c", "import treescape.cli"],
    "a 4-tree build": [
        "-m", "treescape.cli", "build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g.tsv"
    ],
    "a build of all 945 unrooted 7-leaf trees": [
        "-m", "treescape.cli", "build", "space.nwk", "--mode", "spr", "--unrooted",
        "--out", "space.tsv",
    ],
}


def _start_up_walls():
    """The best wall of each _START_UP command over 5 rounds that run each
    once, in seconds."""
    from treescape import oracle

    best = dict.fromkeys(_START_UP, float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "t.nwk"), "w") as fh:
            fh.write("((1,2),(3,4));\n((1,3),(2,4));\n((1,4),(2,3));\n(((1,2),3),4);\n")
        with open(os.path.join(tmp, "space.nwk"), "w") as fh:
            fh.writelines(
                oracle.to_newick(t) + "\n" for t in oracle.enumerate_all_trees(7, rooted=False)
            )
        env = dict(os.environ, PYTHONPATH=SRC)
        for _ in range(5):
            for name, argv in _START_UP.items():
                t0 = time.perf_counter()
                subprocess.run(
                    [sys.executable, *argv], cwd=tmp, env=env, stdout=subprocess.DEVNULL, check=True
                )
                best[name] = min(best[name], time.perf_counter() - t0)
    return best


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
    # informational: a failure to count is reported, never raised
    terminalreporter.section("line counts")
    try:
        src, reference, off_path, build_path, others = _line_counts()
    except (OSError, subprocess.SubprocessError) as exc:
        terminalreporter.write_line(f"unavailable: {exc}")
    else:
        terminalreporter.write_line(
            f"src/: {src} lines; the reference (oracle) {reference}; "
            f"checks, taxa and usage, which a build does not import, {off_path}; "
            f"an --append build imports {build_path}"
        )
        terminalreporter.write_line(
            f"modules outside treescape it imports beyond a bare interpreter: "
            f"{', '.join(others) or 'none'}"
        )
    # informational, as the line counts are: the fixed cost of a process
    terminalreporter.section("start-up")
    try:
        walls = _start_up_walls()
    except (OSError, subprocess.SubprocessError) as exc:
        terminalreporter.write_line(f"unavailable: {exc}")
    else:
        terminalreporter.write_line(
            "best of 5: " + "; ".join(f"{name} {wall * 1000:.1f} ms" for name, wall in walls.items())
        )
