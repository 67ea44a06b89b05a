import os
import subprocess
import sys
import tempfile

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
    """(lines of src/, lines of the reference modules canonical and oracle,
    lines of the treescape modules an --append build imports, the other
    modules it imports beyond a bare interpreter)."""
    package = os.path.join(SRC, "treescape")
    src = sum(_line_count(os.path.join(package, f)) for f in os.listdir(package) if f.endswith(".py"))
    reference = sum(_line_count(os.path.join(package, f)) for f in ("canonical.py", "oracle.py"))
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
    return src, reference, sum(map(_line_count, modules)), others


def pytest_terminal_summary(terminalreporter, exitstatus):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)
    # informational: a failure to count is reported, never raised
    terminalreporter.section("line counts")
    try:
        src, reference, build_path, others = _line_counts()
    except (OSError, subprocess.SubprocessError) as exc:
        terminalreporter.write_line(f"unavailable: {exc}")
    else:
        terminalreporter.write_line(
            f"src/: {src} lines; the reference (canonical, oracle) {reference}; "
            f"an --append build imports {build_path}"
        )
        terminalreporter.write_line(
            f"modules outside treescape it imports beyond a bare interpreter: "
            f"{', '.join(others) or 'none'}"
        )
