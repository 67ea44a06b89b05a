"""The treescape command as a process: python -m treescape.cli in a child
interpreter, its exit codes, its streams and how the process ends."""

import ast
import os
import subprocess
import sys

import pytest

from treescape import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
ROOT = os.path.dirname(SRC)

# three trees, of which line 3 repeats line 1 and line 4 repeats line 2
TREES = "(((4,5),1),(2,3));\n((((4,5),2),3),1);\n(((4,5),1),(2,3));\n((((4,5),2),3),1);\n"
BUILD = ["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g.tsv", "--snapshot", "c.snap"]
OUTPUTS = ["g.tsv", "g.vertices.tsv", "c.snap"]


def child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    env.update(extra)
    return env


def treescape(cwd, *argv, env=None, stdout=subprocess.PIPE, **popen):
    """Run python -m treescape.cli argv in cwd; the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "treescape.cli", *argv],
        cwd=cwd,
        env=env or child_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
        **popen,
    )


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "t.nwk").write_text(TREES)
    return tmp_path


def test_build_matches_an_in_process_build(tmp_path, monkeypatch, capsys):
    inside, outside = tmp_path / "inside", tmp_path / "outside"
    for d in (inside, outside):
        d.mkdir()
        (d / "t.nwk").write_text(TREES)
    monkeypatch.chdir(inside)
    assert cli.main(BUILD) == 0
    expected = capsys.readouterr()
    proc = treescape(outside, *BUILD)
    assert proc.returncode == 0
    assert proc.stdout == expected.out == "built spr graph: m=2 edges=1\n"
    assert proc.stderr == expected.err
    assert expected.err.splitlines() == [
        "warning: t.nwk:3: duplicate of line 1",
        "warning: t.nwk:4: duplicate of line 2",
    ]
    for name in OUTPUTS:
        assert (outside / name).read_bytes() == (inside / name).read_bytes(), name


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        ("(1,2\n", ["--mode", "spr", "--rooted"], 2, "error: t.nwk:1: "),
        ("((1,2),3);\n((1,2),4);\n", ["--mode", "spr", "--rooted"], 3,
         "error: t.nwk:2: all trees must share one leaf label set"),
        (TREES, ["--mode", "tbr", "--rooted"], 4,
         "error: tbr graphs are only defined for unrooted trees"),
    ],
    ids=["parse", "leaf-set", "rooted-tbr"],
)
def test_error_exits(workdir, text, argv, code, message):
    (workdir / "t.nwk").write_text(text)
    proc = treescape(workdir, "build", "t.nwk", *argv, "--out", "g.tsv")
    assert proc.returncode == code
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(message)
    assert not (workdir / "g.tsv").exists()


def test_usage_error_and_help(workdir):
    proc = treescape(workdir, "build", "t.nwk", "--mode", "spr", "--rooted")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == (
        "treescape build: error: the following arguments are required: --out"
    )
    proc = treescape(workdir, "-h")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: treescape {build,verify,bench} ...\n")


def test_closed_stdin(workdir):
    proc = treescape(workdir, "build", "-", "--mode", "spr", "--rooted", "--out", "g.tsv",
                     preexec_fn=lambda: os.close(0))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: -: stdin is closed\n")
    assert not (workdir / "g.tsv").exists()


def test_unreadable_stdin_is_named(workdir):
    with open(os.devnull, "w") as fh:  # fd 0 open, but write-only
        proc = treescape(workdir, "build", "-", "--mode", "spr", "--rooted", "--out", "g.tsv",
                         stdin=fh)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: [Errno 9] Bad file descriptor: '-'\n"
    )
    assert not (workdir / "g.tsv").exists()


def test_stdin_that_is_not_utf8_ends_as_a_file_does(workdir):
    (workdir / "bad.nwk").write_bytes(b"(((4,5),1),(2,\xe9));\n")
    # in UTF-8 mode stdin decodes bytes that are not UTF-8 to surrogates
    env = child_env(PYTHONUTF8="1")
    for path in ("-", "bad.nwk"):
        with open(workdir / "bad.nwk", "rb") as fh:
            proc = treescape(workdir, "build", path, "--mode", "spr", "--rooted", "--out", "g.tsv",
                             env=env, stdin=fh)
        assert (proc.returncode, proc.stderr) == (2, f"error: {path}: not UTF-8 text\n")


def test_stdin_is_utf8_whatever_its_stream_encoding(workdir):
    (workdir / "names.nwk").write_text("(((é,b),c),d);\n(((é,c),b),d);\n", encoding="utf-8")
    (workdir / "T").write_text("é 1\nb 2\nc 3\nd 4\n", encoding="utf-8")
    env = child_env(PYTHONIOENCODING="latin-1")
    outputs = {}
    for path in ("-", "names.nwk"):
        with open(workdir / "names.nwk", "rb") as fh:
            proc = treescape(workdir, "build", path, "--mode", "spr", "--rooted", "--taxa", "T",
                             "--out", "g.tsv", env=env, stdin=fh, errors="backslashreplace")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "built spr graph: m=2 edges=1\n", ""
        )
        outputs[path] = [(workdir / name).read_bytes() for name in ("g.tsv", "g.vertices.tsv")]
    assert outputs["-"] == outputs["names.nwk"]


def test_closed_stdout(workdir):
    proc = treescape(workdir, *BUILD, stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert (workdir / "g.tsv").read_text().startswith("# treescape spr m=2\n")


def readerless_pipe_build(workdir, env):
    """A build whose stdout is a pipe with no reader."""
    read, write = os.pipe()
    os.close(read)
    try:
        return treescape(workdir, *BUILD, env=env, stdout=write)
    finally:
        os.close(write)


def test_stdout_pipe_without_reader_unbuffered(workdir):
    proc = readerless_pipe_build(workdir, child_env(PYTHONUNBUFFERED="1"))
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == "error: [Errno 32] Broken pipe"
    assert "Traceback" not in proc.stderr


def test_stdout_pipe_without_reader_buffered(workdir):
    # the flush fails, so the interpreter's own exit reports it, as it does
    # for any Python program
    proc = readerless_pipe_build(workdir, child_env())
    assert proc.returncode == 120
    assert proc.stderr.startswith("warning: t.nwk:3: duplicate of line 1\n")
    assert "Exception ignored" in proc.stderr
    assert proc.stderr.endswith("\nBrokenPipeError: [Errno 32] Broken pipe\n")
    assert "Traceback" not in proc.stderr


# registers an atexit handler, then runs the command as python -m does
_ATEXIT_PROBE = """\
import atexit, runpy, sys
atexit.register(lambda: open("atexit.ran", "w").close())
sys.argv = ["treescape", *sys.argv[1:]]
runpy.run_module("treescape.cli", run_name="__main__")
"""


@pytest.mark.parametrize(
    "argv, code, ran",
    [(BUILD, 0, False), (["build", "t.nwk", "--mode", "spr"], 2, True)],
    ids=["build", "usage-error"],
)
def test_a_build_ends_without_teardown(workdir, argv, code, ran):
    # a successful build skips atexit handlers and the rest of interpreter
    # teardown; a usage error leaves through the normal exit
    proc = subprocess.run(
        [sys.executable, "-c", _ATEXIT_PROBE, *argv],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert (workdir / "atexit.ran").exists() is ran
    if not code:
        assert proc.stdout == "built spr graph: m=2 edges=1\n"


def test_console_script_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        script = tomllib.load(fh)["project"]["scripts"]["treescape"]
    module, _, function = script.partition(":")
    assert module == "treescape.cli"
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [block] = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    sys.exit({function}())"
    assert callable(getattr(cli, function))
