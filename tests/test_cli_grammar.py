"""The command-line grammar: the forms main() accepts, and the usage errors
it refuses with, as argparse gives them."""

import ast
import contextlib
import io
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

from treescape import cli
from treescape.tree import integer

TREES = "(((4,5),1),(2,3));\n((((4,5),2),3),1);\n(1,(2,((4,5),3)));\n"
TAXA_TREES = "(((d,e),a),(b,c));\n((((d,e),b),c),a);\n(a,(b,((d,e),c)));\n"
TAXA = "a 1\nb 2\nc 3\nd 4\ne 5\n"


HELP = [
    (["-h"], "usage: treescape "),
    (["--help"], "usage: treescape "),
    (["build", "-h"], "usage: treescape build "),
    (["build", "--mode", "spr", "--help"], "usage: treescape build "),
    (["verify", "--help"], "usage: treescape verify "),
    (["bench", "-h"], "usage: treescape bench "),
]

USAGE_ERRORS = [
    ([], "command"),
    (["frob"], "frob"),
    (["build", "--mode", "spr", "--rooted", "--out", "g"], "input"),
    (["build", "t.nwk", "--rooted", "--out", "g"], "--mode"),
    (["build", "t.nwk", "--mode", "spr", "--rooted"], "--out"),
    (["build", "t.nwk", "--mode", "spr", "--out", "g"], "--rooted"),
    (["verify", "t.nwk", "--mode", "spr"], "--unrooted"),
    (["bench", "--mode", "spr"], "--rooted"),
    (["build", "t.nwk", "--mode", "spr", "--rooted", "--unrooted", "--out", "g"], "--unrooted"),
    (["build", "t.nwk", "--mode", "spr", "--rooted", "--strict", "--lenient", "--out", "g"],
     "--lenient"),
    (["build", "t.nwk", "--mode", "xyz", "--rooted", "--out", "g"], "xyz"),
    (["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g", "--format", "png"], "png"),
    (["verify", "t.nwk", "--mode", "spr", "--rooted", "--max-m", "x"], "'x'"),
    (["verify", "t.nwk", "--mode", "spr", "--rooted", "--max-m=1.5"], "1.5"),
    (["bench", "--mode", "spr", "--rooted", "--m", "x"], "'x'"),
    (["bench", "--mode", "spr", "--rooted", "--seed", "y"], "'y'"),
    (["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g", "--bogus"], "--bogus"),
    (["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g", "--s", "x"], "--s"),
    (["bench", "--mode", "spr", "--rooted", "--s", "8"], "--s"),
    (["bench", "--mode", "spr", "--rooted", "--taxa", "m.tsv"], "--taxa"),
    (["build", "t.nwk", "u.nwk", "--mode", "spr", "--rooted", "--out", "g"], "u.nwk"),
    (["bench", "t.nwk", "--mode", "spr", "--rooted"], "t.nwk"),
    (["build", "t.nwk", "--mode", "spr", "--rooted", "--out"], "--out"),
    (["build", "t.nwk", "--mode", "--rooted", "--out", "g"], "--mode"),
    (["build", "t.nwk", "--mode", "spr", "--rooted=yes", "--out", "g"], "--rooted"),
]
USAGE_ERROR_IDS = [
    "no-command", "unknown-command", "no-input", "no-mode", "no-out", "no-rootedness",
    "verify-no-rootedness", "bench-no-rootedness", "rooted-and-unrooted", "strict-and-lenient",
    "bad-mode", "bad-format", "max-m-not-int", "max-m-float", "m-not-int", "seed-not-int",
    "unknown-option", "ambiguous-build", "ambiguous-bench", "bench-has-no-taxa",
    "extra-input", "bench-has-no-input", "no-value-at-end", "no-value-before-option",
    "value-for-a-flag",
]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def outputs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def spelled(argv, equals):
    """argv with every --option value pair written --option=value when
    equals is true."""
    out, k = [], 0
    while k < len(argv):
        if equals and argv[k].startswith("--") and k + 1 < len(argv) and not argv[k + 1].startswith("--"):
            out.append(f"{argv[k]}={argv[k + 1]}")
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


class TestAccepted:
    @pytest.mark.parametrize("fmt", ["tsv", "dot"])
    def test_every_build_option_in_both_forms(self, tmp_path, fmt):
        written = {}
        for equals in (False, True):
            d = tmp_path / ("equals" if equals else "spaced")
            d.mkdir()
            inp = write(d, "t.nwk", TAXA_TREES)
            taxa = write(d, "names.txt", TAXA)
            first = ["build", inp, "--mode", "spr", "--rooted", "--strict", "--taxa", taxa,
                     "--format", fmt, "--out", str(d / "g1"), "--snapshot", str(d / "c.snap")]
            assert cli.main(spelled(first, equals)) == 0
            more = write(d, "more.nwk", "((a,b),((d,e),c));\n")
            second = ["build", more, "--mode", "nni", "--unrooted", "--lenient", "--taxa", taxa,
                      "--out", str(d / "g2"), "--append", str(d / "c.snap")]
            # a rooted snapshot does not fit an unrooted build: the options reached it
            assert cli.main(spelled(second, equals)) == 4
            second[4] = "--rooted"
            assert cli.main(spelled(second, equals)) == 0
            written[equals] = outputs(d)
        assert written[True] == written[False]
        assert written[True]["g1"].startswith(b"graph G {" if fmt == "dot" else b"# treescape spr")

    def test_input_after_the_options(self, tmp_path):
        inp = write(tmp_path, "t.nwk", TREES)
        out = tmp_path / "g.tsv"
        assert cli.main(["build", "--mode", "spr", "--rooted", "--out", str(out), inp]) == 0
        assert out.read_text() == "# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"

    @pytest.mark.parametrize("equals", [False, True])
    def test_every_verify_option_in_both_forms(self, tmp_path, capsys, equals):
        # branch lengths, which only --lenient skips
        inp = write(tmp_path, "t.nwk", TAXA_TREES.replace("a)", "a:0.5)"))
        taxa = write(tmp_path, "names.txt", TAXA)
        argv = ["verify", inp, "--mode", "spr", "--rooted", "--lenient", "--taxa", taxa]
        assert cli.main(spelled(argv + ["--max-m", "3"], equals)) == 0
        assert "verify ok: m=3 edges=3" in capsys.readouterr().out
        assert cli.main(spelled(argv + ["--max-m", "2"], equals)) == 5
        argv = ["verify", inp, "--mode", "tbr", "--unrooted", "--taxa", taxa]
        assert cli.main(spelled(argv + ["--lenient"], equals)) == 0
        assert cli.main(spelled(argv + ["--strict"], equals)) == 2

    @pytest.mark.parametrize("equals", [False, True])
    def test_every_bench_option_in_both_forms(self, capsys, monkeypatch, equals):
        seeds = []

        class Recording(random.Random):
            def __init__(self, seed=None):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(random, "Random", Recording)
        argv = ["bench", "--mode", "nni", "--unrooted", "--seed", "5", "--m", "3", "--sizes", "8,9"]
        assert cli.main(spelled(argv, equals)) == 0
        out = capsys.readouterr().out
        assert "n=8 m=3 total=" in out and "n=9 m=3 total=" in out
        assert seeds == [5]

    @pytest.mark.parametrize(
        "option, value",
        [("--app", "append"), ("--form", "format"), ("--snap", "snapshot"), ("--unr", "unrooted")],
    )
    def test_unique_prefixes_abbreviate_build_options(self, tmp_path, option, value):
        inp = write(tmp_path, "t.nwk", TREES)
        snap = str(tmp_path / "c.snap")
        assert cli.main(["build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "a"),
                         "--snapshot", snap]) == 0
        argv = ["build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g")]
        full = {"append": ["--append", snap], "format": ["--format", "dot"],
                "snapshot": ["--snapshot", str(tmp_path / "s.snap")], "unrooted": ["--unrooted"]}[value]
        short = [option, *full[1:]]
        if value == "unrooted":
            argv.remove("--rooted")
        want = cli.main(argv + full)
        want_files = outputs(tmp_path)
        assert cli.main(argv + short) == want
        assert outputs(tmp_path) == want_files

    def test_prefixes_abbreviate_verify_and_bench_options(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TREES)
        assert cli.main(["verify", inp, "--mo", "spr", "--roo", "--max", "2"]) == 5
        assert cli.main(["bench", "--mode", "spr", "--rooted", "--m", "2", "--si", "8", "--se", "1"]) == 0
        assert "n=8 m=2 total=" in capsys.readouterr().out

    def test_dash_reads_stdin(self, tmp_path, monkeypatch):
        out = tmp_path / "g.tsv"
        with open(write(tmp_path, "t.nwk", TREES)) as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            assert cli.main(["build", "-", "--mode", "spr", "--rooted", f"--out={out}"]) == 0
        assert out.read_text() == "# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"

    @pytest.mark.parametrize("argv", [["--m", "-1"], ["--m=-1"]])
    def test_negative_tree_count_reaches_the_program(self, capsys, argv):
        assert cli.main(["bench", "--mode", "spr", "--rooted", *argv, "--sizes", "8"]) == 2
        assert capsys.readouterr().err == "error: --m needs at least one tree per size, got -1\n"

    def test_the_last_repeat_wins(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TREES)
        assert cli.main(["build", inp, "--mode", "tbr", "--mode", "nni", "--rooted",
                         "--out", str(tmp_path / "a"), "--out", str(tmp_path / "b"),
                         "--format", "dot", "--format", "tsv"]) == 0
        assert "built nni graph: m=3 edges=1" in capsys.readouterr().out
        assert not (tmp_path / "a").exists()
        assert (tmp_path / "b").read_text().startswith("# treescape nni m=3\n")

    @pytest.mark.parametrize("argv, usage", HELP)
    def test_help_exits_0_with_usage_on_stdout(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage)
        assert "--mode" in captured.out or argv[0].startswith("-")
        assert captured.err == ""


class TestDoubleDash:
    """-- and arguments led by - mean what argparse makes of them, whether
    the flags are spelled in full or abbreviated."""

    @pytest.mark.parametrize("out", ["--out", "--ou"])
    def test_a_trailing_double_dash_is_a_usage_error(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "t.nwk", TREES)
        with pytest.raises(SystemExit) as exc:
            cli.main(["build", "t.nwk", "--mode", "spr", "--rooted", out, "g.tsv", "--"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "treescape: error: unrecognized arguments: --"
        assert [p.name for p in tmp_path.iterdir()] == ["t.nwk"]

    @pytest.mark.parametrize("name", ["t.nwk", "-t.nwk"])
    def test_double_dash_ends_the_options(self, tmp_path, monkeypatch, name):
        written = []
        for out in "--out", "--ou":
            d = tmp_path / out
            d.mkdir()
            write(d, name, TREES)
            monkeypatch.chdir(d)
            assert cli.main(["build", "--mode", "spr", "--rooted", out, "g.tsv", "--", name]) == 0
            written.append(outputs(d))
        assert written[0] == written[1]
        assert written[0]["g.tsv"] == b"# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"
        assert written[0]["g.vertices.tsv"].startswith(b"# vertex\tline\tcanonical\n0\t1\t")

    @pytest.mark.parametrize("argv", [
        ["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g.tsv", "--"],
        ["build", "--mode", "spr", "--rooted", "--out", "g.tsv", "--", "t.nwk"],
        ["build", "-5", "--mode", "spr", "--rooted", "--out", "g.tsv"],
        ["bench", "--mode", "spr", "--rooted", "--m", "-1"],
        ["bench", "--mode", "spr", "--rooted", "--seed", "-5"],
    ])
    def test_the_spelled_reader_leaves_dash_led_arguments_to_argparse(self, argv):
        assert cli._read_spelled(argv) is None

    def test_dash_and_values_after_equals_stay_on_the_spelled_reader(self):
        build = ["build", "t.nwk", "--mode", "spr", "--rooted"]
        assert cli._read_spelled(build + ["--taxa", "-", "--out", "-"]).taxa == "-"
        assert cli._read_spelled(["build", "-", *build[2:], "--out", "g"]).input == "-"
        assert cli._read_spelled(["bench", "--mode", "spr", "--rooted", "--m=-1"]).m == -1


ERROR_LINE = re.compile(r"treescape(?: (?:build|verify|bench))?: error: (.+)")


@pytest.mark.parametrize("argv, mentions", USAGE_ERRORS, ids=USAGE_ERROR_IDS)
def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys, argv, mentions):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: treescape")
    assert "Traceback" not in captured.err
    last = captured.err.splitlines()[-1]
    error = ERROR_LINE.fullmatch(last)
    assert error, last
    assert mentions in error.group(1)
    assert list(tmp_path.iterdir()) == []


# the argv of each command with its required options only, which the
# differential corpus mutates
MINIMAL = [
    ["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g.tsv"],
    ["verify", "t.nwk", "--mode", "nni", "--unrooted"],
    ["bench", "--mode", "tbr", "--unrooted"],
]
FLAGS = sorted({option[0] for _, _, _, options in cli.COMMANDS.values() for option in options})
TOKENS = [
    *FLAGS,
    *(flag[:k] for flag in FLAGS for k in range(3, len(flag))),
    "spr", "nni", "tbr", "xyz", "tsv", "dot", "5", "0", "-1", "1.5", "x", "8,16",
    "t.nwk", "u.nwk", "g.tsv", "c.snap", "-", "--", "-h", "--help", "build", "",
    "--out=o.tsv", "--mode=nni", "--m=-1", "--max-m=7", "--rooted=yes", "--format=dot",
]


def mutated(rng, argv):
    """argv after 1 to 4 random edits: an insert of a token or of an option
    of the command with a value, a delete or a swap."""
    argv = list(argv)
    _, _, _, options = cli.COMMANDS[argv[0]]
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4)
        where = rng.randint(1, len(argv))
        if op == 0:
            argv.insert(where, rng.choice(TOKENS))
        elif op == 1:
            flag, _, value, _, _ = rng.choice(options)
            if isinstance(value, tuple):
                value = rng.choice(value)
            elif value is integer:
                value = rng.choice(["5", "0", "-1"])
            argv[where:where] = [flag] if isinstance(value, bool) else [flag, value]
        elif op == 2 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif len(argv) > 2:
            i, j = rng.sample(range(len(argv)), 2)
            argv[i], argv[j] = argv[j], argv[i]
    return argv


def differential_corpus():
    tables = [argv for argv, _ in HELP + USAGE_ERRORS]
    tables += MINIMAL + [spelled(argv, True) for argv in MINIMAL]
    rng = random.Random(1606)
    return tables + [mutated(rng, rng.choice(MINIMAL)) for _ in range(18000)]


def test_spelled_reader_agrees_with_argparse():
    # whenever the reader that a build uses returns a namespace, the
    # argparse parser of the same table returns an equal one
    from treescape.usage import parser

    argparser = parser(cli.COMMANDS)
    read = 0
    for argv in differential_corpus():
        args = cli._read_spelled(argv)
        if args is None:
            continue
        read += 1
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            try:
                parsed = argparser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}")
        assert vars(parsed) == vars(args), argv
    assert read > 1000


def readme_commands():
    text = pathlib.Path(__file__).resolve().parent.parent.joinpath("README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("treescape ")]


def benchmark_builds():
    """The argv of each build invocation that benchmark/run.py makes."""
    run_py = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "run.py"
    [mode_args] = [
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "MODE_ARGS"
    ]
    builds = []
    for mode in mode_args.values():
        argv = ["build", "/w/trees0.nwk", *mode, "--out", "/w/graph0.tsv"]
        builds += [argv, argv + ["--snapshot", "/w/trees.snap"],
                   argv + ["--append", "/w/trees.snap"],
                   argv + ["--append", "/w/trees.snap", "--snapshot", "/w/trees.snap"]]
    return builds


def test_benchmark_and_readme_commands_parse_without_argparse():
    builds, readme = benchmark_builds(), readme_commands()
    assert len(builds) == 12 and sum(argv[0] == "build" for argv in readme) == 3
    corpus = builds + readme
    assert all(cli._read_spelled(argv) for argv in corpus)
    code = (
        "import sys\n"
        "from treescape import cli\n"
        f"for argv in {corpus!r}:\n"
        "    cli.parse_args(argv)\n"
        "print('argparse' in sys.modules, 'treescape.usage' in sys.modules)\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False False\n"
