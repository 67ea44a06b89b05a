"""End-to-end command line behavior, driven in-process through main()."""

import io
import math
import os
import random
import re
import stat
import subprocess
import sys
import types
import weakref

import pytest
from conftest import write

import treescape
from treescape import afcontainer, checks, cli, errors, forestgen, oracle
from treescape.afcontainer import read_snapshot
from treescape.graph import AdjacencyGraph

TRIANGLE = "(((4,5),1),(2,3));\n((((4,5),2),3),1);\n(1,(2,((4,5),3)));\n"


def run(*argv):
    return cli.main(list(argv))


class TestBuild:
    def test_triangle_tsv(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        out = tmp_path / "g.tsv"
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(out)) == 0
        assert out.read_text() == "# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"
        sidecar = (tmp_path / "g.vertices.tsv").read_text().splitlines()
        assert sidecar[0] == "# vertex\tline\tcanonical"
        assert sidecar[1] == "0\t1\t(r,(1,(4,5)),(2,3));"
        assert len(sidecar) == 4
        assert "built spr graph: m=3 edges=3" in capsys.readouterr().out

    def test_deterministic_output(self, tmp_path):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run("build", inp, "--mode", "spr", "--rooted", "--out", str(a))
        run("build", inp, "--mode", "spr", "--rooted", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dot_format(self, tmp_path):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        out = tmp_path / "g.dot"
        assert run("build", inp, "--mode", "nni", "--rooted", "--format", "dot", "--out", str(out)) == 0
        text = out.read_text()
        assert text.startswith("graph G {\n")
        assert text.endswith("}\n")
        assert '  v0 [label="(r,(1,(4,5)),(2,3));"];\n' in text
        assert text.count(" -- ") == 1

    def test_duplicate_warning(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TRIANGLE + "(((5,4),1),(3,2));\n")
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv")) == 0
        err = capsys.readouterr().err
        assert f"warning: {inp}:4: duplicate of line 1" in err

    def test_comments_and_blanks_skipped(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "# header\n\n(1,2,(3,4));\n")
        out = tmp_path / "g.tsv"
        assert run("build", inp, "--mode", "spr", "--unrooted", "--out", str(out)) == 0
        assert "m=1" in out.read_text()
        sidecar = (tmp_path / "g.vertices.tsv").read_text()
        assert "0\t3\t" in sidecar

    def test_empty_input_warns_and_succeeds(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", "# nothing here\n")
        out = tmp_path / "g.tsv"
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(out)) == 0
        assert "no trees" in capsys.readouterr().err
        assert out.read_text() == "# treescape spr m=0\n"

    # a UTF-8 byte-order mark opens the file, and is not part of its first line
    @pytest.mark.parametrize("marked", ["input", "taxa", "stdin"])
    def test_byte_order_mark(self, tmp_path, monkeypatch, marked):
        outputs = []
        for bom in ("", "\ufeff"):
            d = tmp_path / f"bom{len(bom)}"
            d.mkdir()
            inp = d / "t.nwk"
            inp.write_text(("" if marked == "taxa" else bom) + "((a,b),(c,d));\n((a,c),(b,d));\n",
                           encoding="utf-8")
            taxa = d / "m.tsv"
            taxa.write_text((bom if marked == "taxa" else "") + "a 1\nb 2\nc 3\nd 4\n",
                            encoding="utf-8")
            with open(inp, encoding="utf-8") as stdin:
                monkeypatch.setattr("sys.stdin", stdin)
                assert run("build", "-" if marked == "stdin" else str(inp), "--mode", "spr",
                           "--rooted", "--taxa", str(taxa), "--out", str(d / "g.tsv")) == 0
            outputs.append([(d / name).read_bytes() for name in ("g.tsv", "g.vertices.tsv")])
        assert outputs[0] == outputs[1]

    def test_stdin(self, tmp_path, monkeypatch):
        out = tmp_path / "g.tsv"
        with open(write(tmp_path, "t.nwk", TRIANGLE)) as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            assert run("build", "-", "--mode", "spr", "--rooted", "--out", str(out)) == 0
        assert "m=3" in out.read_text()

    # - is read through stdin's file descriptor, which a replaced or closed
    # sys.stdin does not give
    @pytest.mark.parametrize("closed", [False, True], ids=["no-file", "closed"])
    def test_stdin_without_an_open_file(self, tmp_path, monkeypatch, capsys, closed):
        stdin = io.StringIO(TRIANGLE)
        if closed:
            with open(write(tmp_path, "t.nwk", TRIANGLE)) as stdin:
                pass
        monkeypatch.setattr("sys.stdin", stdin)
        out = tmp_path / "g.tsv"
        assert run("build", "-", "--mode", "spr", "--rooted", "--out", str(out)) == 2
        assert capsys.readouterr() == ("", "error: -: stdin is not an open file\n")
        assert not out.exists()

    def test_double_dash_ends_the_options(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "-t.nwk", TRIANGLE)
        assert run("build", "--mode", "spr", "--rooted", "--out", "g.tsv", "--", "-t.nwk") == 0
        assert (tmp_path / "g.tsv").read_text() == "# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"

    def test_lenient_flag(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "((1:0.1,2:0.2)n1:0.3,(3:0.1,4:0.4)n2:0.5)root;\n")
        out = tmp_path / "g.tsv"
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(out)) != 0
        assert run("build", inp, "--mode", "spr", "--rooted", "--lenient", "--out", str(out)) == 0


def fresh_interpreter(code):
    """stdout of code run in a new interpreter that imports this treescape."""
    src = os.path.dirname(os.path.dirname(treescape.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("append", [False, True])
def test_build_loads_neither_reference_modules_nor_dataclasses(tmp_path, append):
    # a build compiles every module it imports, so the reference encoder and
    # decoder, the all-pairs oracle, dataclasses, argparse and the modules of
    # verify, bench, --taxa and the argparse parser stay out of it, also when
    # it reads a snapshot
    inp = write(tmp_path, "t.nwk", TRIANGLE)
    snap = str(tmp_path / "c.snap")
    build = ["build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv")]
    if append:
        assert run(*build, "--snapshot", snap) == 0
        build += ["--append", snap]
    code = (
        "import sys\n"
        "had_dataclasses = 'dataclasses' in sys.modules\n"
        "had_argparse = 'argparse' in sys.modules\n"
        "from treescape import cli\n"
        f"assert cli.main({build!r}) == 0\n"
        "print('treescape.oracle' in sys.modules,\n"
        "      not had_dataclasses and 'dataclasses' in sys.modules,\n"
        "      not had_argparse and 'argparse' in sys.modules,\n"
        "      'treescape.checks' in sys.modules, 'treescape.taxa' in sys.modules,\n"
        "      'treescape.usage' in sys.modules)\n"
    )
    assert fresh_interpreter(code) == "False False False False False False"


def test_package_binds_no_names():
    code = (
        "import sys\n"
        "import treescape\n"
        "print(sorted(m for m in sys.modules if m.startswith('treescape.')))\n"
    )
    assert fresh_interpreter(code) == "[]"
    for name in ("AFContainer", "apply_spr", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(treescape, name)


def test_reference_imports_only_the_parser_and_the_errors():
    # the oracle checks the build's code, so it loads none of the build's modules
    code = (
        "import sys\n"
        "import treescape.oracle\n"
        "print(sorted(m for m in sys.modules if m.startswith('treescape.')))\n"
    )
    assert fresh_interpreter(code) == "['treescape.errors', 'treescape.oracle', 'treescape.tree']"


def test_lines_over_a_block_are_taken_one_tree_at_a_time(tmp_path, monkeypatch):
    # a line longer than a block is a block alone, so a build of such lines
    # holds the tree it inserts and the one being read, and no earlier one
    rng = random.Random(29)
    lines = [oracle.to_newick(oracle.random_tree(300, rooted=True, rng=rng)) for _ in range(4)]
    assert min(map(len, lines)) > cli._BLOCK_CHARS
    inp = write(tmp_path, "t.nwk", "\n".join(lines) + "\n")
    refs = []

    def check():
        held = [k for k, ref in enumerate(refs[:-1]) if ref() is not None]
        assert not held, f"trees {held} are still held"

    class Tracked(forestgen.Oriented):
        def __init__(self, tree):
            super().__init__(tree)
            refs.append(weakref.ref(self))

    parse = cli.parse_newick

    def checked_parse(*args, **kwargs):
        check()
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "Oriented", Tracked)
    monkeypatch.setattr(cli, "parse_newick", checked_parse)
    assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv")) == 0
    assert len(refs) == 4


class TestBuildErrors:
    def test_parse_error_reports_line_and_column(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", "(1,2,(3,4));\n((1,2),(3,4);\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--out", str(tmp_path / "g")) == 2
        err = capsys.readouterr().err
        assert f"{inp}:2:" in err
        assert "column" in err

    def test_rooted_arity_error(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "(1,2,(3,4));\n")
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g")) == 2

    def test_mixed_label_sets(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "(1,2,(3,4));\n(1,2,(3,5));\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--out", str(tmp_path / "g")) == 3

    def test_leaf_set_error_names_its_line(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", "(1,2,(3,4));\n# other leaves below\n(1,2,(3,5));\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--out", str(tmp_path / "g")) == 3
        assert capsys.readouterr().err == (
            f"error: {inp}:3: all trees must share one leaf label set\n"
        )

    def test_leaf_set_error_after_a_snapshot_names_the_input_line(self, tmp_path, capsys):
        snap = str(tmp_path / "c.snap")
        first = write(tmp_path, "a.nwk", TRIANGLE)
        assert run("build", first, "--mode", "spr", "--rooted", "--out", str(tmp_path / "a.tsv"),
                   "--snapshot", snap) == 0
        inp = write(tmp_path, "t.nwk", "((1,2),(3,4));\n")
        capsys.readouterr()
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv"),
                   "--append", snap) == 3
        assert capsys.readouterr().err == (
            f"error: {inp}:1: all trees must share one leaf label set\n"
        )

    def test_leaf_set_error_inside_a_snapshot_names_the_snapshot(self, tmp_path, capsys):
        snaps = []
        for k, text in enumerate(["((1,2),(3,4));\n", "((1,2),(3,5));\n"]):
            snaps.append(tmp_path / f"{k}.snap")
            assert run("build", write(tmp_path, f"{k}.nwk", text), "--mode", "spr", "--rooted",
                       "--out", str(tmp_path / f"{k}.tsv"), "--snapshot", str(snaps[-1])) == 0
        snap = tmp_path / "mixed.snap"
        lines = [p.read_text().splitlines()[1] for p in snaps]
        snap.write_text("afcontainer v1 rspr 2\n" + "\n".join(lines) + "\n")
        inp = write(tmp_path, "t.nwk", "")
        capsys.readouterr()
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv"),
                   "--append", str(snap)) == 3
        assert capsys.readouterr().err == (
            f"error: {snap}:3: all trees must share one leaf label set\n"
        )

    # a fault ends its block of lines, whose earlier trees are checked and
    # inserted first, so the first faulty line decides the exit code
    @pytest.mark.parametrize(
        "text, code",
        [
            ("(1,2,(3,4));\n(1,2,(3,5));\n((1,2),(3,4);\n", 3),
            ("(1,2,(3,4));\n((1,2),(3,4);\n(1,2,(3,5));\n", 2),
        ],
    )
    def test_first_faulty_line_decides_the_exit_code(self, tmp_path, text, code):
        inp = write(tmp_path, "t.nwk", text)
        assert run("build", inp, "--mode", "spr", "--unrooted", "--out", str(tmp_path / "g")) == code

    def test_tbr_rooted_conflict(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        assert run("build", inp, "--mode", "tbr", "--rooted", "--out", str(tmp_path / "g")) == 4
        assert capsys.readouterr().err == "error: tbr graphs are only defined for unrooted trees\n"

    def test_missing_input_file(self, tmp_path):
        assert run("build", str(tmp_path / "absent.nwk"), "--mode", "spr", "--rooted",
                   "--out", str(tmp_path / "g")) == 2

    @pytest.mark.parametrize("command", ["build", "verify"])
    def test_non_utf8_input(self, tmp_path, capsys, command):
        inp = tmp_path / "t.nwk"
        inp.write_bytes(b"\xff\xfe((1,2),3);\n")
        extra = ["--out", str(tmp_path / "g.tsv")] if command == "build" else []
        assert run(command, str(inp), "--mode", "spr", "--rooted", *extra) == 2
        err = capsys.readouterr().err
        assert err == f"error: {inp}: not UTF-8 text\n"

    # a later line that is not UTF-8 is refused only when it is reached
    def test_non_utf8_line_after_a_leaf_set_fault(self, tmp_path, capsys):
        inp = tmp_path / "t.nwk"
        inp.write_bytes(b"(1,2,(3,4));\n(1,2,(3,5));\n(1,2,(3,\xff4));\n")
        assert run("build", str(inp), "--mode", "spr", "--unrooted",
                   "--out", str(tmp_path / "g.tsv")) == 3
        assert capsys.readouterr().err == (
            f"error: {inp}:2: all trees must share one leaf label set\n"
        )

    def test_non_utf8_taxa_line_after_a_faulty_one(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", "(a,b,(c,d));\n")
        taxa = tmp_path / "m.tsv"
        taxa.write_bytes(b"a 1\nb\nc \xff3\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", str(taxa),
                   "--out", str(tmp_path / "g.tsv")) == 2
        assert capsys.readouterr().err == f"error: {taxa}:2: expected two columns\n"

    def test_non_utf8_line_in_a_later_block(self, tmp_path, capsys):
        # the leaf-set fault is in the first block of lines, the byte that is
        # not UTF-8 in a later one
        good = "((1,2),(3,(4,5)));\n" * 600
        assert len(good) > cli._BLOCK_CHARS
        inp = tmp_path / "t.nwk"
        inp.write_bytes(b"((1,2),(3,4));\n" + good.encode() + b"(1,\xff2);\n")
        assert run("build", str(inp), "--mode", "spr", "--rooted",
                   "--out", str(tmp_path / "g.tsv")) == 3
        assert capsys.readouterr().err == (
            f"error: {inp}:2: all trees must share one leaf label set\n"
        )

    def test_parse_error_after_a_full_block(self, tmp_path, capsys):
        good = "((1,2),(3,(4,5)));\n((1,3),(2,(4,5)));\n" * 300
        inp = write(tmp_path, "t.nwk", good + "((1,2),(3,4,5));\n" + good)
        assert len(good) > cli._BLOCK_CHARS
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv")) == 2
        assert capsys.readouterr().err.startswith(f"error: {inp}:601: ")
        assert sorted(os.listdir(tmp_path)) == ["t.nwk"]

    @pytest.mark.parametrize("label", ["\u00b2", "\u0663", "\u06603"])
    def test_non_ascii_digit_label(self, tmp_path, capsys, label):
        inp = tmp_path / "t.nwk"
        inp.write_text(f"((1,2),{label});\n", encoding="utf-8")
        assert run("build", str(inp), "--mode", "spr", "--rooted",
                   "--out", str(tmp_path / "g.tsv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inp}:1: ") and "(column 8)" in err
        assert err.count("\n") == 1

    def test_rootedness_is_required(self, tmp_path):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        with pytest.raises(SystemExit):
            run("build", inp, "--mode", "spr", "--out", str(tmp_path / "g"))

    @pytest.mark.parametrize(
        "out, message",
        [("nodir/g.tsv", "[Errno 2] No such file or directory: 'nodir/g.vertices.tsv'"),
         ("gdir", "[Errno 21] Is a directory: 'gdir'")],
        ids=["temporary-file-not-made", "not-renamed"],
    )
    def test_unwritable_output_names_the_output_not_its_temporary_file(
        self, tmp_path, monkeypatch, capsys, out, message
    ):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "t.nwk", TRIANGLE)
        (tmp_path / "gdir").mkdir()
        assert run("build", "t.nwk", "--mode", "spr", "--rooted", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert ".tmp" not in err


class TestPathClashes:
    """A build refuses, before it reads or writes anything, output paths
    that name another of its files."""

    def make_files(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "((a,b),(c,d));\n((a,c),(b,d));\n")
        taxa = write(tmp_path, "names.txt", "a 1\nb 2\nc 3\nd 4\n")
        snap = str(tmp_path / "c.snap")
        assert run("build", inp, "--mode", "spr", "--rooted", "--taxa", taxa,
                   "--out", str(tmp_path / "old.tsv"), "--snapshot", snap) == 0
        write(tmp_path, "x.tsv", "old graph\n")
        write(tmp_path, "x.vertices.tsv", "old vertices\n")
        return {"input": inp, "taxa": taxa, "snap": snap, "x": str(tmp_path / "x.tsv"),
                "xv": str(tmp_path / "x.vertices.tsv")}

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--out", "{x}", "--snapshot", "{x}"], "--out {x} and --snapshot {x}"),
            (["--out", "{x}", "--snapshot", "{xv}"], "the vertex file {xv} and --snapshot {xv}"),
            (["--out", "{input}"], "--out {input} and the input {input}"),
            (["--out", "{taxa}"], "--out {taxa} and --taxa {taxa}"),
            (["--out", "{snap}", "--append", "{snap}"], "--out {snap} and --append {snap}"),
            (["--out", "{x}", "--snapshot", "{input}"], "--snapshot {input} and the input {input}"),
        ],
        ids=["out-snapshot", "vertices-snapshot", "out-input", "out-taxa", "out-append",
             "snapshot-input"],
    )
    def test_clashing_paths_are_refused(self, tmp_path, capsys, options, message):
        paths = self.make_files(tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        argv = [o.format(**paths) for o in options]
        assert run("build", paths["input"], "--mode", "spr", "--rooted",
                   "--taxa", paths["taxa"], *argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)} are the same file\n"
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    # - stands for stdin only as the input and --taxa; nothing is read, and
    # no file named - is written
    @pytest.mark.parametrize(
        "options",
        [["--out", "-"], ["--out", "{x}", "--snapshot", "-"], ["--out", "{x}", "--append", "-"]],
        ids=["out", "snapshot", "append"],
    )
    def test_dash_is_refused_as_a_file_option(self, tmp_path, monkeypatch, capsys, options):
        paths = self.make_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        stdin = io.StringIO(TRIANGLE)
        monkeypatch.setattr("sys.stdin", stdin)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        argv = [o.format(**paths) for o in options]
        assert run("build", paths["input"], "--mode", "spr", "--rooted",
                   "--taxa", paths["taxa"], *argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {options[-2]} -: only the input and --taxa take - for stdin\n"
        )
        assert stdin.tell() == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_link_to_the_output_is_refused(self, tmp_path, capsys):
        paths = self.make_files(tmp_path)
        link = tmp_path / "link.tsv"
        link.symlink_to(paths["x"])
        assert run("build", paths["input"], "--mode", "spr", "--rooted", "--taxa", paths["taxa"],
                   "--out", paths["x"], "--snapshot", str(link)) == 2
        assert (tmp_path / "x.tsv").read_text() == "old graph\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize(
        "fifo, options, name",
        [
            ("f.tsv", ["--out", "f.tsv"], "--out"),
            ("f.vertices.tsv", ["--out", "f.tsv"], "the vertex file"),
            ("f.snap", ["--out", "x.tsv", "--snapshot", "f.snap"], "--snapshot"),
        ],
        ids=["out", "vertices", "snapshot"],
    )
    def test_a_special_file_is_refused(self, tmp_path, monkeypatch, capsys, fifo, options, name):
        # a rename would replace the pipe with a regular file
        paths = self.make_files(tmp_path)
        monkeypatch.chdir(tmp_path)
        os.mkfifo(fifo)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != fifo}
        capsys.readouterr()
        assert run("build", paths["input"], "--mode", "spr", "--rooted",
                   "--taxa", paths["taxa"], *options) == 2
        assert capsys.readouterr() == ("", f"error: {name} {fifo} is not a regular file\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != fifo} == before

    def test_snapshot_may_update_the_appended_one(self, tmp_path):
        paths = self.make_files(tmp_path)
        assert run("build", paths["input"], "--mode", "spr", "--rooted", "--taxa", paths["taxa"],
                   "--out", paths["x"], "--append", paths["snap"], "--snapshot", paths["snap"]) == 0


# characters str.splitlines() also splits at; none of them ends a line
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_comment_holding_a_separator(self, tmp_path, sep):
        inp = tmp_path / "t.nwk"
        inp.write_text(f"# first{sep}more\n" + TRIANGLE, encoding="utf-8")
        out = tmp_path / "g.tsv"
        assert run("build", str(inp), "--mode", "spr", "--rooted", "--out", str(out)) == 0
        assert out.read_text() == "# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"
        sidecar = (tmp_path / "g.vertices.tsv").read_text().splitlines()
        assert [row.split("\t")[1] for row in sidecar[1:]] == ["2", "3", "4"]

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_separator_after_a_tree_keeps_line_numbers(self, tmp_path, capsys, sep):
        inp = tmp_path / "t.nwk"
        inp.write_text(
            f"(1,2,(3,4));\n(1,3,(2,4));{sep}\n(2,1,(4,3));\n(1,4,(2,3));\n", encoding="utf-8"
        )
        out = tmp_path / "g.tsv"
        assert run("build", str(inp), "--mode", "spr", "--unrooted", "--out", str(out)) == 0
        assert capsys.readouterr().err == f"warning: {inp}:3: duplicate of line 1\n"
        sidecar = (tmp_path / "g.vertices.tsv").read_text().splitlines()
        assert [row.split("\t")[1] for row in sidecar[1:]] == ["1", "2", "4"]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    @pytest.mark.parametrize("stdin", [False, True])
    def test_crlf_and_cr_end_lines(self, tmp_path, monkeypatch, capsys, end, stdin):
        text = f"# header{end}{end}" + TRIANGLE.replace("\n", end) + f"(((5,4),1),(3,2));{end}"
        inp = str(tmp_path / "t.nwk")
        with open(inp, "w", newline="") as fh:
            fh.write(text)
        out = tmp_path / "g.tsv"
        with open(inp) as fh:
            if stdin:
                monkeypatch.setattr("sys.stdin", fh)
                inp = "-"
            assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(out)) == 0
        assert capsys.readouterr().err == f"warning: {inp}:6: duplicate of line 3\n"
        sidecar = (tmp_path / "g.vertices.tsv").read_text().splitlines()
        assert [row.split("\t")[1] for row in sidecar[1:]] == ["3", "4", "5"]

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS)
    def test_taxa_file(self, tmp_path, capsys, sep):
        inp = write(tmp_path, "t.nwk", "(a,b,(c,d));\n")
        taxa = tmp_path / "m.tsv"
        taxa.write_text(f"# name{sep}label\na 1\nb 2{sep}\nc 3\nc 4\n", encoding="utf-8")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", str(taxa),
                   "--out", str(tmp_path / "g.tsv")) == 2
        assert capsys.readouterr().err == f"error: {taxa}:5: taxon 'c' repeated\n"


class TestTaxa:
    def test_translation(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "((ape,(bee,cat)),(dog,elk));\n")
        taxa = write(tmp_path, "m.tsv", "ape\t1\nbee\t2\ncat\t3\ndog\t4\nelk\t5\n")
        out = tmp_path / "g.tsv"
        assert run("build", inp, "--mode", "spr", "--rooted", "--taxa", taxa, "--out", str(out)) == 0
        assert "(r,(1,(2,3)),(4,5));" in (tmp_path / "g.vertices.tsv").read_text()

    def test_space_separated_and_comments(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "(a,b,(c,d));\n")
        taxa = write(tmp_path, "m.tsv", "# name label\na 1\nb 2\nc 3\nd 4\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", taxa,
                   "--out", str(tmp_path / "g.tsv")) == 0

    @pytest.mark.parametrize(
        "content",
        ["ape\n", "ape\tx\n", "ape\t0\n", "ape\t1\nape\t2\n", "ape\t1\nbee\t1\n"],
    )
    def test_bad_taxa_files(self, tmp_path, content):
        inp = write(tmp_path, "t.nwk", "(ape,bee,(cat,dog));\n")
        taxa = write(tmp_path, "m.tsv", content)
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", taxa,
                   "--out", str(tmp_path / "g.tsv")) == 2

    # each of these int() reads as a label the Newick parser would refuse
    @pytest.mark.parametrize("label", ["1_0", "\u0663", "05", "+7", str(2**64)])
    def test_labels_follow_the_newick_rule(self, tmp_path, capsys, label):
        inp = write(tmp_path, "t.nwk", "(ape,bee,(cat,dog));\n")
        taxa = tmp_path / "m.tsv"
        taxa.write_text(f"ape\t{label}\nbee\t1\ncat\t2\ndog\t4\n", encoding="utf-8")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", str(taxa),
                   "--out", str(tmp_path / "g.tsv")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {taxa}:1: label ") and err.count("\n") == 1

    # columns count characters of the line as written, not as translated
    @pytest.mark.parametrize(
        "line, message",
        [
            ("(Homo,Pan,(Gorilla,Pongo)) x;", "unexpected character 'x' (column 28)"),
            ("(Homo,Pan,(Gorilla,Pongo)", "unexpected end of input (column 26)"),
            ("(Homo,Pan,(Gorilla,Pong));", "expected '(' or a leaf label, found 'P' (column 20)"),
        ],
    )
    def test_parse_error_column_is_in_the_written_line(self, tmp_path, capsys, line, message):
        inp = write(tmp_path, "t.nwk", line + "\n")
        taxa = write(tmp_path, "m.tsv", "Homo\t1\nPan\t2\nGorilla\t3\nPongo\t4\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", taxa,
                   "--out", str(tmp_path / "g.tsv")) == 2
        assert capsys.readouterr().err == f"error: {inp}:1: {message}\n"

    # refused before anything is read: not stdin, and not the --append
    # snapshot, which here does not exist
    @pytest.mark.parametrize(
        "argv",
        [["build", "--out", "g.tsv"], ["build", "--out", "g.tsv", "--append", "none.snap"],
         ["verify"]],
        ids=["build", "build-append", "verify"],
    )
    def test_taxa_and_input_cannot_both_be_stdin(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        stdin = io.StringIO("a 1\nb 2\nc 3\nd 4\n((a,b),(c,d));\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(*argv, "-", "--mode", "spr", "--rooted", "--taxa", "-") == 2
        assert capsys.readouterr() == ("", "error: --taxa - and the input - both read stdin\n")
        assert stdin.tell() == 0 and list(tmp_path.iterdir()) == []

    def test_untranslated_name_fails_parse(self, tmp_path):
        inp = write(tmp_path, "t.nwk", "(ape,bee,(cat,dog));\n")
        taxa = write(tmp_path, "m.tsv", "ape\t1\nbee\t2\ncat\t3\n")
        assert run("build", inp, "--mode", "spr", "--unrooted", "--taxa", taxa,
                   "--out", str(tmp_path / "g.tsv")) == 2


class TestSnapshotFlow:
    def test_snapshot_then_append(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        snap = tmp_path / "c.snap"
        out1 = tmp_path / "g1.tsv"
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(out1),
                   "--snapshot", str(snap)) == 0
        assert snap.read_text().split(" ")[2] == "rspr"
        assert len(list(read_snapshot(snap, "spr", True))) == 3

        more = write(tmp_path, "more.nwk", "((1,2),((4,5),3));\n")
        out2 = tmp_path / "g2.tsv"
        assert run("build", more, "--mode", "spr", "--rooted", "--out", str(out2),
                   "--append", str(snap), "--snapshot", str(snap)) == 0
        assert "m=4" in out2.read_text()
        # snapshot-origin vertices carry line number 0
        sidecar = (tmp_path / "g2.vertices.tsv").read_text().splitlines()
        assert sidecar[1].startswith("0\t0\t")
        assert sidecar[4].startswith("3\t1\t")
        assert len(list(read_snapshot(snap, "spr", True))) == 4

    def test_duplicates_of_the_snapshot_and_of_a_line_warn_in_input_order(
        self, tmp_path, capsys
    ):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        snap = tmp_path / "c.snap"
        run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g1.tsv"),
            "--snapshot", str(snap))
        more = write(
            tmp_path,
            "more.nwk",
            "((1,2),((4,5),3));\n(((5,4),1),(3,2));\n# comment\n(((4,5),3),(2,1));\n"
            "(1,((2,(5,4)),3));\n",
        )
        out = tmp_path / "g2.tsv"
        capsys.readouterr()
        assert run("build", more, "--mode", "spr", "--rooted", "--out", str(out),
                   "--append", str(snap)) == 0
        assert capsys.readouterr().err == (
            f"warning: {more}:2: duplicate of the snapshot\n"
            f"warning: {more}:4: duplicate of line 1\n"
            f"warning: {more}:5: duplicate of the snapshot\n"
        )
        sidecar = (tmp_path / "g2.vertices.tsv").read_text().splitlines()
        assert [line.split("\t")[:2] for line in sidecar[1:]] == [
            ["0", "0"], ["1", "0"], ["2", "0"], ["3", "1"]
        ]

    def test_append_edges_cover_old_and_new(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        snap = tmp_path / "c.snap"
        run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g1.tsv"),
            "--snapshot", str(snap))
        empty = write(tmp_path, "empty.nwk", "")
        out = tmp_path / "g2.tsv"
        capsys.readouterr()
        assert run("build", empty, "--mode", "spr", "--rooted", "--out", str(out),
                   "--append", str(snap)) == 0
        assert out.read_text() == "# treescape spr m=3\n0\t1\n0\t2\n1\t2\n"
        # the input gave no tree, though the snapshot did
        assert capsys.readouterr().err == f"warning: {empty}: no trees\n"

    def test_append_orients_each_tree_once(self, tmp_path, monkeypatch):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        snap = tmp_path / "c.snap"
        run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g1.tsv"),
            "--snapshot", str(snap))
        oriented = []
        init = forestgen.Oriented.__init__

        def counted(self, tree):
            oriented.append(tree)
            init(self, tree)

        monkeypatch.setattr(forestgen.Oriented, "__init__", counted)
        # a new tree and a repeat of a snapshot tree
        more = write(tmp_path, "more.nwk", "((1,2),((4,5),3));\n(((4,5),1),(2,3));\n")
        assert run("build", more, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g2.tsv"),
                   "--append", str(snap)) == 0
        assert len(oriented) == 3 + 2

    def test_append_takes_one_snapshot_tree_at_a_time(self, tmp_path, monkeypatch):
        rng = random.Random(17)
        pool = [oracle.to_newick(oracle.random_tree(9, rooted=True, rng=rng)) for _ in range(16)]
        old = write(tmp_path, "old.nwk", "\n".join(pool[:12]) + "\n")
        new = write(tmp_path, "new.nwk", "\n".join(pool[12:]) + "\n")
        snap = str(tmp_path / "c.snap")
        assert run("build", old, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g1.tsv"),
                   "--snapshot", snap) == 0
        refs = []

        def check():
            # only the previous snapshot tree may still be held
            held = [k for k, ref in enumerate(refs[:-1]) if ref() is not None]
            assert not held, f"snapshot trees {held} are still held"

        class Tracked(afcontainer.Oriented):
            def __init__(self, tree):
                check()
                super().__init__(tree)
                refs.append(weakref.ref(self))

        parse = cli.parse_newick

        def checked_parse(*args, **kwargs):
            check()
            return parse(*args, **kwargs)

        monkeypatch.setattr(afcontainer, "Oriented", Tracked)
        monkeypatch.setattr(cli, "parse_newick", checked_parse)
        out = tmp_path / "g2.tsv"
        assert run("build", new, "--mode", "spr", "--rooted", "--out", str(out),
                   "--append", snap) == 0
        monkeypatch.undo()
        assert len(refs) == len(list(read_snapshot(snap, "spr", True)))
        both = write(tmp_path, "both.nwk", "\n".join(pool) + "\n")
        want = tmp_path / "g3.tsv"
        assert run("build", both, "--mode", "spr", "--rooted", "--out", str(want)) == 0
        assert out.read_text() == want.read_text()

    def test_append_mode_mismatch(self, tmp_path):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        snap = tmp_path / "c.snap"
        run("build", inp, "--mode", "spr", "--rooted", "--out", str(tmp_path / "g.tsv"),
            "--snapshot", str(snap))
        unrooted = write(tmp_path, "u.nwk", "(1,2,(3,(4,5)));\n")
        assert run("build", unrooted, "--mode", "spr", "--unrooted",
                   "--out", str(tmp_path / "g2.tsv"), "--append", str(snap)) == 4

    def test_corrupt_snapshot(self, tmp_path):
        snap = tmp_path / "c.snap"
        snap.write_text("not a snapshot\n")
        empty = write(tmp_path, "e.nwk", "")
        assert run("build", empty, "--mode", "spr", "--rooted",
                   "--out", str(tmp_path / "g.tsv"), "--append", str(snap)) == 2


    def test_failed_output_write_keeps_old_graph(self, tmp_path, monkeypatch):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        out = tmp_path / "g.tsv"
        out.write_text("old graph\n")

        def broken_buckets(graph):
            raise OSError("disk full")

        monkeypatch.setattr(AdjacencyGraph, "buckets", broken_buckets)
        assert run("build", inp, "--mode", "spr", "--rooted", "--out", str(out)) == 2
        assert out.read_text() == "old graph\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.tsv", "t.nwk"]

    def test_failed_snapshot_write_keeps_every_output(self, tmp_path, monkeypatch, capsys):
        # the snapshot's directory is missing, so its temporary file cannot
        # be made, and the graph and vertex files must stay as they were
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "two.nwk", TRIANGLE)
        write(tmp_path, "keep.tsv", "old graph\n")
        write(tmp_path, "keep.vertices.tsv", "old vertices\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run("build", "two.nwk", "--mode", "spr", "--rooted", "--out", "keep.tsv",
                   "--snapshot", "nodir/s.snap") == 2
        assert capsys.readouterr().err.endswith("No such file or directory: 'nodir/s.snap'\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_unreplaceable_graph_path_keeps_every_output(self, tmp_path, monkeypatch):
        # after --append s.snap --snapshot s.snap, a snapshot replaced
        # without its graph would make a rerun count the new trees as
        # snapshot trees
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "t.nwk", TRIANGLE)
        write(tmp_path, "s.snap", "old snapshot\n")
        (tmp_path / "g").mkdir()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert run("build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g",
                   "--snapshot", "s.snap") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "s.snap", "t.nwk"]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


class TestAppendSnapshotErrors:
    def append(self, tmp_path, snapshot_text, *mode):
        snap = tmp_path / "c.snap"
        snap.write_bytes(snapshot_text)
        empty = write(tmp_path, "e.nwk", "")
        return run("build", empty, "--mode", *mode, "--out", str(tmp_path / "g.tsv"),
                   "--append", str(snap))

    def test_non_ascii_snapshot(self, tmp_path, capsys):
        text = "afcontainer v1 rspr 1\n(r,1,\u00e9);\n".encode("utf-8")
        assert self.append(tmp_path, text, "spr", "--rooted") == 2
        assert "not ASCII" in capsys.readouterr().err

    def test_rooted_tree_in_unrooted_snapshot(self, tmp_path, capsys):
        assert self.append(tmp_path, b"afcontainer v1 uspr 1\n(r,1,2);\n", "spr", "--unrooted") == 2
        assert f"{tmp_path / 'c.snap'}:2: rooted tree" in capsys.readouterr().err

    def test_repeated_tree(self, tmp_path, capsys):
        text = b"afcontainer v1 rspr 3\n(r,1,(2,3));\n(r,(1,2),3);\n(r,1,(2,3));\n"
        assert self.append(tmp_path, text, "spr", "--rooted") == 2
        assert f"{tmp_path / 'c.snap'}:4: duplicate tree" in capsys.readouterr().err

    def test_noncanonical_line(self, tmp_path, capsys):
        assert self.append(tmp_path, b"afcontainer v1 rspr 1\n(r,2,1);\n", "spr", "--rooted") == 2
        assert f"{tmp_path / 'c.snap'}:2: not a canonical" in capsys.readouterr().err

    def test_first_faulty_snapshot_line_decides_the_exit_code(self, tmp_path, capsys):
        # line 3 has another leaf set, line 4 is not canonical
        text = b"afcontainer v1 rspr 3\n(r,(1,2),(3,4));\n(r,(1,2),(3,5));\n(r,(2,1),(3,4));\n"
        assert self.append(tmp_path, text, "spr", "--rooted") == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c.snap'}:3: all trees must share one leaf label set\n"
        )

    @pytest.mark.parametrize(
        "text, where, reason",
        [
            (b"not a snapshot\n", ":1", "not a container snapshot"),
            (b"afcontainer v1 rspr 0_1\n(r,1,2);\n", ":1", "bad tree count '0_1'"),
            # an Arabic-Indic one passes isdigit() and int(), but not the ASCII decoder
            (b"afcontainer v1 rspr \xd9\xa1\n(r,1,2);\n", "", "snapshot is not ASCII text"),
            (b"afcontainer v1 rspr 2\n(r,1,2);\n\n", ":3", "blank line in snapshot"),
            (b"afcontainer v1 rspr 2\n(r,1,2);\n", "", "snapshot header promises 2 trees, found 1"),
        ],
    )
    def test_header_fault_names_the_file(self, tmp_path, capsys, text, where, reason):
        assert self.append(tmp_path, text, "spr", "--rooted") == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'c.snap'}{where}: {reason}\n"

    # each snapshot has a fault on line 1 or 3 and another later in the file,
    # which the first decides, and nothing is written
    @pytest.mark.parametrize(
        "text, rooted, code, where, reason",
        [
            # another leaf set on line 3, a blank line 4
            (b"afcontainer v1 rspr 3\n(r,(1,2),(3,4));\n(r,(1,2),(3,5));\n\n", "--rooted",
             3, ":3", "all trees must share one leaf label set"),
            # 5 trees promised, 2 found, another leaf set on line 3
            (b"afcontainer v1 rspr 5\n(r,(1,2),(3,4));\n(r,(1,2),(3,5));\n", "--rooted",
             3, ":3", "all trees must share one leaf label set"),
            # the mode does not fit the build, a blank line 4
            (b"afcontainer v1 rspr 3\n(r,(1,2),(3,4));\n(r,(1,2),(3,5));\n\n", "--unrooted",
             4, ":1", "snapshot mode rspr does not fit unrooted spr"),
            # the mode does not fit the build, a byte that is not ASCII on line 4
            (b"afcontainer v1 rspr 3\n(r,(1,2),(3,4));\n(r,(1,3),(2,4));\n(r,\xc3\xa9);\n",
             "--unrooted", 4, ":1", "snapshot mode rspr does not fit unrooted spr"),
            # another leaf set on line 3, a byte that is not ASCII on line 4
            (b"afcontainer v1 rspr 3\n(r,(1,2),(3,4));\n(r,(1,2),(3,5));\n(r,\xc3\xa9);\n",
             "--rooted", 3, ":3", "all trees must share one leaf label set"),
        ],
        ids=["leaf-set-blank", "leaf-set-count", "mode-blank", "mode-non-ascii",
             "leaf-set-non-ascii"],
    )
    def test_first_faulty_line_in_file_order_decides(
        self, tmp_path, capsys, text, rooted, code, where, reason
    ):
        assert self.append(tmp_path, text, "spr", rooted) == code
        assert capsys.readouterr().err == f"error: {tmp_path / 'c.snap'}{where}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.snap", "e.nwk"]

    def test_leaf_set_fault_names_its_snapshot_line(self, tmp_path, capsys):
        # the fourth tree, on line 5 of the file, has another leaf set
        text = (b"afcontainer v1 uspr 4\n(1,2,(3,(4,5)));\n(1,(2,(4,5)),3);\n"
                b"(1,(2,(3,5)),4);\n(1,2,(3,(4,6)));\n")
        assert self.append(tmp_path, text, "spr", "--unrooted") == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'c.snap'}:5: all trees must share one leaf label set\n"
        )


# each build kind (move, rootedness) and the snapshot mode it writes and reads
BUILD_KINDS = {
    ("spr", "--rooted"): "rspr",
    ("nni", "--rooted"): "rspr",
    ("spr", "--unrooted"): "uspr",
    ("nni", "--unrooted"): "uspr",
    ("tbr", "--unrooted"): "tbr",
}
FIRST_LINES = {"--rooted": TRIANGLE, "--unrooted": "(1,2,(3,(4,5)));\n((1,3),2,(4,5));\n"}
# a new tree and a repeat of a first tree
MORE_LINES = {
    "--rooted": "((1,2),((4,5),3));\n(((4,5),1),(2,3));\n",
    "--unrooted": "(1,(2,(4,5)),3);\n(1,2,(3,(4,5)));\n",
}


@pytest.mark.parametrize("appending", BUILD_KINDS, ids="-".join)
@pytest.mark.parametrize("saved", BUILD_KINDS, ids="-".join)
def test_snapshot_fits_each_build_kind_of_its_mode(tmp_path, capsys, saved, appending):
    (saved_move, saved_rooted), (move, rooted) = saved, appending
    first = write(tmp_path, "first.nwk", FIRST_LINES[saved_rooted])
    snap = tmp_path / "c.snap"
    assert run("build", first, "--mode", saved_move, saved_rooted,
               "--out", str(tmp_path / "g1.tsv"), "--snapshot", str(snap)) == 0
    assert snap.read_text().split(" ")[2] == BUILD_KINDS[saved]
    capsys.readouterr()
    more = write(tmp_path, "more.nwk", MORE_LINES[rooted])
    out = tmp_path / "g2.tsv"
    code = run("build", more, "--mode", move, rooted, "--out", str(out), "--append", str(snap))
    if BUILD_KINDS[saved] == BUILD_KINDS[appending]:
        assert code == 0
        both = write(tmp_path, "both.nwk", FIRST_LINES[saved_rooted] + MORE_LINES[rooted])
        want = tmp_path / "want.tsv"
        assert run("build", both, "--mode", move, rooted, "--out", str(want)) == 0
        assert out.read_text() == want.read_text()
    else:
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: {snap}:1: snapshot mode {BUILD_KINDS[saved]} "
            f"does not fit {rooted[2:]} {move}\n"
        )
        assert not out.exists()


class TestVerify:
    # a --max-m above sys.maxsize caps nothing
    @pytest.mark.parametrize(
        "max_m", [[], ["--max-m", "99999999999999999999"]], ids=["default", "huge"]
    )
    def test_ok(self, tmp_path, capsys, max_m):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        assert run("verify", inp, "--mode", "spr", "--rooted", *max_m) == 0
        assert "verify ok: m=3 edges=3" in capsys.readouterr().out

    def test_all_modes(self, tmp_path):
        unrooted = write(tmp_path, "u.nwk", "(1,2,(3,(4,5)));\n((1,3),2,(4,5));\n")
        for mode in ("spr", "nni", "tbr"):
            assert run("verify", unrooted, "--mode", mode, "--unrooted") == 0
        rooted = write(tmp_path, "r.nwk", TRIANGLE)
        for mode in ("spr", "nni"):
            assert run("verify", rooted, "--mode", mode, "--rooted") == 0

    def test_leaf_set_error_names_its_line(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", "(1,2,(3,4));\n(1,2,(3,5));\n")
        assert run("verify", inp, "--mode", "spr", "--unrooted") == 3
        assert capsys.readouterr().err == (
            f"error: {inp}:2: all trees must share one leaf label set\n"
        )

    # reading stops at the third tree, so a parse error on the fourth line
    # cannot come first
    @pytest.mark.parametrize("text", [TRIANGLE, TRIANGLE + "((1,2),(3,4);\n"],
                             ids=["three-trees", "faulty-fourth-line"])
    def test_max_m_refusal(self, tmp_path, capsys, text):
        inp = write(tmp_path, "t.nwk", text)
        assert run("verify", inp, "--mode", "spr", "--rooted", "--max-m", "2") == 5
        assert capsys.readouterr().err == (
            "error: more than --max-m 2 trees for the quadratic check\n"
        )

    @pytest.mark.parametrize("text", ["", "((1,2),(3,4);\n"], ids=["empty", "faulty-tree"])
    def test_negative_max_m_is_refused_before_any_tree_is_read(self, tmp_path, capsys, text):
        inp = write(tmp_path, "t.nwk", text)
        assert run("verify", inp, "--mode", "spr", "--rooted", "--max-m", "-1") == 2
        assert capsys.readouterr().err == "error: --max-m needs a tree count of at least 0, got -1\n"

    def test_max_m_0_is_valid(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", "")
        assert run("verify", inp, "--mode", "spr", "--rooted", "--max-m", "0") == 0
        assert "verify ok: m=0 edges=0" in capsys.readouterr().out
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        assert run("verify", inp, "--mode", "spr", "--rooted", "--max-m", "0") == 5

    def test_injected_fault_is_caught(self, tmp_path, capsys, monkeypatch):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        real = oracle.pairwise_graph

        def missing_one_edge(trees, move):
            edges, canon = real(trees, move)
            return edges[:-1], canon

        monkeypatch.setattr(oracle, "pairwise_graph", missing_one_edge)
        assert run("verify", inp, "--mode", "spr", "--rooted") == 1
        captured = capsys.readouterr()
        assert "only fast: (1, 2)" in captured.err
        assert "mismatch" in captured.err

    def test_vertex_set_fault(self, tmp_path, capsys, monkeypatch):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        real = oracle.pairwise_graph
        monkeypatch.setattr(oracle, "pairwise_graph", lambda trees, move: (real(trees, move)[0], []))
        assert run("verify", inp, "--mode", "spr", "--rooted") == 1
        assert "vertex sets differ" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, fault, missing",
        [
            ("edges", lambda real: lambda self: real(self)[:-1], "(1, 2)"),
            (
                "add_vertex",
                lambda real: lambda self, earlier=(): real(self, list(earlier)[1:]),
                "(0, 1)",
            ),
        ],
        ids=["edges-drops-the-last", "add-vertex-drops-the-first"],
    )
    def test_fault_in_the_graph_class_is_caught(
        self, tmp_path, capsys, monkeypatch, method, fault, missing
    ):
        # the oracle lists its edges without the graph class, so a fault
        # there shows on the build's side only
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        monkeypatch.setattr(AdjacencyGraph, method, fault(getattr(AdjacencyGraph, method)))
        assert run("verify", inp, "--mode", "spr", "--rooted") == 1
        err = capsys.readouterr().err
        assert f"only pairwise: {missing}\n" in err and "edge sets differ" in err

    def test_tbr_rooted_conflict(self, tmp_path, capsys):
        inp = write(tmp_path, "t.nwk", TRIANGLE)
        assert run("verify", inp, "--mode", "tbr", "--rooted") == 4
        assert capsys.readouterr().err == "error: tbr graphs are only defined for unrooted trees\n"


class TestBench:
    def test_reports_times_and_exponent(self, capsys):
        assert run("bench", "--mode", "spr", "--rooted", "--m", "6", "--sizes", "8,16",
                   "--seed", "7") == 0
        out = capsys.readouterr().out
        assert "n=8 m=6 total=" in out and "n=16 m=6 total=" in out
        assert "insert=" not in out  # a build is one insert pass: total says it
        assert "exponent=" in out
        assert "query=" not in out  # one build pass per size, as build makes

    def test_single_size_has_no_exponent(self, capsys):
        assert run("bench", "--mode", "nni", "--unrooted", "--m", "4", "--sizes", "8") == 0
        out = capsys.readouterr().out
        assert "exponent=" not in out

    def test_tbr_rooted_conflict(self, capsys):
        assert run("bench", "--mode", "tbr", "--rooted", "--m", "3", "--sizes", "8") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tbr graphs are only defined for unrooted trees\n"

    def test_bad_sizes(self):
        assert run("bench", "--mode", "spr", "--rooted", "--sizes", "8,x") == 2
        assert run("bench", "--mode", "spr", "--rooted", "--sizes", "3") == 2
        assert run("bench", "--mode", "spr", "--rooted", "--sizes", "8,8") == 2

    @pytest.mark.parametrize("sizes", ["64,,128", " 64", "+64", "6_4", ""])
    def test_sizes_take_ascii_digits_only(self, capsys, sizes):
        assert run("bench", "--mode", "spr", "--rooted", "--sizes", sizes) == 2
        assert capsys.readouterr() == ("", f"error: bad --sizes {sizes!r}\n")

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_degenerate_tree_count(self, capsys, m):
        assert run("bench", "--mode", "spr", "--rooted", "--m", m, "--sizes", "8,16") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --m") and captured.err.count("\n") == 1

    def test_seed_reproducibility(self, monkeypatch):
        built = []
        construct = checks.construct

        def recording(mode, trees):
            built.append([forestgen.Oriented(tree).canonical() for tree in trees])
            return construct(mode, trees)

        monkeypatch.setattr(checks, "construct", recording)

        def collections(seed):
            built.clear()
            assert run("bench", "--mode", "tbr", "--unrooted", "--m", "3", "--sizes", "8,9",
                       "--seed", seed) == 0
            return list(built)

        first = collections("1")
        assert len(first) == 7 * 2
        assert collections("1") == first
        assert collections("2") != first

    def test_exponent_is_the_least_squares_slope(self, capsys, monkeypatch):
        # on a fake clock each build of n-leaf trees takes seconds[n], twice
        # that in the first round, so the best of the seven rounds is seconds[n]
        seconds = {8: 0.125, 16: 0.375, 32: 1.5}
        clock = [0.0]
        builds = []

        def build(mode, trees):
            n = len(trees[0].leaf_labels())
            clock[0] += seconds[n] * (1 if n in builds else 2)
            builds.append(n)

        monkeypatch.setattr(checks, "construct", build)
        monkeypatch.setattr(checks, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
        assert run("bench", "--mode", "spr", "--rooted", "--m", "2", "--sizes", "8,16,32") == 0
        xs = [math.log(n) for n in seconds]
        ys = [math.log(t) for t in seconds.values()]
        mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
            (x - mean_x) ** 2 for x in xs
        )
        assert len(builds) == 7 * 3
        assert capsys.readouterr().out.splitlines() == [
            "n=8 m=2 total=0.125s",
            "n=16 m=2 total=0.375s",
            "n=32 m=2 total=1.500s",
            f"exponent={slope:.3f}",
        ]

    def test_each_build_follows_a_full_collection(self, monkeypatch):
        # so a collection that the caller's allocations made due cannot
        # fall on the same size's build in every round
        events = []
        collect = checks.gc.collect
        construct = checks.construct

        def collecting(*args):
            events.append("collect")
            return collect(*args)

        def building(mode, trees):
            events.append(f"build {len(trees[0].leaf_labels())}")
            return construct(mode, trees)

        monkeypatch.setattr(checks.gc, "collect", collecting)
        monkeypatch.setattr(checks, "construct", building)
        assert run("bench", "--mode", "spr", "--rooted", "--m", "3", "--sizes", "8,9") == 0
        assert events == ["collect", "build 8", "collect", "build 9"] * 7


# more digits than int() converts from a string by default (4300)
HUGE = "9" * 5000
BUILD = ["build", "t.nwk", "--mode", "spr", "--rooted", "--out", "g.tsv"]
BENCH = ["bench", "--mode", "spr", "--rooted", "--m", "1", "--sizes", "4"]
USAGE_ERROR = re.compile(r"treescape (?:build|verify|bench): error: .+")
SPELLINGS = ["1_0", "+3", " 7", "\u0663"]


@pytest.mark.parametrize(
    "files, argv",
    [
        ({"t.nwk": "((1,2),(3,4));\n", "big.snap": f"afcontainer v1 rspr {HUGE}\n"},
         BUILD + ["--append", "big.snap"]),
        ({}, BENCH[:-1] + [f"4,{HUGE}"]),
        ({}, BENCH[:-3] + [HUGE] + BENCH[-2:]),
        ({}, BENCH + ["--seed", HUGE]),
        ({"t.nwk": "((1,2),(3,4));\n"}, ["verify", *BUILD[1:-2], "--max-m", HUGE]),
        ({"t.nwk": "((a,b),(c,d));\n", "names.tsv": f"a 1\nb 2\nc 3\nd {HUGE}\n"},
         BUILD + ["--taxa", "names.tsv"]),
        ({"t.nwk": f"((1,2),(3,{HUGE}));\n"}, BUILD),
        # spellings int() takes but the integer options refuse
        *[({}, BENCH[:-3] + [text] + BENCH[-2:]) for text in SPELLINGS],
        *[({}, BENCH + ["--seed", text]) for text in SPELLINGS],
        *[({"t.nwk": "((1,2),(3,4));\n"}, ["verify", *BUILD[1:-2], "--max-m", text])
          for text in SPELLINGS],
    ],
    ids=["snapshot count", "--sizes", "--m", "--seed", "--max-m", "--taxa label", "Newick label",
         *[f"{flag} {text!r}" for flag in ("--m", "--seed", "--max-m") for text in SPELLINGS]],
)
def test_an_integer_of_5000_digits_exits_2(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error, which argparse reports
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    lines = err.splitlines()
    if lines[0].startswith("usage: treescape"):
        assert USAGE_ERROR.fullmatch(lines[-1]), lines[-1]
    else:
        assert len(lines) == 1 and lines[0].startswith("error: ")


EXIT_CODES = {
    errors.TreescapeError: 2,
    errors.NewickError: 2,
    errors.CanonicalError: 2,
    errors.MoveError: 2,
    errors.ModeError: 4,
    errors.LabelSetError: 3,
    errors.GraphInvariantError: 2,
    errors.SnapshotError: 2,
}


def test_exit_codes_cover_every_error():
    assert set(EXIT_CODES) == {errors.TreescapeError, *errors.TreescapeError.__subclasses__()}


@pytest.mark.parametrize("error, code", EXIT_CODES.items(), ids=lambda v: getattr(v, "__name__", v))
def test_every_error_ends_in_one_line_with_its_exit_code(monkeypatch, capsys, error, code):
    def handler(args):
        raise error("raised by the handler")

    monkeypatch.setattr(checks, "bench", handler)
    assert run("bench", "--mode", "spr", "--rooted") == code == error.code
    assert capsys.readouterr() == ("", "error: raised by the handler\n")
