"""Command line front end.

treescape build   constructs a move adjacency graph from a tree file
treescape verify  cross-checks the fast builder against all-pairs comparison
treescape bench   times graph builds on random inputs

Exit codes: 0 success, 1 verify mismatch, 2 unreadable or unparseable input,
clashing build paths or a usage error, 3 mixed leaf label sets, 4
move/rootedness conflict, 5 verify refused (too many trees for the
quadratic check). An error exits with the code of its class.

The grammar of every command is one table, COMMANDS. parse_args reads the
argv a build is normally given and hands any other to the argparse parser
that usage builds from the table. A build imports no more than it runs:
verify and bench live in checks, the --taxa reader in taxa and that parser
in usage, each imported only when it is used.
"""

import contextlib
import itertools
import os
import sys
import types

from .afcontainer import (
    Mode,
    read_snapshot,
    replace_atomically,
    write_snapshot,
)
from .errors import LabelSetError, NewickError, TreescapeError, fail
from .forestgen import Oriented
from .graph import construct_nni_graph, construct_spr_graph, construct_tbr_graph
from .tree import integer, parse_newick


# tree lines are parsed and oriented this many characters at a time (or one
# longer line) before their trees are inserted: not interleaving parsing with
# inserting speeds up builds of many small trees, while a larger block holds
# more live objects and so runs the cyclic collector more often (under
# CPython 3.11, 8192 made builds of hundreds of trees at n = 32-128 5-10%
# slower)
_BLOCK_CHARS = 1024


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _read_lines(path):
    """Yield (lineno, line), stripped, for each line of a UTF-8 text file, or
    of the file stdin stands for if path is -, that is not blank or a #
    comment. Lines end at LF, CR LF or CR, and every line is counted; one
    that is not UTF-8 is refused only when it is reached."""
    if path == "-" and sys.stdin is None:
        raise NewickError("-: stdin is closed")
    try:
        source = sys.stdin.fileno() if path == "-" else path
        # a byte that is not UTF-8 decodes to a surrogate, which UTF-8 refuses
        with open(
            source, encoding="utf-8-sig", errors="surrogateescape", closefd=path != "-"
        ) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise NewickError(f"{path}: not UTF-8 text") from None
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except ValueError:  # fileno() of a closed stdin, or of one no file backs
        raise NewickError("-: stdin is not an open file") from None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _read_trees(args):
    """Parse and orient the newline-delimited tree file args.input, named
    through the --taxa file if one is given, yielding (lineno, Oriented)
    pairs. Lines are taken in blocks of at most _BLOCK_CHARS characters (or
    one longer line), and a block's trees are yielded once all are parsed,
    so a build holds at most one block of them. A read or parse fault ends
    its block, whose earlier trees are yielded first. The taxa module is
    imported only when a --taxa file is given."""
    taxa = None
    if args.taxa:
        from .taxa import Taxa

        taxa = Taxa(args.taxa, _read_lines(args.taxa))
    block, size = [], 0
    try:
        for lineno, line in _read_lines(args.input):
            if block and size + len(line) > _BLOCK_CHARS:
                yield from block
                block, size = [], 0
            size += len(line)
            text = taxa.translate(line) if taxa else line
            try:
                tree = parse_newick(text, rooted=args.rooted, lenient=args.lenient)
            except NewickError as exc:
                if taxa and exc.pos is not None:
                    exc = NewickError(exc.reason, pos=taxa.untranslated_pos(line, exc.pos))
                raise NewickError(f"{args.input}:{lineno}: {exc}") from None
            block.append((lineno, Oriented(tree)))
    except (NewickError, OSError):
        yield from block
        raise
    yield from block


def _construct(mode, trees):
    if mode == "spr":
        return construct_spr_graph(trees)
    if mode == "nni":
        return construct_nni_graph(trees)
    return construct_tbr_graph(trees)


def _write_tsv(fh, mode, graph):
    # each vertex id is rendered once, not once per edge it ends
    names = list(map(str, range(graph.n_vertices)))
    lines = [f"# treescape {mode} m={graph.n_vertices}\n"]
    for name, bucket in zip(names, graph.buckets()):
        if bucket:
            lines.append(f"{name}\t" + f"\n{name}\t".join(map(names.__getitem__, bucket)) + "\n")
    fh.write("".join(lines))


def _write_dot(fh, graph, labeling):
    fh.write("graph G {\n")
    for v in range(graph.n_vertices):
        fh.write(f'  v{v} [label="{labeling.canonical[v].decode("ascii")}"];\n')
    for u, v in graph.edges():
        fh.write(f"  v{u} -- v{v};\n")
    fh.write("}\n")


def _vertices_path(out_path):
    return os.path.splitext(out_path)[0] + ".vertices.tsv"


def _write_vertices(fh, first_lines, canonical):
    fh.write("# vertex\tline\tcanonical\n")
    for v, (line, text) in enumerate(zip(first_lines, canonical)):
        fh.write(f"{v}\t{line}\t{text.decode('ascii')}\n")


def _construct_numbered(args, numbered):
    """Build the graph of (lineno, tree) pairs, taken one at a time, with
    line 0 for a tree of the --append snapshot, which come first. Returns
    the graph, its labeling and the line of each tree taken; a leaf-set
    fault names the file line of the refused tree."""
    linenos = []

    def trees():
        for lineno, tree in numbered:
            linenos.append(lineno)
            yield tree

    try:
        graph, labeling = _construct(args.mode, trees())
    except LabelSetError as exc:
        # the refused tree is the last one taken; the k-th snapshot tree is
        # on line k + 1 of its file, after the header
        k = len(linenos)
        where = f"{args.input}:{linenos[-1]}" if linenos[-1] else f"{args.append}:{k + 1}"
        raise LabelSetError(f"{where}: {exc}") from None
    return graph, labeling, linenos


def _refuse_path_clash(args):
    """Raise TreescapeError if --out, --snapshot or --append is -, if a file
    the build writes is special (a rename would replace a FIFO or a device),
    or if two of a build's paths name one file that the build writes.
    --snapshot may name the --append snapshot: that updates it."""
    for name in "out", "snapshot", "append":
        if getattr(args, name) == "-":
            raise TreescapeError(f"--{name} -: only the input and --taxa take - for stdin")
    written = [
        ("--out", args.out),
        ("the vertex file", _vertices_path(args.out)),
        ("--snapshot", args.snapshot),
    ]
    read = [("the input", args.input), ("--taxa", args.taxa), ("--append", args.append)]
    for k, (name, path) in enumerate(written):
        if path is None:
            continue
        if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
            raise TreescapeError(f"{name} {path} is not a regular file")
        for other, other_path in written[k + 1 :] + read:
            if other_path in (None, "-") or {name, other} == {"--snapshot", "--append"}:
                continue
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise TreescapeError(f"{name} {path} and {other} {other_path} are the same file")


def _cmd_build(args):
    _refuse_path_clash(args)
    numbered = _read_trees(args)
    if args.append:
        snapshot = ((0, tree) for tree in read_snapshot(args.append, args.mode, args.rooted))
        numbered = itertools.chain(snapshot, numbered)
    graph, labeling, linenos = _construct_numbered(args, numbered)
    if not any(linenos):
        _warn(f"{args.input}: no trees")
    # vertex ids count up in input order, so a new vertex is len(first_lines)
    first_lines = []
    for lineno, v in zip(linenos, labeling.vertex_of_input):
        if v == len(first_lines):
            first_lines.append(lineno)
        elif lineno:
            where = f"line {first_lines[v]}" if first_lines[v] else "the snapshot"
            _warn(f"{args.input}:{lineno}: duplicate of {where}")

    # every file is written to its temporary file before any is replaced;
    # then the graph, the vertex file and the snapshot are replaced in that
    # order, so no failure replaces the snapshot and not the graph
    with contextlib.ExitStack() as stack:
        snapshot, vertices, out = [
            path and stack.enter_context(replace_atomically(path))
            for path in (args.snapshot, _vertices_path(args.out), args.out)
        ]
        if args.format == "tsv":
            _write_tsv(out, args.mode, graph)
        else:
            _write_dot(out, graph, labeling)
        _write_vertices(vertices, first_lines, labeling.canonical)
        if snapshot:
            write_snapshot(snapshot, args.container_mode, labeling.canonical)
    print(f"built {args.mode} graph: m={graph.n_vertices} edges={graph.edge_count}")
    return 0


def _cmd_verify(args):
    from .checks import verify

    return verify(args, _read_trees(args), _construct_numbered)


def _cmd_bench(args):
    from .checks import bench

    return bench(args)


# The grammar, which parse_args reads and the usage module builds an
# argparse parser from. Each command has a help line, its handler, whether
# it reads an input file, and its options. An option is (flag, dest, value,
# default, help), where value is a tuple of choices, integer for a number,
# a metavar for any string, or, for a flag that takes no value, the bool it
# stores. Flags that share a dest are either-or, and a default of ... makes
# the option, or one flag of the pair, required.
_COMMON = [
    ("--mode", "mode", ("spr", "nni", "tbr"), ..., "move family"),
    ("--rooted", "rooted", True, ..., "trees are rooted"),
    ("--unrooted", "rooted", False, ..., "trees are unrooted"),
]
_READING = [
    ("--strict", "lenient", False, False, "reject branch lengths and internal labels (default)"),
    ("--lenient", "lenient", True, False, "skip branch lengths and internal labels"),
    ("--taxa", "taxa", "FILE", None, "two-column taxon-name to integer-label file"),
]
COMMANDS = {
    "build": ("construct an adjacency graph", _cmd_build, True, [
        *_COMMON, *_READING,
        ("--out", "out", "GRAPH", ..., "output graph path"),
        ("--format", "format", ("tsv", "dot"), "tsv", "output format"),
        ("--append", "append", "SNAPSHOT", None, "start from a saved container"),
        ("--snapshot", "snapshot", "SNAPSHOT", None, "save the resulting container"),
    ]),
    "verify": ("compare the indexed build against all-pairs comparison", _cmd_verify, True, [
        *_COMMON, *_READING,
        ("--max-m", "max_m", integer, 200, "refuse more input trees than this"),
    ]),
    "bench": ("time graph builds on random trees", _cmd_bench, False, [
        *_COMMON,
        ("--seed", "seed", integer, 0, "random seed"),
        ("--m", "m", integer, 200, "trees per size"),
        ("--sizes", "sizes", "CSV", "64,128,256", "comma-separated leaf counts"),
    ]),
}


def _read_spelled(argv):
    """The namespace of argv if it is a command, every argument that starts
    with - is - or a flag spelled in full (--x or --x=v), and there is no
    usage error, else None. --, -5 and prefixes are left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, run, reads_input, options = COMMANDS[argv[0]]
    flags = {option[0]: option for option in options}
    args = types.SimpleNamespace(command=argv[0], run=run)
    for _, dest, _, default, _ in options:
        setattr(args, dest, None if default is ... else default)
    given = {}  # dest: the flag that set it
    inputs = []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-") or arg == "-":
            inputs.append(arg)
            continue
        flag, has_text, text = arg.partition("=")
        if flag not in flags:
            return None
        _, dest, value, _, _ = flags[flag]
        if isinstance(value, bool):
            if has_text or given.get(dest, flag) != flag:
                return None
        else:
            if not has_text:
                text = next(rest, None)
                if text is None or text.startswith("-") and text != "-":
                    return None
            if isinstance(value, tuple) and text not in value:
                return None
            try:
                value = integer(text) if value is integer else text
            except ValueError:
                return None
        given[dest] = flag
        setattr(args, dest, value)
    required = {dest for _, dest, _, default, _ in options if default is ...}
    if len(inputs) != reads_input or not required <= given.keys():
        return None
    if reads_input:
        args.input = inputs[0]
    return args


def parse_args(argv):
    """The namespace of argv under COMMANDS: command, run (its handler),
    input if it reads one, and one attribute per option dest. An argv whose
    arguments that start with - are - or flags spelled in full (--x v,
    --x=v; the last repeat wins) is read here. Any other, such as one with
    --, a negative number, a prefix of a flag, -h or a usage error, goes to
    the argparse parser that the usage module builds from COMMANDS, which
    reads it, or prints help and exits 0, or a usage error and exits 2."""
    args = _read_spelled(argv)
    if args is None:
        from .usage import parser

        args = parser(COMMANDS).parse_args(argv)
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        # the one container mode of the run; refuses rooted tbr
        args.container_mode = Mode.of(args.mode, args.rooted)
        # checked before anything is read: the taxa reader would take stdin
        if getattr(args, "taxa", None) == "-" == args.input:
            raise TreescapeError("--taxa - and the input - both read stdin")
        return args.run(args)
    except TreescapeError as exc:
        return fail(exc.code, str(exc))
    except OSError as exc:  # a file fault exits as a TreescapeError does
        return fail(TreescapeError.code, str(exc))


def entry():
    """The treescape command: main, then, once stdout and stderr flush, the
    end of the process without interpreter teardown."""
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError:
        return code  # the interpreter's exit reports the fault
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
