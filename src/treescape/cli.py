"""Command line front end.

treescape build   constructs a move adjacency graph from a tree file
treescape verify  cross-checks the fast builder against all-pairs comparison
treescape bench   times graph builds on random inputs

Exit codes: 0 success, 1 verify mismatch, 2 unreadable or unparseable input,
clashing build paths or a usage error, 3 mixed leaf label sets, 4
move/rootedness conflict, 5 verify refused (too many trees for the
quadratic check).

The grammar of every command is one table, COMMANDS, read by one parser,
parse_args. A build imports no more than it runs: verify and bench live in
checks, the --taxa reader in taxa and the help and usage-error text in
usage, each imported only when it is used.
"""

import contextlib
import itertools
import os
import sys
import types

from .afcontainer import (
    Mode,
    decode_snapshot,
    read_snapshot,
    replace_atomically,
    write_snapshot,
)
from .errors import (
    CanonicalError,
    LabelSetError,
    ModeError,
    NewickError,
    SnapshotError,
    fail,
)
from .graph import construct_nni_graph, construct_spr_graph, construct_tbr_graph
from .tree import parse_newick


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _read_lines(path):
    """Yield the lines of a UTF-8 text file, or of stdin for -, one at a
    time, split only at line ends: LF, CR LF or CR."""
    source = contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")
    try:
        with source as fh:
            for line in fh:
                # a file is read with universal newlines; stdin may still
                # hold \r, so split there too
                yield from line.removesuffix("\n").removesuffix("\r").split("\r")
    except UnicodeDecodeError:
        raise NewickError(f"{path}: not UTF-8 text") from None


def _load_taxa(path):
    """The taxa.Taxa of a --taxa file, or None without one; the taxa module
    is imported only when a file is given."""
    if path is None:
        return None
    from .taxa import Taxa

    return Taxa(path, _read_lines(path))


def _read_trees(path, *, rooted, lenient, taxa):
    """Parse a newline-delimited tree file, yielding (lineno, Tree) pairs."""
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        text = taxa.translate(line) if taxa else line
        try:
            tree = parse_newick(text, rooted=rooted, lenient=lenient)
        except NewickError as exc:
            if taxa and exc.pos is not None:
                exc = NewickError(exc.reason, pos=taxa.untranslated_pos(line, exc.pos))
            raise NewickError(f"{path}:{lineno}: {exc}") from None
        yield lineno, tree


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


def _write_vertices(fh, linenos, labeling):
    fh.write("# vertex\tline\tcanonical\n")
    for v, first in enumerate(labeling.first_input):
        canonical = labeling.canonical[v].decode("ascii")
        fh.write(f"{v}\t{linenos[first]}\t{canonical}\n")


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


def _path_clash(args):
    """Why two of a build's paths name one file that the build writes, or
    None. --snapshot may name the --append snapshot: that updates it."""
    written = [
        ("--out", args.out),
        ("the vertex file", _vertices_path(args.out)),
        ("--snapshot", args.snapshot),
    ]
    read = [("the input", args.input), ("--taxa", args.taxa), ("--append", args.append)]
    for k, (name, path) in enumerate(written):
        if path is None:
            continue
        for other, other_path in written[k + 1 :] + read:
            if other_path in (None, "-") or {name, other} == {"--snapshot", "--append"}:
                continue
            if os.path.realpath(path) == os.path.realpath(other_path):
                return f"{name} {path} and {other} {other_path} are the same file"
    return None


def _cmd_build(args):
    clash = _path_clash(args)
    if clash:
        return fail(2, clash)
    numbered = _read_trees(
        args.input, rooted=args.rooted, lenient=args.lenient, taxa=_load_taxa(args.taxa)
    )
    if args.append:
        snap_mode, lines = read_snapshot(args.append)
        if snap_mode is not args.container_mode:
            raise ModeError(
                f"{args.append}:1: snapshot mode {snap_mode.value} does not fit "
                f"{'rooted' if args.rooted else 'unrooted'} {args.mode}"
            )
        snapshot = ((0, tree) for tree in decode_snapshot(args.append, snap_mode, lines))
        numbered = itertools.chain(snapshot, numbered)
    graph, labeling, linenos = _construct_numbered(args, numbered)
    if not any(linenos):
        _warn(f"{args.input}: no trees")
    for k in labeling.duplicates():
        if linenos[k]:
            first = linenos[labeling.first_input[labeling.vertex_of_input[k]]]
            where = f"line {first}" if first else "the snapshot"
            _warn(f"{args.input}:{linenos[k]}: duplicate of {where}")

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
        _write_vertices(vertices, linenos, labeling)
        if snapshot:
            write_snapshot(snapshot, args.container_mode, labeling.canonical)
    print(f"built {args.mode} graph: m={graph.n_vertices} edges={graph.edge_count}")
    return 0


def _cmd_verify(args):
    from .checks import verify

    numbered = _read_trees(
        args.input, rooted=args.rooted, lenient=args.lenient, taxa=_load_taxa(args.taxa)
    )
    return verify(args, numbered, _construct_numbered)


def _cmd_bench(args):
    from .checks import bench

    return bench(args)


# The grammar, which parse_args reads and the usage module renders. Each
# command has a help line, its handler, whether it reads an input file, and
# its options. An option is (flag, dest, value, default, help), where value
# is a tuple of choices, int, a metavar for any string, or, for a flag that
# takes no value, the bool it stores. Flags that share a dest are
# either-or, and a default of ... makes the option, or one flag of the
# pair, required.
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
        ("--max-m", "max_m", int, 200, "refuse more input trees than this"),
    ]),
    "bench": ("time graph builds on random trees", _cmd_bench, False, [
        *_COMMON,
        ("--seed", "seed", int, 0, "random seed"),
        ("--m", "m", int, 200, "trees per size"),
        ("--sizes", "sizes", "CSV", "64,128,256", "comma-separated leaf counts"),
    ]),
}


def _usage_exit(command, reason=None):
    """Print the help of command, or of the program for None, and exit 0;
    or, given a reason, print the usage error and exit 2. The usage module
    renders both from COMMANDS, and is imported only then."""
    from .usage import exit_with

    exit_with(COMMANDS, command, reason)


def _is_flag(arg):
    # - names stdin, and a negative number is a value, as in --m -1
    return arg.startswith("-") and arg != "-" and not arg[1:].isdecimal()


def parse_args(argv):
    """The namespace of argv under COMMANDS: command, run (its handler),
    input if it reads one, and one attribute per option dest. An option is
    given as --x v or --x=v, or by a unique prefix of its flag; the last of
    a repeated option wins, and -- ends the options. -h or --help prints
    the help to stdout and exits 0; a usage error exits 2."""
    if not argv or argv[0] not in COMMANDS:
        if argv and argv[0] in ("-h", "--help"):
            _usage_exit(None)
        if not argv:
            _usage_exit(None, "the following arguments are required: command")
        choices = ", ".join(map(repr, COMMANDS))
        _usage_exit(None, f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    command, rest = argv[0], argv[1:]
    _, run, reads_input, options = COMMANDS[command]
    flags = {option[0]: option for option in options}
    args = types.SimpleNamespace(command=command, run=run)
    for _, dest, _, default, _ in options:
        setattr(args, dest, None if default is ... else default)
    given = {}  # dest: the flag that set it
    inputs = []
    k = 0
    while k < len(rest):
        arg = rest[k]
        k += 1
        if arg == "--":
            inputs += rest[k:]
            break
        if not _is_flag(arg):
            inputs.append(arg)
            continue
        flag, has_text, text = arg.partition("=")
        if flag != "-h" and flag not in flags:
            matches = [f for f in (*flags, "--help") if f.startswith(flag)]
            if len(matches) > 1:
                _usage_exit(command, f"ambiguous option: {flag} could match {', '.join(matches)}")
            if not matches:
                _usage_exit(command, f"unrecognized arguments: {arg}")
            flag = matches[0]
        if flag in ("-h", "--help"):
            _usage_exit(command)
        _, dest, value, _, _ = flags[flag]
        if isinstance(value, bool):
            if has_text:
                _usage_exit(command, f"argument {flag}: ignored explicit argument {text!r}")
            if given.get(dest, flag) != flag:
                _usage_exit(command, f"argument {flag}: not allowed with argument {given[dest]}")
        else:
            if not has_text:
                if k == len(rest) or _is_flag(rest[k]):
                    _usage_exit(command, f"argument {flag}: expected one argument")
                text = rest[k]
                k += 1
            if value is int:
                try:
                    text = int(text)
                except ValueError:
                    _usage_exit(command, f"argument {flag}: invalid int value: {text!r}")
            elif isinstance(value, tuple) and text not in value:
                choices = ", ".join(map(repr, value))
                _usage_exit(command, f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
            value = text
        given[dest] = flag
        setattr(args, dest, value)

    missing = ["input"] if reads_input and not inputs else []
    pairs = {}
    for flag, dest, value, default, _ in options:
        if default is ... and dest not in given:
            if isinstance(value, bool):
                pairs.setdefault(dest, []).append(flag)
            else:
                missing.append(flag)
    if missing:
        _usage_exit(command, f"the following arguments are required: {', '.join(missing)}")
    for pair in pairs.values():
        _usage_exit(command, f"one of the arguments {' '.join(pair)} is required")
    if len(inputs) > reads_input:
        _usage_exit(command, f"unrecognized arguments: {' '.join(inputs[reads_input:])}")
    if reads_input:
        args.input = inputs[0]
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        # the one container mode of the run; refuses rooted tbr
        args.container_mode = Mode.of(args.mode, args.rooted)
        return args.run(args)
    except (NewickError, CanonicalError, SnapshotError) as exc:
        return fail(2, str(exc))
    except LabelSetError as exc:
        return fail(3, str(exc))
    except ModeError as exc:
        return fail(4, str(exc))
    except OSError as exc:
        return fail(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
