"""Command line front end.

treescape build   constructs a move adjacency graph from a tree file
treescape verify  cross-checks the fast builder against all-pairs comparison
treescape bench   times graph builds on random inputs

Exit codes: 0 success, 1 verify mismatch, 2 unreadable or unparseable input
or clashing build paths, 3 mixed leaf label sets, 4 move/rootedness
conflict, 5 verify refused (too many trees for the quadratic check).
"""

import argparse
import contextlib
import itertools
import os
import re
import sys
import time

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
)
from .graph import construct_nni_graph, construct_spr_graph, construct_tbr_graph
from .tree import MAX_LABEL, parse_newick

_TOKEN = re.compile(r"[(),;:\s]|[^(),;:\s]+")
_LABEL = re.compile(r"[1-9][0-9]*")


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


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
    """Name-to-label map from a two-column file; labels must be distinct
    and follow the Newick label rule: ASCII digits, no leading zero, at
    most 2**64 - 1."""
    table = {}
    used = set()
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise NewickError(f"{path}:{lineno}: expected two columns")
        name, value = parts
        if not _LABEL.fullmatch(value):
            raise NewickError(f"{path}:{lineno}: label {value!r} is not a Newick leaf label")
        if len(value) > 20 or int(value) > MAX_LABEL:
            raise NewickError(f"{path}:{lineno}: label {value} exceeds the 64-bit limit")
        label = int(value)
        if name in table:
            raise NewickError(f"{path}:{lineno}: taxon {name!r} repeated")
        if label in used:
            raise NewickError(f"{path}:{lineno}: label {label} repeated")
        table[name] = label
        used.add(label)
    return table


def _translate(line, taxa):
    return "".join(
        str(taxa[tok]) if tok in taxa else tok for tok in _TOKEN.findall(line)
    )


def _untranslated_pos(line, taxa, pos):
    """The offset in line of offset pos in _translate(line, taxa); an offset
    inside a swapped-in label maps to the start of its taxon name."""
    at = 0
    for tok in _TOKEN.findall(line):
        width = len(str(taxa[tok])) if tok in taxa else len(tok)
        if pos < width:
            return at if tok in taxa else at + pos
        pos -= width
        at += len(tok)
    return at + pos


def _read_trees(path, *, rooted, lenient, taxa):
    """Parse a newline-delimited tree file, yielding (lineno, Tree) pairs."""
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        text = _translate(line, taxa) if taxa else line
        try:
            tree = parse_newick(text, rooted=rooted, lenient=lenient)
        except NewickError as exc:
            if taxa and exc.pos is not None:
                exc = NewickError(exc.reason, pos=_untranslated_pos(line, taxa, exc.pos))
            raise NewickError(f"{path}:{lineno}: {exc}") from None
        yield lineno, tree


def _construct(mode, trees):
    if mode == "spr":
        return construct_spr_graph(trees)
    if mode == "nni":
        return construct_nni_graph(trees)
    return construct_tbr_graph(trees)


def _write_tsv(path, mode, graph):
    lines = [f"# treescape {mode} m={graph.n_vertices}\n"]
    for j, bucket in enumerate(graph.buckets()):
        if bucket:
            lines.append(f"{j}\t" + f"\n{j}\t".join(map(str, bucket)) + "\n")
    with replace_atomically(path) as fh:
        fh.write("".join(lines))


def _write_dot(path, graph, labeling):
    with replace_atomically(path) as fh:
        fh.write("graph G {\n")
        for v in range(graph.n_vertices):
            fh.write(f'  v{v} [label="{labeling.canonical[v].decode("ascii")}"];\n')
        for u, v in graph.edges():
            fh.write(f"  v{u} -- v{v};\n")
        fh.write("}\n")


def _vertices_path(out_path):
    return os.path.splitext(out_path)[0] + ".vertices.tsv"


def _write_vertices(out_path, linenos, labeling):
    with replace_atomically(_vertices_path(out_path)) as fh:
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
        return _fail(2, clash)
    taxa = _load_taxa(args.taxa) if args.taxa else None

    numbered = _read_trees(args.input, rooted=args.rooted, lenient=args.lenient, taxa=taxa)
    if args.append:
        snap_mode, lines = read_snapshot(args.append)
        if snap_mode is not args.container_mode:
            raise ModeError(
                f"snapshot mode {snap_mode.value} does not fit "
                f"{'rooted' if args.rooted else 'unrooted'} {args.mode}"
            )
        snapshot = ((0, tree) for tree in decode_snapshot(snap_mode, lines))
        numbered = itertools.chain(snapshot, numbered)
    graph, labeling, linenos = _construct_numbered(args, numbered)
    if not any(linenos):
        _warn(f"{args.input}: no trees")
    for k in labeling.duplicates():
        if linenos[k]:
            first = linenos[labeling.first_input[labeling.vertex_of_input[k]]]
            where = f"line {first}" if first else "the snapshot"
            _warn(f"{args.input}:{linenos[k]}: duplicate of {where}")

    if args.format == "tsv":
        _write_tsv(args.out, args.mode, graph)
    else:
        _write_dot(args.out, graph, labeling)
    _write_vertices(args.out, linenos, labeling)
    if args.snapshot:
        write_snapshot(args.snapshot, args.container_mode, labeling.canonical)
    print(f"built {args.mode} graph: m={graph.n_vertices} edges={graph.edge_count}")
    return 0


def _cmd_verify(args):
    from .oracle import pairwise_graph

    taxa = _load_taxa(args.taxa) if args.taxa else None
    # a list, not a stream: the trees are counted before --max-m is checked
    parsed = list(_read_trees(args.input, rooted=args.rooted, lenient=args.lenient, taxa=taxa))
    if len(parsed) > args.max_m:
        return _fail(
            5, f"{len(parsed)} trees exceed --max-m {args.max_m} for the quadratic check"
        )
    graph, labeling, _ = _construct_numbered(args, parsed)
    trees = [tree for _, tree in parsed]
    move = "nni" if args.mode == "nni" else args.container_mode.value
    slow_graph, slow_canon = pairwise_graph(trees, move)

    if labeling.canonical != slow_canon:
        return _fail(1, "verify mismatch: vertex sets differ")
    fast_edges = set(graph.edges())
    slow_edges = set(slow_graph.edges())
    if fast_edges != slow_edges:
        for edge in sorted(fast_edges - slow_edges):
            print(f"only fast: {edge}", file=sys.stderr)
        for edge in sorted(slow_edges - fast_edges):
            print(f"only pairwise: {edge}", file=sys.stderr)
        return _fail(1, "verify mismatch: edge sets differ")
    print(f"verify ok: m={graph.n_vertices} edges={graph.edge_count}")
    return 0


def _cmd_bench(args):
    import math
    import random
    import statistics

    from .oracle import random_tree

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        return _fail(2, f"bad --sizes {args.sizes!r}")
    if not sizes or min(sizes) < 4:
        return _fail(2, "--sizes needs integers of at least 4")
    if len(set(sizes)) != len(sizes):
        return _fail(2, f"--sizes repeats a leaf count: {args.sizes!r}")
    if args.m < 1:
        return _fail(2, f"--m needs at least one tree per size, got {args.m}")
    rng = random.Random(args.seed)
    collections = [
        [random_tree(n, rooted=args.rooted, rng=rng) for _ in range(args.m)] for n in sizes
    ]
    # each size's fastest build over three rounds that visit every size, so
    # that a slow spell of the machine cannot set the fitted slope
    best = [math.inf] * len(sizes)
    for _ in range(3):
        for k, trees in enumerate(collections):
            t0 = time.perf_counter()
            _construct(args.mode, trees)
            best[k] = min(best[k], time.perf_counter() - t0)
    for n, total in zip(sizes, best):
        print(f"n={n} m={args.m} total={total:.3f}s")
    if len(sizes) > 1:
        fit = statistics.linear_regression(list(map(math.log, sizes)), list(map(math.log, best)))
        print(f"exponent={fit.slope:.3f}")
    return 0


def _add_common(sub, *, with_input):
    if with_input:
        sub.add_argument("input", help="newline-delimited Newick tree file, - for stdin")
    sub.add_argument(
        "--mode", required=True, choices=("spr", "nni", "tbr"), help="move family"
    )
    rootedness = sub.add_mutually_exclusive_group(required=True)
    rootedness.add_argument("--rooted", action="store_true", help="trees are rooted")
    rootedness.add_argument(
        "--unrooted", dest="rooted", action="store_false", help="trees are unrooted"
    )
    if with_input:
        strictness = sub.add_mutually_exclusive_group()
        strictness.add_argument(
            "--strict",
            dest="lenient",
            action="store_false",
            default=False,
            help="reject branch lengths and internal labels (default)",
        )
        strictness.add_argument(
            "--lenient", action="store_true", help="skip branch lengths and internal labels"
        )
        sub.add_argument("--taxa", help="two-column taxon-name to integer-label file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treescape",
        description="SPR, NNI, and TBR adjacency graphs over tree collections",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="construct an adjacency graph")
    _add_common(build, with_input=True)
    build.add_argument("--out", required=True, help="output graph path")
    build.add_argument(
        "--format", choices=("tsv", "dot"), default="tsv", help="output format"
    )
    build.add_argument("--append", metavar="SNAPSHOT", help="start from a saved container")
    build.add_argument(
        "--snapshot", metavar="SNAPSHOT", help="save the resulting container"
    )
    build.set_defaults(run=_cmd_build)

    verify = commands.add_parser(
        "verify", help="compare the indexed build against all-pairs comparison"
    )
    _add_common(verify, with_input=True)
    verify.add_argument(
        "--max-m", type=int, default=200, help="refuse more input trees than this"
    )
    verify.set_defaults(run=_cmd_verify)

    bench = commands.add_parser("bench", help="time graph builds on random trees")
    _add_common(bench, with_input=False)
    bench.add_argument("--seed", type=int, default=0, help="random seed")
    bench.add_argument("--m", type=int, default=200, help="trees per size")
    bench.add_argument("--sizes", default="64,128,256", help="comma-separated leaf counts")
    bench.set_defaults(run=_cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # the one container mode of the run; refuses rooted tbr
        args.container_mode = Mode.of(args.mode, args.rooted)
        return args.run(args)
    except (NewickError, CanonicalError, SnapshotError) as exc:
        return _fail(2, str(exc))
    except LabelSetError as exc:
        return _fail(3, str(exc))
    except ModeError as exc:
        return _fail(4, str(exc))
    except OSError as exc:
        return _fail(2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
