"""The argparse parser of the command line, built from the grammar table
cli.COMMANDS, which the caller passes. cli.parse_args reads the argv a
build is normally given itself and hands any other argv to this parser, so
help, abbreviations and usage errors are argparse's own, and a build
imports neither this module nor argparse. Nothing here imports cli: under
python -m treescape.cli the running module is __main__, and importing
treescape.cli would compile and run cli.py a second time."""

import argparse


def parser(commands):
    """The argparse.ArgumentParser of commands, laid out as cli.COMMANDS."""
    top = argparse.ArgumentParser(
        prog="treescape",
        usage="treescape {" + ",".join(commands) + "} ...",
        description="SPR, NNI, and TBR adjacency graphs over tree collections",
    )
    # without prog, each command's usage would start with the one above
    subparsers = top.add_subparsers(dest="command", required=True, prog="treescape")
    for command, (text, run, reads_input, options) in commands.items():
        sub = subparsers.add_parser(command, help=text, description=text)
        sub.set_defaults(run=run)
        if reads_input:
            sub.add_argument("input", help="newline-delimited Newick tree file, - for stdin")
        pairs = {}  # dest: the group of an either-or pair
        for flag, dest, value, default, line in options:
            required, default = default is ..., None if default is ... else default
            if isinstance(value, bool):
                if dest not in pairs:
                    pairs[dest] = sub.add_mutually_exclusive_group(required=required)
                pairs[dest].add_argument(
                    flag, dest=dest, action="store_const", const=value, default=default, help=line
                )
                continue
            if default is not None:
                line = f"{line} (default {default})"
            if value is int:
                kind = {"type": int}
            else:
                kind = {"choices": value} if isinstance(value, tuple) else {"metavar": value}
            sub.add_argument(flag, dest=dest, required=required, default=default, help=line, **kind)
    return top
