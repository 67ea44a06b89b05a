"""Help and usage errors of the command line, rendered from the grammar
table cli.COMMANDS, which the caller passes. cli imports this module only
for -h/--help or a usage error, so a build never compiles it. Nothing here
imports cli: under python -m treescape.cli the running module is __main__,
and importing treescape.cli would compile and run cli.py a second time."""

import sys


def _spelling(flag, value):
    if isinstance(value, bool):
        return flag
    if isinstance(value, tuple):
        return f"{flag} {{{','.join(value)}}}"
    return f"{flag} {'N' if value is int else value}"


def _usage(commands, command):
    if command is None:
        return "usage: treescape {" + ",".join(commands) + "} ..."
    _, _, reads_input, options = commands[command]
    words = ["usage: treescape", command] + (["INPUT"] if reads_input else [])
    # one group per dest: a lone option, or an either-or pair of flags
    groups = {}
    for flag, dest, value, default, _ in options:
        groups.setdefault(dest, (default is ..., []))[1].append(_spelling(flag, value))
    for required, spellings in groups.values():
        text = " | ".join(spellings)
        if not required:
            text = f"[{text}]"
        elif len(spellings) > 1:
            text = f"({text})"
        words.append(text)
    return " ".join(words)


def _help(commands, command):
    if command is None:
        lines = ["SPR, NNI, and TBR adjacency graphs over tree collections", "", "commands:"]
        return lines + [f"  {name:8}{entry[0]}" for name, entry in commands.items()]
    text, _, reads_input, options = commands[command]
    rows = [("INPUT", "newline-delimited Newick tree file, - for stdin")] if reads_input else []
    for flag, _, value, default, line in options:
        if not isinstance(value, bool) and default not in (None, ...):
            line = f"{line} (default {default})"
        rows.append((_spelling(flag, value), line))
    rows.append(("-h, --help", "show this help and exit"))
    return [text, ""] + [f"  {spelling:20}  {line}" for spelling, line in rows]


def exit_with(commands, command, reason=None):
    """Print the help of command, or of the program for None, to stdout and
    exit 0; or, given a reason, print the usage line and
    'treescape <command>: error: <reason>' to stderr and exit 2."""
    if reason is None:
        print("\n".join([_usage(commands, command), ""] + _help(commands, command)))
        raise SystemExit(0)
    print(_usage(commands, command), file=sys.stderr)
    print(f"treescape{' ' + command if command else ''}: error: {reason}", file=sys.stderr)
    raise SystemExit(2)
