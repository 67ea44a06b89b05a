"""Exception types shared across the package, and the report of an error."""

import sys


def fail(code, message):
    """Print message as an error to stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


class TreescapeError(Exception):
    """Base class for every error raised by treescape; code is the exit
    status of a command that it ends."""

    code = 2


class NewickError(TreescapeError):
    """Malformed or unsupported Newick input.

    ``pos`` is the 0-based character offset into the parsed text; the
    rendered message reports it as a 1-based column after ``reason``.
    """

    def __init__(self, message, pos=None):
        self.reason, self.pos = message, pos
        super().__init__(message if pos is None else f"{message} (column {pos + 1})")


class CanonicalError(TreescapeError):
    """Malformed, non-canonical, or structurally invalid canonical string."""


class MoveError(TreescapeError):
    """Invalid rearrangement arguments (bad prune/regraft/cut edges)."""


class ModeError(TreescapeError):
    """Operation mode incompatible with the trees involved."""

    code = 4


class LabelSetError(TreescapeError):
    """Input trees do not share one leaf label set."""

    code = 3


class GraphInvariantError(TreescapeError):
    """Internal adjacency-list construction invariant violated."""


class SnapshotError(TreescapeError):
    """Container snapshot file is malformed or inconsistent."""
