"""Per-edge two-component forest keys.

Two trees on the same leaf set are one rearrangement apart exactly when
they share a key: cut any edge of each tree, keep the attachment point of
the moved part as a marked root where the move semantics require it, and
encode the resulting forest canonically. The three generators below differ
only in which side of the cut keeps its root.
"""

from .canonical import sdlnewick_forest
from .errors import ModeError
from .tree import yield_forest


def rspr_forest_keys(tree):
    """One key per edge of a rooted tree: cut it, root the cut-off side."""
    if not tree.rooted:
        raise ModeError("rooted-move keys require a rooted tree")
    return [sdlnewick_forest(yield_forest(tree, (edge,))) for edge in tree.edges()]


def uspr_forest_keys(tree):
    """Two keys per edge of an unrooted tree: either endpoint side rooted."""
    if tree.rooted:
        raise ModeError("unrooted-move keys require an unrooted tree")
    keys = []
    for a, b in tree.edges():
        keys.append(sdlnewick_forest(yield_forest(tree, ((a, b),), keep_roots=(a,))))
        keys.append(sdlnewick_forest(yield_forest(tree, ((a, b),), keep_roots=(b,))))
    return keys


def tbr_forest_keys(tree):
    """One key per edge of an unrooted tree, both cut endpoints suppressed."""
    if tree.rooted:
        raise ModeError("bisection keys require an unrooted tree")
    return [sdlnewick_forest(yield_forest(tree, (edge,))) for edge in tree.edges()]
