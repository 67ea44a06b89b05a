"""Adjacency graphs of tree rearrangement moves over collections of
phylogenetic trees, built by indexing canonical two-component forests.

The build's API below is imported from its home modules on first use
(PEP 562), so importing the package, or one module of it, loads only the
modules that are needed. Import the reference's names from
``treescape.oracle``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "afcontainer": ("AFContainer", "Mode"),
    "errors": (
        "CanonicalError",
        "GraphInvariantError",
        "LabelSetError",
        "ModeError",
        "MoveError",
        "NewickError",
        "SnapshotError",
        "TreescapeError",
    ),
    "forestgen": ("nni_keys", "rspr_forest_keys", "tbr_forest_keys", "uspr_forest_keys"),
    "graph": (
        "AdjacencyGraph",
        "VertexLabeling",
        "construct_nni_graph",
        "construct_spr_graph",
        "construct_tbr_graph",
    ),
    "tree": ("Tree", "parse_newick"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
