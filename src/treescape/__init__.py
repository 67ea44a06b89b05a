"""Adjacency graphs of tree rearrangement moves over collections of
phylogenetic trees, built by indexing canonical two-component forests."""

from .afcontainer import AFContainer, Mode
from .canonical import decode_forest, decode_tree, sdlnewick_forest, sdlnewick_tree
from .errors import (
    CanonicalError,
    GraphInvariantError,
    LabelSetError,
    ModeError,
    MoveError,
    NewickError,
    SnapshotError,
    TreescapeError,
)
from .forestgen import rspr_forest_keys, tbr_forest_keys, uspr_forest_keys
from .graph import (
    AdjacencyGraph,
    VertexLabeling,
    construct_nni_graph,
    construct_spr_graph,
    construct_tbr_graph,
)
from .tree import (
    Component,
    Forest,
    RootMarker,
    Tree,
    apply_spr,
    apply_tbr,
    parse_newick,
    yield_forest,
)

__version__ = "0.1.0"

__all__ = [
    "AFContainer",
    "AdjacencyGraph",
    "CanonicalError",
    "Component",
    "Forest",
    "GraphInvariantError",
    "LabelSetError",
    "Mode",
    "ModeError",
    "MoveError",
    "NewickError",
    "RootMarker",
    "SnapshotError",
    "Tree",
    "TreescapeError",
    "VertexLabeling",
    "apply_spr",
    "apply_tbr",
    "construct_nni_graph",
    "construct_spr_graph",
    "construct_tbr_graph",
    "decode_forest",
    "decode_tree",
    "parse_newick",
    "rspr_forest_keys",
    "sdlnewick_forest",
    "sdlnewick_tree",
    "tbr_forest_keys",
    "uspr_forest_keys",
    "yield_forest",
    "__version__",
]
