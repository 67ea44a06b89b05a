"""The benchmark's traced run wraps names that still exist.

benchmark/spans.py patches the names callers resolve; a name it lists that
treescape no longer binds is skipped at run time and its span silently
reads zero. So every listed name must resolve, except the ones already
known to be stale.
"""

import sys
from pathlib import Path

from treescape import afcontainer, cli, forestgen, graph

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

MODULES = {"cli": cli, "afcontainer": afcontainer, "forestgen": forestgen, "graph": graph}

# names the benchmark still lists but no build calls any more
STALE = {
    "cli.decode_tree",
    "afcontainer.AFContainer.spr_neighbors",
    "afcontainer.AFContainer.tbr_neighbors",
    "afcontainer.AFContainer.nni_neighbors",
    "afcontainer.sdlnewick_tree",
    "afcontainer.nni_moves",
    "forestgen.yield_forest",
    "forestgen.sdlnewick_forest",
    "forestgen.apply_spr",
}


def test_spanned_names_resolve():
    unresolved = set()
    for module, path, _ in spans.SPANNED:
        owner = MODULES[module]
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.add(f"{module}.{path}")
    assert unresolved == STALE
