"""Dict-indexed container mapping shared forest keys to tree ids.

An AFContainer holds three substructures:

* forest index: canonical forest key -> tuple of tree ids in insertion
  order; the keys a new tree adds all share one tuple, (id,);
* id index: canonical tree string -> tree id;
* tree array: tree id -> canonical tree string, ids dense from 0.

Both indexes are plain dicts over byte-string keys. Hashing a key costs
time linear in its length, so the per-tree work for an n-leaf tree stays at
O(n^2) inserted bytes.

A tree is oriented once (forestgen.Oriented): its canonical string comes
from that table first, and only a tree the id index does not hold yet has
its forest keys spliced from the same table. A tree that arrives already
Oriented, as snapshot trees do, is not oriented again.

The id tuples a new tree's keys land on hold exactly the earlier trees one
move away from it, so inserting a tree also finds its earlier neighbours,
with the number of keys each one shares. Prune-regraft neighbours that are
also one interchange apart share at least two keys; all others share one.
A container made with nni indexes interchange keys instead, one of which
is shared by each pair of trees one interchange apart and by no others.

A snapshot stores one canonical tree string per line. It is read back
with the input parser, tree.parse_newick, and each line must equal the
Oriented re-encoding of its tree, so reading one needs no second parser
or encoder. The file is read in one pass, and each line is read, checked
and decoded only when its tree is inserted.
"""

import contextlib
import enum
import itertools
import os
from collections import Counter
from functools import partial

from .errors import ModeError, NewickError, SnapshotError
from .forestgen import Oriented, nni_keys, orient
from .forestgen import rspr_forest_keys, tbr_forest_keys, uspr_forest_keys
from .tree import integer, parse_newick


class Mode(enum.Enum):
    """Which rearrangement adjacency a container indexes."""

    RSPR = "rspr"
    USPR = "uspr"
    TBR = "tbr"

    @property
    def rooted(self):
        return self is Mode.RSPR

    @classmethod
    def of(cls, move, rooted):
        """The mode of a build of move ("spr", "nni" or "tbr") over trees of
        this rootedness: nni keeps the spr mode, and tbr has no rooted one."""
        if move == "tbr":
            if rooted:
                raise ModeError("tbr graphs are only defined for unrooted trees")
            return cls.TBR
        if move not in ("spr", "nni"):
            raise ValueError(f"unknown move {move!r}")
        return cls.RSPR if rooted else cls.USPR


_SNAPSHOT_MAGIC = "afcontainer"
_SNAPSHOT_VERSION = "v1"


@contextlib.contextmanager
def replace_atomically(path):
    """Yield a text handle on a temporary file beside path, which replaces
    path once the block completes. If the block raises, path keeps its old
    content and the temporary file is removed; a failure to make or rename
    that file raises an OSError that names path."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def write_snapshot(fh, mode, canonical_lines):
    """Write canonical tree strings as a reloadable snapshot to the text
    handle fh."""
    fh.write(f"{_SNAPSHOT_MAGIC} {_SNAPSHOT_VERSION} {Mode(mode).value} {len(canonical_lines)}\n")
    for text in canonical_lines:
        fh.write(text.decode("ascii") + "\n")


def read_snapshot(path, move, rooted):
    """Lazily yield the Oriented tree of each line of the snapshot at path,
    for a build of move over trees of this rootedness. The file is read
    once, in order: the header when the first tree is taken, each line when
    its tree is, and the tree count after the last line, so the first
    faulty line decides the error, which names the file and any line.

    A line is read with the input parser, after dropping the ``r,`` that
    opens a rooted line, and must equal its tree's canonical string byte
    for byte and repeat no earlier line. A one-leaf line such as ``1;`` is
    rejected: parse_newick refuses it, and a build never writes it.
    """
    seen = set()
    # a byte that is not ASCII decodes to a surrogate, refused on its line
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        # line 1 is the header, which an empty file also has
        for lineno, line in enumerate(itertools.chain([fh.readline()], fh), start=1):
            text = line.rstrip("\n")
            if not text.isascii():
                raise SnapshotError(f"{path}: snapshot is not ASCII text")
            if lineno == 1:
                header = text.split(" ")
                if len(header) != 4 or header[0] != _SNAPSHOT_MAGIC:
                    raise SnapshotError(f"{path}:1: not a container snapshot")
                if header[1] != _SNAPSHOT_VERSION:
                    raise SnapshotError(f"{path}:1: unsupported snapshot version {header[1]!r}")
                try:
                    mode = Mode(header[2])
                except ValueError:
                    raise SnapshotError(f"{path}:1: unknown snapshot mode {header[2]!r}") from None
                try:
                    if header[3].startswith("-"):
                        raise ValueError
                    count = integer(header[3])
                except ValueError:
                    raise SnapshotError(f"{path}:1: bad tree count {header[3]!r}") from None
                if mode is not Mode.of(move, rooted):
                    kind = "rooted" if rooted else "unrooted"
                    raise ModeError(f"{path}:1: snapshot mode {mode.value} does not fit {kind} {move}")
                continue
            if not text:
                raise SnapshotError(f"{path}:{lineno}: blank line in snapshot")
            if text.startswith("(r,") != rooted:
                kind = "unrooted" if rooted else "rooted"
                raise SnapshotError(f"{path}:{lineno}: {kind} tree in a {mode.value} snapshot")
            try:
                tree = Oriented(parse_newick("(" + text[3:] if rooted else text, rooted=rooted))
            except NewickError:
                tree = None
            if tree is None or f"{tree.text};" != text:
                raise SnapshotError(f"{path}:{lineno}: not a canonical {mode.value} tree")
            if text in seen:
                raise SnapshotError(f"{path}:{lineno}: duplicate tree in snapshot")
            seen.add(text)
            yield tree
    if lineno - 1 != count:
        raise SnapshotError(f"{path}: snapshot header promises {count} trees, found {lineno - 1}")


class AFContainer:
    """Append-only index of trees by their shared two-component forests.

    Tree ids are assigned densely from 0 in first-insertion order; inserting
    an already-present tree returns its existing id and changes nothing.
    With nni, an rspr or uspr container indexes interchange keys instead of
    forests.
    """

    def __init__(self, mode, nni=False):
        self.mode = Mode(mode)
        if nni and self.mode is Mode.TBR:
            raise ModeError("interchange keys need an rspr or uspr container")
        # the key generator, read from this module now rather than at
        # import, so that a wrapped one is used; it refuses the wrong rootedness
        if nni:
            self._forest_keys = partial(nni_keys, rooted=self.mode.rooted)
        else:
            self._forest_keys = {
                Mode.RSPR: rspr_forest_keys, Mode.USPR: uspr_forest_keys, Mode.TBR: tbr_forest_keys
            }[self.mode]
        # the acceptance suite reads both indexes by these names
        self._forest_trie = {}
        self._id_trie = {}
        self._trees = []

    def __len__(self):
        return len(self._trees)

    def insert(self, tree):
        """Index a tree; returns (id, shared).

        shared maps every earlier id that has forest keys in common with
        the new tree, which is every earlier tree one move away, to how
        many it has. A duplicate returns its existing id and an empty count.
        tree may also be given already Oriented. A tree the container
        refuses leaves it unchanged.
        """
        oriented = orient(tree)
        text = oriented.canonical()
        existing = self._id_trie.get(text)
        if existing is not None:
            return existing, Counter()
        keys = self._forest_keys(oriented)
        tree_id = len(self._trees)
        self._id_trie[text] = tree_id
        self._trees.append(text)
        index = self._forest_trie
        own = (tree_id,)
        hits = []
        for key in keys:
            ids = index.get(key, ())
            hits += ids
            index[key] = ids + own
        return tree_id, Counter(hits)

    def sdlnewick_of(self, tree_id):
        """Canonical string of the tree with this id; b"" if out of range."""
        if 0 <= tree_id < len(self._trees):
            return self._trees[tree_id]
        return b""
