"""Dict-indexed container mapping shared forest keys to tree ids.

An AFContainer holds three substructures:

* forest index: canonical forest key -> append-only list of tree ids, in
  insertion order and duplicate-free per list;
* id index: canonical tree string -> tree id;
* tree array: tree id -> canonical tree string, ids dense from 0.

Both indexes are plain dicts over byte-string keys. Hashing a key costs
time linear in its length, so the per-tree work for an n-leaf tree stays at
O(n^2) inserted bytes and O(n^2) query work.

A tree is oriented once (forestgen.Oriented): its canonical string comes
from that table first, and only a tree the id index does not hold yet has
its forest keys spliced from the same table. A tree that arrives already
Oriented, as snapshot trees do, is not oriented again.

The id lists a new tree's keys land on hold exactly the earlier trees one
move away from it, so inserting a tree also finds its earlier neighbours,
with the number of keys each one shares. Prune-regraft neighbours that are
also one interchange apart share at least two keys; all others share one.
A container made with nni indexes interchange keys instead, one of which
is shared by each pair of trees one interchange apart and by no others.

A snapshot stores one canonical tree string per line. It is read back
with the input parser, tree.parse_newick, and each line must equal the
Oriented re-encoding of its tree, so loading needs no second parser or
encoder. Each line is decoded only when its tree is inserted.
"""

import contextlib
import enum
import os
from collections import Counter
from functools import partial

from .errors import ModeError, NewickError, SnapshotError
from .forestgen import Oriented, nni_keys, orient
from .forestgen import rspr_forest_keys, tbr_forest_keys, uspr_forest_keys
from .tree import parse_newick


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


def read_snapshot(path):
    """Read a snapshot header and its raw canonical lines: (Mode, [bytes]).
    Errors name the file, and the line where there is one."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().rstrip("\n").split(" ")
            if len(header) != 4 or header[0] != _SNAPSHOT_MAGIC:
                raise SnapshotError(f"{path}:1: not a container snapshot")
            if header[1] != _SNAPSHOT_VERSION:
                raise SnapshotError(f"{path}:1: unsupported snapshot version {header[1]!r}")
            try:
                mode = Mode(header[2])
            except ValueError:
                raise SnapshotError(f"{path}:1: unknown snapshot mode {header[2]!r}") from None
            # ASCII digits only, as written: int() would also take "+1" and "1_0"
            if not (header[3].isascii() and header[3].isdigit()):
                raise SnapshotError(f"{path}:1: bad tree count {header[3]!r}")
            count = int(header[3])
            lines = []
            for lineno, line in enumerate(fh, start=2):
                text = line.rstrip("\n")
                if not text:
                    raise SnapshotError(f"{path}:{lineno}: blank line in snapshot")
                lines.append(text.encode("ascii"))
    except UnicodeDecodeError:
        raise SnapshotError(f"{path}: snapshot is not ASCII text") from None
    if len(lines) != count:
        raise SnapshotError(f"{path}: snapshot header promises {count} trees, found {len(lines)}")
    return mode, lines


def decode_snapshot(path, mode, lines):
    """Lazily yield the Oriented tree of each line read_snapshot(path)
    returned, checking, when its tree is taken, that the line fits the
    snapshot's mode, is canonical and repeats no earlier line. Errors name
    the file and the line.

    A line is read with the input parser, after dropping the ``r,`` that
    opens a rooted line, and must equal its tree's canonical string byte
    for byte. A one-leaf line such as ``1;`` is rejected: parse_newick
    refuses it, and a build never writes it.
    """
    seen = set()
    for lineno, text in enumerate(lines, start=2):
        rooted = text.startswith(b"(r,")
        if rooted != mode.rooted:
            kind = "rooted" if rooted else "unrooted"
            raise SnapshotError(f"{path}:{lineno}: {kind} tree in a {mode.value} snapshot")
        try:
            tree = Oriented(parse_newick(b"(" + text[3:] if rooted else text, rooted=rooted))
        except NewickError:
            tree = None
        if tree is None or tree.canonical() != text:
            raise SnapshotError(f"{path}:{lineno}: not a canonical {mode.value} tree")
        if text in seen:
            raise SnapshotError(f"{path}:{lineno}: duplicate tree in snapshot")
        seen.add(text)
        yield tree


class AFContainer:
    """Append-only index of trees by their shared two-component forests.

    Tree ids are assigned densely from 0 in first-insertion order; inserting
    an already-present tree returns its existing id and changes nothing.
    With nni, an rspr or uspr container indexes interchange keys instead of
    forests, and answers only nni_neighbors.
    """

    def __init__(self, mode, nni=False):
        self.mode = Mode(mode)
        self.nni = nni
        # the key generator, read from this module now rather than at
        # import, so that a wrapped one is used; it refuses the wrong rootedness
        if nni and self.mode is Mode.TBR:
            raise ModeError("interchange keys need an rspr or uspr container")
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

    def __repr__(self):
        return f"<AFContainer {self.mode.value} m={len(self._trees)}>"

    def insert_counting(self, tree):
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
        hits = []
        for key in keys:
            ids = index.get(key)
            if ids is None:
                index[key] = [tree_id]
            else:
                hits += ids
                ids.append(tree_id)
        return tree_id, Counter(hits)

    def insert(self, tree):
        """Index a tree; returns its id (the existing one for duplicates)."""
        return self.insert_counting(tree)[0]

    def id(self, tree):
        """Id of an inserted tree, or None."""
        return self._id_trie.get(orient(tree).canonical())

    def sdlnewick_of(self, tree_id):
        """Canonical string of the tree with this id; b"" if out of range."""
        if 0 <= tree_id < len(self._trees):
            return self._trees[tree_id]
        return b""

    def _matches(self, tree):
        oriented = orient(tree)
        own = self._id_trie.get(oriented.canonical())
        get = self._forest_trie.get
        out = []
        for key in self._forest_keys(oriented):
            found = get(key)
            if found:
                if own is None:
                    out.extend(found)
                else:
                    out.extend(i for i in found if i != own)
        return out

    def spr_neighbors(self, tree):
        """Ids of inserted trees one prune-regraft move from tree.

        The raw list is unsorted and repeats the ids of trees that are also
        interchange-adjacent (they share more than one forest key); the query
        tree itself need not be inserted and is never reported.
        """
        if self.mode is Mode.TBR or self.nni:
            raise ModeError("prune-regraft queries need a container of rspr or uspr forests")
        return self._matches(tree)

    def tbr_neighbors(self, tree):
        """Ids of inserted trees one bisection-reconnection move from tree."""
        if self.mode is not Mode.TBR:
            raise ModeError("bisection queries need a tbr container")
        return self._matches(tree)

    def nni_neighbors(self, tree):
        """Ids of inserted trees one interchange move from tree (no repeats):
        those sharing at least two forest keys with it, or one nni key.

        Needs an rspr or uspr container; bisection-reconnection pairs that
        are not interchange-adjacent can share two tbr keys.
        """
        if self.mode is Mode.TBR:
            raise ModeError("interchange queries need an rspr or uspr container")
        if self.nni:
            return self._matches(tree)
        shared = Counter(self._matches(tree))
        return [i for i, k in shared.items() if k >= 2]

    # -- snapshot -----------------------------------------------------------

    def save(self, path):
        """Write the container as a text snapshot to a temporary file that
        replaces path once every line is written; the forest index is
        rebuilt on load."""
        with replace_atomically(path) as fh:
            write_snapshot(fh, self.mode, self._trees)

    @classmethod
    def load(cls, path):
        mode, lines = read_snapshot(path)
        container = cls(mode)
        for tree in decode_snapshot(path, mode, lines):
            container.insert(tree)
        return container
