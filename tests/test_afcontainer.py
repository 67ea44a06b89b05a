"""Container behavior: insertion, neighbor queries, snapshots."""

import random
import re
from collections import Counter

import pytest
from test_forestgen import shaped_tree

from treescape import afcontainer, forestgen
from treescape.afcontainer import (
    AFContainer,
    Mode,
    decode_snapshot,
    read_snapshot,
    replace_atomically,
    write_snapshot,
)
from treescape.canonical import decode_tree, sdlnewick_tree
from treescape.errors import CanonicalError, ModeError, SnapshotError
from treescape.oracle import enumerate_all_trees, enumerate_neighbors, random_tree
from treescape.tree import parse_newick

TRIANGLE = [
    "(((4,5),1),(2,3));",
    "((((4,5),2),3),1);",
    "(1,(2,((4,5),3)));",
]


def triangle_trees():
    return [parse_newick(s, rooted=True) for s in TRIANGLE]


class TestInsert:
    def test_ids_are_dense_and_duplicates_return_existing(self):
        c = AFContainer(Mode.RSPR)
        t0, t1, t2 = triangle_trees()
        assert c.insert(t0) == 0
        assert c.insert(t1) == 1
        assert c.insert(t0) == 0
        assert c.insert(t2) == 2
        assert len(c) == 3

    def test_isomorphic_presentation_is_duplicate(self):
        c = AFContainer(Mode.RSPR)
        assert c.insert(parse_newick("((1,2),(3,4));", rooted=True)) == 0
        assert c.insert(parse_newick("((4,3),(2,1));", rooted=True)) == 0
        assert len(c) == 1

    def test_mode_mismatch(self):
        rooted = parse_newick("((1,2),(3,4));", rooted=True)
        unrooted = parse_newick("(1,2,(3,4));", rooted=False)
        with pytest.raises(ModeError):
            AFContainer(Mode.TBR).insert(rooted)
        with pytest.raises(ModeError):
            AFContainer(Mode.RSPR).insert(unrooted)
        with pytest.raises(ModeError):
            AFContainer(Mode.USPR).insert(rooted)

    def test_mode_of_a_build(self):
        modes = {(move, rooted): Mode.of(move, rooted)
                 for move in ("spr", "nni") for rooted in (True, False)}
        assert modes == {("spr", True): Mode.RSPR, ("spr", False): Mode.USPR,
                         ("nni", True): Mode.RSPR, ("nni", False): Mode.USPR}
        assert Mode.of("tbr", False) is Mode.TBR
        with pytest.raises(ModeError, match="^tbr graphs are only defined for unrooted trees$"):
            Mode.of("tbr", True)
        with pytest.raises(ValueError):
            Mode.of("rspr", True)

    def test_refused_tree_leaves_the_container_unchanged(self):
        c = AFContainer(Mode.RSPR)
        t0, t1, _ = triangle_trees()
        c.insert(t0)
        c.insert(t1)
        before = (dict(c._id_trie), {k: list(v) for k, v in c._forest_trie.items()}, list(c._trees))
        with pytest.raises(ModeError):
            c.insert_counting(parse_newick("(4,5,(1,(2,3)));", rooted=False))
        assert (c._id_trie, c._forest_trie, c._trees) == before

    def test_shared_forest_list_is_insertion_ordered(self):
        c = AFContainer(Mode.RSPR)
        for t in triangle_trees():
            c.insert(t)
        assert c._forest_trie.get(b"(r,1,(2,3)) (4,5)p;") == [0, 1, 2]

    def test_id_and_sdlnewick_of(self):
        c = AFContainer(Mode.USPR)
        t = parse_newick("(1,2,(3,4));", rooted=False)
        assert c.id(t) is None
        i = c.insert(t)
        assert c.id(t) == i
        assert c.sdlnewick_of(i) == sdlnewick_tree(t)
        assert c.sdlnewick_of(99) == b""
        assert c.sdlnewick_of(-1) == b""
        assert c.id(decode_tree(c.sdlnewick_of(i))) == i

    def test_insert_counting_reports_shared_keys_of_earlier_trees(self):
        c = AFContainer(Mode.RSPR)
        t0, t1, t2 = triangle_trees()
        assert c.insert_counting(t0) == (0, {})
        first, shared = c.insert_counting(t1)
        assert first == 1 and set(shared) == {0}
        third, shared = c.insert_counting(t2)
        assert third == 2 and set(shared) == {0, 1}
        for i in shared:
            assert shared[i] == Counter(c.spr_neighbors(t2))[i]
        assert c.insert_counting(t1) == (1, {})

    def test_duplicate_insert_skips_key_generation(self, monkeypatch):
        calls = []
        real = afcontainer.rspr_forest_keys
        monkeypatch.setattr(
            afcontainer, "rspr_forest_keys", lambda tree: calls.append(1) or real(tree)
        )
        c = AFContainer(Mode.RSPR)
        assert c.insert(parse_newick("((1,2),(3,4));", rooted=True)) == 0
        assert c.insert(parse_newick("((4,3),(2,1));", rooted=True)) == 0
        assert c.insert(parse_newick("((1,2),(3,4));", rooted=True)) == 0
        assert len(calls) == 1

    def test_each_insert_orients_the_tree_once(self, monkeypatch):
        calls = []
        real = forestgen.Oriented.__init__

        def counting(self, tree):
            calls.append(1)
            real(self, tree)

        monkeypatch.setattr(forestgen.Oriented, "__init__", counting)
        for mode, rooted in (("rspr", True), ("uspr", False), ("tbr", False)):
            c = AFContainer(mode)
            rng = random.Random(mode)
            for _ in range(5):
                calls.clear()
                c.insert(random_tree(9, rooted=rooted, rng=rng))
                assert len(calls) == 1

    def test_id_of_other_rootedness_is_none(self):
        rooted = parse_newick("((1,2),(3,4));", rooted=True)
        unrooted = parse_newick("(1,2,(3,4));", rooted=False)
        c = AFContainer(Mode.RSPR)
        c.insert(rooted)
        assert c.id(unrooted) is None
        for mode in (Mode.USPR, Mode.TBR):
            c = AFContainer(mode)
            c.insert(unrooted)
            assert c.id(rooted) is None

    def test_mode_coerces_from_string(self):
        assert AFContainer("tbr").mode is Mode.TBR
        assert Mode.RSPR.rooted and not Mode.USPR.rooted and not Mode.TBR.rooted


class TestNeighborQueries:
    def test_empty_container(self):
        t = parse_newick("((1,2),(3,4));", rooted=True)
        c = AFContainer(Mode.RSPR)
        assert c.spr_neighbors(t) == []
        assert c.nni_neighbors(t) == []
        assert c.id(t) is None

    def test_triangle_neighbors(self):
        c = AFContainer(Mode.RSPR)
        trees = triangle_trees()
        for t in trees:
            c.insert(t)
        assert set(c.spr_neighbors(trees[0])) == {1, 2}
        assert set(c.spr_neighbors(trees[1])) == {0, 2}

    def test_query_tree_need_not_be_inserted(self):
        c = AFContainer(Mode.RSPR)
        trees = triangle_trees()
        c.insert(trees[0])
        assert set(c.spr_neighbors(trees[1])) == {0}

    def test_wrong_query_for_mode(self):
        c = AFContainer(Mode.TBR)
        t = parse_newick("(1,2,(3,4));", rooted=False)
        with pytest.raises(ModeError):
            c.spr_neighbors(t)
        c2 = AFContainer(Mode.USPR)
        with pytest.raises(ModeError):
            c2.tbr_neighbors(t)

    def test_neighbor_sets_match_oracle(self):
        rng = random.Random(41)
        for mode, move, rooted in [
            (Mode.RSPR, "rspr", True),
            (Mode.USPR, "uspr", False),
            (Mode.TBR, "tbr", False),
        ]:
            n = rng.randint(4, 7)
            trees = [random_tree(n, rooted=rooted, rng=rng) for _ in range(25)]
            c = AFContainer(mode)
            ids = [c.insert(t) for t in trees]
            for t, own in zip(trees, ids):
                raw = c.tbr_neighbors(t) if mode is Mode.TBR else c.spr_neighbors(t)
                want_strings = enumerate_neighbors(t, move)
                want = {i for i in range(len(c)) if c.sdlnewick_of(i) in want_strings}
                assert set(raw) == want
                assert own not in raw
                if mode is Mode.TBR:
                    with pytest.raises(ModeError):
                        c.nni_neighbors(t)
                    continue
                nni_want = enumerate_neighbors(t, "nni")
                nni_ids = c.nni_neighbors(t)
                assert len(nni_ids) == len(set(nni_ids))
                assert {c.sdlnewick_of(i) for i in nni_ids} == {
                    s for s in nni_want if c.id(decode_tree(s)) is not None
                }

    def test_nni_multiplicity_pattern(self):
        # NNI-adjacent trees share 3 forest keys rooted, 4 unrooted;
        # SPR-only neighbors share exactly 1
        for rooted, mode, factor in [(True, Mode.RSPR, 3), (False, Mode.USPR, 4)]:
            trees = enumerate_all_trees(5, rooted=rooted)
            c = AFContainer(mode)
            for t in trees:
                c.insert(t)
            for t in trees:
                counts = Counter(c.spr_neighbors(t))
                nni = set(c.nni_neighbors(t))
                for i, k in counts.items():
                    assert k == (factor if i in nni else 1)

    def test_tbr_pair_sharing_two_forests_appears_twice(self):
        trees = enumerate_all_trees(5, rooted=False)
        c = AFContainer(Mode.TBR)
        for t in trees:
            c.insert(t)
        found = False
        for t in trees:
            counts = Counter(c.tbr_neighbors(t))
            if any(k >= 2 for k in counts.values()):
                found = True
        assert found


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        c = AFContainer(Mode.RSPR)
        trees = triangle_trees()
        for t in trees:
            c.insert(t)
        path = tmp_path / "c.snap"
        c.save(path)
        back = AFContainer.load(path)
        assert back.mode is Mode.RSPR
        assert len(back) == 3
        assert [back.sdlnewick_of(i) for i in range(3)] == [c.sdlnewick_of(i) for i in range(3)]
        assert set(back.spr_neighbors(trees[0])) == {1, 2}

    def test_helpers_roundtrip(self, tmp_path):
        path = tmp_path / "x.snap"
        lines = [b"(1,2,(3,4));", b"((1,3),2,4);"]
        with replace_atomically(path) as fh:
            write_snapshot(fh, "uspr", lines)
        mode, back = read_snapshot(path)
        assert mode is Mode.USPR and back == lines

    @pytest.mark.parametrize(
        "content",
        [
            "bogus v1 rspr 0\n",
            "afcontainer v2 rspr 0\n",
            "afcontainer v1 zpr 0\n",
            "afcontainer v1 rspr x\n",
            "afcontainer v1 rspr +1\n(r,1,2);\n",
            "afcontainer v1 rspr 0_1\n(r,1,2);\n",
            "afcontainer v1 rspr 2\n(r,1,2);\n",
            "afcontainer v1 rspr 1\n(r,1,2);\n\n",
            "afcontainer v1 rspr 1\n(r,1,\u00e9);\n",
        ],
    )
    def test_bad_headers_and_counts(self, tmp_path, content):
        path = tmp_path / "bad.snap"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(SnapshotError):
            AFContainer.load(path)

    def test_failed_write_keeps_old_snapshot(self, tmp_path):
        path = tmp_path / "c.snap"
        with replace_atomically(path) as fh:
            write_snapshot(fh, "rspr", [b"(r,1,2);"])
        old = path.read_bytes()
        with pytest.raises(AttributeError), replace_atomically(path) as fh:
            write_snapshot(fh, "rspr", [b"(r,1,(2,3));", None])
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.snap"]

    def test_failed_save_keeps_old_snapshot(self, tmp_path):
        path = tmp_path / "c.snap"
        c = AFContainer(Mode.RSPR)
        for t in triangle_trees():
            c.insert(t)
        c.save(path)
        old = path.read_bytes()
        c.insert(parse_newick("((1,2),((3,4),5));", rooted=True))
        c._trees[-1] = None  # the last line's write fails after the others
        with pytest.raises(AttributeError):
            c.save(path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.snap"]

    def test_noncanonical_and_duplicate_lines(self, tmp_path):
        path = tmp_path / "bad.snap"
        path.write_text("afcontainer v1 rspr 1\n(r,2,1);\n")
        with pytest.raises(SnapshotError):
            AFContainer.load(path)
        path.write_text("afcontainer v1 rspr 2\n(r,1,2);\n(r,1,2);\n")
        with pytest.raises(SnapshotError):
            AFContainer.load(path)
        path.write_text("afcontainer v1 rspr 1\n(1,2,(3,4));\n")
        with pytest.raises(SnapshotError):
            AFContainer.load(path)


    @pytest.mark.parametrize(
        "mode, line, message",
        [
            (Mode.RSPR, b"(r,2,1);", "not a canonical rspr tree"),
            (Mode.RSPR, b"(r,1,2,3);", "not a canonical rspr tree"),
            (Mode.USPR, b"(1,2,(4,3));", "not a canonical uspr tree"),
            (Mode.TBR, b"(1, 2,(3,4));", "not a canonical tbr tree"),
            (Mode.USPR, b"(r,1,2);", "rooted tree in a uspr snapshot"),
            (Mode.RSPR, b"(1,2,(3,4));", "unrooted tree in a rspr snapshot"),
        ],
    )
    def test_decode_messages(self, mode, line, message):
        with pytest.raises(SnapshotError) as err:
            list(decode_snapshot("c.snap", mode, [line]))
        assert str(err.value) == f"c.snap:2: {message}"

    def test_one_leaf_line_is_refused(self):
        # the reference decoder reads "1;" as a lone leaf, but the input
        # parser refuses a single leaf and a build never writes one
        assert decode_tree(b"1;").n_leaves == 1
        with pytest.raises(SnapshotError, match=r"^c\.snap:2: not a canonical uspr tree$"):
            list(decode_snapshot("c.snap", Mode.USPR, [b"1;"]))

    def test_decoding_is_lazy(self):
        lines = [b"(r,(1,2),(3,4));", b"(r,(1,3),(2,4));", b"(r,(2,1),(3,4));"]
        trees = decode_snapshot("c.snap", Mode.RSPR, lines)
        assert next(trees).canonical() == lines[0]
        assert next(trees).canonical() == lines[1]
        with pytest.raises(SnapshotError, match=r"^c\.snap:4: not a canonical rspr tree$"):
            next(trees)


def _children(s, open_at):
    """Offsets of the top-level commas and of the closing bracket of the
    bracket opened at s[open_at]."""
    depth = 0
    cuts = []
    for i in range(open_at + 1, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            if not depth:
                return cuts, i
            depth -= 1
        elif s[i] == "," and not depth:
            cuts.append(i)
    raise ValueError("unbalanced")


def mutated_lines(line, tree, rng):
    """Near misses of a canonical tree line, as ASCII strings."""
    s = line.decode("ascii")
    labels = list(re.finditer(r"[0-9]+", s))
    closes = [i + 1 for i, c in enumerate(s) if c == ")"]
    out = []
    # swapped children of a random internal node
    at = rng.choice([i for i, c in enumerate(s) if c == "("])
    cuts, end = _children(s, at)
    first, second = s[at + 1 : cuts[0]], s[cuts[0] + 1 : cuts[1] if len(cuts) > 1 else end]
    out.append(s[: at + 1] + second + "," + first + s[cuts[0] + 1 + len(second) :])
    # whitespace, a branch length, a p suffix
    k = rng.randrange(1, len(s))
    out.append(s[:k] + rng.choice(" \t") + s[k:])
    k = rng.choice(labels).end()
    out.append(s[:k] + ":0.5" + s[k:])
    k = rng.choice(closes)
    out.append(s[:k] + "p" + s[k:])
    # the reserved label and one past the 64-bit limit
    m = rng.choice(labels)
    for bad in ("0", str(2**64)):
        out.append(s[: m.start()] + bad + s[m.end() :])
    # two-component forest strings of the same tree
    keys = forestgen.rspr_forest_keys(tree) if tree.rooted else forestgen.uspr_forest_keys(tree)
    if not tree.rooted:
        keys += forestgen.tbr_forest_keys(tree)
    out += [key.decode("ascii") for key in rng.sample(keys, min(3, len(keys)))]
    # a misplaced root marker
    if s.startswith("(r,"):
        out.append("(" + s[3:-2] + ",r);")
        out.append(s[3:])
    else:
        out.append("(r," + s[1:])
        out.append("(r," + s)
    inner = [i for i, c in enumerate(s) if c == "(" and i]
    if inner:
        k = rng.choice(inner) + 1
        out.append(s[:k] + "r," + s[k:])
    return out


def reference_decode(mode, line):
    """The tree canonical.decode_tree reads from line, if it has the
    snapshot's rootedness; else None."""
    try:
        tree = decode_tree(line)
    except CanonicalError:
        return None
    return tree if tree.rooted == mode.rooted else None


@pytest.mark.parametrize("shape", ["random", "caterpillar", "balanced"])
@pytest.mark.parametrize("rooted", [True, False])
def test_snapshot_decoder_agrees_with_reference(shape, rooted):
    rng = random.Random(f"{shape}{rooted}")
    verdicts = Counter()
    for n in [*range(2, 13), 64]:
        for sparse in (False, True):
            tree = shaped_tree(shape, n, rooted, rng, sparse)
            line = sdlnewick_tree(tree)
            candidates = [line] + [m.encode("ascii") for m in mutated_lines(line, tree, rng)]
            for text in candidates:
                for mode in (Mode.RSPR, Mode.USPR, Mode.TBR):
                    want = reference_decode(mode, text)
                    try:
                        [got] = decode_snapshot("c.snap", mode, [text])
                    except SnapshotError:
                        got = None
                    assert (got is None) == (want is None), (mode, text)
                    # both readers use parse_newick, so agreement alone would
                    # not catch one that refuses a valid line
                    if text == line and mode.rooted == rooted:
                        assert got is not None, (mode, text)
                    verdicts[got is not None] += 1
                    if got is not None:
                        assert got.rooted == mode.rooted
                        assert forestgen.Oriented(got).canonical() == text
                        assert sdlnewick_tree(want) == text
    assert verdicts[True] and verdicts[False] > 10 * verdicts[True]


def test_space_stays_near_quadratic():
    # soft regression tracking of stored key bytes per tree
    rng = random.Random(53)
    for n in (8, 16):
        c = AFContainer(Mode.RSPR)
        for _ in range(30):
            c.insert(random_tree(n, rooted=True, rng=rng))
        key_bytes = sum(len(k) for k, _ in c._forest_trie.items())
        assert key_bytes <= 64 * 30 * n * n
