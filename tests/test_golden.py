"""Golden outputs: fixed inputs in tests/golden built in every mode, with the
sha256 of each written file pinned, so that a refactor of the build path
keeps graphs, vertex files and snapshots byte-identical.

Each input is a walk of one-move steps with repeats and a few fresh random
trees, at n = 8 to 16 and about 30 lines. Regenerate a digest only for a
deliberate change of output format.
"""

import hashlib
import os

import pytest

from treescape import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def digests(tmp_path, stem, *argv):
    """Run one build writing stem.tsv (and any snapshot named in argv);
    return the sha256 of every file it wrote, by file name."""
    before = set(os.listdir(tmp_path))
    assert cli.main(["build", *argv, "--out", str(tmp_path / f"{stem}.tsv")]) == 0
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(set(os.listdir(tmp_path)) - before)
    }


@pytest.mark.parametrize(
    "name, mode, rootedness, want",
    [
        ("spr_rooted", "spr", "--rooted", {
            "g.tsv": "970950f2c5befe9ece8887a658f4220e2a5f2248415b579483c1cc8e50168df7",
            "g.vertices.tsv": "706d873f82ea6d94a053023569096cb436a674fda23f81bdbd7e424884e14eff",
        }),
        ("spr_unrooted", "spr", "--unrooted", {
            "g.tsv": "af382f102c3628eb536d0c168faaab45904dc8db5d111905579007f357aed3e0",
            "g.vertices.tsv": "1bd96d595d13f7cd9f78b784cf8f3eac78e19fe5a30655b1e0433b6c4b01eb18",
        }),
        ("nni_unrooted", "nni", "--unrooted", {
            "g.tsv": "5ee33e46a2f45c9ba161b3b87107782933fb4d8a4c20b99105765f8db9ee3161",
            "g.vertices.tsv": "3b11ab14c7730d649b72b46435f61a47c14ebdeabd282688b246ff879f95265c",
        }),
        ("tbr_unrooted", "tbr", "--unrooted", {
            "g.tsv": "b71dbb4670e57ff6a5ab3174e74fb71d8461d476a0e6a054a8481b0c954dc84a",
            "g.vertices.tsv": "bc8aa08aa4af3c6446297d76f12c523d493bd6aa6bccf7507355212c8a56b9c9",
        }),
    ],
)
def test_build(tmp_path, name, mode, rootedness, want):
    path = os.path.join(GOLDEN, f"{name}.nwk")
    assert digests(tmp_path, "g", path, "--mode", mode, rootedness) == want


def test_snapshot_then_append(tmp_path):
    first = os.path.join(GOLDEN, "nni_rooted_first.nwk")
    second = os.path.join(GOLDEN, "nni_rooted_second.nwk")
    common = ["--mode", "nni", "--rooted"]
    one = str(tmp_path / "one.snap")
    assert digests(tmp_path, "g1", first, *common, "--snapshot", one) == {
        "g1.tsv": "c978d16677930d23d5b6193704b47aa5fbc5f910001ad35e60a723338fe0b235",
        "g1.vertices.tsv": "71cc97f738e95cf2478953e80ce18b341b058516988ba5ba3a68a23cead92720",
        "one.snap": "8f7f355714ae91bba268654d25e38ca5632d1914c3979d88fc5cfb7e42787ea9",
    }
    two = str(tmp_path / "two.snap")
    assert digests(tmp_path, "g2", second, *common, "--append", one, "--snapshot", two) == {
        "g2.tsv": "11fad7900ca1c7b8e86652b4796c0cfc50e95c2fe75fe90a261ad126c58b6ea2",
        "g2.vertices.tsv": "9f7c1468b148cad71a2f8af68c86bf0b098187e77783032a44d528fee0a40db2",
        "two.snap": "7da5f1bdc7047b9eaa42d62aed467759e3315117c5527cea48b95567efd0c9dd",
    }


# Snapshots written by the earlier NNI build, which counted shared forests:
# spr_rooted_first.snap by `build nni_rooted_first.nwk --mode spr --rooted
# --snapshot`, and nni_unrooted_head.snap by `build --mode nni --unrooted
# --snapshot` over the first 15 lines of nni_unrooted.nwk. An NNI build
# appending the rest must write what that build wrote, byte for byte.
@pytest.mark.parametrize(
    "snap, source, first_line, rootedness, want",
    [
        ("spr_rooted_first.snap", "nni_rooted_second.nwk", 1, "--rooted", {
            "g.tsv": "11fad7900ca1c7b8e86652b4796c0cfc50e95c2fe75fe90a261ad126c58b6ea2",
            "g.vertices.tsv": "9f7c1468b148cad71a2f8af68c86bf0b098187e77783032a44d528fee0a40db2",
            "g.snap": "7da5f1bdc7047b9eaa42d62aed467759e3315117c5527cea48b95567efd0c9dd",
        }),
        ("nni_unrooted_head.snap", "nni_unrooted.nwk", 16, "--unrooted", {
            "g.tsv": "5ee33e46a2f45c9ba161b3b87107782933fb4d8a4c20b99105765f8db9ee3161",
            "g.vertices.tsv": "b03d74c37a77e72bf5e30c85c420b1a4fbebda064ea6ed1dbf3378dfe0958c79",
            "g.snap": "95e1a77a06dac824ae7d763f4d807f5da1cf962ce0cfbab71ce427b75899c758",
        }),
    ],
)
def test_nni_append_to_earlier_snapshot(tmp_path, snap, source, first_line, rootedness, want):
    with open(os.path.join(GOLDEN, source), encoding="ascii") as fh:
        rest = fh.readlines()[first_line - 1 :]
    (tmp_path / "rest.nwk").write_text("".join(rest), encoding="ascii")
    argv = [str(tmp_path / "rest.nwk"), "--mode", "nni", rootedness,
            "--append", os.path.join(GOLDEN, snap), "--snapshot", str(tmp_path / "g.snap")]
    assert digests(tmp_path, "g", *argv) == want


def test_rooted_snapshot_refused_by_unrooted_nni(tmp_path, capsys):
    rest = tmp_path / "rest.nwk"
    rest.write_text("(1,2,(3,4));\n", encoding="ascii")
    snap = os.path.join(GOLDEN, "spr_rooted_first.snap")
    argv = ["build", str(rest), "--mode", "nni", "--unrooted", "--out", str(tmp_path / "g.tsv"),
            "--append", snap]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == (
        f"error: {snap}:1: snapshot mode rspr does not fit unrooted nni\n"
    )
    assert os.listdir(tmp_path) == ["rest.nwk"]
