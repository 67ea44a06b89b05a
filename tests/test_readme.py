"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    (tmp_path / "trees.nwk").write_text(
        "(((4,5),1),(2,3));\n((((4,5),2),3),1);\n(1,(2,((4,5),3)));\n((1,2),((4,5),3));\n"
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
