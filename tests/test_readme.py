"""The library example in README.md runs as written, and its method lists parse."""

import re
from pathlib import Path

import numpy as np
import pytest

from rankshap import Document, serialize_letor
from rankshap.evaluation import parse_methods
from rankshap.talent import FEATURE_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    rng = np.random.default_rng(0)
    docs = [
        Document(query_id=f"q{q}", doc_index=i, features=rng.normal(size=5), relevance=0)
        for q in range(2)
        for i in range(6)
    ]
    (tmp_path / "data.txt").write_text("\n".join(map(serialize_letor, docs)) + "\n")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    attr = namespace["attr"]
    assert attr.n == 5
    # Kendall tau of the unmasked list is 1, and the kernel fit is efficient.
    assert attr.base_value + attr.values.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(capsys.readouterr().out.splitlines()) >= 2


def test_readme_method_lists_parse():
    bash = "".join(re.findall(r"```bash\n(.*?)```", README.read_text(), flags=re.S))
    commands = [
        line.split() for line in bash.replace("\\\n", " ").splitlines()
        if line.startswith("rankshap ")
    ]
    lists = [(words[1], words[words.index("--methods") + 1])
             for words in commands if "--methods" in words]
    assert {command for command, _ in lists} == {"evaluate", "synthetic"}
    for command, value in lists:
        if command == "synthetic":
            parse_methods(value.split(","), len(FEATURE_NAMES), evaluate=False)
        else:
            # The width of the README's five-feature data example.
            parse_methods(value.split(","), 5)
