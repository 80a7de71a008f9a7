"""The library example in README.md runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

from rankshap import Document, serialize_letor

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
