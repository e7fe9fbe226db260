"""The python code blocks of README.md and PAPER.md run as written, so a
signature change cannot leave them stale."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

BLOCKS = [
    pytest.param(code, id=f"{name}-{i}")
    for name in ("README.md", "PAPER.md")
    for i, code in enumerate(_BLOCK.findall((ROOT / name).read_text(encoding="utf-8")))
]


def test_each_document_has_python_blocks():
    assert {param.id.split("-")[0] for param in BLOCKS} == {"README.md", "PAPER.md"}


@pytest.mark.parametrize("code", BLOCKS)
def test_python_block_runs(code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "<doc>", "exec"), {"__name__": "__doc_block__"})
