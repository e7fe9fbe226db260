"""The python code blocks of README.md and PAPER.md, and the command
lines and example config of README's command-line section, run as
written, so a signature change or a renamed key or command cannot leave
them stale."""

import re
import shlex
from pathlib import Path

import pytest

from fwexact.cli import main

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


_SECTION = re.compile(r"^## Command line\n(.*?)^## ", re.MULTILINE | re.DOTALL)
_FENCE = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)
COMMAND_SECTION = _SECTION.search((ROOT / "README.md").read_text(encoding="utf-8")).group(1)
FENCES = _FENCE.findall(COMMAND_SECTION)
COMMANDS = [
    line
    for language, body in FENCES
    if language == "sh"
    for line in re.sub(r"\s*\\\n\s*", " ", body).splitlines()
    if line.startswith("fwexact ")
]


def test_command_section_has_commands_and_a_config():
    assert len(COMMANDS) >= 4
    assert [language for language, _ in FENCES].count("json") == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_example_config_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (config,) = [body for language, body in FENCES if language == "json"]
    (tmp_path / "config.json").write_text(config, encoding="utf-8")
    assert main(["transform", "--config", "config.json"]) == 0
