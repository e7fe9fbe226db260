"""The package's dependencies are numpy and the standard library: importing
the command line in a fresh interpreter loads no other top-level module.
And every module uses each name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the fresh interpreter loaded before the import, and those it
#: loaded for it, by top-level name.
PROBE = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import fwexact.cli
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(" ".join(sorted(loaded)))
"""


def test_cli_import_loads_only_numpy_and_the_standard_library():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, check=True
    )
    loaded = set(run.stdout.split())
    assert {"fwexact", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"fwexact", "numpy"} == set()


def _imported_names(tree: ast.Module):
    """Each name the module binds by an import at top level or under
    ``if TYPE_CHECKING:`` (``from __future__`` binds none)."""
    statements = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            statements += node.body
    for node in statements:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize(
    "path",
    # __init__.py imports to re-export
    sorted(p for p in (SRC / "fwexact").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []
