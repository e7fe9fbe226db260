"""The package's dependencies are numpy and the standard library: importing
the command line in a fresh interpreter loads no other top-level module."""

import os
import subprocess
import sys
from pathlib import Path

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
