"""Tests of the benchmark itself: seeded inputs, names, output checks and
the removal of the trace wrappers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import fwexact  # noqa: E402
import run  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cycles(workload: str, seed: int, count: int = 3) -> list:
    inputs = workloads.Inputs(workload, seed)
    return [inputs.next_cycle() for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first, again, other = _cycles(workload, 7), _cycles(workload, 7), _cycles(workload, 8)
    assert first == again
    assert first != other
    argv = [op.argv(Path("w")) for cycle in first for op in cycle]
    assert argv == [op.argv(Path("w")) for cycle in again for op in cycle]


def test_names_match_pattern_and_declarations():
    workload_names = [w["name"] for w in SPEC["workloads"]]
    metric_names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    kinds = {op.kind for w in workload_names for cycle in _cycles(w, 1, 1) for op in cycle}
    names = workload_names + metric_names + sorted(kinds)
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(workload_names + metric_names) == len(set(workload_names + metric_names))
    assert workload_names == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def _bindings() -> dict:
    """Every attribute the tracer may patch, by owner and name."""
    owners = [sys.modules[f"fwexact.{layer}"] for layer in spantrace.LAYERS]
    owners += [fwexact, np.linalg, fwexact.models.ModelSpec, fwexact.blockop.SplitHamiltonian]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_trace_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = _bindings()
    op = workloads.Op("sweep.free_dirac", "sweep", "free_dirac", {"m": 1.0},
                      sweep=("pz", (0.5, 1.5)))
    tracer = spantrace.Tracer()
    with tracer.active():
        assert np.linalg.eigh is not before[(id(np.linalg), "eigh")]
        assert fwexact.eriksen.sign_of is not before[(id(fwexact.eriksen), "sign_of")]
        rc, _seconds, _err = workloads.run_cli(op.argv(tmp_path))
    assert rc == 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    names = set(tracer.names)
    assert {"cli.main", "models.build", "blockop.validate", "linalg.eigh",
            "matfun.decompose.hermitian", "linalg.spectral_norm"} <= names
    # the untraced call records nothing
    count = len(tracer.spans)
    assert workloads.run_cli(op.argv(tmp_path))[0] == 0
    assert len(tracer.spans) == count


def test_wrappers_are_removed_when_the_traced_call_raises():
    before = _bindings()
    tracer = spantrace.Tracer()
    with pytest.raises(ZeroDivisionError), tracer.active():
        1 / 0
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_is_span_minus_children():
    tracer = spantrace.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    agg = tracer.aggregate()
    assert agg["inner"]["calls"] == 2
    outer = agg["outer"]
    assert outer["self_s"] == pytest.approx(outer["incl_s"] - agg["inner"]["incl_s"], abs=1e-12)
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1


def _run_and_check(op: workloads.Op, workdir: Path) -> workloads.Outcome:
    rc, _seconds, stderr = workloads.run_cli(op.argv(workdir))
    return workloads.check(op, rc, stderr, workdir)


def test_known_failures_are_recognised_and_counted(tmp_path):
    cycle = _cycles("small-batch", 3, 1)[0]
    fv = next(op for op in cycle if op.known == "fv-clamp")
    outcome = _run_and_check(fv, tmp_path)
    assert (outcome.status, outcome.points) == ("known", workloads.SWEEP_POINTS)
    fold = _cycles("floquet-decay", 3, 1)[0][-1]
    assert _run_and_check(fold, tmp_path).status == "known"


def test_checks_catch_a_corrupted_sweep_table(tmp_path):
    op = workloads.Op("sweep.free_dirac", "sweep", "free_dirac", {"m": 1.0},
                      sweep=("pz", (0.5, 1.5)))
    rc, _seconds, stderr = workloads.run_cli(op.argv(tmp_path))
    assert workloads.check(op, rc, stderr, tmp_path).status == "pass"
    table = tmp_path / "sweep.free_dirac.csv"
    lines = table.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)  # dispersion column
    lines[1] = ",".join(fields)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outcome = workloads.check(op, rc, stderr, tmp_path)
    assert outcome.status == "fail" and "closed form" in outcome.message


def test_checks_catch_a_corrupted_dump(tmp_path):
    op = workloads.Op("dump.transform", "transform", "dirac_1d",
                      {"m": 1.0, "N": 8, "V1": 0.2}, dump=True)
    rc, _seconds, stderr = workloads.run_cli(op.argv(tmp_path))
    assert workloads.check(op, rc, stderr, tmp_path).status == "pass"
    h_fw = fwexact.cli.load_matrix(tmp_path / "dumps" / "h_fw.csv")
    fwexact.cli.dump_matrix(h_fw.like(h_fw.data * (1 + 1e-8)), tmp_path / "dumps" / "h_fw.csv")
    outcome = workloads.check(op, rc, stderr, tmp_path)
    assert outcome.status == "fail" and "h_fw" in outcome.message


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
