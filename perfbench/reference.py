"""Reference numbers taken once per traced run, outside the workloads.

* ``linalg.eigh_floor_ratio.side512``: the side-512 ``transform`` time
  divided by one ``eigh`` of the same H, the physics floor the ROADMAP
  sets for one Hamiltonian;
* ``transform.side1024_ref_s``: one side-1024 ``transform``, traced so
  that its decomposition counts sit next to the ROADMAP's figures;
* ``linalg.blas_parallel_efficiency.side512``: t(1 thread) divided by
  threads * t(threads) for the side-512 ``transform``.  The one-thread
  time comes from a child interpreter started with the BLAS thread count
  set to 1, because OpenBLAS fixes its thread count at load time.

Run as a script, this module times one ``dirac_1d`` transform and prints
``{"rc": ..., "seconds": ...}``; that is the child interpreter's job::

    python3 perfbench/reference.py --n 128 --v1 0.2 --workdir perfbench/out/ref
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: ROADMAP's stage-chain figures at side 1024 (transform_stationary ->
#: generator_from_lambda -> verify_exp_equivalence, called directly).
ROADMAP_SIDE1024 = {"seconds": 23.0, "eigh_calls": 12, "svd_calls": 6}


def time_transform(n: int, v1: float, workdir: Path) -> tuple:
    """Time one transform at grid size n; returns the operation, its
    seconds and its checked outcome."""
    from workloads import Op, check, run_cli

    op = Op(f"reference.side{4 * n}", "transform", "dirac_1d", {"m": 1.0, "N": n, "V1": v1})
    rc, seconds, stderr = run_cli(op.argv(workdir))
    return op, seconds, check(op, rc, stderr, workdir)


def _one_thread_seconds(root: Path, n: int, v1: float, workdir: Path) -> float:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--n", str(n), "--v1", repr(v1),
         "--workdir", str(workdir)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"one-thread reference failed: {child.stderr.strip()}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    if result["rc"] != 0:
        raise RuntimeError(f"one-thread reference transform exited {result['rc']}")
    return float(result["seconds"])


def take(root: Path, workdir: Path, v1: float, threads: int) -> tuple[dict, dict, list]:
    """Measure the three reference numbers.

    Returns the metrics, the details for the results file and the
    reference transforms as (operation, seconds, outcome), checked like
    any other operation.
    """
    import numpy as np

    from fwexact.models import ModelSpec
    from spantrace import Tracer

    ref_ops = [time_transform(128, v1, workdir)]
    t512 = ref_ops[0][1]
    h = ModelSpec("dirac_1d", {"m": 1.0, "N": 128, "V1": v1}).build().total.data
    eigh_times = []
    for _ in range(3):
        start = time.perf_counter()
        np.linalg.eigh(h)
        eigh_times.append(time.perf_counter() - start)
    t_eigh = statistics.median(eigh_times)
    t512_one = _one_thread_seconds(root, 128, v1, workdir / "one-thread")

    tracer = Tracer()
    with tracer.active(), tracer.span("op.reference.side1024"):
        ref_ops.append(time_transform(256, v1, workdir))
    t1024 = ref_ops[1][1]
    counts = tracer.aggregate()

    def calls(name: str) -> int:
        return int(counts.get(name, {}).get("calls", 0))

    metrics = {
        "linalg.eigh_floor_ratio.side512": (t512 / t_eigh, "ratio"),
        "transform.side1024_ref_s": (t1024, "s"),
        "linalg.blas_parallel_efficiency.side512": (t512_one / (threads * t512), "ratio"),
        "transform.side1024_ref.eigh.calls": (calls("linalg.eigh"), "count"),
        "transform.side1024_ref.spectral_norm.calls": (calls("linalg.spectral_norm"), "count"),
    }
    details = {
        "v1": v1,
        "transform_side512_s": t512,
        "eigh_side512_s": eigh_times,
        "transform_side512_one_thread_s": t512_one,
        "threads": threads,
        "transform_side1024_s": t1024,
        "side1024_counts": {
            name: {"calls": entry["calls"], "incl_s": entry["incl_s"]}
            for name, entry in sorted(counts.items())
            if name.startswith("linalg.")
        },
        "roadmap_side1024": ROADMAP_SIDE1024,
        "cross_check": (
            f"side 1024 through cli.main: {t1024:.1f} s, {calls('linalg.eigh')} eigh, "
            f"{calls('linalg.spectral_norm')} spectral norms (one SVD each); ROADMAP "
            f"stage chain: ~{ROADMAP_SIDE1024['seconds']:.0f} s, "
            f"{ROADMAP_SIDE1024['eigh_calls']} eigh, {ROADMAP_SIDE1024['svd_calls']} SVD; "
            f"difference {t1024 - ROADMAP_SIDE1024['seconds']:+.1f} s, "
            f"{calls('linalg.eigh') - ROADMAP_SIDE1024['eigh_calls']:+d} eigh, "
            f"{calls('linalg.spectral_norm') - ROADMAP_SIDE1024['svd_calls']:+d} SVD "
            "(recorded, not adjusted)"
        ),
    }
    return metrics, details, ref_ops


def _main() -> int:
    parser = argparse.ArgumentParser(description="time one dirac_1d transform")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--v1", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    args.workdir.mkdir(parents=True, exist_ok=True)
    time_transform(32, args.v1, args.workdir)  # warm-up
    _op, seconds, outcome = time_transform(args.n, args.v1, args.workdir)
    print(json.dumps({"rc": 0 if outcome.status == "pass" else 1, "seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
