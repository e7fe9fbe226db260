"""fwexact benchmark: drives ``fwexact.cli.main`` the way a user runs
``fwexact transform | sweep | floquet``, on one seeded workload.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload stationary-ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced cycles of the same inputs,
prints the per-layer metrics (per traced cycle) and the tracing overhead,
then takes the reference numbers (see ``reference.py``).  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A results file
with provenance, per-operation timing tables and check outcomes is
written to ``perfbench/out/``.

The benchmark sets the BLAS thread count of its own process to the number
of usable cores before numpy is loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 15
WORKLOADS = ("stationary-ladder", "floquet-decay", "small-batch")
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
    "cycle_s": "s",
    "large_op_s": "s",
    "small_op_s": "s",
}

#: Per-layer metrics (``--trace 1``): name -> (span name, quantity, unit).
#: Quantities are per traced cycle: "calls", "incl_s" (inclusive time),
#: "self_s" (time minus traced children) or "work" (sum of side**3).
SPAN_METRICS = {
    "linalg.eigh.calls": ("linalg.eigh", "calls", "count"),
    "linalg.eigh_s": ("linalg.eigh", "incl_s", "s"),
    "linalg.eigh.work_n3": ("linalg.eigh", "work", "count"),
    "linalg.eig.calls": ("linalg.eig", "calls", "count"),
    "linalg.eig_s": ("linalg.eig", "incl_s", "s"),
    "linalg.eigvalsh.calls": ("linalg.eigvalsh", "calls", "count"),
    "linalg.spectral_norm.calls": ("linalg.spectral_norm", "calls", "count"),
    "linalg.spectral_norm_s": ("linalg.spectral_norm", "incl_s", "s"),
    "matfun.decompose.hermitian.calls": ("matfun.decompose.hermitian", "calls", "count"),
    "matfun.decompose.general.calls": ("matfun.decompose.general", "calls", "count"),
    "matfun.sign_of_s": ("matfun.sign_of", "incl_s", "s"),
    "matfun.inv_sqrt_spd_s": ("matfun.inv_sqrt_spd", "incl_s", "s"),
    "matfun.sqrt_spd_s": ("matfun.sqrt_spd", "incl_s", "s"),
    "matfun.arcsin_herm_s": ("matfun.arcsin_herm", "incl_s", "s"),
    "matfun.arcsin_general_s": ("matfun.arcsin_general", "incl_s", "s"),
    "matfun.exp_i_s": ("matfun.exp_i", "incl_s", "s"),
    "eriksen.transform_stationary.self_s": ("eriksen.transform_stationary", "self_s", "s"),
    "eriksen.eriksen_unitary_s": ("eriksen.eriksen_unitary", "incl_s", "s"),
    "eriksen.eriksen_unitary_alt_s": ("eriksen.eriksen_unitary_alt", "incl_s", "s"),
    "eriksen.verify_identities_s": ("eriksen.verify_eriksen_identities", "incl_s", "s"),
    "expgen.generator_from_lambda.self_s": ("expgen.generator_from_lambda", "self_s", "s"),
    "expgen.verify_exp_equivalence_s": ("expgen.verify_exp_equivalence", "incl_s", "s"),
    "floquet.build_extended_s": ("floquet.build_extended", "incl_s", "s"),
    "floquet.lambda_naive_s": ("floquet.lambda_naive", "incl_s", "s"),
    "floquet.lambda_capital_s": ("floquet.lambda_capital", "incl_s", "s"),
    "floquet.demonstrate_nonevenness.self_s": ("floquet.demonstrate_nonevenness", "self_s", "s"),
    "floquet.transform_nonstationary.self_s": ("floquet.transform_nonstationary", "self_s", "s"),
    "models.build_s": ("models.build", "incl_s", "s"),
    "blockop.validate_s": ("blockop.validate", "incl_s", "s"),
    "cli.dump_matrix_s": ("cli.dump_matrix", "incl_s", "s"),
}
#: Layers whose self times add up to a traced cycle (the "op" layer is the
#: benchmark's own span around each command).
LAYER_NAMES = ("cli", "models", "blockop", "matfun", "eriksen", "expgen", "floquet", "linalg")

PER_LAYER = {
    **{name: unit for name, (_span, _q, unit) in SPAN_METRICS.items()},
    "cli.main.self_s": "s",
    "cli.dump_bytes": "bytes",
    **{f"layer.{layer}.self_s": "s" for layer in LAYER_NAMES},
    "trace.untraced_cycle_s": "s",
    "trace.traced_cycle_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.accounted_share": "share",
    "linalg.eigh_floor_ratio.side512": "ratio",
    "transform.side1024_ref_s": "s",
    "linalg.blas_parallel_efficiency.side512": "ratio",
    "transform.side1024_ref.eigh.calls": "count",
    "transform.side1024_ref.spectral_norm.calls": "count",
}


def _quartiles(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _pin_blas_threads() -> int:
    threads = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _setup_seconds() -> list[float]:
    """Wall time of fresh interpreters importing fwexact.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", "import fwexact.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        samples.append(time.perf_counter() - start)
        if child.returncode != 0:
            raise RuntimeError(f"importing fwexact.cli failed: {child.stderr.strip()}")
    return samples


def _git_rev() -> str | None:
    """HEAD of the checkout's own .git directory, or None outside a git
    checkout.  Read directly so nothing outside the checkout is touched."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(workload: str, seed: int, threads: int) -> dict:
    import numpy as np

    blas: dict = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fwexact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    from workloads import SIDES

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_rev": _git_rev(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "workload": workload,
        "sides": SIDES[workload],
    }


class Recorder:
    """Timings and outcomes of the operations of one run."""

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self.cycles: list[float] = []

    def add(self, op, seconds: float, outcome) -> None:
        self.ops.append({"kind": op.kind, "seconds": seconds, "status": outcome.status,
                         "message": outcome.message, "points": outcome.points,
                         "dump_bytes": outcome.dump_bytes})

    def samples(self, kind: str) -> list[float]:
        """Timings of one operation kind, over the operations that passed.

        ``sweep.point`` is the sweep time per table row over every sweep
        that wrote its table, whatever its verdict.
        """
        if kind == "sweep.point":
            return [r["seconds"] / r["points"] for r in self.ops
                    if r["kind"].startswith("sweep.") and r["points"]]
        passed = [r["seconds"] for r in self.ops if r["kind"] == kind and r["status"] == "pass"]
        return passed or [r["seconds"] for r in self.ops if r["kind"] == kind]

    def table(self) -> dict:
        kinds = sorted({r["kind"] for r in self.ops})
        out = {}
        for kind in kinds:
            rows = [r for r in self.ops if r["kind"] == kind]
            out[f"{kind}_s"] = {
                **_quartiles(self.samples(kind)),
                "attempted": len(rows),
                "known_failures": sum(r["status"] == "known" for r in rows),
                "unexpected_failures": sum(r["status"] == "fail" for r in rows),
            }
        sweeps = [r for r in self.ops if r["kind"].startswith("sweep.") and r["points"]]
        if sweeps:
            out["sweep.points_per_s"] = _quartiles([r["points"] / r["seconds"] for r in sweeps])
        return out

    def counts(self) -> tuple[int, int, int]:
        passed = sum(r["status"] == "pass" for r in self.ops)
        unexpected = sum(r["status"] == "fail" for r in self.ops)
        return len(self.ops), passed, unexpected


def _run_cycle(ops, workdir: Path, recorder: Recorder, tracer=None) -> float:
    from workloads import check, run_cli

    total = 0.0
    for op in ops:
        argv = op.argv(workdir)
        if tracer is None:
            rc, seconds, stderr = run_cli(argv)
        else:
            with tracer.active(), tracer.span(f"op.{op.kind}"):
                rc, seconds, stderr = run_cli(argv)
        recorder.add(op, seconds, check(op, rc, stderr, workdir))
        total += seconds
    recorder.cycles.append(total)
    return total


def _layer_metrics(tracer, traced_cycles: int, untraced: list[float],
                   traced: list[float]) -> dict:
    agg = tracer.aggregate()
    per = 1.0 / max(traced_cycles, 1)
    metrics = {}
    for name, (span, quantity, unit) in SPAN_METRICS.items():
        metrics[name] = (agg.get(span, {}).get(quantity, 0) * per, unit)
    # main's own self time is argument parsing only; the commands, config
    # loading and report writing are cli spans of their own
    cli_self = sum(e["self_s"] for n, e in agg.items()
                   if n.startswith("cli.") and n != "cli.dump_matrix")
    metrics["cli.main.self_s"] = (cli_self * per, "s")
    layer_self = {layer: 0.0 for layer in LAYER_NAMES}
    for name, entry in agg.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    for layer, seconds in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = (seconds * per, "s")
    self_sum = sum(layer_self.values()) * per
    untraced_s = statistics.mean(untraced)
    traced_s = statistics.mean(traced)
    overhead = traced_s - untraced_s
    metrics["trace.untraced_cycle_s"] = (untraced_s, "s")
    metrics["trace.traced_cycle_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.accounted_share"] = ((self_sum - overhead) / untraced_s, "share")
    return metrics


_DECOMPOSITIONS = ("linalg.eigh", "linalg.eig", "linalg.eigvalsh", "linalg.spectral_norm")


def _decompositions_per_op(tracer) -> dict:
    """Mean decomposition counts per traced operation, by operation kind."""
    root: list[int] = []
    ops: dict[str, int] = {}
    counts: dict[str, dict[str, int]] = {}
    for row, (index, _start, _end, parent, _work) in enumerate(tracer.spans):
        root.append(row if parent < 0 else root[parent])
        name = tracer.names[index]
        if parent < 0:
            ops[name] = ops.get(name, 0) + 1
        elif name in _DECOMPOSITIONS:
            kind = counts.setdefault(tracer.names[tracer.spans[root[row]][0]], {})
            kind[name] = kind.get(name, 0) + 1
    return {op.removeprefix("op."): {name: counts.get(op, {}).get(name, 0) / n
                                     for name in _DECOMPOSITIONS}
            for op, n in sorted(ops.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "fwexact" / "cli.py").is_file():
        print(f"error: no fwexact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    setup = _setup_seconds() if not args.trace else []
    import fwexact.cli  # noqa: F401  (loaded here, before any timing)
    from spantrace import Tracer
    from workloads import KNOWN_FAILURES, LARGE_OP, SMALL_OP, Inputs, run_cli, warmup_ops

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for op in warmup_ops(args.workload):
        run_cli(op.argv(workdir))

    inputs = Inputs(args.workload, args.seed)
    recorder = Recorder()
    tracer = Tracer() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        ops = inputs.next_cycle()
        if tracer is None:
            _run_cycle(ops, workdir, recorder)
            continue
        # same inputs twice; alternate which side goes first
        first_traced = len(traced) % 2 == 1
        for use_trace in (first_traced, not first_traced):
            seconds = _run_cycle(ops, workdir, recorder, tracer if use_trace else None)
            (traced if use_trace else untraced).append(seconds)

    attempted, passed, unexpected = recorder.counts()
    details: dict = {}
    per_op: dict = {}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_share": (passed / attempted, "share"),
            "cycle_s": (statistics.median(recorder.cycles), "s"),
            "large_op_s": (statistics.median(recorder.samples(LARGE_OP[args.workload])), "s"),
            "small_op_s": (statistics.median(recorder.samples(SMALL_OP[args.workload])), "s"),
        }
    else:
        import numpy as np
        import reference

        metrics = _layer_metrics(tracer, len(traced), untraced, traced)
        metrics["cli.dump_bytes"] = (
            sum(r["dump_bytes"] for r in recorder.ops) / len(recorder.cycles), "bytes")
        tracer.write(OUT / f"spans-{tag}.json")
        per_op = _decompositions_per_op(tracer)
        v1 = float(np.random.default_rng([args.seed, 512]).uniform(0.1, 0.3))
        ref_metrics, details, ref_ops = reference.take(ROOT, workdir / "ref", v1, threads)
        metrics.update(ref_metrics)
        for op, seconds, outcome in ref_ops:
            recorder.add(op, seconds, outcome)
        attempted, passed, unexpected = recorder.counts()
    shutil.rmtree(workdir, ignore_errors=True)
    expected = END_TO_END if tracer is None else PER_LAYER
    if set(metrics) != set(expected) or any(expected[n] != u for n, (_v, u) in metrics.items()):
        raise RuntimeError(f"metric set differs from the declared one: {sorted(metrics)}")

    failures = [r for r in recorder.ops if r["status"] != "pass"]
    known = sorted({r["message"] for r in failures if r["status"] == "known"})
    results = {
        "provenance": _provenance(args.workload, args.seed, threads),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "setup_s_samples": setup,
        "ops": recorder.table(),
        "cycles": _quartiles(recorder.cycles),
        "attempted": attempted,
        "passed": passed,
        "failed_share": (attempted - passed) / attempted,
        "unexpected_failures": [r for r in failures if r["status"] == "fail"][:20],
        "known_failures": known,
        "known_failure_catalog": KNOWN_FAILURES,
        "decompositions_per_op": per_op,
        "reference": details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    results_path = OUT / f"results-{tag}.json"
    results_path.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    prov = results["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas {prov['blas'].get('name')} {prov['blas'].get('version')} x{threads}  "
          f"numpy {prov['numpy']}  python {prov['python']}  rev {prov['git_rev']}")
    for name, stats in results["ops"].items():
        if stats.get("n"):
            print(f"  {name:32s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                  f"q3 {stats['q3']:.6g}  n {stats['n']}")
    print(f"  failed_share {results['failed_share']:.4f} "
          f"({attempted - passed} of {attempted} operations)")
    for message in known:
        print(f"  known failure: {message}")
    for row in results["unexpected_failures"]:
        print(f"  UNEXPECTED {row['kind']}: {row['message']}")
    for kind, counts in per_op.items():
        print(f"  per {kind}: " + ", ".join(f"{n} {c:g}" for n, c in counts.items()))
    if details:
        print(f"  cross-check: {details['cross_check']}")
    print(f"  results written to {results_path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    line = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": unexpected,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
