"""Seeded workloads, the operations they run and the checks on their outputs.

An operation is one ``fwexact`` command line, run in-process through
``fwexact.cli.main``.  A workload is an endless sequence of *cycles*; a
cycle is a fixed list of operations whose parameters are drawn from the
workload's seeded generator, so the same seed gives the same inputs.

Outputs are checked after each operation, outside its timed region, from
the report files the command wrote.  The checks do not rely on the
program's own verdicts: they hold each diagnostic against the tolerance
the benchmark itself assigns to it, recompute closed forms, and rebuild
operators from dumped matrices.

An operation ends in one of three outcomes:

* ``pass``: exit code 0 and every check holds;
* ``known``: one of the documented failures in :data:`KNOWN_FAILURES`,
  recognised by its exit code and signature, with every other check
  holding.  It counts as a failed operation in ``failed_share``;
* ``fail``: anything else.  It makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fwexact import cli
from fwexact.cli import load_matrix
from fwexact.models import ModelSpec

WORKLOADS = ("stationary-ladder", "floquet-decay", "small-batch")

#: Each workload's heaviest and lightest operation kind, timed as
#: ``large_op_s`` and ``small_op_s``.  For small-batch the light figure is
#: the sweep time per table row.
LARGE_OP = {
    "stationary-ladder": "transform.side512",
    "floquet-decay": "floquet.decay",
    "small-batch": "dump.transform",
}
SMALL_OP = {
    "stationary-ladder": "transform.side128",
    "floquet-decay": "floquet.transform",
    "small-batch": "sweep.point",
}

#: Documented failures of the program that the benchmark expects, counts
#: in ``failed_share`` and does not filter out.
KNOWN_FAILURES = {
    "fv-clamp": (
        "feshbach_villars sweeps exit 4 once p passes about 2.2: clamp_excess "
        "takes ||M||_2 instead of the spectral radius of the non-normal "
        "doubling argument M, so the eps_clamp verdict fails although no clamp "
        "runs (excess 0.16 at p=2.5)"
    ),
    "floquet-fold": (
        "floquet_dirac_vector at omega=0.08 with nf=16 folds the Floquet ladder "
        "past the gap (nf*omega=1.28 > E): exit 4, 'eriksen denominator degenerate'"
    ),
}

#: The tolerance each bounded diagnostic is held to.  Diagnostics not
#: listed are informational.
BOUNDS = {
    "odd_norm": "tol_identity",
    "unitarity_defect": "tol_identity",
    "pseudo_unitarity_defect": "tol_identity",
    "eriksen_defect": "tol_identity",
    "lambda_sq_defect": "tol_identity",
    "sign_products_commute_defect": "tol_identity",
    "anticommutator_even_defect": "tol_identity",
    "alt_form_defect": "tol_identity",
    "spectrum_defect": "tol_identity",
    "oddness_defect": "tol_identity",
    "hermiticity_defect": "tol_identity",
    "sin2s_defect": "tol_identity",
    "cos2s_defect": "tol_identity",
    "denominator_commutator_defect": "tol_identity",
    "form_agreement_defect": "tol_generator",
    "exp_equivalence_defect": "tol_generator",
    "clamp_excess": "eps_clamp",
    "mass_even_defect": "tol_struct",
    "even_defect": "tol_struct",
    "odd_defect": "tol_struct",
    "self_adjoint_defect": "tol_struct",
}
#: beta U = U^dag beta holds only in the Hermitian metric; the bosonic
#: (beta-pseudo) models are held to pseudo_unitarity_defect instead.
_PSEUDO_EXEMPT = {"eriksen_defect"}
_PSEUDO_MODELS = {"feshbach_villars"}
#: Diagnostics every transform report must carry.
_REQUIRED = ("odd_norm", "unitarity_defect", "exp_equivalence_defect")

LADDER_N = (32, 64, 128)
SWEEP_POINTS = 50
FLOQUET_OMEGA = 0.03
DECAY_NF = (8, 16, 24, 32)
FLOQUET_WINDOW = 6
FLOQUET_TRANSFORM_NF = 24
FOLD_OMEGA = 0.08
FOLD_NF = (8, 16)
DUMP_N = 32


@dataclass(frozen=True)
class Op:
    """One command line: the command, the model and its generated inputs."""

    kind: str
    command: str
    model: str
    params: dict
    floquet_nf: tuple[int, ...] = ()
    sweep: tuple[str, tuple[float, ...]] | None = None
    dump: bool = False
    known: str | None = None

    def argv(self, workdir: Path) -> list[str]:
        args = [self.command, "--set", f"model.name={self.model}"]
        for key, value in self.params.items():
            args += ["--set", f"model.params.{key}={value!r}"]
        if self.sweep is not None:
            parameter, values = self.sweep
            args += ["--set", f"sweep.parameter={parameter}"]
            args += ["--set", "sweep.values=" + json.dumps(list(values))]
        if self.floquet_nf:
            args += ["--set", "floquet.nf=" + json.dumps(list(self.floquet_nf))]
        if self.command == "floquet":
            args += ["--set", f"floquet.window={FLOQUET_WINDOW}"]
        args += ["--report", str(self.report_path(workdir))]
        if self.dump:
            args += ["--dump", "--set", f"output.dump_dir={workdir / 'dumps'}"]
        return args

    def report_path(self, workdir: Path) -> Path:
        return workdir / f"{self.kind}.json"


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _vector_drive(rng: np.random.Generator, omega: float) -> dict:
    return {"m": 1.0, "pz": _uniform(rng, 0.4, 0.6), "A1": _uniform(rng, 0.1, 0.3),
            "omega": omega}


def _ladder_cycle(rng: np.random.Generator) -> list[Op]:
    return [
        Op(f"transform.side{4 * n}", "transform", "dirac_1d",
           {"m": 1.0, "N": n, "V1": _uniform(rng, 0.1, 0.3)})
        for n in LADDER_N
    ]


def _floquet_cycle(rng: np.random.Generator) -> list[Op]:
    # eight operations: decay tables alternating with transforms, and the
    # fold point as the eighth
    ops: list[Op] = []
    for i in range(7):
        params = _vector_drive(rng, FLOQUET_OMEGA)
        if i % 2 == 0:
            ops.append(Op("floquet.decay", "floquet", "floquet_dirac_vector",
                          params, DECAY_NF))
        else:
            ops.append(Op("floquet.transform", "transform", "floquet_dirac_vector",
                          params, (FLOQUET_TRANSFORM_NF,)))
    ops.append(Op("floquet.fold", "floquet", "floquet_dirac_vector",
                  _vector_drive(rng, FOLD_OMEGA), FOLD_NF, known="floquet-fold"))
    return ops


def _sweep_values(rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(v) for v in rng.uniform(0.05, 4.0, SWEEP_POINTS))


def _small_batch_cycle(rng: np.random.Generator) -> list[Op]:
    return [
        Op("sweep.free_dirac", "sweep", "free_dirac", {"m": 1.0},
           sweep=("pz", _sweep_values(rng))),
        Op("sweep.feshbach_villars", "sweep", "feshbach_villars", {"m": 1.0},
           sweep=("p", _sweep_values(rng)), known="fv-clamp"),
        Op("dump.transform", "transform", "dirac_1d",
           {"m": 1.0, "N": DUMP_N, "V1": _uniform(rng, 0.1, 0.3)}, dump=True),
    ]


_CYCLES = {
    "stationary-ladder": _ladder_cycle,
    "floquet-decay": _floquet_cycle,
    "small-batch": _small_batch_cycle,
}

#: Matrix sides each workload's operations run at.
SIDES = {
    "stationary-ladder": [4 * n for n in LADDER_N],
    "floquet-decay": sorted({4 * (2 * nf + 1) for nf in (*DECAY_NF, FLOQUET_TRANSFORM_NF, *FOLD_NF)}),
    "small-batch": [2, 4, 4 * DUMP_N],
}


class Inputs:
    """The seeded source of a workload's cycles."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in _CYCLES:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
        self._make = _CYCLES[workload]
        self._rng = np.random.default_rng(seed)

    def next_cycle(self) -> list[Op]:
        return self._make(self._rng)


def warmup_ops(workload: str) -> list[Op]:
    """A few small untimed operations that load code paths and thread pools."""
    rng = np.random.default_rng(0)
    if workload == "stationary-ladder":
        return _ladder_cycle(rng)[:1]
    if workload == "floquet-decay":
        return _floquet_cycle(rng)[:2]
    return _small_batch_cycle(rng)


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one command through ``fwexact.cli.main`` in this process.

    Returns the exit code, the wall time of the call and what it wrote
    to standard error.  ``cli.main`` is looked up at call time, so a
    traced run reaches the wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an error the command line does not map
            rc = -1
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return rc, seconds, err.getvalue()


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Outcome:
    status: str  # "pass", "known" or "fail"
    message: str = ""
    points: int = 0  # table rows written (sweeps)
    dump_bytes: int = 0


class CheckError(Exception):
    """An output check did not hold."""


def _read_report(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"report {path.name} unreadable: {exc}") from exc


def _breaches(report: dict, model: str) -> list[str]:
    """Bounded diagnostics above the tolerance the benchmark assigns them."""
    tolerances = report["config"]["tolerances"]
    diagnostics = report["diagnostics"]
    out = []
    for name, value in sorted(diagnostics.items()):
        bound = BOUNDS.get(name)
        if bound is None or (model in _PSEUDO_MODELS and name in _PSEUDO_EXEMPT):
            continue
        if not value <= tolerances[bound]:
            out.append(name)
    return out


def _check_echo(op: Op, report: dict) -> None:
    echoed = report["config"]["model"]
    if echoed["name"] != op.model or echoed["params"] != op.params:
        raise CheckError(f"config echo {echoed} differs from the generated inputs")
    if op.sweep is not None:
        sweep = report["config"]["sweep"]
        if sweep["parameter"] != op.sweep[0] or tuple(sweep["values"]) != op.sweep[1]:
            raise CheckError("sweep echo differs from the generated values")


def _check_transform(op: Op, report: dict) -> None:
    missing = [k for k in _REQUIRED if k not in report["diagnostics"]]
    if missing:
        raise CheckError(f"report lacks diagnostics {missing}")
    breaches = _breaches(report, op.model)
    if breaches:
        raise CheckError(f"diagnostics above tolerance: {breaches}")


def _check_dump(op: Op, report: dict) -> int:
    files = {Path(p).stem: Path(p) for p in report["matrix_dumps"]}
    if not {"u", "h_fw"} <= files.keys():
        raise CheckError(f"dumps {sorted(files)} lack u or h_fw")
    u = load_matrix(files["u"]).data
    h_fw = load_matrix(files["h_fw"]).data
    h = ModelSpec(op.model, op.params).build().total.data
    defect = float(np.linalg.norm(u @ h @ u.conj().T - h_fw) / np.linalg.norm(h_fw))
    tol = report["config"]["tolerances"]["tol_identity"]
    if not defect <= tol:
        raise CheckError(f"u H u^dag differs from dumped h_fw by {defect:.3e} > {tol:.1e}")
    return sum(path.stat().st_size for path in files.values())


def _check_floquet(op: Op, report: dict) -> None:
    floquet = report["floquet"]
    tol = report["config"]["tolerances"]["tol_identity"]
    lam, naive = floquet["odd_norm_lambda"], floquet["odd_norm_lambda_naive"]
    if not lam <= tol:
        raise CheckError(f"odd_norm_lambda {lam:.3e} > tol_identity {tol:.1e}")
    if not naive > 10.0 * lam:
        raise CheckError(f"naive odd norm {naive:.3e} not above 10x Lambda's {lam:.3e}")
    orders = [n for n, _ in floquet["decay_table"]]
    if orders != list(op.floquet_nf):
        raise CheckError(f"decay table orders {orders} != {list(op.floquet_nf)}")


def _check_sweep(op: Op, report: dict) -> int:
    tables = report.get("tables") or []
    if len(tables) != 1:
        raise CheckError(f"sweep report lists tables {tables}")
    with open(tables[0], newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    _parameter, values = op.sweep
    if [float(r["value"]) for r in rows] != list(values):
        raise CheckError("sweep table values differ from the generated points")
    m = float(op.params["m"])
    tol = report["config"]["tolerances"]["tol_identity"]
    for row in rows:
        exact = math.sqrt(m * m + float(row["value"]) ** 2)
        error = abs(float(row["dispersion"]) - exact)
        if not error <= tol:
            raise CheckError(
                f"dispersion at {row['value']} off the closed form by {error:.3e}"
            )
    return len(rows)


def check(op: Op, rc: int, stderr: str, workdir: Path) -> Outcome:
    """Classify one finished operation from its exit code and outputs."""
    try:
        if op.known == "floquet-fold" and rc == 4:
            if "eriksen denominator degenerate" in stderr:
                return Outcome("known", KNOWN_FAILURES["floquet-fold"])
            raise CheckError(f"exit 4 without the fold signature: {stderr.strip()}")
        if rc not in (0, 4):
            raise CheckError(f"exit {rc}: {stderr.strip()}")
        report = _read_report(op.report_path(workdir))
        _check_echo(op, report)
        if op.command == "floquet":
            _check_floquet(op, report)
            outcome = Outcome("pass")
        elif op.command == "sweep":
            points = _check_sweep(op, report)
            breaches = _breaches(report, op.model)
            if op.known == "fv-clamp" and rc == 4 and breaches == ["clamp_excess"]:
                outcome = Outcome("known", KNOWN_FAILURES["fv-clamp"], points=points)
            elif breaches:
                raise CheckError(f"diagnostics above tolerance: {breaches}")
            else:
                outcome = Outcome("pass", points=points)
        else:
            _check_transform(op, report)
            outcome = Outcome("pass")
            if op.dump:
                outcome.dump_bytes = _check_dump(op, report)
        if outcome.status == "pass" and rc != 0:
            raise CheckError(f"exit {rc} although every check holds: {stderr.strip()}")
        return outcome
    except CheckError as exc:
        return Outcome("fail", str(exc))
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return Outcome("fail", f"malformed output: {type(exc).__name__}: {exc}")
