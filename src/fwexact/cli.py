"""Command-line front end: model catalog, transforms, sweeps, reports.

Commands
--------
models list   print the model catalog (``--format json`` for machines)
transform     run the full transformation chain on one model
sweep         transform per parameter value (points of one shape built
              and transformed as one stack), CSV table of key numbers
floquet       compare the naive and extended sign operators

Each run command takes ``--config <json>``, repeated ``--set key=value``
dotted-path overrides and ``--report <path>``.  ``--dump`` (or
``output.dump``) writes the operator matrices of ``transform`` and is a
usage error for the other commands.  ``verify.routes`` (a JSON bool,
default false) makes ``transform`` and ``sweep`` run the cross-check
routes of :mod:`fwexact.verify` and report their diagnostics.  Reports
are JSON with schema_version "2" and are byte-identical across reruns
of the same configuration except for the timings block.  Exit codes:
0 all verdicts pass, 2 usage/config error, 3 spectral gap violation,
4 invariant or tolerance failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .blockop import BlockOperator, Metric, SplitHamiltonian, stack_splits
from .eriksen import FWResult, transform_stationary
from .errors import FwExactError, SpectralGapError, StructureError
from .floquet import demonstrate_nonevenness, transform_nonstationary
from .models import (
    MODEL_CATALOG,
    ModelSpec,
    TimePeriodicHamiltonian,
    check_parameter_names,
)
from .tolerances import Tolerances

SCHEMA_VERSION = "2"

#: Which tolerance bounds each diagnostic.  Keys absent here (or mapped
#: to None for the active metric) are informational: reported, verdict
#: always "pass".
_BOUND_BY_DIAGNOSTIC = {
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


class UsageError(Exception):
    """Bad command line or configuration; maps to exit code 2."""


#: The types a config list entry of each kind may have; ``--set key=1,2``
#: gives strings.  A bool is neither (bool is a subclass of int, hence
#: the exact type tests).
_ENTRY_TYPES = {int: (int, str), float: (int, float, str)}


def _list_entries(value: Any, key: str, kind: type) -> list:
    """The entries of the config list ``key`` as ``kind`` (int, or a
    finite float); a bare value (a number, a string) is a list of that
    one value."""
    entries = []
    for v in value if isinstance(value, list) else [value]:
        try:
            entry = kind(v) if type(v) in _ENTRY_TYPES[kind] else None
        except ValueError:
            entry = None
        if entry is None or not math.isfinite(entry):
            expected = "an integer" if kind is int else "a finite number"
            raise UsageError(f"{key} entry {v!r} is not {expected}")
        entries.append(entry)
    return entries


def _finite_number(value: Any, key: str) -> int | float:
    """``value`` unless it is not an int or a finite float (a bool is
    neither, hence the exact type tests)."""
    if type(value) is not int and (type(value) is not float or not math.isfinite(value)):
        raise UsageError(f"{key} {value!r} is not a finite number")
    return value


def _exactly(value: Any, key: str, kind: type) -> Any:
    """``value`` unless it is not of type ``kind`` (a JSON bool for bool,
    a JSON string for str)."""
    if type(value) is not kind:
        expected = "true or false" if kind is bool else "a string"
        raise UsageError(f"{key} {value!r} is not {expected}")
    return value


@dataclass
class RunConfig:
    model: ModelSpec
    tolerances: Tolerances = field(default_factory=Tolerances)
    report_path: Optional[str] = None
    dump: bool = False
    dump_dir: str = "dumps"
    sweep_parameter: Optional[str] = None
    sweep_values: tuple[float, ...] = ()
    floquet_nf: tuple[int, ...] = (4,)
    floquet_window: Optional[int] = None
    routes: bool = False

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        for section in ("model", "tolerances", "output", "sweep", "floquet", "verify"):
            if not isinstance(raw.get(section) or {}, dict):
                raise UsageError(f"{section} {raw[section]!r} is not a mapping")
        if "name" not in (raw.get("model") or {}):
            raise UsageError("config must contain model.name")
        params = raw["model"].get("params", {})
        if not isinstance(params, dict):
            raise UsageError(f"model.params {params!r} is not a mapping")
        for key, v in params.items():
            _finite_number(v, f"model.params.{key}")
        try:
            model = ModelSpec(_exactly(raw["model"]["name"], "model.name", str), params)
        except FwExactError as exc:
            raise UsageError(str(exc)) from exc
        bounds = raw.get("tolerances") or {}
        for key, v in bounds.items():
            _finite_number(v, f"tolerances.{key}")
        try:
            tolerances = Tolerances(**bounds)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad tolerances: {exc}") from exc
        output = raw.get("output") or {}
        report = output.get("report")
        if report is not None:  # null, as the echo writes it, is the default
            _exactly(report, "output.report", str)
        sweep = raw.get("sweep") or {}
        if sweep.get("parameter") is not None:
            _exactly(sweep["parameter"], "sweep.parameter", str)
            try:
                check_parameter_names(model.name, [sweep["parameter"]])
            except FwExactError as exc:
                raise UsageError(f"sweep.parameter: {exc}") from exc
        values = _list_entries(sweep.get("values", []), "sweep.values", float)
        if values and sweep.get("parameter") is None:
            raise UsageError("sweep.values given without sweep.parameter")
        verify = raw.get("verify") or {}
        floquet = raw.get("floquet") or {}
        nf_tuple = tuple(sorted(set(_list_entries(floquet.get("nf", [4]), "floquet.nf", int))))
        if any(n < 1 for n in nf_tuple):
            raise UsageError("floquet.nf entries must be >= 1")
        window = floquet.get("window")
        if window is not None and (type(window) is not int or window < 0):
            raise UsageError(f"floquet.window {window!r} is not an integer >= 0")
        return RunConfig(
            model=model,
            tolerances=tolerances,
            report_path=report,
            dump=_exactly(output.get("dump", False), "output.dump", bool),
            dump_dir=_exactly(output.get("dump_dir", "dumps"), "output.dump_dir", str),
            sweep_parameter=sweep.get("parameter"),
            sweep_values=tuple(values),
            floquet_nf=nf_tuple,
            floquet_window=window,
            routes=_exactly(verify.get("routes", False), "verify.routes", bool),
        )

    def echo(self) -> dict:
        return {
            "model": {"name": self.model.name, "params": dict(self.model.params)},
            "tolerances": {
                "tol_struct": self.tolerances.tol_struct,
                "tol_identity": self.tolerances.tol_identity,
                "tol_generator": self.tolerances.tol_generator,
                "gap_tol": self.tolerances.gap_tol,
                "eps_clamp": self.tolerances.eps_clamp,
            },
            "output": {
                "report": self.report_path,
                "dump": self.dump,
                "dump_dir": self.dump_dir,
            },
            "sweep": {
                "parameter": self.sweep_parameter,
                "values": list(self.sweep_values),
            },
            "floquet": {
                "nf": list(self.floquet_nf),
                "window": self.floquet_window,
            },
            "verify": {"routes": self.routes},
        }


def _parse_set(assignments: list[str]) -> dict:
    """Turn repeated ``key.path=value`` flags into a nested dict."""
    tree: dict = {}
    for item in assignments:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value: Any = json.loads(text)
        except json.JSONDecodeError as exc:
            if text.lstrip().startswith(("[", "{")):
                raise UsageError(f"--set {key}: {text!r} is not valid JSON: {exc}") from exc
            if "," in text:
                value = [p.strip() for p in text.split(",") if p.strip()]
            else:
                value = text
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise UsageError(f"--set path {key!r} collides with a scalar")
        node[parts[-1]] = value
    return tree


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def load_config(path: Optional[str], assignments: list[str]) -> RunConfig:
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config root must be a JSON object")
    raw = _merge(raw, _parse_set(assignments))
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# matrix dumps

_HEADER_RE = re.compile(
    r"#\s*rows=(\d+)\s+cols=(\d+)\s+internal_dim=(\d+)\s+floquet_copies=(\d+)"
)


def dump_matrix(a: BlockOperator, path: str | Path) -> Path:
    """Write a block operator as CSV with a shape header.

    Entries are ``re+imj`` with 17 significant digits, which round-trips
    IEEE doubles bit for bit.  Each row is one ``%`` format over its
    interleaved real and imaginary parts, written as it is formatted.
    """
    path = Path(path)
    row_format = ",".join(["%.17g%+.17gj"] * a.side) + "\n"
    interleaved = np.ascontiguousarray(a.data).view(np.float64)
    with path.open("w", encoding="utf-8") as out:
        out.write(
            f"# rows={a.side} cols={a.side} internal_dim={a.internal_dim} "
            f"floquet_copies={a.floquet_copies}\n"
        )
        out.writelines(row_format % tuple(row.tolist()) for row in interleaved)
    return path


def load_matrix(path: str | Path) -> BlockOperator:
    """Read a matrix dump back; inverse of :func:`dump_matrix`.

    A malformed dump raises UsageError naming the path and the
    (1-based) line.
    """
    lines = Path(path).read_text(encoding="utf-8").rstrip().splitlines()
    match = _HEADER_RE.match(lines[0]) if lines else None
    if match is None:
        raise UsageError(f"{path}: line 1: missing or malformed dump header")
    rows, cols, internal_dim, copies = (int(g) for g in match.groups())
    body = []
    for number, line in enumerate(lines[1:], start=2):
        entries = line.split(",")
        if len(entries) != cols:
            raise UsageError(
                f"{path}: line {number}: {len(entries)} entries, header says cols={cols}"
            )
        row = []
        for entry in entries:
            try:
                row.append(complex(entry))
            except ValueError:
                raise UsageError(
                    f"{path}: line {number}: {entry!r} is not a complex number"
                ) from None
        body.append(row)
    if len(body) != rows:
        raise UsageError(f"{path}: {len(body)} body rows, header says rows={rows}")
    try:
        return BlockOperator(np.array(body, dtype=complex), internal_dim, copies)
    except StructureError as exc:
        raise UsageError(f"{path}: line 1: {exc}") from exc


# ---------------------------------------------------------------------------
# report assembly


def _verdicts(
    diagnostics: dict[str, float], tolerances: Tolerances, metric: Metric
) -> dict[str, str]:
    out = {}
    for name in sorted(diagnostics):
        bound_name = _BOUND_BY_DIAGNOSTIC.get(name)
        if bound_name is None:
            out[name] = "pass"
            continue
        if name == "eriksen_defect" and metric is Metric.BETA_PSEUDO:
            # beta U = U^dag beta holds only for the Hermitian metric;
            # the bosonic analogue is pseudo_unitarity_defect.
            out[name] = "pass"
            continue
        bound = getattr(tolerances, bound_name)
        out[name] = "pass" if diagnostics[name] <= bound else "fail"
    return out


def _write_report(report: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _print_verdicts(diagnostics: dict[str, float], verdicts: dict[str, str]) -> None:
    for name in sorted(verdicts):
        value = diagnostics.get(name)
        shown = f"{value:.6e}" if isinstance(value, float) else "-"
        print(f"{verdicts[name].upper():4s} {name} = {shown}")


def _structural_defects(
    config: RunConfig, built: SplitHamiltonian | TimePeriodicHamiltonian
) -> dict[str, float]:
    """The structural defects of a stationary split, held to the
    configured tolerance (the split was validated when the model was
    built); none for a time-periodic model."""
    if isinstance(built, TimePeriodicHamiltonian):
        return {}
    return built.check(config.tolerances.tol_struct)


def _transform(
    config: RunConfig, built: SplitHamiltonian | TimePeriodicHamiltonian
) -> FWResult:
    """The transform of one model, or of a stack of stationary splits of
    one shape (see :func:`~fwexact.blockop.stack_splits`) in one call."""
    tol = config.tolerances
    if isinstance(built, TimePeriodicHamiltonian):
        return transform_nonstationary(
            built,
            max(config.floquet_nf),
            tol.gap_tol,
            config.floquet_window,
            tol.eps_clamp,
            routes=config.routes,
        )
    return transform_stationary(built, tol.gap_tol, tol.eps_clamp, routes=config.routes)


def _run_chain(
    config: RunConfig,
) -> tuple[dict[str, float], Metric, FWResult, dict[str, float]]:
    """Model -> transform; returns diagnostics, metric, the transform
    bundle and stage timings (ms)."""
    timings: dict[str, float] = {}
    start = time.perf_counter()
    built = config.model.build()
    timings["build_ms"] = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    diagnostics = _structural_defects(config, built)
    result = _transform(config, built)
    diagnostics.update(result.diagnostics)
    timings["transform_ms"] = (time.perf_counter() - start) * 1e3
    diagnostics = {k: float(v) for k, v in diagnostics.items()}
    return diagnostics, built.metric, result, timings


def _dump_operators(config: RunConfig, result: FWResult) -> list[str]:
    if not config.dump:
        return []
    operators = {
        "lambda": result.sign_op,
        "u": result.u,
        "h_fw": result.h_fw,
        "s": result.s,
    }
    directory = Path(config.dump_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(operators):
        written.append(str(dump_matrix(operators[name], directory / f"{name}.csv")))
    return written


def cmd_models_list(args: argparse.Namespace) -> int:
    if args.format == "json":
        print(json.dumps(MODEL_CATALOG, indent=2, sort_keys=True))
        return 0
    for name in sorted(MODEL_CATALOG):
        entry = MODEL_CATALOG[name]
        print(f"{name}  [{entry['kind']}]  {entry['description']}")
        for param, meaning in entry["params"].items():
            print(f"    {param:8s} {meaning}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set or [])
    if args.report:
        config.report_path = args.report
    if args.dump:
        config.dump = True
    diagnostics, metric, result, timings = _run_chain(config)
    verdicts = _verdicts(diagnostics, config.tolerances, metric)
    dumps = _dump_operators(config, result)
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "diagnostics": diagnostics,
        "verdicts": verdicts,
        "timings": timings,
        "matrix_dumps": dumps,
    }
    path = Path(config.report_path or "transform_report.json")
    _write_report(report, path)
    _print_verdicts(diagnostics, verdicts)
    print(f"report written to {path}")
    return 0 if all(v == "pass" for v in verdicts.values()) else 4


def _dispersion(name: str, params: dict) -> Optional[float]:
    """sqrt(m^2 + p^2) at the parameters of one point, for the models whose
    spectrum it is; None for the others."""
    m = float(params.get("m", 1.0))
    if name == "free_dirac":
        p2 = sum(float(params.get(k, 0.0)) ** 2 for k in ("px", "py", "pz"))
        return math.sqrt(m * m + p2)
    if name == "feshbach_villars":
        p = float(params.get("p", 0.0))
        return math.sqrt(m * m + p * p)
    return None


_IDENTITY_KEYS = tuple(
    name
    for name, bound in _BOUND_BY_DIAGNOSTIC.items()
    if bound == "tol_identity"
)


def _reject_dump(args: argparse.Namespace, config: RunConfig) -> None:
    if args.dump or config.dump:
        raise UsageError(
            f"--dump / output.dump: the {args.command} command writes no "
            "matrix dumps (only transform does)"
        )


#: Matrix elements one stacked sweep transform may hold: those of one
#: side-512 transform, so a stacked sweep needs no more memory than that.
_CHUNK_ELEMENTS = 512 * 512


def _chunk_size(side: int) -> int:
    """Points of side ``side`` per stacked transform:
    floor(512^2 / side^2), at least 1."""
    return max(1, _CHUNK_ELEMENTS // (side * side))


def _chunks(keys: Sequence[Optional[tuple[int, Metric]]]) -> list[list[int]]:
    """Sweep points grouped for stacked transforms, ordered by their
    first point.  ``keys`` gives each point's (side, metric), or None for
    a point that runs alone (a time-periodic model); points of one key
    are stacked in value order, at most :func:`_chunk_size` at a time."""
    chunks: list[list[int]] = []
    groups: dict[tuple[int, Metric], list[int]] = {}
    for i, key in enumerate(keys):
        if key is None:
            chunks.append([i])
        else:
            groups.setdefault(key, []).append(i)
    for (side, _metric), points in groups.items():
        size = _chunk_size(side)
        chunks += [points[k : k + size] for k in range(0, len(points), size)]
    return sorted(chunks)


_PointResult = tuple[dict[str, float], float, float]

#: Builds the sweep points of one chunk (their indices) as one model: a
#: stack when there are several.
_ChunkBuilder = Callable[[list[int]], SplitHamiltonian | TimePeriodicHamiltonian]


def _run_points(
    config: RunConfig,
    model: SplitHamiltonian | TimePeriodicHamiltonian,
    timings: dict[str, float],
) -> list[_PointResult]:
    """The structural defects and one :func:`_transform` call of a model
    or a stack; per point its diagnostics, ||S||_2 and ||H_FW||_2.  The
    call's time and count go to ``timings``."""
    structural = _structural_defects(config, model)
    start = time.perf_counter()
    try:
        result = _transform(config, model)
    finally:
        timings["transform_ms"] += (time.perf_counter() - start) * 1e3
        timings["transform_calls"] += 1

    def per_point(value: Any) -> list[float]:
        return np.ravel(value).tolist()

    columns = {k: per_point(v) for k, v in {**structural, **result.diagnostics}.items()}
    s_norms, h_fw_norms = per_point(result.s_norm), per_point(result.h_fw_norm)
    return [
        ({k: column[j] for k, column in columns.items()}, s_norms[j], h_fw_norms[j])
        for j in range(len(s_norms))
    ]


def _transform_sweep(
    config: RunConfig,
    chunks: list[list[int]],
    build: _ChunkBuilder,
    failure: Optional[tuple[int, FwExactError]],
    timings: dict[str, float],
) -> tuple[list[_PointResult], Metric]:
    """The sweep points, in value order, built and transformed chunk by
    chunk, and their metric.  A chunk that raises is run again one point
    at a time, so the sweep raises the error of its first failing point,
    as if every point had run alone.  ``failure`` is a build failure
    (point index and error) that ended the points before any chunk ran,
    if any; it is raised unless an earlier point fails."""
    outcomes: dict[int, _PointResult] = {}
    for chunk in chunks:
        if failure is not None and chunk[0] > failure[0]:
            continue
        try:
            model = build(chunk)
            done = _run_points(config, model, timings)
        except FwExactError as exc:
            if len(chunk) == 1:  # the point ran alone already
                failure = (chunk[0], exc)
                continue
            done = []
            for i in chunk:
                if failure is not None and i > failure[0]:
                    break
                try:
                    model = build([i])
                    done += _run_points(config, model, timings)
                except FwExactError as exc:
                    failure = (i, exc)
                    break
        outcomes.update(zip(chunk, done))
    if failure is not None:
        raise failure[1]
    # every point was built; the points of a sweep share one metric
    return [outcomes[i] for i in range(len(outcomes))], model.metric


def _timed_build(
    spec: ModelSpec, timings: dict[str, float]
) -> SplitHamiltonian | TimePeriodicHamiltonian:
    start = time.perf_counter()
    try:
        return spec.build()
    finally:
        timings["build_ms"] += (time.perf_counter() - start) * 1e3


def _sweep_chunks(
    config: RunConfig, parameter: str, values: tuple[float, ...], timings: dict[str, float]
) -> tuple[list[list[int]], _ChunkBuilder, Optional[tuple[int, FwExactError]]]:
    """The chunks of the sweep (:func:`_chunks`), the builder of a chunk
    and the failure of a build made here.

    A stationary model swept over any parameter but N builds each chunk
    once, as a stack over the chunk's values.  The other sweeps (over N,
    time-periodic models, no parameter) build their points one at a time
    here, up to the first that fails, and a chunk stacks the built points
    of one shape."""
    spec = config.model

    def point(value: float | np.ndarray) -> ModelSpec:
        return ModelSpec(spec.name, {**spec.params, parameter: value}) if parameter else spec

    if parameter and spec.stacks(parameter):
        size = _chunk_size(spec.side)
        chunks = [list(range(k, min(k + size, len(values)))) for k in range(0, len(values), size)]

        def build(points: list[int]) -> SplitHamiltonian | TimePeriodicHamiltonian:
            value = values[points[0]] if len(points) == 1 else np.array([values[i] for i in points])
            return _timed_build(point(value), timings)

        return chunks, build, None
    models: list[SplitHamiltonian | TimePeriodicHamiltonian] = []
    failure = None
    for i, value in enumerate(values):
        try:
            models.append(_timed_build(point(value), timings))
        except FwExactError as exc:
            failure = (i, exc)  # no later point is built
            break
    keys = [
        (m.mass.side, m.metric) if isinstance(m, SplitHamiltonian) else None for m in models
    ]

    def stack(points: list[int]) -> SplitHamiltonian | TimePeriodicHamiltonian:
        return models[points[0]] if len(points) == 1 else stack_splits([models[i] for i in points])

    return _chunks(keys), stack, failure


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set or [])
    _reject_dump(args, config)
    if args.report:
        config.report_path = args.report
    parameter = config.sweep_parameter
    values: tuple[float, ...] = config.sweep_values
    if parameter is None or not values:
        parameter = parameter or ""
        values = (float(config.model.params.get(parameter, 0.0)) if parameter else 0.0,)
    timings = {"build_ms": 0.0, "transform_ms": 0.0, "transform_calls": 0}
    chunks, build, failure = _sweep_chunks(config, parameter, values, timings)
    outcomes, metric = _transform_sweep(config, chunks, build, failure, timings)

    rows = []
    worst: dict[str, float] = {}
    for value, (diagnostics, s_norm, measured) in zip(values, outcomes):
        for key, v in diagnostics.items():
            worst[key] = max(worst.get(key, 0.0), v)
        params = {**config.model.params, parameter: value} if parameter else config.model.params
        dispersion = _dispersion(config.model.name, params)
        row = {
            "parameter": parameter or "",
            "value": value,
            "max_identity_defect": max(
                (diagnostics[k] for k in _IDENTITY_KEYS if k in diagnostics),
                default=0.0,
            ),
            "odd_norm": diagnostics.get("odd_norm", float("nan")),
            "s_norm_2": s_norm,
            "dispersion": measured if dispersion is not None else float("nan"),
            "dispersion_error": abs(measured - dispersion)
            if dispersion is not None
            else float("nan"),
        }
        rows.append(row)
    verdicts = _verdicts(worst, config.tolerances, metric)
    report_path = Path(config.report_path or "sweep_report.json")
    csv_path = report_path.with_suffix(".csv")
    header = [
        "parameter",
        "value",
        "max_identity_defect",
        "odd_norm",
        "s_norm_2",
        "dispersion",
        "dispersion_error",
    ]
    csv_lines = [",".join(header)]
    for row in rows:
        csv_lines.append(
            ",".join(
                row["parameter"]
                if key == "parameter"
                else f"{row[key]:.17g}"
                for key in header
            )
        )
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "diagnostics": worst,
        "verdicts": verdicts,
        "timings": timings,
        "matrix_dumps": [],
        "tables": [str(csv_path)],
    }
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    _write_report(report, report_path)
    print("\n".join(csv_lines))
    print(f"report written to {report_path}; table written to {csv_path}")
    return 0 if all(v == "pass" for v in verdicts.values()) else 4


def cmd_floquet(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.set or [])
    _reject_dump(args, config)
    if args.report:
        config.report_path = args.report
    if config.model.kind != "floquet":
        raise UsageError(
            f"model {config.model.name!r} is stationary; the floquet command "
            "needs a time-periodic model"
        )
    model = config.model.build()
    nf = max(config.floquet_nf)
    window = config.floquet_window if config.floquet_window is not None else max(nf // 2, 1)
    start = time.perf_counter()
    rep = demonstrate_nonevenness(
        model,
        nf,
        window,
        config.tolerances.gap_tol,
        decay_nfs=config.floquet_nf,
    )
    elapsed = (time.perf_counter() - start) * 1e3
    tol = config.tolerances.tol_identity
    both_clean = (
        rep.odd_norm_lambda_naive <= tol and rep.odd_norm_lambda <= tol
    )
    separated = rep.odd_norm_lambda_naive > 10.0 * rep.odd_norm_lambda
    ordering = "pass" if (both_clean or separated) else "fail"
    diagnostics = {
        "odd_norm_lambda_naive": rep.odd_norm_lambda_naive,
        "odd_norm_lambda": rep.odd_norm_lambda,
    }
    verdicts = {
        "floquet_ordering": ordering,
        # the extended-operator branch must always come out even; the
        # naive branch is informational (its failure is the result)
        "odd_norm_lambda": "pass" if rep.odd_norm_lambda <= tol else "fail",
        "odd_norm_lambda_naive": "pass",
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "diagnostics": diagnostics,
        "verdicts": verdicts,
        "timings": {"floquet_ms": elapsed},
        "matrix_dumps": [],
        "floquet": {
            "odd_norm_lambda_naive": rep.odd_norm_lambda_naive,
            "odd_norm_lambda": rep.odd_norm_lambda,
            "window": rep.window,
            "decay_table": [[n, v] for n, v in rep.decay_table],
            "notes": list(rep.notes),
        },
    }
    path = Path(config.report_path or "floquet_report.json")
    _write_report(report, path)
    for note in rep.notes:
        print(f"warning: {note}")
    print(
        f"odd norm (naive sign operator)    = {rep.odd_norm_lambda_naive:.6e}\n"
        f"odd norm (extended sign operator) = {rep.odd_norm_lambda:.6e}"
    )
    for n, v in rep.decay_table:
        print(f"  nf={n:3d}  odd_norm_lambda = {v:.6e}")
    print(f"ordering: {ordering}; report written to {path}")
    return 0 if all(v == "pass" for v in verdicts.values()) else 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwexact",
        description="Exact block-diagonalizing transformation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="model catalog")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_list = models_sub.add_parser("list", help="list available models")
    models_list.add_argument("--format", choices=("text", "json"), default="text")
    models_list.set_defaults(func=cmd_models_list)

    for name, func, description in (
        ("transform", cmd_transform, "run the transformation chain on one model"),
        ("sweep", cmd_sweep, "transform over a parameter range, emit a CSV table"),
        ("floquet", cmd_floquet, "compare naive vs extended sign operators"),
    ):
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry by dotted path (repeatable)",
        )
        cmd.add_argument("--report", help="report output path")
        cmd.add_argument(
            "--dump", action="store_true", help="dump operator matrices (transform only)"
        )
        cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpectralGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FwExactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
