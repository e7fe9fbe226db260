"""Command-line front end: model catalog, transforms, sweeps, reports.

Commands
--------
models list   print the model catalog (``--format json`` for machines)
transform     run the full transformation chain on one model
sweep         transform per parameter value, in chunks of consecutive
              values (one stack each when the parameter stacks), CSV
              table of key numbers
floquet       compare the naive and extended sign operators

Each run command takes ``--config <json>``, repeated ``--set key=value``
dotted-path overrides (a section or model.params set to null is left out) and
``--report <path>``, by default ``<command>_report.json``; ``sweep``
writes its CSV table beside the report.  ``--dump`` (or ``output.dump``)
writes the operator matrices of ``transform`` and is a usage error for
the other commands.  ``verify.routes`` (a JSON bool, default false) makes
``transform`` and ``sweep`` run the cross-check routes of
:mod:`fwexact.verify` and report their diagnostics.  Reports are JSON
with schema_version "3"; reruns of one configuration with the same
numpy, BLAS library and BLAS thread count on the same CPU give
byte-identical reports except for the timings block.  Identities
that hold by construction are not reported: the split's odd term is
``odd_part(H)``, S is made of its off-diagonal blocks, and beta commutes
with beta lambda + lambda beta by exact sign flips.  Exit codes:
0 all verdicts pass, 2 usage/config error, 3 spectral gap violation,
4 invariant or tolerance failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .blockop import BlockOperator
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

SCHEMA_VERSION = "3"

#: Which tolerance bounds each diagnostic, in both metrics.  Keys absent
#: here are informational: reported, verdict always "pass".
_BOUND_BY_DIAGNOSTIC = {
    "odd_norm": "tol_identity",
    "unitarity_defect": "tol_identity",
    "pseudo_unitarity_defect": "tol_identity",
    "eriksen_defect": "tol_identity",
    "lambda_sq_defect": "tol_identity",
    "sign_products_commute_defect": "tol_identity",
    "alt_form_defect": "tol_identity",
    "spectrum_defect": "tol_identity",
    "hermiticity_defect": "tol_identity",
    "sin2s_defect": "tol_identity",
    "cos2s_defect": "tol_identity",
    "denominator_commutator_defect": "tol_identity",
    "form_agreement_defect": "tol_generator",
    "exp_equivalence_defect": "tol_generator",
    "clamp_excess": "eps_clamp",
    "mass_even_defect": "tol_struct",
    "even_defect": "tol_struct",
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


def _check_keys(raw: dict) -> None:
    """Raise UsageError for a section that is neither a mapping nor null
    or a key that :meth:`RunConfig.echo` does not write, naming its keys."""
    known = RunConfig(ModelSpec("free_dirac")).echo()
    for section, value in raw.items():
        if section not in known:
            raise UsageError(f"unknown config key {section!r}; sections: {', '.join(known)}")
        if value is not None and not isinstance(value, dict):
            raise UsageError(f"{section} {value!r} is not a mapping")
        keys = known[section]
        unknown = sorted(set(value or {}) - set(keys))
        if unknown:
            key = f"{section}.{unknown[0]}"
            if key == "floquet.sign":
                key += " (not a key yet: the command line runs the quasienergy sign)"
            raise UsageError(f"unknown config key {key}; {section} knows: {', '.join(keys)}")


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
        _check_keys(raw)
        if "name" not in (raw.get("model") or {}):
            raise UsageError("config must contain model.name")
        params = {} if raw["model"].get("params") is None else raw["model"]["params"]
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
        if not nf_tuple:
            raise UsageError("floquet.nf is empty: give at least one truncation")
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
            "tolerances": asdict(self.tolerances),
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


#: Parts (real or imaginary) of a matrix dump laid out per block of rows.
_DUMP_BLOCK_PARTS = 4096
#: The longest ``%.17g`` of a magnitude: 17 digits, the point and e-308.
_DUMP_TEXT_WIDTH = 23


def dump_matrix(a: BlockOperator, path: str | Path) -> Path:
    """Write a block operator as CSV with a shape header.

    Entries are ``re+imj`` as ``%.17g%+.17gj`` formats them: 17
    significant digits, which round-trips IEEE doubles bit for bit.  The
    parts of an operator repeat heavily (the side-128 ``dirac_1d`` U has
    16 352 nonzero parts and 4 037 distinct magnitudes), so each distinct
    magnitude is formatted once, all in one ``%`` call.  A part is
    written as its sign and that text: ``%.17g`` of -x is "-" followed
    by ``%.17g`` of x, except for NaN, which prints unsigned.  The rows
    go out in blocks of about ``_DUMP_BLOCK_PARTS`` parts, each laid out
    as zero-padded byte fields and written without its padding.  A
    complex side-128 operator takes 6-9 ms this way, against 10-22 ms
    for one ``%`` format per row (2-core host).
    """
    path = Path(path)
    side = a.side
    values = np.ascontiguousarray(a.data, dtype=complex).view(np.float64)
    magnitudes = _distinct_magnitudes(values)
    texts = np.array(
        ("\n".join(["%.17g"] * magnitudes.size) % tuple(magnitudes.tolist())).split("\n"),
        dtype=f"S{_DUMP_TEXT_WIDTH}",
    ).view(np.uint8).reshape(magnitudes.size, _DUMP_TEXT_WIDTH)
    rows = max(1, _DUMP_BLOCK_PARTS // (2 * side))
    with path.open("wb") as out:
        out.write(
            f"# rows={side} cols={side} internal_dim={a.internal_dim} "
            f"floquet_copies={a.floquet_copies}\n".encode()
        )
        for start in range(0, side, rows):
            block = values[start : start + rows]
            block_magnitudes = np.abs(block)
            # a part's field: sign, text, then "j" and "," or "\n" after
            # an imaginary part; zero bytes are padding
            parts = np.zeros(block.shape + (_DUMP_TEXT_WIDTH + 3,), dtype=np.uint8)
            index = np.searchsorted(magnitudes, block_magnitudes)
            # every index is in range; "clip" lets take write the strided
            # fields in place
            np.take(texts, index, axis=0, out=parts[..., 1:-2], mode="clip")
            parts[:, 1::2, 0] = ord("+")
            # NaN fails the comparison: it prints unsigned
            parts[..., 0][np.signbit(block) & (block_magnitudes <= np.inf)] = ord("-")
            parts[:, 1::2, -2] = ord("j")
            parts[:, 1::2, -1] = ord(",")
            parts[:, -1, -1] = ord("\n")
            out.write(parts[parts != 0])
    return path


def _distinct_magnitudes(values: np.ndarray) -> np.ndarray:
    """The distinct ``|values|``, sorted, NaNs last (each NaN apart)."""
    ordered = np.abs(values).reshape(-1)
    ordered.sort()
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


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


def _verdicts(diagnostics: dict[str, float], tolerances: Tolerances) -> dict[str, str]:
    out = {}
    for name in sorted(diagnostics):
        bound_name = _BOUND_BY_DIAGNOSTIC.get(name)
        if bound_name is None:
            out[name] = "pass"
            continue
        bound = getattr(tolerances, bound_name)
        out[name] = "pass" if diagnostics[name] <= bound else "fail"
    return out


def _exit_code(verdicts: dict[str, str]) -> int:
    """0 when every verdict passes, else 4."""
    return 0 if all(v == "pass" for v in verdicts.values()) else 4


def _report_path(command: str, config: RunConfig) -> Path:
    """``output.report``, or ``<command>_report.json`` when it is unset."""
    return Path(config.report_path or f"{command}_report.json")


def _report(
    command: str, config: RunConfig, diagnostics: dict[str, float], verdicts: dict[str, str],
    timings: dict[str, float], **sections: Any
) -> Path:
    """Write the schema-"3" report of a ``command`` run to its
    :func:`_report_path`, with the command's own top-level ``sections``."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.echo(),
        "diagnostics": diagnostics,
        "verdicts": verdicts,
        "timings": timings,
        "matrix_dumps": [],
        **sections,
    }
    path = _report_path(command, config)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _load(args: argparse.Namespace) -> RunConfig:
    """The run's config: ``--config`` with the ``--set`` overrides, then
    ``--report`` and ``--dump``.  A dump is a usage error for every
    command but ``transform``."""
    config = load_config(args.config, args.set or [])
    if args.report:
        config.report_path = args.report
    config.dump = config.dump or args.dump
    if config.dump and args.command != "transform":
        raise UsageError(
            f"--dump / output.dump: the {args.command} command writes no "
            "matrix dumps (only transform does)"
        )
    return config


def _run(
    config: RunConfig, spec: ModelSpec, timings: dict[str, float]
) -> tuple[dict[str, float | np.ndarray], FWResult]:
    """Build ``spec`` (one model, or a stack of models when parameters are
    arrays), read the structural defects of a stationary split (measured
    when it was built, held here to the configured tolerance) and
    transform it in one call.  Returns the diagnostics (arrays over a
    stack) and the transform bundle; the build and transform times (ms)
    are added to ``timings``."""
    tol = config.tolerances
    start = time.perf_counter()
    built = spec.build()
    timings["build_ms"] += (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    if isinstance(built, TimePeriodicHamiltonian):
        structural = {}
        result = transform_nonstationary(
            built,
            max(config.floquet_nf),
            tol.gap_tol,
            config.floquet_window,
            tol.eps_clamp,
            routes=config.routes,
        )
    else:
        structural = built.check(tol.tol_struct)
        result = transform_stationary(built, tol.gap_tol, tol.eps_clamp, routes=config.routes)
    timings["transform_ms"] += (time.perf_counter() - start) * 1e3
    return {**structural, **result.diagnostics}, result


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
    config = _load(args)
    timings = {"build_ms": 0.0, "transform_ms": 0.0}
    diagnostics, result = _run(config, config.model, timings)
    timings["taylor_terms"] = result.taylor_terms
    diagnostics = {k: float(v) for k, v in diagnostics.items()}
    verdicts = _verdicts(diagnostics, config.tolerances)
    dumps = _dump_operators(config, result)
    path = _report("transform", config, diagnostics, verdicts, timings, matrix_dumps=dumps)
    for name in sorted(verdicts):
        print(f"{verdicts[name].upper():4s} {name} = {diagnostics[name]:.6e}")
    print(f"report written to {path}")
    return _exit_code(verdicts)


def _dispersion(spec: ModelSpec, parameter: str, value: float) -> Optional[float]:
    """sqrt(m^2 + p^2) at the point of ``spec`` with ``parameter`` set to
    ``value``, for the models whose spectrum it is; None for the others."""

    def param(key: str) -> float:
        return float(value if key == parameter else spec.value(key))

    m = param("m")
    if spec.name == "free_dirac":
        p2 = sum(param(k) ** 2 for k in ("px", "py", "pz"))
        return math.sqrt(m * m + p2)
    if spec.name == "feshbach_villars":
        p = param("p")
        return math.sqrt(m * m + p * p)
    return None


_IDENTITY_KEYS = tuple(
    name
    for name, bound in _BOUND_BY_DIAGNOSTIC.items()
    if bound == "tol_identity"
)


#: Matrix elements one stacked sweep transform may hold: those of one
#: side-512 transform, so a stacked sweep needs no more memory than that.
_CHUNK_ELEMENTS = 512 * 512


def _chunk_size(side: int) -> int:
    """Points of side ``side`` per stacked transform:
    floor(512^2 / side^2), at least 1."""
    return max(1, _CHUNK_ELEMENTS // (side * side))


def _sweep(
    config: RunConfig, parameter: str, values: tuple[float, ...], timings: dict[str, float]
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Per diagnostic its column over the sweep points, in value order,
    and the columns of ||S||_2 and ||H_FW||_2.

    The points run in chunks of consecutive values, each built only when
    it runs: :func:`_chunk_size` points as one stack when the model
    :meth:`~fwexact.models.ModelSpec.stacks` the parameter, one point
    otherwise.  A chunk that raises is run again one point at a time, so
    the sweep raises the error of its first failing point, as if every
    point had run alone."""
    spec = config.model
    size = _chunk_size(spec.side) if spec.stacks(parameter) else 1

    # per chunk: its diagnostics, ||S||_2 and ||H_FW||_2
    chunks: list[tuple[dict[str, float | np.ndarray], float | np.ndarray, float | np.ndarray]] = []

    def run(chunk: tuple[float, ...]) -> None:
        value = chunk[0] if len(chunk) == 1 else np.array(chunk)
        point = ModelSpec(spec.name, {**spec.params, parameter: value}) if parameter else spec
        diagnostics, result = _run(config, point, timings)
        timings["transform_calls"] += 1
        chunks.append((diagnostics, result.s_norm, result.h_fw_norm))

    for k in range(0, len(values), size):
        chunk = values[k : k + size]
        try:
            run(chunk)
        except FwExactError:
            if len(chunk) == 1:
                raise
            for value in chunk:
                run((value,))

    def column(parts) -> np.ndarray:
        return np.concatenate([np.ravel(part) for part in parts])

    diagnostics, s_norms, h_fw_norms = zip(*chunks)
    columns = {key: column(d[key] for d in diagnostics) for key in diagnostics[0]}
    return columns, column(s_norms), column(h_fw_norms)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load(args)
    spec = config.model
    parameter = config.sweep_parameter or ""
    values = config.sweep_values or (float(spec.value(parameter)) if parameter else 0.0,)
    timings = {"build_ms": 0.0, "transform_ms": 0.0, "transform_calls": 0}
    columns, s_norms, measured = _sweep(config, parameter, values, timings)

    # as max() from 0.0 point by point: a NaN never wins
    worst = {key: float(np.fmax.reduce(column, initial=0.0)) for key, column in columns.items()}
    identity = [columns[key] for key in _IDENTITY_KEYS if key in columns] or [np.zeros(len(values))]
    # as max() over the keys in order: a NaN wins only as the first
    identity = np.where(np.isnan(identity[0]), np.nan, np.fmax.reduce(identity))
    dispersion = np.array([_dispersion(spec, parameter, value) for value in values], dtype=float)
    error = np.abs(measured - dispersion)
    measured = np.where(np.isnan(dispersion), np.nan, measured)
    odd_norm = columns.get("odd_norm", np.full(len(values), np.nan))
    table = np.column_stack((values, identity, odd_norm, s_norms, measured, error))
    row = "%s" + ",%.17g" * table.shape[1] + "\n"
    csv_text = (
        "parameter,value,max_identity_defect,odd_norm,s_norm_2,dispersion,dispersion_error\n"
        + row * len(table) % tuple(x for numbers in table.tolist() for x in (parameter, *numbers))
    )
    verdicts = _verdicts(worst, config.tolerances)
    csv_path = _report_path("sweep", config).with_suffix(".csv")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(csv_text, encoding="utf-8")
    try:
        path = _report("sweep", config, worst, verdicts, timings, tables=[str(csv_path)])
    except OSError:
        csv_path.unlink()  # no report lists the table
        raise
    print(csv_text, end="")
    print(f"report written to {path}; table written to {csv_path}")
    return _exit_code(verdicts)


def cmd_floquet(args: argparse.Namespace) -> int:
    config = _load(args)
    if config.model.kind != "floquet":
        raise UsageError(
            f"model {config.model.name!r} is stationary; the floquet command "
            "needs a time-periodic model"
        )
    model = config.model.build()
    start = time.perf_counter()
    rep = demonstrate_nonevenness(
        model,
        max(config.floquet_nf),
        config.floquet_window,
        config.tolerances.gap_tol,
        decay_nfs=config.floquet_nf,
    )
    timings = {"floquet_ms": (time.perf_counter() - start) * 1e3}
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
    floquet = {
        **diagnostics,
        "window": rep.window,
        "decay_table": [[n, v] for n, v in rep.decay_table],
        "notes": list(rep.notes),
    }
    path = _report("floquet", config, diagnostics, verdicts, timings, floquet=floquet)
    for note in rep.notes:
        print(f"warning: {note}")
    print(
        f"odd norm (naive sign operator)    = {rep.odd_norm_lambda_naive:.6e}\n"
        f"odd norm (extended sign operator) = {rep.odd_norm_lambda:.6e}"
    )
    for n, v in rep.decay_table:
        print(f"  nf={n:3d}  odd_norm_lambda = {v:.6e}")
    print(f"ordering: {ordering}; report written to {path}")
    return _exit_code(verdicts)


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
    models_list.set_defaults(handler="cmd_models_list")

    for name, description in (
        ("transform", "run the transformation chain on one model"),
        ("sweep", "transform over a parameter range, emit a CSV table"),
        ("floquet", "compare naive vs extended sign operators"),
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
        cmd.set_defaults(handler=f"cmd_{name}")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process; parsing
    leaves it unchanged, so every later call reuses it."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    # the exit code of each failure kind; the first kind that matches wins
    exit_codes = ((UsageError, 2), (SpectralGapError, 3), (FwExactError, 4), (OSError, 5))
    args = _parser().parse_args(argv)
    try:
        # looked up by name on each call, so a replaced cmd_* is the one run
        return globals()[args.handler](args)
    except tuple(kind for kind, _ in exit_codes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in exit_codes if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
