"""Catalog of concrete finite-dimensional Hamiltonians.

Stationary models return a ready-made split H = beta*mass + even + odd;
time-periodic models return their Fourier modes.  Natural units
(hbar = c = 1) throughout.

* free_dirac         spin-1/2, 4x4, Dirac-Pauli basis
* dirac_1d           spin-1/2 on a periodic grid with a scalar potential,
                     spectral (Fourier) momentum operator
* feshbach_villars   spin-0 two-component form, beta-pseudo-Hermitian
* floquet_dirac_scalar   time-periodic scalar potential V1 cos(wt) * 1
* floquet_dirac_vector   time-periodic vector potential A1 cos(wt) z-hat
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

from .blockop import BlockOperator, Metric, SplitHamiltonian, first_failing, split
from .errors import MetricViolationError, StructureError

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

#: Dirac alpha_i = offdiag(sigma_i, sigma_i) in the standard basis.
ALPHA = tuple(
    np.block([[np.zeros((2, 2), dtype=complex), s], [s, np.zeros((2, 2), dtype=complex)]])
    for s in SIGMA
)
BETA4 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

TAU1, TAU2, TAU3 = SIGMA  # Pauli-like matrices of the two-component boson form

#: A numeric model parameter: one value, or an array of values for which
#: a stationary builder returns the stack of the models at each value.
Value = float | np.ndarray


def _check_grid_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise StructureError(f"grid size must be a power of two >= 8, got {n}")


def _check_mass(m: Value) -> None:
    bad = first_failing(~(np.asarray(m) > 0))
    if bad is not None:
        raise StructureError(f"mass must be positive, got {np.ravel(m)[bad]}")


def _column(x: Value) -> np.ndarray:
    """A parameter with two trailing unit axes: a stack of values then
    scales one matrix per value."""
    return np.asarray(x, dtype=float)[..., None, None]


def _mass(m: Value, h: np.ndarray) -> BlockOperator:
    """m 1 as the mass operator of each matrix of the stack ``h``."""
    side = h.shape[-1]
    scale = _column(np.broadcast_to(m, h.shape[:-2]))
    return BlockOperator(scale * np.eye(side, dtype=complex), side, 1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of the matrix ``a`` with each matrix of the stack
    ``b``: the same products, in the same order."""
    out = a[:, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[0] * b.shape[-2], a.shape[1] * b.shape[-1])


def free_dirac(m: Value, p: tuple[Value, Value, Value]) -> SplitHamiltonian:
    """Free Dirac Hamiltonian alpha.p + beta m (4x4).

    mass = m*1 (so the even term vanishes) and odd = alpha.p; the
    spectrum is +-sqrt(m^2 + p^2), doubly degenerate.  m and the momentum
    components may be arrays (broadcast together): the result is then
    the stack of the splits at each of their values.
    """
    h = _free_dirac_matrix(m, p)
    return split(BlockOperator(h, 4, 1), _mass(m, h), Metric.HERMITIAN)


def _free_dirac_matrix(m: Value, p: tuple[Value, Value, Value]) -> np.ndarray:
    """alpha.p + beta m as a plain 4x4 matrix (a stack for array values)."""
    _check_mass(m)
    px, py, pz = (_column(c) for c in p)
    return BETA4 * _column(m) + (ALPHA[0] * px + ALPHA[1] * py + ALPHA[2] * pz)


def spectral_momentum(n: int, length: Value) -> np.ndarray:
    """-i d/dx on a uniform periodic grid of n points over [0, length).

    Built in Fourier space, so plane waves exp(i k x) with grid momenta
    k = 2 pi j / length are exact eigenvectors.  Hermitian.  An array of
    lengths gives the stack of the operators.
    """
    if n < 2 or n % 2 != 0:
        raise StructureError(f"grid size must be even and >= 2, got {n}")
    f = np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)
    k = grid_momenta(n, np.asarray(length, dtype=float)[..., None])
    return f.conj().T @ (k[..., :, None] * f)


def grid_momenta(n: int, length: Value) -> np.ndarray:
    """Grid momenta 2 pi j / length in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def dirac_1d(
    m: Value, n: int, length: Value, potential: Callable[[np.ndarray], np.ndarray]
) -> SplitHamiltonian:
    """1-D Dirac Hamiltonian alpha_x p + beta m + V(x) on a periodic grid.

    The odd part is alpha_x (x) P with P the spectral momentum matrix,
    the even part is 1_4 (x) diag(V(x_j)), and mass = m*1.  Kronecker
    order is spinor-major, so the grading is that of side 4n with the
    grid factor folded into each spinor block.  n must be a power of
    two >= 8.

    m and length may be arrays (broadcast together): ``potential`` then
    gets the grid points of each length along a last axis, and may return
    one potential per point of a stack; the result is the stack of the
    splits.
    """
    _check_mass(m)
    _check_grid_size(n)
    length = np.asarray(length, dtype=float)
    x = np.arange(n) * (length[..., None] / n)
    v = np.asarray(potential(x), dtype=complex)
    if np.abs(v.imag).max(initial=0.0) > 0:
        raise MetricViolationError("metric violation: potential must be real-valued")
    diagonal = np.zeros((*v.shape, n))
    diagonal[..., np.arange(n), np.arange(n)] = v.real
    h = (
        _kron(ALPHA[0], spectral_momentum(n, length))
        + _kron(np.eye(4, dtype=complex), diagonal)
        + _column(m) * np.kron(BETA4, np.eye(n))
    )
    return split(BlockOperator(h, 4 * n, 1), _mass(m, h), Metric.HERMITIAN)


def feshbach_villars(m: Value, p: Value) -> SplitHamiltonian:
    """Two-component spin-0 Hamiltonian at fixed momentum p (2x2).

    H = (tau3 + i tau2) p^2/(2m) + tau3 m, self-adjoint under the
    beta-pseudo metric with beta = tau3 but not Hermitian for p != 0.
    mass = (m + p^2/2m)*1 carries the whole even diagonal, so the even
    term vanishes and odd = i tau2 p^2/(2m).  Spectrum +-sqrt(m^2+p^2).
    m and p may be arrays (broadcast together), for the stack of the
    splits at each of their values.
    """
    _check_mass(m)
    m, p = np.asarray(m, dtype=float), np.asarray(p, dtype=float)
    kinetic = p * p / (2.0 * m)
    h = (TAU3 + 1j * TAU2) * _column(kinetic) + TAU3 * _column(m)
    return split(BlockOperator(h, 2, 1), _mass(m + kinetic, h), Metric.BETA_PSEUDO)


@dataclass(frozen=True)
class TimePeriodicHamiltonian:
    """Fourier modes of H(t) = sum_n H_n exp(-i n w t).

    Hermiticity of H(t) requires H_{-n} = H_n^dag; this is validated on
    construction together with Hermiticity of H(t) on a small time
    sample.
    """

    modes: tuple[tuple[int, np.ndarray], ...]
    omega: float
    internal_dim: int
    metric: Metric = Metric.HERMITIAN

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise StructureError(f"drive frequency must be positive, got {self.omega}")
        table = {int(n): np.asarray(h, dtype=complex) for n, h in self.modes}
        d = self.internal_dim
        for n, h in table.items():
            if h.shape != (d, d):
                raise StructureError(f"mode {n} has shape {h.shape}, expected ({d}, {d})")
            partner = table.get(-n)
            if partner is None or np.linalg.norm(partner - h.conj().T) > 1e-12 * max(
                np.linalg.norm(h), 1e-300
            ):
                raise MetricViolationError(
                    f"metric violation: mode {-n} must be the adjoint of mode {n}"
                )
        object.__setattr__(
            self,
            "modes",
            tuple(sorted(((n, table[n]) for n in table), key=lambda item: item[0])),
        )
        if self.metric is Metric.HERMITIAN:
            for t in np.linspace(0.0, 2.0 * np.pi / self.omega, 5):
                h_t = self.at_time(t)
                if np.linalg.norm(h_t - h_t.conj().T) > 1e-12 * max(
                    np.linalg.norm(h_t), 1e-300
                ):
                    raise MetricViolationError(
                        f"metric violation: reconstructed H(t) not Hermitian at t={t:.3f}"
                    )

    @property
    def max_mode(self) -> int:
        return max(abs(n) for n, _ in self.modes)

    @cached_property
    def mode_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """The Fourier orders n and the modes H_n stacked along axis 0."""
        orders = np.array([n for n, _ in self.modes])
        return orders, np.stack([h for _, h in self.modes])

    def mode(self, n: int) -> np.ndarray:
        for k, h in self.modes:
            if k == n:
                return h
        return np.zeros((self.internal_dim, self.internal_dim), dtype=complex)

    def at_time(self, t: float) -> np.ndarray:
        """Reconstruct H(t) from the modes."""
        out = np.zeros((self.internal_dim, self.internal_dim), dtype=complex)
        for n, h in self.modes:
            out += h * np.exp(-1j * n * self.omega * t)
        return out


def floquet_dirac_scalar(
    m: float, p: tuple[float, float, float], v1: float, omega: float
) -> TimePeriodicHamiltonian:
    """Dirac particle in a uniform oscillating scalar potential:
    H(t) = alpha.p + beta m + V1 cos(w t) * 1 (even drive)."""
    h0 = _free_dirac_matrix(m, p)
    modes: list[tuple[int, np.ndarray]] = [(0, h0)]
    if v1 != 0.0:
        half = (v1 / 2.0) * np.eye(4, dtype=complex)
        modes += [(1, half), (-1, half)]
    return TimePeriodicHamiltonian(tuple(modes), omega, 4)


def floquet_dirac_vector(
    m: float, p: tuple[float, float, float], a1: float, omega: float
) -> TimePeriodicHamiltonian:
    """Dirac particle in an oscillating vector potential along z:
    H(t) = alpha.(p - A1 cos(w t) z-hat) + beta m (odd drive)."""
    h0 = _free_dirac_matrix(m, p)
    modes: list[tuple[int, np.ndarray]] = [(0, h0)]
    if a1 != 0.0:
        half = -(a1 / 2.0) * ALPHA[2]
        modes += [(1, half), (-1, half)]
    return TimePeriodicHamiltonian(tuple(modes), omega, 4)


MODEL_CATALOG: dict[str, dict] = {
    "free_dirac": {
        "kind": "stationary",
        "params": {"m": "mass > 0", "px": "momentum x", "py": "momentum y", "pz": "momentum z"},
        "description": "free spin-1/2 particle, 4x4, Hermitian metric",
    },
    "dirac_1d": {
        "kind": "stationary",
        "params": {
            "m": "mass > 0",
            "N": "grid points, power of two >= 8",
            "L": "box length > 0",
            "V0": "constant potential",
            "V1": "cosine potential amplitude: V(x) = V0 + V1 cos(2 pi x / L)",
        },
        "description": "spin-1/2 on a periodic grid, spectral momentum, Hermitian metric",
    },
    "feshbach_villars": {
        "kind": "stationary",
        "params": {"m": "mass > 0", "p": "momentum (scalar)"},
        "description": "spin-0 two-component form, 2x2, beta-pseudo-Hermitian metric",
    },
    "floquet_dirac_scalar": {
        "kind": "floquet",
        "params": {
            "m": "mass > 0",
            "px": "momentum x",
            "py": "momentum y",
            "pz": "momentum z",
            "V1": "scalar drive amplitude",
            "omega": "drive frequency > 0",
        },
        "description": "Dirac + V1 cos(wt) * 1 (even drive), Fourier modes {0, +-1}",
    },
    "floquet_dirac_vector": {
        "kind": "floquet",
        "params": {
            "m": "mass > 0",
            "px": "momentum x",
            "py": "momentum y",
            "pz": "momentum z",
            "A1": "vector drive amplitude along z",
            "omega": "drive frequency > 0",
        },
        "description": "Dirac + alpha_z A1 cos(wt) (odd drive), Fourier modes {0, +-1}",
    },
}


def check_parameter_names(name: str, keys: Iterable[str]) -> None:
    """Raise StructureError for a key that is not a parameter of the
    catalog model ``name``, naming the key and the model's parameters."""
    known = MODEL_CATALOG[name]["params"]
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise StructureError(
            f"unknown parameter {unknown[0]!r} of model {name}; "
            f"its parameters are: {', '.join(known)}"
        )


def _check_values(name: str, params: Mapping[str, Value]) -> None:
    """Raise the StructureError of the first point (of a stack, when
    parameters are arrays) whose parameter values fail a check; a point
    meets the checks in the order listed here."""

    def param(key: str, default: float) -> np.ndarray:
        return np.asarray(params.get(key, default), dtype=float)

    m = param("m", 1.0)
    checks = [(~(m > 0), m, "mass must be positive")]
    if name == "dirac_1d":
        n, length = param("N", 32), param("L", 2.0 * np.pi)
        checks += [
            (~np.isfinite(n) | (n != np.floor(n)), n, "grid size must be an integer, got {}"),
            (
                (n < 8) | (np.frexp(n)[0] != 0.5),  # a power of two has mantissa 1/2
                n,
                "grid size must be a power of two >= 8, got {:.0f}",
            ),
            (~(length > 0), length, "box length must be positive, got {}"),
        ]
    if MODEL_CATALOG[name]["kind"] == "floquet":
        omega = param("omega", 1.0)
        checks.append((~(omega > 0), omega, "drive frequency must be positive"))
    failing = np.stack(np.broadcast_arrays(*(bad for bad, _, _ in checks)))
    per_point = failing.reshape(len(checks), -1)
    point = first_failing(per_point.any(axis=0))
    if point is not None:
        _, values, message = checks[first_failing(per_point[:, point])]
        value = np.broadcast_to(values, failing.shape[1:]).flat[point]
        raise StructureError(message.format(float(value)))


@dataclass(frozen=True)
class ModelSpec:
    """Named model plus parameter map, as parsed from a run config.

    A parameter that :meth:`stacks` may be an array of values: the model
    is then built once, as the stack of the models at each value.
    """

    name: str
    params: Mapping[str, Value] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in MODEL_CATALOG:
            raise StructureError(
                f"unknown model {self.name!r}; known: {', '.join(sorted(MODEL_CATALOG))}"
            )
        check_parameter_names(self.name, self.params)
        params = dict(self.params)
        for key, value in params.items():
            if np.ndim(value) and not self.stacks(key):
                raise StructureError(f"parameter {key!r} of model {self.name} takes one value")
        _check_values(self.name, params)
        object.__setattr__(self, "params", params)

    @property
    def kind(self) -> str:
        return MODEL_CATALOG[self.name]["kind"]

    def stacks(self, parameter: str) -> bool:
        """Whether ``parameter`` may take an array of values: any parameter
        of a stationary model except the grid size N."""
        return self.kind == "stationary" and parameter != "N"

    @property
    def side(self) -> int:
        """The side of the built Hamiltonian (of H(t) when time-periodic)."""
        if self.name == "dirac_1d":
            return 4 * int(self.params.get("N", 32))
        return 2 if self.name == "feshbach_villars" else 4

    def _momentum(self) -> tuple[float, float, float]:
        p = self.params
        return (p.get("px", 0.0), p.get("py", 0.0), p.get("pz", 0.0))

    def build(self) -> SplitHamiltonian | TimePeriodicHamiltonian:
        """The model, a stack of models when parameters are arrays.  An
        overflow raises no floating-point warning: it shows as the
        non-finite ||H||_F that validating the split raises for."""
        with np.errstate(all="ignore"):
            return self._build()

    def _build(self) -> SplitHamiltonian | TimePeriodicHamiltonian:
        p = self.params
        m = p.get("m", 1.0)
        if self.name == "free_dirac":
            return free_dirac(m, self._momentum())
        if self.name == "dirac_1d":

            def column(key: str, default: float) -> np.ndarray:
                return np.asarray(p.get(key, default), dtype=float)[..., None]

            length, v0, v1 = column("L", 2.0 * np.pi), column("V0", 0.0), column("V1", 0.0)
            return dirac_1d(
                m,
                int(p.get("N", 32)),
                p.get("L", 2.0 * np.pi),
                lambda x: v0 + v1 * np.cos(2.0 * np.pi * x / length),
            )
        if self.name == "feshbach_villars":
            return feshbach_villars(m, p.get("p", 0.0))
        if self.name == "floquet_dirac_scalar":
            return floquet_dirac_scalar(
                float(m), self._momentum(), float(p.get("V1", 0.0)), float(p.get("omega", 1.0))
            )
        return floquet_dirac_vector(
            float(m), self._momentum(), float(p.get("A1", 0.0)), float(p.get("omega", 1.0))
        )
