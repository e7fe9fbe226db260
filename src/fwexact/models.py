"""Catalog of concrete finite-dimensional Hamiltonians.

Stationary models return a validated split H = beta*mass + even + odd:
the H built here and its declared mass, the even and odd terms read off
H's parity blocks.  Time-periodic models return their Fourier modes.
Natural units (hbar = c = 1) throughout.

* free_dirac         spin-1/2, 4x4, Dirac-Pauli basis
* dirac_1d           spin-1/2 on a periodic grid with a scalar potential,
                     spectral (Fourier) momentum operator
* feshbach_villars   spin-0 two-component form, beta-pseudo-Hermitian
* floquet_dirac_scalar   time-periodic scalar potential V1 cos(wt) * 1
* floquet_dirac_vector   time-periodic vector potential A1 cos(wt) z-hat
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

from .blockop import (
    REAL_BASIS_TOL,
    BlockOperator,
    Metric,
    SplitHamiltonian,
    check_finite_norm,
    first_failing,
    per_matrix,
    split,
)
from .errors import MetricViolationError, StructureError
from .matfun import in_sectors

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
    mass, diagonal = np.zeros(h.shape), np.arange(h.shape[-1])
    mass[..., diagonal, diagonal] = np.asarray(m, dtype=float)[..., None]
    return BlockOperator(mass, h.shape[-1], 1)


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

    Diagonal in Fourier space, so plane waves exp(i k x) with grid momenta
    k = 2 pi j / length are exact eigenvectors.  Hermitian: the circulant
    c((j - l) mod n) of :func:`_momentum_series`.  An array of lengths gives
    the stack of the operators.
    """
    if n < 2 or n % 2 != 0:
        raise StructureError(f"grid size must be even and >= 2, got {n}")
    scale = 2.0 * np.pi / np.asarray(length, dtype=float)
    shift = (np.arange(n)[:, None] - np.arange(n)) % n
    return scale[..., None, None] * _momentum_series(n)[shift]


def grid_momenta(n: int, length: Value) -> np.ndarray:
    """Grid momenta 2 pi j / length in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def _momentum_series(n: int) -> np.ndarray:
    """c(d), the inverse FFT of the grid momenta over [0, 2 pi): P[j, l] = c(j - l)."""
    return np.fft.ifft(np.fft.fftfreq(n) * n)


def _momentum_in_parity_basis(n: int) -> np.ndarray:
    """The spectral momentum over [0, 2 pi), real in the basis of grid
    parity j -> -j mod n (see :func:`fwexact.blockop._from_pair_basis`).

    P[j, l] = c(j - l) with c(d) = -(-1)^d / 2 + i s(d) and s odd, c the
    inverse FFT of the momenta.  The first term, from the unpaired
    momentum -n/2, is -w w^T / 2 on the even vectors, w_j = (-1)^j sqrt2;
    i s couples even vector j only with odd vector l (at n - l), by
    s(j + l) - s(j - l); both over sqrt2 at a fixed point j.
    """
    half = n // 2
    s = _momentum_series(n).imag
    even, odd = np.arange(half + 1), n - np.arange(half + 1, n)
    scale = np.where((even == 0) | (even == half), math.sqrt(0.5), 1.0)
    w = np.where(even % 2, -scale, scale)
    p = np.zeros((n, n))
    p[: half + 1, : half + 1] = -np.outer(w, w)
    coupling = (s[(even[:, None] + odd) % n] - s[even[:, None] - odd]) * scale[:, None]
    p[: half + 1, half + 1 :], p[half + 1 :, : half + 1] = coupling, coupling.T
    return p


def dirac_1d(
    m: Value, n: int, length: Value, potential: Callable[[np.ndarray], np.ndarray]
) -> SplitHamiltonian:
    """1-D Dirac Hamiltonian alpha_x p + beta m + V(x) on a periodic grid.

    The odd part is alpha_x (x) P with P the spectral momentum matrix,
    the even part is 1_4 (x) diag(V(x_j)), and mass = m*1.  Kronecker
    order is spinor-major, so the grading is that of side 4n with the
    grid factor folded into each spinor block.  n must be a power of
    two >= 8.

    H is written in its sector layout (:mod:`fwexact.blockop`), with no
    dense H: alpha_x couples spinor a only with 3 - a, so H is two equal
    sectors, spinors {0, 3} and {1, 2}, held once as [[V + m, P], [P,
    V - m]].  Times conjugation, grid parity commutes with P, and with V
    where V is even.  The block is written real, in the parity basis
    (``pairs``), with V_j taken as (V_j + V_-j) / 2, when what that drops
    (the couplings +-i (V_j - V_-j) / 2 of each pair), relative to ||H||_F,
    is within REAL_BASIS_TOL at every point; else complex, in the grid
    basis.  That ratio is the split's ``real_basis_defect``, from V and
    the momenta in O(n).

    m and length may be arrays (broadcast together): ``potential`` then
    gets the grid points of each length along a last axis, and may return
    one potential per point of a stack; the result is the stack of the
    splits.
    """
    _check_mass(m)
    if n < 8 or (n & (n - 1)) != 0:
        raise StructureError(f"grid size must be a power of two >= 8, got {n}")
    m, length = np.asarray(m, dtype=float)[..., None], np.asarray(length, dtype=float)
    v = np.asarray(potential(np.arange(n) * (length[..., None] / n)), dtype=complex)
    if np.abs(v.imag).max(initial=0.0) > 0:
        raise MetricViolationError("metric violation: potential must be real-valued")
    v, parity = v.real, (-np.arange(n)) % n
    odd = v - v[..., parity]
    norm_sq = (v + m) ** 2 + (v - m) ** 2 + 2.0 * grid_momenta(n, length[..., None]) ** 2
    defect = per_matrix(np.sqrt(0.5 * (odd * odd).sum(axis=-1) / norm_sq.sum(axis=-1)))
    if np.all(defect <= REAL_BASIS_TOL):
        p = (2.0 * np.pi / length)[..., None, None] * _momentum_in_parity_basis(n)
        v, pairs = 0.5 * (v + v[..., parity]), np.r_[parity, parity + n]
    else:
        p, pairs = spectral_momentum(n, length), None
    h = np.zeros((*np.shape(defect), 1, 2 * n, 2 * n), dtype=p.dtype)
    h[..., 0, :n, n:] = h[..., 0, n:, :n] = p
    diagonal = np.arange(2 * n)
    h[..., 0, diagonal, diagonal] = np.concatenate((v + m, v - m), axis=-1)
    mass = np.broadcast_to(m[..., None, None] * np.eye(2 * n), h.shape)
    sectors = (np.arange(n) + n * np.array([[0], [3], [1], [2]])).reshape(2, 2 * n)
    layout = (4 * n, 1, sectors, np.array([2]))
    result = split(BlockOperator(h, *layout, pairs), BlockOperator(mass, *layout), Metric.HERMITIAN)
    return replace(result, real_basis_defect=defect)


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
            check_finite_norm(h)
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
        """The ascending Fourier orders n and the modes H_n stacked along
        axis 0, float64 when every mode is real."""
        orders, modes = np.array([n for n, _ in self.modes]), np.stack([h for _, h in self.modes])
        return orders, modes if modes.imag.any() else modes.real.copy()

    @cached_property
    def mode_layout(self) -> BlockOperator:
        """The modes of :attr:`mode_stack` in the sector layout of their
        joint pattern (:func:`~fwexact.matfun.in_sectors`), searched once."""
        return in_sectors(BlockOperator(self.mode_stack[1], self.internal_dim))

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
            "omega": "drive frequency > 0 (default 0.08, off resonance)",
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
            "omega": "drive frequency > 0 (default 0.08, off resonance)",
        },
        "description": "Dirac + alpha_z A1 cos(wt) (odd drive), Fourier modes {0, +-1}",
    },
}

#: The value of each catalog parameter that a config leaves out: 0 for
#: the momenta, potentials and drive amplitudes.  omega = 0.08 is off
#: resonance (m / omega = 12.5) and below the fold at nf = 4 (m = 1).
_DEFAULTS: dict[str, float] = {
    **dict.fromkeys(("px", "py", "pz", "p", "V0", "V1", "A1"), 0.0),
    "m": 1.0,
    "N": 32,
    "L": 2.0 * np.pi,
    "omega": 0.08,
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


def _check_values(spec: ModelSpec) -> None:
    """Raise the StructureError of the first point (of a stack, when
    parameters are arrays) whose parameter values fail a check; a point
    meets the checks in the order listed here."""

    def param(key: str) -> np.ndarray:
        return np.asarray(spec.value(key), dtype=float)

    m = param("m")
    checks = [(~(m > 0), m, "mass must be positive")]
    if spec.name == "dirac_1d":
        n, length = param("N"), param("L")
        checks += [
            (~np.isfinite(n) | (n != np.floor(n)), n, "grid size must be an integer, got {}"),
            (
                (n < 8) | (np.frexp(n)[0] != 0.5),  # a power of two has mantissa 1/2
                n,
                "grid size must be a power of two >= 8, got {:.0f}",
            ),
            (~(length > 0), length, "box length must be positive, got {}"),
        ]
    if spec.kind == "floquet":
        omega = param("omega")
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
        for key, value in self.params.items():
            if np.ndim(value) and not self.stacks(key):
                raise StructureError(f"parameter {key!r} of model {self.name} takes one value")
        object.__setattr__(self, "params", dict(self.params))
        _check_values(self)

    @property
    def kind(self) -> str:
        return MODEL_CATALOG[self.name]["kind"]

    def stacks(self, parameter: str) -> bool:
        """Whether ``parameter`` may take an array of values: any parameter
        of a stationary model except the grid size N."""
        return self.kind == "stationary" and parameter != "N"

    def value(self, key: str) -> Value:
        """The value of parameter ``key``: as given, or its default."""
        return self.params.get(key, _DEFAULTS[key])

    @property
    def side(self) -> int:
        """The side of the built Hamiltonian (of H(t) when time-periodic)."""
        if self.name == "dirac_1d":
            return 4 * int(self.value("N"))
        return 2 if self.name == "feshbach_villars" else 4

    def _momentum(self) -> tuple[Value, Value, Value]:
        return (self.value("px"), self.value("py"), self.value("pz"))

    def build(self) -> SplitHamiltonian | TimePeriodicHamiltonian:
        """The model, a stack of models when parameters are arrays.  An
        overflow raises no floating-point warning: it shows as the
        non-finite ||H||_F that validating the split raises for."""
        with np.errstate(all="ignore"):
            return self._build()

    def _build(self) -> SplitHamiltonian | TimePeriodicHamiltonian:
        m = self.value("m")
        if self.name == "free_dirac":
            return free_dirac(m, self._momentum())
        if self.name == "dirac_1d":
            length, v0, v1 = (_column(self.value(k))[..., 0] for k in ("L", "V0", "V1"))
            n, box = int(self.value("N")), self.value("L")
            return dirac_1d(m, n, box, lambda x: v0 + v1 * np.cos(2.0 * np.pi * x / length))
        if self.name == "feshbach_villars":
            return feshbach_villars(m, self.value("p"))
        if self.name == "floquet_dirac_scalar":
            return floquet_dirac_scalar(
                float(m), self._momentum(), float(self.value("V1")), float(self.value("omega"))
            )
        return floquet_dirac_vector(
            float(m), self._momentum(), float(self.value("A1")), float(self.value("omega"))
        )
