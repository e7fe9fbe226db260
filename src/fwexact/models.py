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

from .blockop import (
    BlockOperator,
    Metric,
    SplitHamiltonian,
    beta_matrix,
    split,
)
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


def _check_grid_size(n: int) -> None:
    if n < 8 or (n & (n - 1)) != 0:
        raise StructureError(f"grid size must be a power of two >= 8, got {n}")


def free_dirac(m: float, p: tuple[float, float, float]) -> SplitHamiltonian:
    """Free Dirac Hamiltonian alpha.p + beta m (4x4).

    mass = m*1 (so the even term vanishes) and odd = alpha.p; the
    spectrum is +-sqrt(m^2 + p^2), doubly degenerate.
    """
    h = _free_dirac_matrix(m, p)
    beta = beta_matrix(4, 1)
    mass = BlockOperator(m * np.eye(4, dtype=complex), 4, 1)
    return split(BlockOperator(h, 4, 1), mass, beta, Metric.HERMITIAN)


def _free_dirac_matrix(m: float, p: tuple[float, float, float]) -> np.ndarray:
    """alpha.p + beta m as a plain 4x4 matrix."""
    if m <= 0:
        raise StructureError(f"mass must be positive, got {m}")
    px, py, pz = (float(c) for c in p)
    return BETA4 * m + (ALPHA[0] * px + ALPHA[1] * py + ALPHA[2] * pz)


def spectral_momentum(n: int, length: float) -> np.ndarray:
    """-i d/dx on a uniform periodic grid of n points over [0, length).

    Built in Fourier space, so plane waves exp(i k x) with grid momenta
    k = 2 pi j / length are exact eigenvectors.  Hermitian.
    """
    if n < 2 or n % 2 != 0:
        raise StructureError(f"grid size must be even and >= 2, got {n}")
    f = np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    return f.conj().T @ (k[:, None] * f)


def grid_momenta(n: int, length: float) -> np.ndarray:
    """Grid momenta 2 pi j / length in FFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def dirac_1d(
    m: float, n: int, length: float, potential: Callable[[np.ndarray], np.ndarray]
) -> SplitHamiltonian:
    """1-D Dirac Hamiltonian alpha_x p + beta m + V(x) on a periodic grid.

    The odd part is alpha_x (x) P with P the spectral momentum matrix,
    the even part is 1_4 (x) diag(V(x_j)), and mass = m*1.  Kronecker
    order is spinor-major, so the grading matrix is the side-4n one with
    the grid factor folded into each spinor block.  n must be a power of
    two >= 8.
    """
    if m <= 0:
        raise StructureError(f"mass must be positive, got {m}")
    _check_grid_size(n)
    x = np.arange(n) * (length / n)
    v = np.asarray(potential(x), dtype=complex)
    if np.abs(v.imag).max(initial=0.0) > 0:
        raise MetricViolationError("metric violation: potential must be real-valued")
    p_op = spectral_momentum(n, length)
    h = (
        np.kron(ALPHA[0], p_op)
        + np.kron(np.eye(4, dtype=complex), np.diag(v.real))
        + m * np.kron(BETA4, np.eye(n))
    )
    side = 4 * n
    beta = beta_matrix(side, 1)
    mass = BlockOperator(m * np.eye(side, dtype=complex), side, 1)
    return split(BlockOperator(h, side, 1), mass, beta, Metric.HERMITIAN)


def feshbach_villars(m: float, p: float) -> SplitHamiltonian:
    """Two-component spin-0 Hamiltonian at fixed momentum p (2x2).

    H = (tau3 + i tau2) p^2/(2m) + tau3 m, self-adjoint under the
    beta-pseudo metric with beta = tau3 but not Hermitian for p != 0.
    mass = (m + p^2/2m)*1 carries the whole even diagonal, so the even
    term vanishes and odd = i tau2 p^2/(2m).  Spectrum +-sqrt(m^2+p^2).
    """
    if m <= 0:
        raise StructureError(f"mass must be positive, got {m}")
    kinetic = p * p / (2.0 * m)
    h = (TAU3 + 1j * TAU2) * kinetic + TAU3 * m
    beta = beta_matrix(2, 1)
    mass = BlockOperator((m + kinetic) * np.eye(2, dtype=complex), 2, 1)
    return split(BlockOperator(h, 2, 1), mass, beta, Metric.BETA_PSEUDO)


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


@dataclass(frozen=True)
class ModelSpec:
    """Named model plus parameter map, as parsed from a run config."""

    name: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in MODEL_CATALOG:
            raise StructureError(
                f"unknown model {self.name!r}; known: {', '.join(sorted(MODEL_CATALOG))}"
            )
        check_parameter_names(self.name, self.params)
        params = dict(self.params)
        if params.get("m", 1.0) <= 0:
            raise StructureError("mass must be positive")
        if self.name == "dirac_1d":
            _check_grid_size(int(params.get("N", 32)))
        if self.kind == "floquet":
            if params.get("omega", 1.0) <= 0:
                raise StructureError("drive frequency must be positive")
        object.__setattr__(self, "params", params)

    @property
    def kind(self) -> str:
        return MODEL_CATALOG[self.name]["kind"]

    def _momentum(self) -> tuple[float, float, float]:
        p = self.params
        return (p.get("px", 0.0), p.get("py", 0.0), p.get("pz", 0.0))

    def build(self) -> SplitHamiltonian | TimePeriodicHamiltonian:
        p = self.params
        m = float(p.get("m", 1.0))
        if self.name == "free_dirac":
            return free_dirac(m, self._momentum())
        if self.name == "dirac_1d":
            n = int(p.get("N", 32))
            length = float(p.get("L", 2.0 * np.pi))
            v0 = float(p.get("V0", 0.0))
            v1 = float(p.get("V1", 0.0))
            return dirac_1d(
                m, n, length, lambda x: v0 + v1 * np.cos(2.0 * np.pi * x / length)
            )
        if self.name == "feshbach_villars":
            return feshbach_villars(m, float(p.get("p", 0.0)))
        if self.name == "floquet_dirac_scalar":
            return floquet_dirac_scalar(
                m, self._momentum(), float(p.get("V1", 0.0)), float(p.get("omega", 1.0))
            )
        return floquet_dirac_vector(
            m, self._momentum(), float(p.get("A1", 0.0)), float(p.get("omega", 1.0))
        )
