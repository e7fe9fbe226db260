"""Matrix functions via metric-aware eigendecomposition.

Every matrix function needed downstream (sign, principal square root
and its inverse, arcsine, exponential) is evaluated in an eigenbasis:
``numpy.linalg.eigh`` for the Hermitian metric, ``numpy.linalg.eig``
with a conditioning check for the beta-pseudo-Hermitian one.  Iterative
sign/Newton schemes are deliberately not used: the matrices are small to
moderate, one decomposition serves all functions, and the stability of
the iterations is unproven for the pseudo-Hermitian case.

Output is deterministic per input: eigenvalues are sorted ascending by
real part (stable tie-break on the imaginary part) and each eigenvector
is rescaled so its largest-magnitude component is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blockop import BlockOperator, Metric, adjoint_m, identity_defect
from .errors import (
    DomainError,
    EigendecompositionError,
    MetricViolationError,
    SpectralGapError,
)
from .tolerances import EPS_CLAMP, GAP_TOL, TOL_STRUCT

_COND_LIMIT = 1e8
_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = V diag(w) V^{-1}.

    ``eigenvalues`` are complex (real up to roundoff for self-adjoint
    inputs), ascending by real part.  For the Hermitian path
    ``inverse_vectors`` is exactly ``right_vectors``^dag.  ``scale`` is
    ||A||_2: max |w| on the Hermitian path, the largest singular value
    otherwise.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    inverse_vectors: np.ndarray
    scale: float

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Evaluate the matrix function V f(w) V^{-1}."""
        return (self.right_vectors * f(self.eigenvalues)) @ self.inverse_vectors

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)

    def positive(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Apply f to the spectrum, which must be positive real."""
        min_real = float(self.eigenvalues.real.min())
        threshold = 1e-12 * max(self.scale, 1e-300)
        if min_real <= threshold:
            raise DomainError(
                f"not positive definite: min eigenvalue {min_real:.3e} "
                f"(threshold {threshold:.3e})"
            )
        return self.apply(lambda w: f(w.real).astype(complex))


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rescale each column so its largest-magnitude entry is real > 0."""
    fixed = vectors.copy()
    for j in range(fixed.shape[1]):
        col = fixed[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if pivot != 0:
            fixed[:, j] = col * (abs(pivot) / pivot)
    return fixed


def _decompose_hermitian(a: np.ndarray) -> SpectralDecomposition:
    w, v = np.linalg.eigh(a)
    v = _fix_phases(v)
    scale = float(np.abs(w).max(initial=0.0))
    return SpectralDecomposition(w.astype(complex), v, v.conj().T, scale)


def _decompose_general(a: np.ndarray) -> SpectralDecomposition:
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    v = v / np.linalg.norm(v, axis=0)
    v = _fix_phases(v)
    cond = np.linalg.cond(v)
    if cond > _COND_LIMIT:
        raise EigendecompositionError(
            f"ill-conditioned eigenbasis: cond(V) = {cond:.3e} > {_COND_LIMIT:.0e}"
        )
    scale = float(np.linalg.norm(a, 2))
    return SpectralDecomposition(w, v, np.linalg.inv(v), scale)


def decompose(
    a: BlockOperator,
    metric: Metric,
    *,
    tol_struct: float = TOL_STRUCT,
    allow_complex: bool = False,
) -> SpectralDecomposition:
    """Metric-aware eigendecomposition.

    Hermitian metric: the input must be Hermitian to ``tol_struct``
    relative and the decomposition is orthonormal.  Beta-pseudo metric:
    a general diagonalization; unless ``allow_complex`` is set the
    spectrum must be real to 1e-8 * ||A||_2 (unbroken pseudo-Hermitian
    phase), otherwise "broken pseudo-Hermiticity" is raised.
    """
    data = a.data
    if metric is Metric.HERMITIAN:
        defect = np.linalg.norm(data - data.conj().T)
        if defect > tol_struct * max(np.linalg.norm(data), 1e-300):
            raise MetricViolationError(
                f"input is not Hermitian: defect {defect:.3e} (relative tol {tol_struct:.1e})"
            )
        return _decompose_hermitian(data)
    dec = _decompose_general(data)
    if not allow_complex:
        scale = max(dec.scale, 1e-300)
        max_imag = float(np.abs(dec.eigenvalues.imag).max(initial=0.0))
        if max_imag > _IMAG_TOL * scale:
            raise EigendecompositionError(
                "broken pseudo-Hermiticity: eigenvalue imaginary part "
                f"{max_imag:.3e} exceeds {_IMAG_TOL:.0e} * ||A||_2"
            )
    return dec


def sign_of(
    h: BlockOperator,
    metric: Metric,
    gap_tol: float = GAP_TOL,
    dec: SpectralDecomposition | None = None,
) -> BlockOperator:
    """Sign operator H / sqrt(H^2), evaluated as V sign(Re w) V^{-1}.

    Requires the spectrum to stay away from zero: min |w| must exceed
    ``gap_tol`` times the spectral norm of H.  ``dec`` is the
    decomposition of h when the caller already holds it.
    """
    if dec is None:
        dec = decompose(h, metric)
    check_gap(dec, gap_tol)
    return h.like(dec.apply(lambda w: np.sign(w.real).astype(complex)))


def check_gap(dec: SpectralDecomposition, gap_tol: float = GAP_TOL) -> None:
    """Raise unless min |eigenvalue| exceeds ``gap_tol`` times ||H||_2."""
    min_abs = float(np.abs(dec.eigenvalues.real).min())
    if min_abs <= gap_tol * dec.scale:
        raise SpectralGapError(
            f"spectral gap violation: min |eigenvalue| = {min_abs:.3e} "
            f"<= {gap_tol:.1e} * ||H||_2 = {gap_tol * dec.scale:.3e}; "
            "the sign operator is undefined"
        )


def check_involution(lam: BlockOperator, tol: float) -> None:
    """Raise unless the sign operator squares to one within ``tol``."""
    defect = identity_defect(lam.data @ lam.data - np.eye(lam.side))
    if defect > tol:
        raise DomainError(
            f"sign operator is not an involution: ||lambda^2 - 1|| = {defect:.3e} "
            f"(tolerance {tol:.1e})"
        )


def sqrt_spd(a: BlockOperator, metric: Metric) -> BlockOperator:
    """Principal square root of a positive-definite operator."""
    return a.like(decompose(a, metric).positive(np.sqrt))


def inv_sqrt_spd(a: BlockOperator, metric: Metric) -> BlockOperator:
    """Principal inverse square root of a positive-definite operator."""
    return a.like(decompose(a, metric).positive(lambda w: 1.0 / np.sqrt(w)))


def arcsin_m(
    m: BlockOperator, metric: Metric, eps_clamp: float = EPS_CLAMP
) -> tuple[BlockOperator, float]:
    """Principal arcsine, eigenvalue-wise, and the clamp excess.

    The beta-pseudo metric uses the general decomposition: there the
    doubling argument has an imaginary spectrum (arcsin(i x) =
    i arcsinh(x), away from the real branch cuts).  Real eigenvalues
    (imaginary part within ``eps_clamp``) must lie in [-1 - eps_clamp,
    1 + eps_clamp]; the clamp snaps them to +-1 and the excess is how
    far the largest |eigenvalue| among them pokes past 1.
    """
    dec = decompose(m, metric, allow_complex=True)
    w = dec.eigenvalues
    real_like = np.abs(w.imag) <= eps_clamp
    excess = max(0.0, float(np.abs(w.real[real_like]).max(initial=0.0)) - 1.0)
    if excess > eps_clamp:
        raise DomainError(
            f"arcsin domain violation: |eigenvalue| exceeds 1 by {excess:.3e} "
            f"(clamp band {eps_clamp:.1e})"
        )
    arc = np.where(real_like, np.arcsin(np.clip(w.real, -1.0, 1.0)), np.arcsin(w))
    return m.like(dec.apply(lambda _: arc)), excess


def arcsin_herm(m: BlockOperator, eps_clamp: float = EPS_CLAMP) -> BlockOperator:
    """Principal arcsine of a Hermitian matrix (see :func:`arcsin_m`)."""
    return arcsin_m(m, Metric.HERMITIAN, eps_clamp)[0]


def exp_i(s: BlockOperator, metric: Metric) -> BlockOperator:
    """exp(iS) in the eigenbasis of S.

    S must be self-adjoint under ``metric``; the result is then
    metric-unitary.  For the beta-pseudo metric the spectrum of S may be
    complex (bosonic generators have imaginary eigenvalues), so the
    general decomposition is used.
    """
    defect = np.linalg.norm(s.data - adjoint_m(s, metric).data)
    if defect > 1e-8 * max(s.norm(), 1.0):
        raise MetricViolationError(
            f"generator is not self-adjoint under {metric.value}: defect {defect:.3e}"
        )
    if metric is Metric.HERMITIAN:
        dec = _decompose_hermitian(s.data)
        return s.like(dec.apply(lambda w: np.exp(1j * w.real)))
    dec = _decompose_general(s.data)
    return s.like(dec.apply(lambda w: np.exp(1j * w)))
