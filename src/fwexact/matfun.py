"""Matrix functions via metric-aware eigendecomposition.

The sign operator is evaluated in an eigenbasis: ``numpy.linalg.eigh``
for the Hermitian metric, ``numpy.linalg.eig`` with a conditioning check
for the beta-pseudo-Hermitian one.  Iterative sign/Newton schemes are
deliberately not used: the matrices are small to moderate, one
decomposition serves all functions, and the stability of the iterations
is unproven for the pseudo-Hermitian case.

Output is deterministic per input: eigenvalues are sorted ascending by
real part (stable tie-break on the imaginary part) and each eigenvector
is rescaled so its largest-magnitude component is real and positive.

The transforms decompose one full-size matrix, the Hamiltonian.  Every
later kernel on the hot path is a half-size Hermitian ``eigh`` of the
diagonal parity blocks of an even operator (:class:`EvenDecomposition`):
the Eriksen denominator, which gives U and S, and S^2.  For an
operator A self-adjoint under either metric those blocks are Hermitian:
A = beta A^dag beta keeps A_{++} and A_{--} and flips the sign of the
off-diagonal pair, A_{-+} = -A_{+-}^dag.  The two blocks go to one
batched call.  The full-size exp(iS) of the cross-checks lives in
:mod:`fwexact.verify`.

Every kernel takes operators with leading stack axes (the points of a
sweep, the instantaneous H(t) samples of a Floquet drive) to one stacked
call, so a stack of 4x4 or 2x2 models pays the Python overhead of one
call per kernel, not one per matrix.  Every check (Hermiticity, the gap,
a real spectrum, cond(V), positive definiteness, lambda^2 = 1) holds
each matrix of a stack to its own scale and reports the first one that
fails; diagnostics reduce per matrix (see :mod:`fwexact.blockop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .blockop import (
    BlockOperator,
    Metric,
    add_identity,
    dagger,
    first_failing,
    frobenius,
    hypot,
    per_matrix,
)
from .errors import (
    DomainError,
    EigendecompositionError,
    MetricViolationError,
    SpectralGapError,
)
from .tolerances import GAP_TOL, TOL_STRUCT

_COND_LIMIT = 1e8
_IMAG_TOL = 1e-8


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = V diag(w) V^{-1}, of one matrix or of a
    stack of them (leading axes on every field).

    ``eigenvalues`` are complex (real up to roundoff for self-adjoint
    inputs), ascending by real part.  For the Hermitian path
    ``inverse_vectors`` is exactly ``right_vectors``^dag.  ``scale`` is
    the spectral radius max |w| (||A||_2 on the Hermitian path), an
    array with one entry per matrix for a stack.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    inverse_vectors: np.ndarray
    scale: float | np.ndarray

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Evaluate the matrix function V f(w) V^{-1} (per matrix of a stack)."""
        values = f(self.eigenvalues)[..., None, :]
        return (self.right_vectors * values) @ self.inverse_vectors

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rescale each column (of each matrix of a stack), in place, so its
    largest-magnitude entry is real > 0."""
    rows = np.abs(vectors).argmax(axis=-2)[..., None, :]
    pivots = np.take_along_axis(vectors, rows, axis=-2)
    nonzero = pivots != 0
    phases = np.ones_like(pivots)
    phases[nonzero] = np.abs(pivots[nonzero]) / pivots[nonzero]
    vectors *= phases
    return vectors


def _spectral_radius(w: np.ndarray) -> float | np.ndarray:
    """max |w| of each matrix: a float for one, an array for a stack."""
    return per_matrix(np.abs(w).max(axis=-1, initial=0.0))


def _decompose_hermitian(a: np.ndarray) -> SpectralDecomposition:
    w, v = np.linalg.eigh(a)
    v = _fix_phases(v)
    return SpectralDecomposition(
        w.astype(complex), v, dagger(v), _spectral_radius(w)
    )


class EvenDecomposition(NamedTuple):
    """An even operator by its two diagonal parity blocks, stacked and
    decomposed by one batched Hermitian ``eigh`` (lower triangles read).

    ``eigenvalues`` has shape (..., 2, half) and is real; ``vectors`` has
    shape (..., 2, half, half), the leading axes those of the operator's
    stack.  Only matrix functions of it are used, so the eigenvector
    phases are left as ``eigh`` returns them.  Functions of it are
    (upper, lower) block pairs.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse_vectors: np.ndarray

    @staticmethod
    def of(pp: np.ndarray, mm: np.ndarray) -> "EvenDecomposition":
        w, v = np.linalg.eigh(np.stack((pp, mm), axis=-3))
        return EvenDecomposition(w, v, dagger(v))

    def apply(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        out = (self.vectors * f(self.eigenvalues)[..., None, :]) @ self.inverse_vectors
        return out[..., 0, :, :], out[..., 1, :, :]

    def positive(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply f to both blocks, whose joint spectrum must be positive;
        the threshold is relative to the largest |eigenvalue| of the two
        blocks of the same operator."""
        w = self.eigenvalues
        lowest = w.min(axis=(-2, -1))
        threshold = 1e-12 * np.maximum(np.abs(w).max(axis=(-2, -1)), 1e-300)
        i = first_failing(lowest <= threshold)
        if i is not None:
            raise DomainError(
                f"not positive definite: min eigenvalue {np.ravel(lowest)[i]:.3e} "
                f"(threshold {np.ravel(threshold)[i]:.3e})"
            )
        return self.apply(f)


def _decompose_general(a: np.ndarray) -> SpectralDecomposition:
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    v = _fix_phases(v)
    cond = np.linalg.cond(v)
    i = first_failing(cond > _COND_LIMIT)
    if i is not None:
        raise EigendecompositionError(
            f"ill-conditioned eigenbasis: cond(V) = {np.ravel(cond)[i]:.3e} "
            f"> {_COND_LIMIT:.0e}"
        )
    return SpectralDecomposition(w, v, np.linalg.inv(v), _spectral_radius(w))


def check_hermitian(data: np.ndarray, tol: float = TOL_STRUCT) -> None:
    """Raise MetricViolationError unless ``data`` is Hermitian to ``tol``
    relative; each matrix of a stack is held to its own norm."""
    defect = frobenius(data - dagger(data))
    i = first_failing(defect > tol * np.maximum(frobenius(data), 1e-300))
    if i is not None:
        raise MetricViolationError(
            f"input is not Hermitian: defect {np.ravel(defect)[i]:.3e} "
            f"(relative tol {tol:.1e})"
        )


def decompose(a: BlockOperator, metric: Metric) -> SpectralDecomposition:
    """Metric-aware eigendecomposition of a block operator; see
    :func:`decompose_array`."""
    return decompose_array(a.data, metric)


def decompose_array(data: np.ndarray, metric: Metric) -> SpectralDecomposition:
    """Metric-aware eigendecomposition of one matrix or of a stack of
    matrices (shape (..., n, n)) by one stacked call.

    Hermitian metric: the input must be Hermitian to ``TOL_STRUCT``
    relative and the decomposition is orthonormal.  Beta-pseudo metric:
    a general diagonalization; the spectrum must be real to 1e-8 times
    its spectral radius (unbroken pseudo-Hermitian phase), otherwise
    "broken pseudo-Hermiticity" is raised.  Every check holds each
    matrix of a stack to its own scale.
    """
    if metric is Metric.HERMITIAN:
        check_hermitian(data)
        return _decompose_hermitian(data)
    dec = _decompose_general(data)
    max_imag = np.abs(dec.eigenvalues.imag).max(axis=-1, initial=0.0)
    i = first_failing(max_imag > _IMAG_TOL * np.maximum(dec.scale, 1e-300))
    if i is not None:
        raise EigendecompositionError(
            "broken pseudo-Hermiticity: eigenvalue imaginary part "
            f"{np.ravel(max_imag)[i]:.3e} exceeds {_IMAG_TOL:.0e} * max |eigenvalue|"
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
    ``gap_tol`` times the spectral radius of H.  ``dec`` is the
    decomposition of h when the caller already holds it.
    """
    if dec is None:
        dec = decompose(h, metric)
    check_gap(dec, gap_tol)
    return h.like(dec.apply(lambda w: np.sign(w.real).astype(complex)))


def check_gap(dec: SpectralDecomposition, gap_tol: float = GAP_TOL) -> None:
    """Raise unless min |eigenvalue| exceeds ``gap_tol`` times max |eigenvalue|.

    A stacked decomposition is checked matrix by matrix against its own
    spectral radius; the error reports the first failing matrix and
    carries its stack position as ``index``.
    """
    min_abs = np.abs(dec.eigenvalues.real).min(axis=-1)
    scale = np.asarray(dec.scale)
    i = first_failing(min_abs <= gap_tol * scale)
    if i is not None:
        bound = gap_tol * float(np.ravel(scale)[i])
        raise SpectralGapError(
            f"spectral gap violation: min |eigenvalue| = {np.ravel(min_abs)[i]:.3e} "
            f"<= {gap_tol:.1e} * ||H||_2 = {bound:.3e}; "
            "the sign operator is undefined",
            index=i if scale.ndim else None,
        )


def involution_defects(lam: BlockOperator) -> dict[str, float | np.ndarray]:
    """lambda_sq_defect, ||lambda^2 - 1|| / sqrt(n), and
    sign_products_commute_defect, ||[beta lambda, lambda beta]|| / sqrt(n),
    from one blockwise lambda^2: the commutator is beta lambda^2 beta -
    lambda^2, minus twice the odd part of lambda^2."""
    a, b, c, d = lam.blocks
    diagonal = hypot(
        frobenius(add_identity(a @ a + b @ c, -1.0)),
        frobenius(add_identity(c @ b + d @ d, -1.0)),
    )
    odd = hypot(frobenius(a @ b + b @ d), frobenius(c @ a + d @ c))
    root_n = math.sqrt(lam.side)
    return {
        "lambda_sq_defect": hypot(diagonal, odd) / root_n,
        "sign_products_commute_defect": 2.0 * odd / root_n,
    }


def check_involution(lam: BlockOperator, tol: float) -> dict[str, float | np.ndarray]:
    """Raise unless the sign operator squares to one within ``tol`` (each
    matrix of a stack); returns :func:`involution_defects`."""
    defects = involution_defects(lam)
    defect = defects["lambda_sq_defect"]
    i = first_failing(defect > tol)
    if i is not None:
        raise DomainError(
            "sign operator is not an involution: "
            f"||lambda^2 - 1|| = {np.ravel(defect)[i]:.3e} (tolerance {tol:.1e})"
        )
    return defects
