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
A real input stays float64 through ``eigh``, the phase fix and the
sign (``eig`` when numpy finds the spectrum real); complex runs the same.

The transforms decompose one matrix at full size, the Hamiltonian.
The later kernel on the hot path is a Hermitian ``eigh`` of the
diagonal parity blocks of an even operator (:class:`EvenDecomposition`),
the Eriksen denominator, which gives U and S.  For an
operator A self-adjoint under either metric those blocks are Hermitian:
A = beta A^dag beta keeps A_{++} and A_{--} and flips the sign of the
off-diagonal pair, A_{-+} = -A_{+-}^dag.  The two blocks go to one
batched call.

beta is diagonal, so lambda, the denominator, U, S and U H U^{-1}
are direct sums over H's sectors, the connected components of the
pattern of exactly nonzero entries (:func:`find_sectors`), and f(beta H
beta) = beta f(H) beta.  :func:`in_sectors` gathers a dense H once into
its sector layout (:mod:`fwexact.blockop`; ``dirac_1d`` and the Floquet K
are written in theirs), in which the whole chain stays.  Kernels take
the sector axis as a stack axis, one batched call at side s on the
distinct sectors; reductions take it as part of the matrix: Frobenius
norms weight it by the sector counts, spectra are repeated by them,
scales and checks take the extreme over it.  ``dirac_1d``'s two sectors
are equal, those of the vector-drive K (and of ``free_dirac`` along z)
beta images of each other: one sector each is decomposed.

Every kernel takes operators with leading stack axes (the points of a
sweep, the instantaneous H(t) samples of a Floquet drive) to one stacked
call.  Every check (Hermiticity, the gap, a real spectrum, cond(V),
positive definiteness, lambda^2 = 1) holds each matrix of a stack to
its own scale and reports the first one that fails; diagnostics reduce
per matrix (see :mod:`fwexact.blockop`).
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
    operator_axes,
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


def find_sectors(a: np.ndarray) -> list[np.ndarray]:
    """The sectors of a matrix, or of a stack of them (shape (..., n, n)):
    the connected components of the pattern of exactly nonzero entries of
    A and A^T, taken over the whole stack, as ascending index arrays
    ordered by their first index.

    No entry joins two sectors, so A is exactly a direct sum over them
    and every matrix function of A is too.  Exact zeros only: an entry
    of 1e-300 joins its row and column.  The pattern (with the diagonal)
    is squared until it stops growing, when it links each index to its
    whole sector; the first index linked names the sector.
    """
    n = a.shape[-1]
    linked = (a != 0).reshape(-1, n, n).any(axis=0)
    reach = (linked | linked.T | np.eye(n, dtype=bool)).astype(float)
    while not np.array_equal(reach, grown := (reach @ reach > 0).astype(float)):
        reach = grown
    first = reach.argmax(axis=0)
    return [np.flatnonzero(first == f) for f in np.flatnonzero(first == np.arange(n))]


def in_sectors(a: BlockOperator) -> BlockOperator:
    """An operator (or stack) in its sector layout: as given when it is
    held in one already, else gathered on the sectors :func:`find_sectors`
    finds (:meth:`~fwexact.blockop.BlockOperator.in_sectors`)."""
    return a if a.sectored else a.in_sectors(find_sectors(a.data))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = V diag(w) V^{-1}, of one matrix or of a
    stack of them (leading axes on every field).

    ``eigenvalues`` ascend by real part: real on the Hermitian path,
    complex (real to roundoff) on the general one unless numpy returns
    them real.  For the Hermitian path ``inverse_vectors`` is exactly
    ``right_vectors``^dag.  ``scale`` is the spectral radius max |w|
    (||A||_2 on the Hermitian path), one entry per matrix of a stack.  In
    the sector layout (``sectored``) each distinct sector's eigenpairs,
    ascending, are on the sector axis, and ``scale`` spans every sector.
    """

    eigenvalues: np.ndarray
    scale: float | np.ndarray
    right_vectors: np.ndarray
    inverse_vectors: np.ndarray
    sectored: bool = False

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Evaluate the matrix function V f(w) V^{-1} (per matrix of a
        stack, in the layout of the decomposed operator)."""
        w = f(self.eigenvalues)
        return (self.right_vectors * w[..., None, :]) @ self.inverse_vectors


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


def _spectral_radius(w: np.ndarray, sectored: bool) -> float | np.ndarray:
    """max |w| of each operator: a float for one, an array for a stack."""
    return per_matrix(np.abs(w).max(axis=operator_axes(1, sectored), initial=0.0))


def _decompose_hermitian(a: np.ndarray, sectored: bool = False) -> SpectralDecomposition:
    w, v = np.linalg.eigh(a)
    v = _fix_phases(v)
    radius = _spectral_radius(w, sectored)
    return SpectralDecomposition(w, radius, v, dagger(v), sectored)


class EvenDecomposition(NamedTuple):
    """An even operator by its two diagonal parity blocks, stacked and
    decomposed by one batched Hermitian ``eigh`` (lower triangles read),
    real for real blocks.

    ``eigenvalues`` has shape (..., 2, half), is real and ascending per
    block, the leading axes those of the operator's stack (with the
    sector axis last when ``sectored``).  Only matrix functions of it are
    used, so the eigenvector phases are left as ``eigh`` returns them.
    Functions of it are (upper, lower) block pairs.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    sectored: bool = False

    @staticmethod
    def of(pp: np.ndarray, mm: np.ndarray, sectored: bool = False) -> "EvenDecomposition":
        return EvenDecomposition(*np.linalg.eigh(np.stack((pp, mm), axis=-3)), sectored)

    def apply(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        v = self.vectors
        out = (v * f(self.eigenvalues)[..., None, :]) @ dagger(v)
        return out[..., 0, :, :], out[..., 1, :, :]

    def positive(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply f to both blocks, whose joint spectrum must be positive;
        the threshold is relative to the largest |eigenvalue| of the two
        blocks (of every sector) of the same operator.  The error names the
        lowest eigenvalue only below -threshold: within it, its digits are
        roundoff that equivalent arithmetic would change."""
        w, axes = self.eigenvalues, operator_axes(2, self.sectored)
        lowest = w.min(axis=axes)
        threshold = 1e-12 * np.maximum(np.abs(w).max(axis=axes), 1e-300)
        i = first_failing(lowest <= threshold)
        if i is not None:
            low, bound = np.ravel(lowest)[i], np.ravel(threshold)[i]
            found = f"{low:.3e}" if low < -bound else "within the threshold of zero"
            raise DomainError(
                f"not positive definite: min eigenvalue {found} (threshold {bound:.3e})"
            )
        return self.apply(f)


def _decompose_general(a: np.ndarray, sectored: bool = False) -> SpectralDecomposition:
    w, v = np.linalg.eig(a)
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    v = v / np.linalg.norm(v, axis=-2, keepdims=True)
    v = _fix_phases(v)
    # a sector stack is held to its worst sector's eigenbasis
    cond = np.linalg.cond(v).max(axis=operator_axes(0, sectored))
    i = first_failing(cond > _COND_LIMIT)
    if i is not None:
        raise EigendecompositionError(
            f"ill-conditioned eigenbasis: cond(V) = {np.ravel(cond)[i]:.3e} "
            f"> {_COND_LIMIT:.0e}"
        )
    return SpectralDecomposition(w, _spectral_radius(w, sectored), v, np.linalg.inv(v), sectored)


def check_hermitian(
    data: np.ndarray, tol: float = TOL_STRUCT, weights: np.ndarray | None = None
) -> None:
    """Raise MetricViolationError unless ``data`` is Hermitian to ``tol``
    relative; each matrix (sector stack with ``weights``, see
    :func:`~fwexact.blockop.frobenius`) of a stack is held to its own norm."""
    defect = frobenius(data - dagger(data), weights)
    i = first_failing(defect > tol * np.maximum(frobenius(data, weights), 1e-300))
    if i is not None:
        raise MetricViolationError(
            f"input is not Hermitian: defect {np.ravel(defect)[i]:.3e} "
            f"(relative tol {tol:.1e})"
        )


def decompose(a: BlockOperator, metric: Metric) -> SpectralDecomposition:
    """Metric-aware eigendecomposition of a block operator; see
    :func:`decompose_array`, in the layout of ``a``."""
    return decompose_array(a.data, metric, a.weights)


def decompose_array(
    data: np.ndarray, metric: Metric, weights: np.ndarray | None = None
) -> SpectralDecomposition:
    """Metric-aware eigendecomposition of one matrix or of a stack of
    matrices (shape (..., n, n)) by one stacked call.

    Hermitian metric: the input must be Hermitian to ``TOL_STRUCT``
    relative and the decomposition is orthonormal.  Beta-pseudo metric:
    a general diagonalization; the spectrum must be real to 1e-8 times
    its spectral radius (unbroken pseudo-Hermitian phase), otherwise
    "broken pseudo-Hermiticity" is raised.  Every check holds each
    matrix of a stack to its own scale.  With the sector ``weights`` the
    input is a stack of sector stacks (..., distinct, s, s), each one
    operator.
    """
    sectored = weights is not None
    if metric is Metric.HERMITIAN:
        check_hermitian(data, weights=weights)
        return _decompose_hermitian(data, sectored)
    dec = _decompose_general(data, sectored)
    max_imag = np.abs(dec.eigenvalues.imag).max(axis=operator_axes(1, sectored), initial=0.0)
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
    return h.like(dec.apply(lambda w: np.sign(w.real)))


def check_gap(dec: SpectralDecomposition, gap_tol: float = GAP_TOL) -> None:
    """Raise unless min |eigenvalue| exceeds ``gap_tol`` times max |eigenvalue|.

    A stacked decomposition is checked matrix by matrix against its own
    spectral radius; the error reports the first failing matrix and
    carries its stack position as ``index``.
    """
    min_abs = np.abs(dec.eigenvalues.real).min(axis=operator_axes(1, dec.sectored))
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
    from one whole lambda^2: the commutator is beta lambda^2 beta -
    lambda^2, minus twice the odd part of lambda^2."""
    square = lam.like(lam.data @ lam.data)
    _, pm, mp, _ = square.blocks
    odd = hypot(lam.frobenius(pm), lam.frobenius(mp))
    root_n = math.sqrt(lam.side)
    return {
        "lambda_sq_defect": lam.frobenius(add_identity(square.data, -1.0)) / root_n,
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
