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

The transforms decompose one matrix at full size, the Hamiltonian.
Every later kernel on the hot path is a Hermitian ``eigh`` of the
diagonal parity blocks of an even operator (:class:`EvenDecomposition`):
the Eriksen denominator, which gives U and S, and S^2.  For an
operator A self-adjoint under either metric those blocks are Hermitian:
A = beta A^dag beta keeps A_{++} and A_{--} and flips the sign of the
off-diagonal pair, A_{-+} = -A_{+-}^dag.  The two blocks go to one
batched call.  The full-size exp(iS) of the cross-checks lives in
:mod:`fwexact.verify`.

Every Hermitian decomposition decomposes each sector on its own
(:func:`find_sectors`): a sector is a connected component of the
pattern of exactly nonzero entries, so A is exactly the direct sum of
its sectors.  beta is diagonal, so lambda, the denominator, U, S, S^2
and U H U^{-1} are all functions of H and beta and block-diagonal in
H's sectors.  Functions are evaluated sector by sector into a zero
matrix: entries off the sectors stay exact zeros and every later
kernel finds the same sectors.  Sectors of one size go to one batched
call, so each kernel still makes one call.  ``dirac_1d``'s side-4N H
(alpha_x couples spinor components {0, 3} and {1, 2}) is two sectors of
side 2N, and each parity block of its even operators two of side N; the
vector-drive Floquet K splits the same way.  A matrix of one sector goes
to the plain ``eigh`` of the whole, unchanged.

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
from functools import cached_property
from typing import Any, Callable, NamedTuple, Optional

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


class Sector(NamedTuple):
    """Eigenpairs of the sectors of one size of a matrix (or stack).

    ``index`` (count, size) lists each sector's rows and columns of the
    input, or is None when the one sector is the whole matrix;
    ``eigenvalues`` (..., count, size) and ``vectors`` (..., count, size,
    size) hold each sector's eigenpairs, ``inverse`` the inverse of
    ``vectors`` (its adjoint on the Hermitian path).  Without an index
    the count axis is absent.
    """

    index: Optional[np.ndarray]
    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """V f(w) V^{-1} of each sector."""
        return (self.vectors * f(self.eigenvalues)[..., None, :]) @ self.inverse


def find_sectors(a: np.ndarray) -> list[np.ndarray]:
    """The sectors of a matrix, or of a stack of them (shape (..., n, n)):
    the connected components of the pattern of exactly nonzero entries of
    A and A^T, taken over the whole stack, as ascending index arrays
    ordered by their first index.

    No entry joins two sectors, so A is exactly a direct sum over them
    and every matrix function of A is too.  Exact zeros only: an entry
    of 1e-300 joins its row and column.  A breadth-first search reads
    each row of the pattern once.
    """
    n = a.shape[-1]
    linked = (a != 0).reshape(-1, n, n).any(axis=0)
    linked |= linked.T
    unseen = np.ones(n, dtype=bool)
    sectors = []
    while unseen.any():
        frontier = np.flatnonzero(unseen)[:1]
        members = [frontier]
        while frontier.size:
            unseen[frontier] = False
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & unseen)
            members.append(frontier)
        sectors.append(np.sort(np.concatenate(members)))
    return sectors


def _per_sector(a: np.ndarray, routine: Callable) -> list[tuple[Optional[np.ndarray], Any]]:
    """``routine`` (a batched ``numpy.linalg`` call) on the whole of
    ``a`` when it is one sector (index None), otherwise once per sector
    size on that size's sectors, gathered: (index (count, size), result)
    pairs."""
    sectors = find_sectors(a)
    if len(sectors) == 1:
        return [(None, routine(a))]
    groups: dict[int, list[np.ndarray]] = {}
    for sector in sectors:
        groups.setdefault(len(sector), []).append(sector)
    return [(index, routine(_gather(a, index))) for index in map(np.stack, groups.values())]


def _gather(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The diagonal blocks of ``a`` on the sectors ``index`` (count, size),
    stacked: shape (..., count, size, size)."""
    return a[..., index[:, :, None], index[:, None, :]]


def _scatter(blocks: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The inverse of :func:`_gather`: the matrix (or stack) with the
    given (index, blocks) pairs on its sectors and exact zeros elsewhere."""
    first = blocks[0][1]
    side = sum(index.size for index, _ in blocks)
    out = np.zeros((*first.shape[:-3], side, side), dtype=first.dtype)
    for index, block in blocks:
        out[..., index[:, :, None], index[:, None, :]] = block
    return out


def _spread(values: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The vector (or stack, shape (..., n)) with the given (index,
    values) pairs at each sector's own indices."""
    first = values[0][1]
    side = sum(index.size for index, _ in values)
    out = np.empty((*first.shape[:-2], side), dtype=first.dtype)
    for index, part in values:
        out[..., index] = part
    return out


def _apply(sectors: tuple[Sector, ...], f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """V f(w) V^{-1}, evaluated sector by sector into a zero matrix, so
    every entry off the sectors is an exact zero."""
    if sectors[0].index is None:
        return sectors[0].apply(f)
    return _scatter([(s.index, s.apply(f)) for s in sectors])


def _eigh(a: np.ndarray, fix_phases: bool = False) -> tuple[np.ndarray, tuple[Sector, ...]]:
    """Ascending eigenvalues (..., n) and sector-wise eigenpairs of a
    Hermitian matrix or stack (lower triangles read): one batched
    ``eigh`` per sector size.  One sector is the plain ``eigh`` of ``a``."""
    parts = []
    for index, (w, v) in _per_sector(a, np.linalg.eigh):
        if fix_phases:
            v = _fix_phases(v)
        parts.append(Sector(index, w, v, dagger(v)))
    if parts[0].index is None:
        return parts[0].eigenvalues, tuple(parts)
    return np.sort(_spread([(s.index, s.eigenvalues) for s in parts]), axis=-1), tuple(parts)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack (lower
    triangles read), by one batched ``eigvalsh`` per sector size."""
    parts = _per_sector(a, np.linalg.eigvalsh)
    if parts[0][0] is None:
        return parts[0][1]
    return np.sort(_spread(parts), axis=-1)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigendecomposition A = V diag(w) V^{-1}, of one matrix or of a
    stack of them (leading axes on every field), held per sector
    (see :func:`find_sectors`).

    ``eigenvalues`` are complex (real up to roundoff for self-adjoint
    inputs), ascending by real part.  For the Hermitian path
    ``inverse_vectors`` is exactly ``right_vectors``^dag.  ``scale`` is
    the spectral radius max |w| (||A||_2 on the Hermitian path), an
    array with one entry per matrix for a stack.  A Hermitian input of
    several sectors is decomposed sector by sector (the beta-pseudo path
    always takes the whole matrix); its dense ``right_vectors`` are
    assembled on first read, columns in the order of ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    scale: float | np.ndarray
    sectors: tuple[Sector, ...]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Evaluate the matrix function V f(w) V^{-1} (per matrix of a
        stack); entries off the sectors are exact zeros."""
        return _apply(self.sectors, f)

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)

    @cached_property
    def right_vectors(self) -> np.ndarray:
        if self.sectors[0].index is None:
            return self.sectors[0].vectors
        v = _scatter([(s.index, s.vectors) for s in self.sectors])
        w = _spread([(s.index, s.eigenvalues.real) for s in self.sectors])
        order = np.argsort(w, axis=-1, kind="stable")
        return np.take_along_axis(v, order[..., None, :], axis=-1)

    @cached_property
    def inverse_vectors(self) -> np.ndarray:
        if self.sectors[0].index is None:
            return self.sectors[0].inverse
        return dagger(self.right_vectors)


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
    w, sectors = _eigh(a, fix_phases=True)
    sectors = tuple(s._replace(eigenvalues=s.eigenvalues.astype(complex)) for s in sectors)
    return SpectralDecomposition(w.astype(complex), _spectral_radius(w), sectors)


class EvenDecomposition(NamedTuple):
    """An even operator by its two diagonal parity blocks, stacked and
    decomposed by a batched Hermitian ``eigh`` per sector size (lower
    triangles read; the sectors are found over both blocks).

    ``eigenvalues`` has shape (..., 2, half), is real and ascending per
    block, the leading axes those of the operator's stack.  Only matrix
    functions of it are used, so the eigenvector phases are left as
    ``eigh`` returns them.  Functions of it are (upper, lower) block
    pairs, with exact zeros off the sectors.
    """

    eigenvalues: np.ndarray
    sectors: tuple[Sector, ...]

    @staticmethod
    def of(pp: np.ndarray, mm: np.ndarray) -> "EvenDecomposition":
        return EvenDecomposition(*_eigh(np.stack((pp, mm), axis=-3)))

    def apply(
        self, f: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        out = _apply(self.sectors, f)
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
    return SpectralDecomposition(
        w, _spectral_radius(w), (Sector(None, w, v, np.linalg.inv(v)),)
    )


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
