"""Block-operator algebra for two-spinor graded Hamiltonians.

Wave functions carry an upper and a lower spinor-like block of equal
size; the grading beta is +1 on the upper block and -1 on the lower.
beta is never a matrix here: it is the +-1 vector
:attr:`BlockOperator.signs`, derived from an operator's block tags, and
a product with it is a sign flip of rows or columns.  Any operator
splits into an even part (commutes with beta, block-diagonal) and an
odd part (anticommutes, block-antidiagonal).  Fermionic Hamiltonians
are self-adjoint under the plain Hermitian metric; bosonic first-order
wave equations are self-adjoint under the beta-weighted metric,
A -> beta A^dag beta.

Every operator the transforms build after the sign operator is even or
odd, so they work on its four parity blocks (upper-upper, upper-lower,
lower-upper, lower-lower): :attr:`BlockOperator.blocks` gives them and
:meth:`BlockOperator.like_blocks` puts blocks back in the original
layout.  Only this module knows that layout: the blocks are contiguous
slices when beta is block-ordered (stationary) and one stable gather
when the signs interleave per Fourier copy (Floquet).

An operator's data may carry leading stack axes, shape (..., n, n): a
stack of operators of one block structure, such as the points of a
sweep, goes through every kernel at once.  Blocks, adjoints and sign
flips act on the last two axes, and norms and defects reduce per matrix:
they come back as arrays with the stack's shape, and as floats when
there is no stack (:func:`per_matrix`).

Everything here is a pure function of immutable inputs; matrices are
dense complex throughout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import MetricViolationError, StructureError
from .tolerances import TOL_STRUCT


class Metric(Enum):
    """Adjoint convention: plain Hermitian or beta-pseudo-Hermitian."""

    HERMITIAN = "hermitian"
    BETA_PSEUDO = "beta-pseudo"


class Blocks(NamedTuple):
    """The four parity blocks of an operator: rows and columns split by
    the sign of beta, upper (+) before lower (-)."""

    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray


class _Parity:
    """beta's signs (read-only) and the index sets of the upper and lower
    components: slices when beta is block-ordered, index arrays (in
    ascending order) otherwise."""

    def __init__(self, signs: np.ndarray) -> None:
        signs.flags.writeable = False
        self.signs = signs
        upper, lower = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
        self.half = len(upper)
        if np.array_equal(upper, np.arange(self.half)):
            self.upper, self.lower = slice(0, self.half), slice(self.half, len(signs))
        else:
            self.upper, self.lower = upper, lower

    def _index(self, rows, cols):
        if isinstance(rows, slice):
            return ..., rows, cols
        return (..., *np.ix_(rows, cols))

    def split(self, x: np.ndarray) -> Blocks:
        up, dn = self.upper, self.lower
        return Blocks(*(x[self._index(r, c)] for r in (up, dn) for c in (up, dn)))

    def join(self, blocks: tuple[Optional[np.ndarray], ...]) -> np.ndarray:
        side = 2 * self.half
        stack = next(b.shape[:-2] for b in blocks if b is not None)
        out = np.zeros((*stack, side, side), dtype=complex)
        up, dn = self.upper, self.lower
        for (r, c), block in zip(((up, up), (up, dn), (dn, up), (dn, dn)), blocks):
            if block is not None:
                out[self._index(r, c)] = block
        return out


@lru_cache(maxsize=32)
def _parity(internal_dim: int, floquet_copies: int) -> _Parity:
    """The parity of a block structure: beta is +1 on the upper and -1 on
    the lower block of every Fourier copy."""
    signs = np.tile(np.repeat([1.0, -1.0], internal_dim // 2), floquet_copies)
    return _Parity(signs)


@dataclass(frozen=True)
class BlockOperator:
    """Square complex matrix tagged with its block structure.

    Parameters
    ----------
    data : ndarray
        Square complex matrix of side ``internal_dim * floquet_copies``,
        or a stack of them (shape (..., side, side)).  A complex array is
        kept as given, without a copy (operators are never modified in
        place); anything else is converted.
    internal_dim : int
        Dimension of one time-Fourier copy.  Always even: the upper and
        lower spinor-like blocks have ``internal_dim // 2`` components
        each (for a grid model the grid factor is folded in here).
    floquet_copies : int
        Number of Fourier copies in the extended space; 1 when
        stationary.
    """

    data: np.ndarray
    internal_dim: int
    floquet_copies: int = 1

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=complex)
        if data.ndim < 2 or data.shape[-1] != data.shape[-2]:
            raise StructureError(f"operator must be square, got shape {data.shape}")
        if self.internal_dim < 2 or self.internal_dim % 2 != 0:
            raise StructureError(
                f"internal dimension must be even and >= 2, got {self.internal_dim}"
            )
        if self.floquet_copies < 1:
            raise StructureError(f"floquet_copies must be >= 1, got {self.floquet_copies}")
        if data.shape[-1] != self.internal_dim * self.floquet_copies:
            raise StructureError(
                f"side {data.shape[-1]} != internal_dim {self.internal_dim} "
                f"x floquet_copies {self.floquet_copies}"
            )
        object.__setattr__(self, "data", data)

    @property
    def side(self) -> int:
        return self.internal_dim * self.floquet_copies

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """The leading stack axes of ``data``; () for one operator."""
        return self.data.shape[:-2]

    def like(self, data: np.ndarray) -> "BlockOperator":
        """New operator with the same block tags."""
        return BlockOperator(data, self.internal_dim, self.floquet_copies)

    @property
    def signs(self) -> np.ndarray:
        """beta as its read-only +-1 diagonal: +1 on the upper and -1 on
        the lower block of every Fourier copy."""
        return _parity(self.internal_dim, self.floquet_copies).signs

    @cached_property
    def blocks(self) -> Blocks:
        """The parity blocks: views of ``data`` when beta is block-ordered,
        copies gathered once otherwise."""
        return _parity(self.internal_dim, self.floquet_copies).split(self.data)

    def like_blocks(
        self,
        pp: Optional[np.ndarray],
        pm: Optional[np.ndarray],
        mp: Optional[np.ndarray],
        mm: Optional[np.ndarray],
    ) -> "BlockOperator":
        """New operator with the same block tags from its parity blocks,
        scattered back to the original layout; None is a zero block."""
        parity = _parity(self.internal_dim, self.floquet_copies)
        return self.like(parity.join((pp, pm, mp, mm)))

    def norm(self) -> float | np.ndarray:
        """Frobenius norm, per matrix of a stack."""
        return frobenius(self.data)


def dagger(x: np.ndarray) -> np.ndarray:
    """Plain adjoint (conjugate transpose) of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def per_matrix(x: np.ndarray | float) -> float | np.ndarray:
    """A per-matrix result as returned: a float without a stack axis,
    the array (with the stack's shape) otherwise."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def at_least(x: np.ndarray | float, lower: np.ndarray | float) -> float | np.ndarray:
    """max(x, lower) per matrix (a float without a stack axis)."""
    if isinstance(x, np.ndarray) or isinstance(lower, np.ndarray):
        return np.maximum(x, lower)
    return max(x, lower)


def first_failing(failing: np.ndarray | bool) -> Optional[int]:
    """Flat stack position of the first matrix for which a check fails
    (``failing`` holds one flag per matrix), None when none does."""
    positions = np.flatnonzero(failing)
    return int(positions[0]) if positions.size else None


def add_identity(x: np.ndarray, c: float) -> np.ndarray:
    """x + c 1 (per matrix of a stack), in place: ``x`` must be a square
    temporary."""
    diagonal = np.arange(x.shape[-1])
    x[..., diagonal, diagonal] += c
    return x


def frobenius(x: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of each matrix of ``x``.  A matrix stored in one
    piece is read as a row of real numbers (real and imaginary parts
    side by side) whose square norm is one dot product; otherwise
    the squares of its real and imaginary parts are summed in place.
    The norm of an operator given by blocks is :func:`hypot` of theirs;
    passing each block as an expression keeps one block temporary alive
    at a time."""
    if x.strides[-1] == x.itemsize and x.strides[-2] == x.itemsize * x.shape[-1]:
        row = x.view(x.real.dtype).reshape(*x.shape[:-2], 1, -1)
        square = (row @ row.swapaxes(-1, -2))[..., 0, 0]
    else:
        square = np.einsum("...ij,...ij->...", x.real, x.real) + np.einsum(
            "...ij,...ij->...", x.imag, x.imag
        )
    return per_matrix(np.sqrt(square))


def hypot(*norms: float | np.ndarray) -> float | np.ndarray:
    """sqrt of the sum of squares, elementwise over stacked norms."""
    return per_matrix(reduce(np.hypot, norms))


def relative_odd_norm(a: BlockOperator) -> float | np.ndarray:
    """||odd(A)||_F / ||A||_F, read off the off-diagonal parity blocks."""
    odd = hypot(frobenius(a.blocks.pm), frobenius(a.blocks.mp))
    return odd / at_least(a.norm(), 1e-300)


def adjoint_sign(metric: Metric) -> float:
    """Sign the off-diagonal parity blocks of a metric adjoint carry:
    (A^adj)_{+-} = sign * (A_{-+})^dag, diagonal blocks plain adjoints."""
    return 1.0 if metric is Metric.HERMITIAN else -1.0


def _check_same_shape(a: BlockOperator, b: BlockOperator) -> None:
    if (a.internal_dim, a.floquet_copies) != (b.internal_dim, b.floquet_copies):
        raise StructureError(
            f"block structure mismatch: ({a.internal_dim}, {a.floquet_copies}) "
            f"vs ({b.internal_dim}, {b.floquet_copies})"
        )


def _flip(x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """beta x beta: the entries of ``x`` coupling the upper and lower
    blocks change sign."""
    return signs[:, None] * (x * signs)


def even_part(a: BlockOperator) -> BlockOperator:
    """Projection onto the beta-commuting part, (A + beta A beta) / 2.

    Since beta is a +-1 diagonal, the projection zeroes the
    block-antidiagonal entries exactly; even_part + odd_part reproduces
    the input bit for bit.
    """
    return a.like((a.data + _flip(a.data, a.signs)) / 2.0)


def odd_part(a: BlockOperator) -> BlockOperator:
    """Projection onto the beta-anticommuting part, (A - beta A beta) / 2."""
    return a.like((a.data - _flip(a.data, a.signs)) / 2.0)


def adjoint_m(a: BlockOperator, metric: Metric) -> BlockOperator:
    """Metric adjoint: A^dag for the Hermitian metric, beta A^dag beta
    for the beta-pseudo metric.  An involution for both."""
    if metric is Metric.HERMITIAN:
        return a.like(dagger(a.data))
    signs = a.signs
    return a.like(signs[:, None] * dagger(a.data) * signs)


@dataclass(frozen=True)
class SplitHamiltonian:
    """Hamiltonian split H = beta*mass + even + odd.

    ``mass`` is the even operator multiplying beta (declared by the
    model; the split of the even content between beta*mass and the even
    term is not unique when mass is a nonconstant operator, so it is
    never inferred).  ``even`` commutes with beta, ``odd`` anticommutes,
    and the total is self-adjoint under ``metric``.  ``defects`` holds the
    structural defect norms measured by :func:`split` (empty for a split
    assembled by hand).
    """

    mass: BlockOperator
    even: BlockOperator
    odd: BlockOperator
    metric: Metric
    defects: dict[str, float] = dataclasses.field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for part in (self.even, self.odd):
            _check_same_shape(part, self.mass)

    @property
    def total(self) -> BlockOperator:
        """beta*mass + even + odd."""
        mass = self.mass
        return mass.like(mass.signs[:, None] * mass.data + self.even.data + self.odd.data)

    def validate(self, tol: float = TOL_STRUCT) -> dict[str, float | np.ndarray]:
        """Relative defect norms of the structural invariants (per matrix
        of a stack).

        Raises StructureError for a matrix whose ||H||_F is not finite
        (every relative defect would read 0 beside it), and StructureError
        / MetricViolationError when any defect exceeds ``tol``.
        """
        signs, total = self.mass.signs, self.total
        rows = signs[:, None]
        mass, even, odd = self.mass.data, self.even.data, self.odd.data
        scale = np.maximum(total.norm(), 1e-300)
        floor = np.maximum(scale * tol, 1e-300)
        defects = {
            "mass_even_defect": frobenius(rows * mass - mass * signs)
            / np.maximum(self.mass.norm(), 1e-300),
            "even_defect": frobenius(rows * even - even * signs)
            / np.maximum(self.even.norm(), floor),
            "odd_defect": frobenius(rows * odd + odd * signs)
            / np.maximum(self.odd.norm(), floor),
            "self_adjoint_defect": frobenius(total.data - adjoint_m(total, self.metric).data)
            / scale,
        }
        return self._check({k: per_matrix(v) for k, v in defects.items()}, tol, scale)

    def check(self, tol: float = TOL_STRUCT) -> dict[str, float | np.ndarray]:
        """The defects :func:`split` measured, held to ``tol`` (measured
        afresh by :meth:`validate` when the split was assembled by hand)."""
        if not self.defects:
            return self.validate(tol)
        return self._check(dict(self.defects), tol)

    def _check(
        self, defects: dict[str, float | np.ndarray], tol: float, scale: float | np.ndarray = 1.0
    ) -> dict[str, float | np.ndarray]:
        """Raise for the first matrix whose norm ``scale`` is not finite or
        with a defect that is not within ``tol``."""
        values = np.array(list(defects.values())).reshape(len(defects), -1)
        norms = np.broadcast_to(scale, values.shape[1:])
        i = first_failing(~np.isfinite(norms) | ~(values <= tol).all(axis=0))
        if i is None:
            return defects
        if not np.isfinite(norms[i]):
            raise StructureError(f"Hamiltonian norm is not finite: ||H||_F = {norms[i]}")
        failing = dict(zip(defects, values[:, i]))
        if not failing["mass_even_defect"] <= tol:
            raise StructureError(
                f"mass operator is not even: defect {failing['mass_even_defect']:.3e}"
            )
        if not (failing["even_defect"] <= tol and failing["odd_defect"] <= tol):
            raise StructureError(
                "even/odd split violates the beta grading: "
                f"even {failing['even_defect']:.3e}, odd {failing['odd_defect']:.3e}"
            )
        raise MetricViolationError(
            "metric violation: total Hamiltonian is not self-adjoint "
            f"under {self.metric.value}: defect {failing['self_adjoint_defect']:.3e}"
        )


def stack_splits(splits: Sequence[SplitHamiltonian]) -> SplitHamiltonian:
    """One split whose operators stack those of ``splits`` along a new
    leading axis; all must share one block structure and the metric.
    The stack keeps the defects of the splits, stacked, when each holds
    its own."""
    first = splits[0]
    for other in splits[1:]:
        _check_same_shape(other.mass, first.mass)
        if other.metric is not first.metric:
            raise StructureError(
                f"metric mismatch: {first.metric.value} vs {other.metric.value}"
            )

    def stacked(part: str) -> BlockOperator:
        return first.mass.like(np.stack([getattr(s, part).data for s in splits]))

    defects = {}
    if all(s.defects for s in splits):
        defects = {key: np.array([s.defects[key] for s in splits]) for key in first.defects}
    return SplitHamiltonian(
        stacked("mass"), stacked("even"), stacked("odd"), first.metric, defects
    )


def split(
    h: BlockOperator, mass: BlockOperator, metric: Metric, tol: float = TOL_STRUCT
) -> SplitHamiltonian:
    """Split a self-adjoint H into beta*mass + even + odd.

    The even term is even_part(H) - beta*mass and the odd term is
    odd_part(H).  :meth:`SplitHamiltonian.validate` checks that the mass
    commutes with beta and H is self-adjoint under ``metric`` to ``tol``;
    its defects are kept on the result.
    """
    _check_same_shape(mass, h)
    even = h.like(even_part(h).data - mass.signs[:, None] * mass.data)
    result = SplitHamiltonian(mass=mass, even=even, odd=odd_part(h), metric=metric)
    return dataclasses.replace(result, defects=result.validate(tol))
