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
slices when beta is block-ordered (stationary, or several sectors) and
one stable gather when the signs interleave per Fourier copy (Floquet).

An operator's data may carry leading stack axes, shape (..., n, n): a
stack of operators of one block structure, such as the points of a
sweep, goes through every kernel at once.  Blocks, adjoints and sign
flips act on the last two axes, and norms and defects reduce per matrix:
they come back as arrays with the stack's shape, and as floats when
there is no stack (:func:`per_matrix`).

An operator can be held in its sector layout
(:meth:`BlockOperator.in_sectors`, or written so by its model): the
stack (..., distinct, s, s) of its distinct diagonal blocks on decoupled
sectors, with how many sectors hold each, as B or as its beta image
beta B beta (only ``dense()`` tells them apart), Frobenius norms weighted
by those counts.  Matrices are float64 or complex128, kept as given; a
layout holds exactly real input as float64, or is held in the real basis
of a map within each sector (``pairs``: grid parity for ``dirac_1d``,
whose model keeps that basis only when the imaginary part it drops, the
real_basis_defect, is roundoff, :data:`REAL_BASIS_TOL`); ``dense()``
undoes the map.

A split (:class:`SplitHamiltonian`) is H as the model built it, dense or
in its layout, plus its mass; its defects are read off that layout's
parity blocks.  Its odd term is :func:`odd_part` of H, odd by
construction, so no defect of it is measured.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple, Optional

import numpy as np

from .errors import MetricViolationError, StructureError
from .tolerances import TOL_STRUCT

#: Largest ||Im||_F / ||H||_F a real basis of a pair map may drop, the part of H odd under
#: the map times conjugation: roundoff (dirac_1d: at most 2e-17), set by no config.
REAL_BASIS_TOL = 1e-14


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
        out = np.zeros((*stack, side, side), np.result_type(*(b for b in blocks if b is not None)))
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


def _from_pair_basis(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Q x Q^dag (per matrix), Q the real basis of the involution ``pairs``:
    e_i at a fixed point, (e_i + e_j)/sqrt2 and i(e_i - e_j)/sqrt2 for a
    pair i < j.  A row of Q has two entries, d at the diagonal and e at the
    partner: O(n^2)."""
    k, r = np.arange(len(pairs)), math.sqrt(0.5)
    d = np.where(pairs == k, 1.0, np.where(k < pairs, r, -1j * r))
    e = np.where(pairs == k, 0.0, np.where(k < pairs, 1j * r, r))
    rows = e[:, None] * x[..., pairs, :]
    rows += d[:, None] * x
    out = rows.take(pairs, axis=-1)
    out *= e.conj()
    rows *= d.conj()
    out += rows
    return out


@dataclass(frozen=True)
class BlockOperator:
    """Square real or complex matrix tagged with its block structure.

    Parameters
    ----------
    data : ndarray
        Square float64 or complex128 matrix of side ``internal_dim *
        floquet_copies``, or a stack of them (shape (..., side, side)), kept
        as given, without a copy (operators are never modified in place);
        anything else becomes float64, or complex128 when it is complex.
    internal_dim : int
        Dimension of one time-Fourier copy.  Always even: the upper and
        lower spinor-like blocks have ``internal_dim // 2`` components
        each (for a grid model the grid factor is folded in here).
    floquet_copies : int
        Number of Fourier copies in the extended space; 1 when
        stationary.
    sectors : ndarray, optional
        In the sector layout (:meth:`in_sectors`), the (count, s) rows
        and columns of each sector, the sectors that hold one block of
        ``data`` consecutive; ``data`` is then (..., distinct, s, s).
    weights : ndarray, optional
        In the sector layout, how many sectors hold each block of ``data``.
    pairs : ndarray, optional
        In the sector layout, a row involution within a sector (the same
        for every sector) whose real basis ``data`` is held in.
    images : ndarray, optional
        In the sector layout, True for a sector that holds the beta image
        beta B beta of its block B of ``data``.
    """

    data: np.ndarray
    internal_dim: int
    floquet_copies: int = 1
    sectors: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    pairs: Optional[np.ndarray] = None
    images: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.dtype not in (np.float64, np.complex128):
            data = data.astype(complex if np.iscomplexobj(data) else float)
        if data.ndim < 2 or data.shape[-1] != data.shape[-2]:
            raise StructureError(f"operator must be square, got shape {data.shape}")
        if self.internal_dim < 2 or self.internal_dim % 2 != 0:
            raise StructureError(
                f"internal dimension must be even and >= 2, got {self.internal_dim}"
            )
        if self.floquet_copies < 1:
            raise StructureError(f"floquet_copies must be >= 1, got {self.floquet_copies}")
        if self.sectors is None and data.shape[-1] != self.internal_dim * self.floquet_copies:
            raise StructureError(
                f"side {data.shape[-1]} != internal_dim {self.internal_dim} "
                f"x floquet_copies {self.floquet_copies}"
            )
        object.__setattr__(self, "data", data)

    @property
    def side(self) -> int:
        return self.internal_dim * self.floquet_copies

    @property
    def sectored(self) -> bool:
        return self.sectors is not None

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """The leading stack axes of ``data`` (not its sector axis)."""
        return self.data.shape[: self.data.ndim - 2 - self.sectored]

    def like(self, data: np.ndarray) -> "BlockOperator":
        """New operator with the same block tags and layout."""
        tags = (self.sectors, self.weights, self.pairs, self.images)
        return BlockOperator(data, self.internal_dim, self.floquet_copies, *tags)

    @cached_property
    def _layout(self) -> _Parity:
        """The parity of the last two axes of ``data``."""
        if self.sectors is None or len(self.sectors) == 1:
            return _parity(self.internal_dim, self.floquet_copies)
        return _parity(self.sectors.shape[1], 1)

    @property
    def signs(self) -> np.ndarray:
        """beta as its read-only +-1 diagonal: +1 on the upper and -1 on
        the lower block of every Fourier copy (of one sector, upper
        first, in a layout of several sectors)."""
        return self._layout.signs

    @cached_property
    def blocks(self) -> Blocks:
        """The parity blocks: views of ``data`` when beta is block-ordered
        (in a layout of several sectors too), copies gathered once otherwise."""
        return self._layout.split(self.data)

    def like_blocks(
        self,
        pp: Optional[np.ndarray],
        pm: Optional[np.ndarray],
        mp: Optional[np.ndarray],
        mm: Optional[np.ndarray],
    ) -> "BlockOperator":
        """New operator with the same block tags from its parity blocks,
        scattered back to the original layout; None is a zero block."""
        return self.like(self._layout.join((pp, pm, mp, mm)))

    def frobenius(self, x: np.ndarray) -> float | np.ndarray:
        """Frobenius norm of ``x`` (data or blocks in this layout), per operator."""
        return frobenius(x, self.weights)

    def norm(self) -> float | np.ndarray:
        """Frobenius norm, per operator of a stack."""
        return self.frobenius(self.data)

    def in_sectors(self, sectors: list[np.ndarray]) -> "BlockOperator":
        """This dense operator's diagonal blocks on ``sectors`` (index arrays
        it does not couple), stacked with each sector's beta = +1 components
        first; sectors of unequal size or parity balance give one sector,
        the whole matrix in its own order.  A block equal, exactly and at
        every point of the stack, to an earlier sector's block B, or else to
        its beta image beta B beta, is held once (``images`` flags the
        second kind).  Blocks are held real when their imaginary part is
        exactly zero."""
        signs, size = self.signs, len(sectors[0])
        if len(sectors) == 1 or any(
            len(s) != size or 2 * np.count_nonzero(signs[s] > 0) != size for s in sectors
        ):
            index = np.arange(self.side)[None]
            data = self.data[..., None, :, :]
        else:
            index = np.stack([np.concatenate((s[signs[s] > 0], s[signs[s] < 0])) for s in sectors])
            data = self.data[..., index[:, :, None], index[:, None, :]]
        blocks, beta = np.moveaxis(data, -3, 0), signs[index[0]]  # beta in a sector's order
        firsts, owner = [], []  # owner: (image, distinct block) of each sector
        for k, b in enumerate(blocks):
            # the first distinct block equal to b, else to its beta image
            found = [(image, i) for image, x in enumerate((b, beta[:, None] * b * beta))
                     for i, j in enumerate(firsts) if np.array_equal(blocks[j], x)]
            owner.append((found or [(0, len(firsts))])[0])
            if owner[-1][1] == len(firsts):
                firsts.append(k)
        images, owner = np.array(owner).T
        order = np.argsort(owner, kind="stable")
        if len(firsts) < len(index):
            data, index = data[..., firsts, :, :], index[order]
        if np.iscomplexobj(data) and not data.imag.any():
            data = np.ascontiguousarray(data.real)
        images = images.astype(bool)[order] if images.any() else None
        return BlockOperator(
            data, self.internal_dim, self.floquet_copies, index, np.bincount(owner), images=images
        )

    def dense(self) -> "BlockOperator":
        """The operator as one matrix: each block (back from the real basis
        of ``pairs``, complex) at every sector that holds it, its odd
        blocks negated where that is its beta image, in zeros."""
        if not self.sectored:
            return self
        index, data = self.sectors, self.data
        if self.pairs is not None:
            data = _from_pair_basis(data, self.pairs)
        if len(index) == 1:
            data = data[..., 0, :, :]
        else:
            blocks = np.repeat(data, self.weights, axis=-3)
            if self.images is not None:
                image, odd = blocks[..., self.images, :, :], self.signs[:, None] != self.signs
                # a subtraction from zero negates without making a -0
                blocks[..., self.images, :, :] = np.where(odd, 0.0 - image, image)
            data = np.zeros((*self.stack_shape, self.side, self.side), dtype=data.dtype)
            data[..., index[:, :, None], index[:, None, :]] = blocks
        return BlockOperator(data, self.internal_dim, self.floquet_copies)


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


def operator_axes(k: int, sectored: bool) -> tuple[int, ...]:
    """The last ``k`` axes, and the sector axis before them if ``sectored``."""
    return tuple(range(-k - sectored, 0))


def add_identity(x: np.ndarray, c: float) -> np.ndarray:
    """x + c 1 (per matrix of a stack), in place: ``x`` must be a square
    temporary."""
    diagonal = np.arange(x.shape[-1])
    x[..., diagonal, diagonal] += c
    return x


def known_phase(c: complex) -> float | complex:
    """A scalar factor as a float when it is real: a real array times it stays real."""
    return c.real if c.imag == 0 else c


def frobenius(x: np.ndarray, weights: Optional[np.ndarray] = None) -> float | np.ndarray:
    """Frobenius norm of each matrix of ``x``, or with ``weights`` of each
    sector stack (..., distinct, s, s), block k counted weights[k] times.
    An array stored in one piece is read as rows of real numbers (real and
    imaginary parts side by side) whose square norms are dot products;
    otherwise the squares of its real and imaginary parts are summed in
    place.  The norm of an operator given by blocks is :func:`hypot` of
    theirs; passing each block as an expression keeps one block temporary
    alive at a time."""
    if x.flags.c_contiguous:
        row = x.view(x.real.dtype).reshape(*x.shape[:-2], 1, -1)
        square = (row @ row.swapaxes(-1, -2))[..., 0, 0]
    else:
        square = np.einsum("...ij,...ij->...", x.real, x.real)
        if np.iscomplexobj(x):
            square += np.einsum("...ij,...ij->...", x.imag, x.imag)
    if weights is not None:
        square = square @ weights
    return per_matrix(np.sqrt(square))


def hypot(*norms: float | np.ndarray) -> float | np.ndarray:
    """sqrt of the sum of squares, elementwise over stacked norms."""
    return per_matrix(reduce(np.hypot, norms))


def relative_odd_norm(a: BlockOperator) -> float | np.ndarray:
    """||odd(A)||_F / ||A||_F, read off the off-diagonal parity blocks."""
    odd = hypot(a.frobenius(a.blocks.pm), a.frobenius(a.blocks.mp))
    return odd / at_least(a.norm(), 1e-300)


def adjoint_sign(metric: Metric) -> float:
    """Sign the off-diagonal parity blocks of a metric adjoint carry:
    (A^adj)_{+-} = sign * (A_{-+})^dag, diagonal blocks plain adjoints."""
    return 1.0 if metric is Metric.HERMITIAN else -1.0


def even_part(a: BlockOperator) -> BlockOperator:
    """Projection onto the beta-commuting part, (A + beta A beta) / 2: the
    diagonal parity blocks, with exact zeros in the off-diagonal ones, so
    even_part + odd_part reproduces the input bit for bit."""
    return a.like_blocks(a.blocks.pp, None, None, a.blocks.mm)


def odd_part(a: BlockOperator) -> BlockOperator:
    """Projection onto the beta-anticommuting part, (A - beta A beta) / 2."""
    return a.like_blocks(None, a.blocks.pm, a.blocks.mp, None)


def adjoint_m(a: BlockOperator, metric: Metric) -> BlockOperator:
    """Metric adjoint: A^dag for the Hermitian metric, beta A^dag beta
    for the beta-pseudo metric.  An involution for both."""
    if metric is Metric.HERMITIAN:
        return a.like(dagger(a.data))
    signs = a.signs
    return a.like(signs[:, None] * dagger(a.data) * signs)


@dataclass(frozen=True)
class SplitHamiltonian:
    """Hamiltonian H = beta*mass + even + odd, held as H and its mass.

    ``h`` is H as the model built it, self-adjoint under ``metric``, dense
    or in its sector layout; ``mass``, in the same layout, is the even
    operator multiplying beta (declared by the model; the split of the
    even content between beta*mass and the even term is not unique when
    mass is a nonconstant operator, so it is never inferred).  ``total``
    is the dense H, assembled when first read, and ``even`` (commutes with
    beta) and ``odd`` (anticommutes) are read off it.  ``defects`` holds
    the defect norms :func:`split` measured (empty for a split assembled
    by hand); ``real_basis_defect`` is what a model's real basis dropped
    (None when it tried none).
    """

    h: BlockOperator
    mass: BlockOperator
    metric: Metric
    defects: dict[str, float] = field(default_factory=dict, compare=False)
    real_basis_defect: Optional[float | np.ndarray] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        shapes = [(a.internal_dim, a.floquet_copies, a.sectored) for a in (self.mass, self.h)]
        if shapes[0] != shapes[1] or self.h.sectored and not all(
            np.array_equal(getattr(self.h, f), getattr(self.mass, f)) for f in ("sectors", "images")
        ):
            raise StructureError(f"block structure mismatch: mass {shapes[0]} vs H {shapes[1]}")

    @cached_property
    def total(self) -> BlockOperator:
        """H as one dense matrix (or stack)."""
        return self.h.dense()

    @property
    def even(self) -> BlockOperator:
        """even_part(H) - beta*mass."""
        h_pp, _, _, h_mm = self.total.blocks
        m_pp, m_pm, m_mp, m_mm = self.mass.dense().blocks
        # beta*mass has blocks m_pp, m_pm, -m_mp, -m_mm
        return self.total.like_blocks(h_pp - m_pp, -m_pm, m_mp, h_mm + m_mm)

    @property
    def odd(self) -> BlockOperator:
        """odd_part(H)."""
        return odd_part(self.total)

    def validate(self, tol: float = TOL_STRUCT) -> dict[str, float | np.ndarray]:
        """Relative defect norms of the structural invariants (per matrix
        of a stack), from the parity blocks of H and the mass in their
        layout (sector blocks weighted by their counts): beta X - X beta is
        twice the odd blocks of X (with signs), beta X + X beta twice the
        diagonal ones.  The even term's odd blocks are the mass's; the odd
        term is :func:`odd_part` of H, with no diagonal blocks to measure.

        Raises StructureError for a matrix whose ||H||_F is not finite
        (every relative defect would read 0 beside it), and StructureError
        / MetricViolationError when any defect exceeds ``tol``.
        """
        h, mass, norm = self.h, self.mass, self.h.frobenius
        scale = np.maximum(h.norm(), 1e-300)
        pp, pm, mp, mm = h.blocks
        m_pp, m_pm, m_mp, m_mm = mass.blocks
        mass_odd = hypot(norm(m_pm), norm(m_mp))
        even_norm = hypot(norm(pp - m_pp), mass_odd, norm(mm + m_mm))
        # (H - H^adj)_{-+} is the metric adjoint of (H - H^adj)_{+-}, up to sign
        off_diagonal = math.sqrt(2.0) * norm(pm - adjoint_sign(self.metric) * dagger(mp))
        defects = {
            "mass_even_defect": 2.0 * mass_odd / np.maximum(mass.norm(), 1e-300),
            "even_defect": 2.0 * mass_odd / np.maximum(even_norm, np.maximum(scale * tol, 1e-300)),
            "self_adjoint_defect": hypot(norm(pp - dagger(pp)), off_diagonal, norm(mm - dagger(mm)))
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
        values = np.array(list(defects.values()))
        norms = np.broadcast_to(scale, values.shape[1:]).ravel()
        values = values.reshape(len(defects), -1)
        i = first_failing(~np.isfinite(norms) | ~(values <= tol).all(axis=0))
        if i is None:
            return defects
        if not np.isfinite(norms[i]):
            raise _norm_not_finite(norms[i])
        failing = dict(zip(defects, values[:, i]))
        if not failing["mass_even_defect"] <= tol:
            raise StructureError(
                f"mass operator is not even: defect {failing['mass_even_defect']:.3e}"
            )
        if not failing["even_defect"] <= tol:
            raise StructureError(
                f"even/odd split violates the beta grading: even {failing['even_defect']:.3e}"
            )
        raise MetricViolationError(
            "metric violation: total Hamiltonian is not self-adjoint "
            f"under {self.metric.value}: defect {failing['self_adjoint_defect']:.3e}"
        )


def _norm_not_finite(norm: float) -> StructureError:
    return StructureError(f"Hamiltonian norm is not finite: ||H||_F = {norm}")


def check_finite_norm(x: np.ndarray) -> None:
    """Raise StructureError for the first matrix of a stack (or the one
    matrix) whose Frobenius norm is not finite: an entry that overflowed
    or is nan, beside which every relative defect would read 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = frobenius(x)
    i = first_failing(~np.isfinite(norms))
    if i is not None:
        raise _norm_not_finite(np.ravel(norms)[i])


def split(
    h: BlockOperator, mass: BlockOperator, metric: Metric, tol: float = TOL_STRUCT
) -> SplitHamiltonian:
    """Split a self-adjoint H (dense or in its sector layout) into
    beta*mass + even + odd: the split holds H itself and the declared
    mass, in H's layout.  :meth:`SplitHamiltonian.validate` checks to
    ``tol`` that the mass commutes with beta and H is self-adjoint under
    ``metric``; the defects are kept.
    """
    result = SplitHamiltonian(h, mass, metric)
    return replace(result, defects=result.validate(tol))
