"""Exact exponential generator of the block-diagonalizing unitary.

With lambda the (possibly extended-space) sign operator, the doubling
identities

    sin 2S = -i (beta lambda - lambda beta) / 2
    cos 2S =    (beta lambda + lambda beta) / 2

pin down an odd, metric-self-adjoint generator S with exp(iS) = U: the
half-angle arcsine of the doubling argument

    M = i (beta lambda - lambda beta) / 2,      S = -(1/2) arcsin(M).

Everything is evaluated on the beta parity blocks.  M is odd, with
off-diagonal blocks i lambda_{+-} and -i lambda_{-+}, so an odd function
of it is g(M) = M (g(x)/x)(M^2), and M^2 is even with diagonal blocks
lambda_{+-} lambda_{-+} = 1 - lambda_{++}^2 and lambda_{-+} lambda_{+-}
= 1 - lambda_{--}^2, by lambda^2 = 1.  Those are functions of the
diagonal blocks 2 + 2 lambda_{++} and 2 - 2 lambda_{--} of the Eriksen
denominator 2 + beta lambda + lambda beta (its off-diagonal blocks
cancel exactly): with w an eigenvalue of either block, 1 - x^2 =
w (1 - w/4).  So the one decomposition of the denominator that gives U
gives S as well,

    S_{+-} = -(i/2) lambda_{+-} h_{--},    S_{-+} = (i/2) lambda_{-+} h_{++},

h = arcsin(sqrt z) / sqrt z at z = w (1 - w/4), the principal angles of
beta's upper subspace and the positive-energy subspace read off the
denominator (Davis & Kahan's direct rotation).  The blocks are Hermitian
in both metrics (see :mod:`fwexact.matfun`), so the kernel is one
batched ``eigh`` of the two half-size blocks of every sector.  In the
Hermitian metric z lies in [0, 1]; in the beta-pseudo metric
lambda_{-+} = -lambda_{+-}^dag makes M^2 <= 0, the imaginary spectrum
on which arcsin(i x) = i arcsinh(x), and z < 0 takes the arcsinh
branch.  h is continuous at z = 0, so no clamp band is
needed.  The doubling identities and exp(iS) = U follow from the
diagonal blocks of S^2, computed from S's own blocks: a route
independent of the one that made S.  The arcsine of M itself, form A
and the full-size exp(iS) are cross-checks in :mod:`fwexact.verify`.

S is assembled from its off-diagonal blocks alone (the
``like_blocks(None, ..., None)`` in :func:`generator`), so it
anticommutes with beta by construction and no oddness defect is
measured; the two off-diagonal blocks are computed independently, so
``hermiticity_defect`` stays a measurement.

The kernels carry iS, real when lambda is, as S = -i (iS): an odd
operator is a known phase times its blocks (:class:`OddSquare`), so S^2,
the doubling identities and exp(iS) run real on a real lambda.

lambda may carry leading stack axes (one sign operator per point of a
sweep) and its sector axis: every block product, decomposition and
defect runs over both at once, and the diagnostics are arrays with the
stack's shape (floats without a stack).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from .blockop import (
    BlockOperator,
    Metric,
    add_identity,
    adjoint_sign,
    at_least,
    dagger,
    frobenius,
    hypot,
    known_phase,
    operator_axes,
    per_matrix,
)
from .errors import DomainError
from .matfun import EvenDecomposition, check_hermitian, check_involution, in_sectors

#: Default bound on ||lambda^2 - 1|| / sqrt(n) before lambda is used.
LAMBDA_SQ_TOL = 1e-8

#: Prefix of the error a denominator that is not positive definite raises.
DEGENERATE = "eriksen denominator degenerate"

_Branch = Callable[[np.ndarray], np.ndarray]


class _OnSquare(NamedTuple):
    """A function f of an eigenvalue x given through y = x^2, x real
    (y >= 0) or imaginary (y < 0): ``real(t)`` = f(t) and
    ``imaginary(t)`` = f(i t), or f(i t) / i when f is odd, for
    t = sqrt|y|; ``at_zero`` is the limit of f(x)/x at 0 for odd f."""

    real: _Branch
    imaginary: _Branch
    at_zero: Optional[float] = None

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """f(x) for even f, f(x)/x for odd f."""
        t = np.sqrt(np.abs(y))
        if y.min(initial=0.0) >= 0.0:  # real spectrum: one branch is enough
            values = self.real(t)
        else:
            values = np.where(y >= 0, self.real(t), self.imaginary(t))
        if self.at_zero is None:
            return values
        return np.divide(values, t, out=np.full_like(t, self.at_zero), where=t > 0)


# the arcsine clamps its real argument at 1
_ARCSIN = _OnSquare(lambda t: np.arcsin(np.minimum(t, 1.0)), np.arcsinh, 1.0)
_COS = _OnSquare(np.cos, np.cosh)
_SIN = _OnSquare(np.sin, np.sinh, 1.0)
_COS2 = _OnSquare(lambda t: np.cos(2.0 * t), lambda t: np.cosh(2.0 * t))
_SIN2 = _OnSquare(lambda t: np.sin(2.0 * t), lambda t: np.sinh(2.0 * t), 2.0)


class OddSquare:
    """An odd operator X = ``phase`` Y by the off-diagonal blocks of Y,
    with the diagonal blocks X_{+-} X_{-+} and X_{-+} X_{+-} of X^2
    (phase^2 Y_{+-} Y_{-+} and phase^2 Y_{-+} Y_{+-}) decomposed.

    Even functions are f(X) = f(X^2) (diagonal blocks); odd ones are
    g(X) = X (g(x)/x)(X^2), returned divided by ``phase`` (off-diagonal
    blocks).
    """

    def __init__(self, pm: np.ndarray, mp: np.ndarray, sectored: bool = False, phase=1) -> None:
        self.pm, self.mp, self.phase = pm, mp, phase
        square = known_phase(phase * phase)
        self.square = EvenDecomposition.of(square * (pm @ mp), square * (mp @ pm), sectored)

    def even(self, f: _OnSquare) -> tuple[np.ndarray, np.ndarray]:
        return self.square.apply(f)

    def odd(self, g: _OnSquare) -> tuple[np.ndarray, np.ndarray]:
        upper, lower = self.square.apply(g)
        return self.pm @ lower, self.mp @ upper

    def norm_2(self) -> float | np.ndarray:
        """||X||_2 = sqrt(max |eig X^2|) per operator; X is normal
        (Hermitian or skew-Hermitian) when it is metric-self-adjoint."""
        eigenvalues = np.abs(self.square.eigenvalues)
        axes = operator_axes(2, self.square.sectored)
        return per_matrix(np.sqrt(eigenvalues.max(axis=axes, initial=0.0)))


def denominator_decomposition(
    lam: BlockOperator,
    lambda_sq_tol: float | None = LAMBDA_SQ_TOL,
) -> EvenDecomposition:
    """Decomposition of 2 + beta lambda + lambda beta, which gives the
    Eriksen unitary and S, by its diagonal blocks 2 + 2 lambda_{++} and
    2 - 2 lambda_{--}, made after checking that lambda squares to one
    within ``lambda_sq_tol`` (None skips it), in lambda's sector layout
    (:func:`~fwexact.matfun.in_sectors`).

    Both blocks must be Hermitian, as they are for a lambda self-adjoint
    under either metric; otherwise MetricViolationError is raised.
    """
    lam = in_sectors(lam)
    if lambda_sq_tol is not None:
        check_involution(lam, lambda_sq_tol)
    upper = add_identity(2.0 * lam.blocks.pp, 2.0)
    lower = add_identity(-2.0 * lam.blocks.mm, 2.0)
    for block in (upper, lower):
        check_hermitian(block, weights=lam.weights)
    return EvenDecomposition.of(upper, lower, lam.sectored)


def inverse_root(dec: EvenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the inverse square root of a positive even operator (the
    denominator, or the Gram matrix of the polar form); a spectrum that
    is not positive is a degenerate denominator."""
    try:
        return dec.positive(lambda w: 1.0 / np.sqrt(w))
    except DomainError as exc:
        raise DomainError(f"{DEGENERATE}: {exc}") from exc


def generator(
    lam: BlockOperator, metric: Metric, dec: EvenDecomposition
) -> tuple[BlockOperator, OddSquare, dict[str, float | np.ndarray]]:
    """S from the :func:`denominator_decomposition` ``dec`` of lambda,
    the :class:`OddSquare` of S (held as -i times iS), and S's
    hermiticity_defect (see :func:`generator_defects`).

    h = arcsin(sqrt z) / sqrt z at z = 1 - x^2 = w (1 - w/4) is applied
    to both blocks of the denominator (w its eigenvalues), then
    S_{+-} = -(i/2) lambda_{+-} h_{--} and S_{-+} = (i/2) lambda_{-+} h_{++}.
    z = 1 - (w - 2)^2 / 4 passes 1 only by rounding, which the arcsine's
    clamp absorbs.
    """
    h_pp, h_mm = dec.apply(lambda w: _ARCSIN(w * (1.0 - w / 4.0)))
    t_pm = 0.5 * (lam.blocks.pm @ h_mm)
    t_mp = -0.5 * (lam.blocks.mp @ h_pp)
    s = lam.like_blocks(None, -1j * t_pm, -1j * t_mp, None)
    defects = generator_defects(t_pm, t_mp, metric, lam.weights, phase=-1j)
    return s, OddSquare(t_pm, t_mp, lam.sectored, phase=-1j), defects


def generator_defects(
    s_pm: np.ndarray, s_mp: np.ndarray, metric: Metric, weights: np.ndarray | None = None, phase=1
) -> dict[str, float | np.ndarray]:
    """hermiticity_defect (S - S^adj, scaled by max(1, ||S||_F)) of S =
    ``phase`` times the off-diagonal blocks given (in the sector layout
    with ``weights``).  S is odd by construction: it has no other blocks."""
    # S_{+-} - sign S_{-+}^dag = phase (s_pm - sign (conj(phase) / phase) s_mp^dag)
    sign = adjoint_sign(metric) * known_phase(np.conj(phase) / phase)
    s_scale = at_least(hypot(frobenius(s_pm, weights), frobenius(s_mp, weights)), 1.0)
    return {
        "hermiticity_defect": hypot(
            frobenius(s_pm - sign * dagger(s_mp), weights),
            frobenius(s_mp - sign * dagger(s_pm), weights),
        )
        / s_scale,
    }


def trig_defects(sq: OddSquare, lam: BlockOperator) -> dict[str, float]:
    """sin2s_defect and cos2s_defect (see
    :func:`~fwexact.verify.verify_trig_identities`) from the square of S.
    sin 2S and M are odd, cos 2S and (beta lambda + lambda beta)/2 are
    even, so only those blocks enter."""
    a, b, c, d = lam.blocks
    norm = lam.frobenius
    sin_pm, sin_mp = sq.odd(_SIN2)
    cos_pp, cos_mm = sq.even(_COS2)
    root_n = math.sqrt(lam.side)
    # sin 2S + i (beta lambda - lambda beta) / 2, divided by the phase of S
    k = known_phase(1j / sq.phase)
    return {
        "sin2s_defect": hypot(norm(sin_pm + k * b), norm(sin_mp - k * c)) / root_n,
        "cos2s_defect": hypot(norm(cos_pp - a), norm(cos_mm + d)) / root_n,
    }


def exp_blocks(sq: OddSquare) -> tuple[np.ndarray, ...]:
    """Parity blocks of exp(iS) = cos S + i S (sin x / x)(S^2)."""
    cos_pp, cos_mm = sq.even(_COS)
    sin_pm, sin_mp = sq.odd(_SIN)
    k = known_phase(1j * sq.phase)
    return cos_pp, k * sin_pm, k * sin_mp, cos_mm


def exp_defect(
    exponential: tuple[np.ndarray, ...], u: BlockOperator
) -> float | np.ndarray:
    """||exponential - U||_F / ||U||_F, from parity blocks (also the
    polar form against U)."""
    defect = hypot(*(u.frobenius(x - y) for x, y in zip(exponential, u.blocks)))
    return defect / at_least(u.norm(), 1e-300)
