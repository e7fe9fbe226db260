"""Exact exponential generator of the block-diagonalizing unitary.

With lambda the (possibly extended-space) sign operator, the doubling
identities

    sin 2S = -i (beta lambda - lambda beta) / 2
    cos 2S =    (beta lambda + lambda beta) / 2

pin down an odd, metric-self-adjoint generator S with exp(iS) = U.  The
best-conditioned route is the half-angle arcsine of the doubling
argument

    M = i (beta lambda - lambda beta) / 2,      S = -(1/2) arcsin(M),

which is exactly Hermitian in the Hermitian metric; it is the canonical
form here.  Form A is computed alongside as a cross-check: the
full-angle arcsine with the square-root denominator,
S = -arcsin(D^{-1/2} i(beta lambda - lambda beta) D^{-1/2}) with
D = 2 sqrt(2 + beta lambda + lambda beta), evaluated symmetrically
(numerator and denominator commute; the residual commutator is
recorded, not assumed).  D and D^{-1/2} come from the one decomposition
of 2 + beta lambda + lambda beta that also gives the Eriksen unitary.

Everything is evaluated on the beta parity blocks.  The denominator is
even, with diagonal blocks 2 + 2 lambda_{++} and 2 - 2 lambda_{--} (its
off-diagonal blocks cancel exactly).  M is odd, with off-diagonal blocks
i lambda_{+-} and -i lambda_{-+}, so an odd function of it is
g(M) = M (g(x)/x)(M^2), and M^2 is even with diagonal blocks
lambda_{+-} lambda_{-+} and lambda_{-+} lambda_{+-}.  These blocks are
Hermitian in both metrics (see :mod:`fwexact.matfun`), so every kernel
is a half-size ``eigh``.  In the Hermitian metric M^2 >= 0; in the
beta-pseudo metric lambda_{-+} = -lambda_{+-}^dag makes M^2 <= 0, the
imaginary spectrum on which arcsin(i x) = i arcsinh(x).  Only the
nonnegative eigenvalues x of M^2 meet the arcsine clamp, at
sqrt(x) <= 1 + eps.  The doubling identities and exp(iS) = U follow
from the diagonal blocks of S^2, computed from S's own blocks.

S is assembled from its off-diagonal blocks alone, so it is odd by
construction and ``oddness_defect`` is an exact zero; the two
off-diagonal blocks are computed independently, so
``hermiticity_defect`` stays a measurement.

lambda may carry leading stack axes (one sign operator per point of a
sweep): every block product, decomposition and defect runs over the
stack at once, the arcsine clamp holds each operator to its own
spectrum, and the diagnostics are arrays with the stack's shape (floats
without a stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .blockop import (
    BetaMatrix,
    BlockOperator,
    Metric,
    add_identity,
    adjoint_sign,
    at_least,
    dagger,
    first_failing,
    frobenius,
    hypot,
    per_matrix,
)
from .errors import DomainError
from .matfun import EvenDecomposition, check_hermitian, check_involution, exp_i
from .tolerances import EPS_CLAMP

#: Default bound on ||lambda^2 - 1|| / sqrt(n) before lambda is used.
LAMBDA_SQ_TOL = 1e-8

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
    """An odd operator X by its off-diagonal blocks, with the diagonal
    blocks X_{+-} X_{-+} and X_{-+} X_{+-} of X^2 decomposed.

    Even functions are f(X) = f(X^2) (diagonal blocks); odd ones are
    g(X) = X (g(x)/x)(X^2) (off-diagonal blocks).
    """

    def __init__(self, pm: np.ndarray, mp: np.ndarray) -> None:
        self.pm, self.mp = pm, mp
        self.square = EvenDecomposition.of(pm @ mp, mp @ pm)

    def even(self, f: _OnSquare) -> tuple[np.ndarray, np.ndarray]:
        return self.square.apply(f)

    def odd(self, g: _OnSquare) -> tuple[np.ndarray, np.ndarray]:
        upper, lower = self.square.apply(g)
        return self.pm @ lower, self.mp @ upper

    def norm_2(self) -> float | np.ndarray:
        """||X||_2 = sqrt(max |eig X^2|) per operator; X is normal
        (Hermitian or skew-Hermitian) when it is metric-self-adjoint."""
        eigenvalues = np.abs(self.square.eigenvalues)
        return per_matrix(np.sqrt(eigenvalues.max(axis=(-2, -1), initial=0.0)))


def arcsin_odd(
    pm: np.ndarray, mp: np.ndarray, eps_clamp: float = EPS_CLAMP
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Off-diagonal blocks of the principal arcsine of an odd operator,
    and the clamp excess: how far the largest real |eigenvalue|
    sqrt(x), x >= 0 an eigenvalue of X^2, pokes past 1 (per operator of
    a stack).  An excess above ``eps_clamp`` raises; within it the clamp
    snaps the eigenvalue to 1."""
    sq = OddSquare(pm, mp)
    top = sq.square.eigenvalues.max(axis=(-2, -1), initial=0.0)
    excess = np.maximum(np.sqrt(top) - 1.0, 0.0)
    i = first_failing(excess > eps_clamp)
    if i is not None:
        raise DomainError(
            f"arcsin domain violation: |eigenvalue| exceeds 1 by {np.ravel(excess)[i]:.3e} "
            f"(clamp band {eps_clamp:.1e})"
        )
    return (*sq.odd(_ARCSIN), per_matrix(excess))


@dataclass(frozen=True)
class GeneratorResult:
    """Canonical generator, the form-A cross-check, and defect norms."""

    s: BlockOperator
    s_form_a: BlockOperator
    diagnostics: dict[str, float]


def denominator_decomposition(
    lam: BlockOperator,
    lambda_sq_tol: float | None = LAMBDA_SQ_TOL,
) -> EvenDecomposition:
    """Decomposition of 2 + beta lambda + lambda beta, under the square
    root of both the Eriksen unitary and form A, by its diagonal blocks
    2 + 2 lambda_{++} and 2 - 2 lambda_{--}, made after checking that
    lambda squares to one within ``lambda_sq_tol`` (None skips it).

    Both blocks must be Hermitian, as they are for a lambda self-adjoint
    under either metric; otherwise MetricViolationError is raised.
    """
    if lambda_sq_tol is not None:
        check_involution(lam, lambda_sq_tol)
    upper = add_identity(2.0 * lam.blocks.pp, 2.0)
    lower = add_identity(-2.0 * lam.blocks.mm, 2.0)
    for block in (upper, lower):
        check_hermitian(block)
    return EvenDecomposition.of(upper, lower)


def generator_from_lambda(
    lam: BlockOperator,
    beta: BetaMatrix,
    metric: Metric,
    *,
    eps_clamp: float = EPS_CLAMP,
    dec: EvenDecomposition | None = None,
) -> GeneratorResult:
    """Compute S from the sign operator through both forms.

    ``dec`` is the :func:`denominator_decomposition` when the caller
    already holds it; otherwise it is made here, after checking that
    lambda squares to one within ``LAMBDA_SQ_TOL``.

    Diagnostics: oddness_defect (beta S + S beta, zero by construction),
    hermiticity_defect (S - S^adj), form_agreement_defect (disagreement
    of the two forms, scaled by max(1, ||S||_F)),
    denominator_commutator_defect (form A symmetrization assumption) and
    clamp_excess (how far a real eigenvalue of the doubling argument
    pokes past 1; positive values mean the arcsine clamp was active).
    The doubling identities are checked by :func:`verify_trig_identities`.
    """
    if dec is None:
        dec = denominator_decomposition(lam)

    # canonical route: S = -(1/2) arcsin(M) with M_{+-} = i lambda_{+-},
    # M_{-+} = -i lambda_{-+}
    m_pm, m_mp = 1j * lam.blocks.pm, -1j * lam.blocks.mp
    arc_pm, arc_mp, clamp_excess = arcsin_odd(m_pm, m_mp, eps_clamp)
    s_pm, s_mp = -0.5 * arc_pm, -0.5 * arc_mp
    del arc_pm, arc_mp

    # form A: full-angle arcsine with the square-root denominator
    # D = 2 sqrt(2 + beta lambda + lambda beta), evaluated as
    # D^{-1/2} (2M) D^{-1/2}; D and D^{-1/2} share one eigenbasis
    half_pp, half_mm = dec.positive(lambda w: 1.0 / np.sqrt(2.0 * np.sqrt(w)))
    arc_a_pm, arc_a_mp, _ = arcsin_odd(
        half_pp @ (2.0 * m_pm) @ half_mm, half_mm @ (2.0 * m_mp) @ half_pp, eps_clamp
    )
    del half_pp, half_mm
    d_pp, d_mm = dec.positive(lambda w: 2.0 * np.sqrt(w))
    commutator = hypot(
        frobenius(m_pm @ d_mm - d_pp @ m_pm), frobenius(m_mp @ d_pp - d_mm @ m_mp)
    ) / at_least(hypot(frobenius(d_pp), frobenius(d_mm)), 1e-300)
    del d_pp, d_mm, m_pm, m_mp

    sign = adjoint_sign(metric)
    s_scale = at_least(hypot(frobenius(s_pm), frobenius(s_mp)), 1.0)

    diagnostics = {
        "oddness_defect": per_matrix(np.zeros(lam.stack_shape)),
        "hermiticity_defect": hypot(
            frobenius(s_pm - sign * dagger(s_mp)), frobenius(s_mp - sign * dagger(s_pm))
        )
        / s_scale,
        # S_A = -arcsin(A), so S_A - S = -(arc_a + s)
        "form_agreement_defect": hypot(
            frobenius(arc_a_pm + s_pm), frobenius(arc_a_mp + s_mp)
        )
        / s_scale,
        "denominator_commutator_defect": commutator,
        "clamp_excess": clamp_excess,
    }
    return GeneratorResult(
        s=lam.like_blocks(None, s_pm, s_mp, None),
        s_form_a=lam.like_blocks(None, -arc_a_pm, -arc_a_mp, None),
        diagnostics=diagnostics,
    )


def trig_defects(sq: OddSquare, lam: BlockOperator) -> dict[str, float]:
    """sin2s_defect and cos2s_defect (see :func:`verify_trig_identities`)
    from the square of S.  sin 2S and M are odd, cos 2S and
    (beta lambda + lambda beta)/2 are even, so only those blocks enter."""
    a, b, c, d = lam.blocks
    sin_pm, sin_mp = sq.odd(_SIN2)
    cos_pp, cos_mm = sq.even(_COS2)
    root_n = math.sqrt(lam.side)
    return {
        "sin2s_defect": hypot(frobenius(sin_pm + 1j * b), frobenius(sin_mp - 1j * c))
        / root_n,
        "cos2s_defect": hypot(frobenius(cos_pp - a), frobenius(cos_mm + d)) / root_n,
    }


def exp_blocks(sq: OddSquare) -> tuple[np.ndarray, ...]:
    """Parity blocks of exp(iS) = cos S + i S (sin x / x)(S^2)."""
    cos_pp, cos_mm = sq.even(_COS)
    sin_pm, sin_mp = sq.odd(_SIN)
    return cos_pp, 1j * sin_pm, 1j * sin_mp, cos_mm


def exp_defect(
    exponential: tuple[np.ndarray, ...], u: BlockOperator
) -> float | np.ndarray:
    """||exponential - U||_F / ||U||_F, from parity blocks (also the
    polar form against U)."""
    defect = hypot(*(frobenius(x - y) for x, y in zip(exponential, u.blocks)))
    return defect / at_least(u.norm(), 1e-300)


def verify_trig_identities(
    g: GeneratorResult,
    lam: BlockOperator,
    beta: BetaMatrix,
    metric: Metric = Metric.HERMITIAN,
) -> dict[str, float]:
    """Recompute the doubling identities from g.s alone.

    Returns sin2s_defect and cos2s_defect: norms of
    sin 2S + i(beta lambda - lambda beta)/2 and
    cos 2S - (beta lambda + lambda beta)/2, scaled by sqrt(n).
    """
    return trig_defects(OddSquare(g.s.blocks.pm, g.s.blocks.mp), lam)


def verify_exp_equivalence(
    g: GeneratorResult, u: BlockOperator, metric: Metric
) -> float:
    """Relative disagreement ||exp(iS) - U||_F / ||U||_F, with exp(iS)
    from a full-size decomposition of S (independent of the block route
    the transforms use)."""
    return exp_defect(exp_i(g.s, metric).blocks, u)
