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
cancel exactly), so the one decomposition of the denominator that gives
U gives S as well,

    S_{+-} = -(i/2) lambda_{+-} h_{--},    S_{-+} = (i/2) lambda_{-+} h_{++},

h = arcsin(sqrt z) / sqrt z at z = 1 - x^2 (see :func:`generator`), the
principal angles of beta's upper subspace and the positive-energy
subspace read off the denominator (Davis & Kahan's direct rotation).
The blocks are Hermitian in both metrics (see :mod:`fwexact.matfun`),
so the kernel is one batched ``eigh`` of the two half-size blocks of
every sector.  In the Hermitian metric z lies in [0, 1]; in the
beta-pseudo metric lambda_{-+} = -lambda_{+-}^dag makes M^2 <= 0, the
imaginary spectrum on which arcsin(i x) = i arcsinh(x), and z < 0 takes
the arcsinh branch.  h is continuous at z = 0, so no clamp band is
needed.  ||S||_2 is read off the same z.

The doubling identities and exp(iS) = U are checked by one truncated
Taylor chain of iS on a few probe vectors, from S's own blocks: a route
independent of the one that made S, which decomposes nothing
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  The Frobenius
norms of the defects' products with Gaussian probes estimate theirs
(Martinsson & Tropp, Acta Numerica 29, 403 (2020)).  The arcsine of M
itself and form A are cross-checks in :mod:`fwexact.verify`.

S is assembled from its off-diagonal blocks alone (the
``like_blocks(None, ..., None)`` in :func:`generator`), so it
anticommutes with beta by construction and no oddness defect is
measured; the two off-diagonal blocks are computed independently, so
``hermiticity_defect`` stays a measurement.

The chain carries iS, real when lambda is, as S = -i (iS), so the
doubling identities and exp(iS) run real on a real lambda.

lambda may carry leading stack axes (one sign operator per point of a
sweep) and its sector axis: every block product, decomposition, chain
and defect runs over both at once, and the diagnostics are arrays with the
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
# |arcsin x|, even in x
_ANGLE = _ARCSIN._replace(at_zero=None)


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
) -> tuple[BlockOperator, tuple[np.ndarray, np.ndarray], float | np.ndarray]:
    """S from the :func:`denominator_decomposition` ``dec`` of lambda, the
    off-diagonal blocks of iS (real for a real lambda), and ||S||_2 per
    operator.

    S_{-+} = (i/2) (lambda_{-+} V_+) h(z) V_+^dag over the eigenvectors V_+
    of the upper block (S_{+-} likewise), h(z) = arcsin(sqrt z) / sqrt z
    at z = 1 - x^2.  With w their eigenvalues z = w (1 - w/4), which
    cancels at small z (w near 4); there z is taken, exact to roundoff
    relative to itself, as the square norm of each column of
    lambda_{-+} V_+ (negated in the beta-pseudo metric), by lambda^2 = 1.
    That norm's roundoff is absolute, which the arcsine's slope amplifies
    near z = 1, so z >= 1/2 comes from w.  z passes 1 only by rounding,
    which the clamp absorbs.  S is normal, with eigenvalues -(1/2) arcsin x
    over the eigenvalues x of M, |x| = sqrt z, so ||S||_2 is half the
    largest arcsin sqrt z (arcsinh sqrt(-z) for z < 0).
    """
    v_pp, v_mm = dec.vectors[..., 0, :, :], dec.vectors[..., 1, :, :]
    mp_v, pm_v = lam.blocks.mp @ v_pp, lam.blocks.pm @ v_mm
    norms = np.stack([np.einsum("...ij,...ij->...j", x.conj(), x).real for x in (mp_v, pm_v)], -2)
    z = dec.eigenvalues * (1.0 - dec.eigenvalues / 4.0)
    z = np.where(z >= 0.5, z, adjoint_sign(metric) * norms)
    h = _ARCSIN(z)
    t_pm = 0.5 * ((pm_v * h[..., 1, None, :]) @ dagger(v_mm))
    t_mp = -0.5 * ((mp_v * h[..., 0, None, :]) @ dagger(v_pp))
    s = lam.like_blocks(None, -1j * t_pm, -1j * t_mp, None)
    s_norm = 0.5 * _ANGLE(z).max(axis=operator_axes(2, dec.sectored), initial=0.0)
    return s, (t_pm, t_mp), per_matrix(s_norm)


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


#: Gaussian probe columns per parity, and the seed they are drawn from.
PROBES, PROBE_SEED = 8, 2011


def probes(half: int) -> np.ndarray:
    """The probe block G by parity, shape (2, half, k): for each parity k
    columns that are zero on the other one, Gaussian with variance 1/k so
    that ||A G||_F estimates ||A||_F, or the identity when half <= k,
    which makes the norm exact.  SplitMix64's mix of a Weyl sequence
    (Steele, Lea & Flood, OOPSLA 2014), made Gaussian by Box-Muller, draws
    them without loading numpy.random (6 MB and 13 ms on first use)."""
    if half <= PROBES:
        return np.broadcast_to(np.eye(half), (2, half, half))
    n = 2 * half * PROBES
    x = np.arange(PROBE_SEED, PROBE_SEED + 2 * n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1)):
        x = (x ^ (x >> np.uint64(shift))) * np.uint64(factor)
    u = (x >> np.uint64(11)) * 2.0**-53  # uniform on [0, 1)
    g = np.sqrt(-2.0 * np.log1p(-u[:n])) * np.cos(2.0 * math.pi * u[n:])
    return g.reshape(2, half, PROBES) / math.sqrt(PROBES)


def _terms(radius: float) -> int:
    """The first m with (2 radius)^(m+1) / (m+1)! <= 2^-53: a Taylor
    chain of exp(2iS) that stops there drops a tail below roundoff when
    ||S||_2 <= radius.  A bound that needs more than 1000 terms (a radius
    past about 180) raises."""
    m, tail = 0, 1.0
    while (tail := tail * 2.0 * radius / (m + 1)) > 2.0**-53:
        m += 1
        if m > 1000:
            raise DomainError(f"over 1000 Taylor terms for exp(iS): ||S||_2 <= {radius:.3e}")
    return m


def exponential_defects(
    i_s: tuple[np.ndarray, np.ndarray], lam: BlockOperator, u: BlockOperator
) -> tuple[dict[str, float | np.ndarray], int]:
    """sin2s_defect, cos2s_defect and exp_equivalence_defect of the S whose
    iS has the off-diagonal blocks ``i_s``, from one Taylor chain
    T_j = (iS)^j G / j! on the :func:`probes` G, and the chain's length.

    Each column of G has one parity, which the terms of even j keep and
    those of odd j flip, so the chain runs on the half-size blocks.
    sum T_j = exp(iS) G is held against U G (relative to ||U||_F), and
    sum 2^j T_j = exp(2iS) G against beta lambda G (over sqrt(n)): its
    rows of each column's parity are cos 2S G, against
    (beta lambda + lambda beta)/2 G, the others i sin 2S G, against
    (beta lambda - lambda beta)/2 G.  Frobenius norms of the products
    with G estimate those of the defects (exactly for G = 1).  The chain
    has :func:`_terms` terms for the smaller of two bounds on ||S||_2,
    ||S||_F and sqrt(||S||_1 ||S||_inf), the largest over a stack.
    """
    t_pm, t_mp = i_s
    weights = lam.weights
    frobenius_s = hypot(frobenius(t_pm, weights), frobenius(t_mp, weights))
    # ||S||_1 and ||S||_inf: the largest column and row sums of its blocks
    one = max(np.abs(t).sum(axis=-2).max(initial=0.0) for t in i_s)
    inf = max(np.abs(t).sum(axis=-1).max(initial=0.0) for t in i_s)
    terms = _terms(min(np.max(frobenius_s), math.sqrt(one * inf)))

    g = probes(t_pm.shape[-1])
    g = g.reshape(2, *(1,) * (t_pm.ndim - 2), *g.shape[1:])
    # steps[j % 2] takes T_{j-1} to T_j (times j): odd j leave the column's
    # parity (its upper-parity part goes through t_mp), even j come back
    away = np.stack((t_mp, t_pm))
    steps = (away[::-1], away)
    chain = np.empty((terms + 1, 2, *t_pm.shape[:-1], g.shape[-1]), np.result_type(t_pm, g))
    chain[0] = g
    for j in range(1, terms + 1):
        np.matmul(steps[j % 2], chain[j - 1], out=chain[j])
        chain[j] /= j
    # the own and other parity rows of exp(iS) G and of exp(2iS) G
    j = np.arange(terms + 1)
    parity = j % 2 == np.arange(2)[:, None]
    sums = np.concatenate((parity, parity * 2.0**j)) @ chain.reshape(terms + 1, -1)
    exp_own, exp_other, double_own, double_other = sums.reshape(4, *chain.shape[1:])

    def columns(pp, pm, mp, mm):
        """A G, for A with these blocks: its own and other parity rows."""
        return np.stack((pp @ g[0], mm @ g[1])), np.stack((mp @ g[0], pm @ g[1]))

    def norm(x: np.ndarray) -> float | np.ndarray:
        return hypot(*frobenius(x, weights))

    a, b, c, d = lam.blocks
    # beta lambda has the blocks a, b, -c, -d
    beta_own, beta_other = columns(a, b, -c, -d)
    u_own, u_other = columns(*u.blocks)
    root_n = math.sqrt(lam.side)
    return {
        "sin2s_defect": norm(double_other - beta_other) / root_n,
        "cos2s_defect": norm(double_own - beta_own) / root_n,
        "exp_equivalence_defect": hypot(norm(exp_own - u_own), norm(exp_other - u_other))
        / at_least(u.norm(), 1e-300),
    }, terms
