"""Cross-check routes: independent formulas for the operators the
transforms build, and the identity checks as public functions.

The transforms build U and S by one route each (:mod:`fwexact.eriksen`,
:mod:`fwexact.expgen`): both from the one decomposition of the Eriksen
denominator.  The routes here exist only to check those operators
against another formula:

* the polar form U = N (N^adj N)^{-1/2}, N = 1 + beta lambda, from the
  diagonal blocks of the Gram matrix N^adj N;
* the canonical arcsine S = -(1/2) arcsin(M) of the doubling argument
  M = i (beta lambda - lambda beta) / 2, from the blocks of M^2, with
  the clamp excess of its real spectrum;
* form A, the full-angle arcsine with the square-root denominator,
  S = -arcsin(D^{-1/2} i(beta lambda - lambda beta) D^{-1/2}) with
  D = 2 sqrt(2 + beta lambda + lambda beta), evaluated symmetrically
  (numerator and denominator commute; the residual commutator is
  recorded, not assumed).

``transform_stationary`` and ``transform_nonstationary`` run them when
called with ``routes=True`` (the config key ``verify.routes``): the
report then carries ``alt_form_defect`` (stationary only),
``form_agreement_defect``, ``denominator_commutator_defect`` and
``clamp_excess``.  The identity defects of lambda and U that every
transform reports are measured here too (:func:`unitary_defects`).
That beta commutes with beta lambda + lambda beta holds by construction
(both products are lambda + beta lambda beta, made by exact sign flips)
and is not measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blockop import (
    BlockOperator,
    Blocks,
    Metric,
    add_identity,
    adjoint_m,
    adjoint_sign,
    at_least,
    dagger,
    first_failing,
    hypot,
    operator_axes,
    per_matrix,
)
from .errors import DomainError
from .expgen import (
    _ARCSIN,
    LAMBDA_SQ_TOL,
    denominator_decomposition,
    generator_defects,
    inverse_root,
)
from .matfun import (
    EvenDecomposition,
    check_involution,
    in_sectors,
    involution_defects,
)
from .tolerances import EPS_CLAMP

if TYPE_CHECKING:  # eriksen imports this module
    from .eriksen import FWResult


# ---------------------------------------------------------------------------
# identity defects of lambda and U


def unitary_defects(
    u: BlockOperator, u_adj: BlockOperator, metric: Metric
) -> dict[str, float | np.ndarray]:
    """eriksen_defect (beta U - U^adj beta), unitarity_defect (U U^adj - 1)
    and (beta-pseudo metric) pseudo_unitarity_defect (U^adj U - 1), each
    from one whole product of U and its metric adjoint ``u_adj``."""
    adj, signs = u_adj.data, u.signs
    root_n = math.sqrt(u.side)
    out = {
        "eriksen_defect": u.frobenius(signs[:, None] * u.data - adj * signs) / root_n,
        "unitarity_defect": u.frobenius(add_identity(u.data @ adj, -1.0)) / root_n,
    }
    if metric is Metric.BETA_PSEUDO:
        out["pseudo_unitarity_defect"] = u.frobenius(add_identity(adj @ u.data, -1.0)) / root_n
    return out


def verify_eriksen_identities(result: FWResult, metric: Metric) -> dict[str, float]:
    """Defect norms of the defining identities; reports, never raises.

    Keys: lambda_sq_defect, sign_products_commute_defect (commutator of
    beta*lambda with lambda*beta), eriksen_defect (beta U - U^adj beta),
    unitarity_defect (U U^adj - 1) and, for the beta-pseudo metric,
    pseudo_unitarity_defect.  beta U = U^adj beta holds in both metrics
    (see :func:`~fwexact.eriksen.eriksen_unitary`).
    """
    lam, u = result.sign_op, result.u
    return {**involution_defects(lam), **unitary_defects(u, adjoint_m(u, metric), metric)}


# ---------------------------------------------------------------------------
# the polar form of U


def _polar_blocks(lam: BlockOperator, metric: Metric) -> Blocks:
    """Parity blocks of N (N^adj N)^{-1/2}, N = 1 + beta lambda.

    The Gram matrix N^adj N is decomposed by its diagonal blocks; its
    off-diagonal blocks are the odd part of lambda^2, which vanishes
    with lambda^2 - 1 (measured by sign_products_commute_defect).
    """
    a, b, c, d = lam.blocks
    sign = adjoint_sign(metric)
    n_pp, n_mm = add_identity(a.copy(), 1.0), add_identity(-d, 1.0)
    gram = EvenDecomposition.of(
        dagger(n_pp) @ n_pp + sign * (dagger(c) @ c),
        sign * (dagger(b) @ b) + dagger(n_mm) @ n_mm,
        lam.sectored,
    )
    root_pp, root_mm = inverse_root(gram)
    return Blocks(n_pp @ root_pp, b @ root_mm, -(c @ root_pp), n_mm @ root_mm)


def eriksen_unitary_alt(lam: BlockOperator, metric: Metric) -> BlockOperator:
    """Polar form U = N (N^adj N)^{-1/2} with N = 1 + beta lambda.

    Equal to :func:`~fwexact.eriksen.eriksen_unitary` up to roundoff; the
    adjoint is the metric adjoint, so for the beta-pseudo metric this is
    the pseudo-unitary polar factor.  lambda must square to one within
    ``LAMBDA_SQ_TOL``.
    """
    check_involution(lam, LAMBDA_SQ_TOL)
    return lam.like_blocks(*_polar_blocks(lam, metric))


def alt_form_defect(lam: BlockOperator, u: BlockOperator, metric: Metric) -> float | np.ndarray:
    """||U_polar - U||_F / ||U||_F: the polar form against the unitary
    the transform built."""
    defect = hypot(*(u.frobenius(x - y) for x, y in zip(_polar_blocks(lam, metric), u.blocks)))
    return defect / at_least(u.norm(), 1e-300)


# ---------------------------------------------------------------------------
# the arcsine routes of S


def arcsin_odd(
    pm: np.ndarray, mp: np.ndarray, eps_clamp: float = EPS_CLAMP, sectored: bool = False
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Off-diagonal blocks of the principal arcsine of an odd operator
    (``sectored``: in the sector layout), and the clamp excess: how far
    the largest real |eigenvalue| sqrt(x), x >= 0 an eigenvalue of X^2,
    pokes past 1 (per operator of a stack).  An excess above
    ``eps_clamp`` raises; within it the clamp snaps the eigenvalue to 1."""
    square = EvenDecomposition.of(pm @ mp, mp @ pm, sectored)
    top = square.eigenvalues.max(axis=operator_axes(2, sectored), initial=0.0)
    excess = np.maximum(np.sqrt(top) - 1.0, 0.0)
    i = first_failing(excess > eps_clamp)
    if i is not None:
        raise DomainError(
            f"arcsin domain violation: |eigenvalue| exceeds 1 by {np.ravel(excess)[i]:.3e} "
            f"(clamp band {eps_clamp:.1e})"
        )
    # an odd function of X is X (g(x)/x)(X^2)
    upper, lower = square.apply(_ARCSIN)
    return pm @ lower, mp @ upper, per_matrix(excess)


@dataclass(frozen=True)
class GeneratorResult:
    """Canonical generator, the form-A cross-check, and defect norms."""

    s: BlockOperator
    s_form_a: BlockOperator
    diagnostics: dict[str, float]


def generator_from_lambda(
    lam: BlockOperator,
    metric: Metric,
    *,
    eps_clamp: float = EPS_CLAMP,
    dec: EvenDecomposition | None = None,
) -> GeneratorResult:
    """Compute S from the sign operator through both arcsine forms.

    ``dec`` is the :func:`~fwexact.expgen.denominator_decomposition`
    when the caller already holds it; otherwise it is made here, after
    checking that lambda squares to one within ``LAMBDA_SQ_TOL``.  S is
    made in lambda's sector layout (dense out for a dense lambda).

    Diagnostics: hermiticity_defect of the canonical S (see
    :func:`~fwexact.expgen.generator_defects`),
    form_agreement_defect (disagreement of the two forms, scaled by
    max(1, ||S||_F)), denominator_commutator_defect (form A
    symmetrization assumption) and clamp_excess (how far a real
    eigenvalue of the doubling argument pokes past 1; positive values
    mean the arcsine clamp was active).
    """
    given, lam = lam, in_sectors(lam)
    if dec is None:
        dec = denominator_decomposition(lam)

    # canonical route: S = -(1/2) arcsin(M) with M_{+-} = i lambda_{+-},
    # M_{-+} = -i lambda_{-+}
    m_pm, m_mp = 1j * lam.blocks.pm, -1j * lam.blocks.mp
    norm, sectored = lam.frobenius, lam.sectored
    arc_pm, arc_mp, clamp_excess = arcsin_odd(m_pm, m_mp, eps_clamp, sectored)
    s_pm, s_mp = -0.5 * arc_pm, -0.5 * arc_mp
    del arc_pm, arc_mp

    # form A: full-angle arcsine with the square-root denominator
    # D = 2 sqrt(2 + beta lambda + lambda beta), evaluated as
    # D^{-1/2} (2M) D^{-1/2}; D and D^{-1/2} share one eigenbasis
    half_pp, half_mm = dec.positive(lambda w: 1.0 / np.sqrt(2.0 * np.sqrt(w)))
    arc_a_pm, arc_a_mp, _ = arcsin_odd(
        half_pp @ (2.0 * m_pm) @ half_mm, half_mm @ (2.0 * m_mp) @ half_pp, eps_clamp, sectored
    )
    del half_pp, half_mm
    d_pp, d_mm = dec.positive(lambda w: 2.0 * np.sqrt(w))
    commutator = hypot(
        norm(m_pm @ d_mm - d_pp @ m_pm), norm(m_mp @ d_pp - d_mm @ m_mp)
    ) / at_least(hypot(norm(d_pp), norm(d_mm)), 1e-300)
    del d_pp, d_mm, m_pm, m_mp

    s_scale = at_least(hypot(norm(s_pm), norm(s_mp)), 1.0)
    diagnostics = {
        **generator_defects(s_pm, s_mp, metric, lam.weights),
        # S_A = -arcsin(A), so S_A - S = -(arc_a + s)
        "form_agreement_defect": hypot(norm(arc_a_pm + s_pm), norm(arc_a_mp + s_mp))
        / s_scale,
        "denominator_commutator_defect": commutator,
        "clamp_excess": clamp_excess,
    }
    s = lam.like_blocks(None, s_pm, s_mp, None)
    s_form_a = lam.like_blocks(None, -arc_a_pm, -arc_a_mp, None)
    if not given.sectored:
        s, s_form_a = s.dense(), s_form_a.dense()
    return GeneratorResult(s=s, s_form_a=s_form_a, diagnostics=diagnostics)


def generator_routes(
    lam: BlockOperator, metric: Metric, *, eps_clamp: float, dec: EvenDecomposition
) -> dict[str, float | np.ndarray]:
    """form_agreement_defect, denominator_commutator_defect and
    clamp_excess of :func:`generator_from_lambda`, made from the
    transform's denominator decomposition ``dec``."""
    diagnostics = generator_from_lambda(lam, metric, eps_clamp=eps_clamp, dec=dec).diagnostics
    keys = ("form_agreement_defect", "denominator_commutator_defect", "clamp_excess")
    return {key: diagnostics[key] for key in keys}
