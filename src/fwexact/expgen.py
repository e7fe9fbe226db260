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

In the beta-pseudo metric the doubling argument has an imaginary
spectrum (arcsin(ix) = i arcsinh x), so the general-eigenbasis arcsine
is used there; only real eigenvalues are subject to the arcsine clamp.
The doubling identities and exp(iS) = U are checked from one
decomposition of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockop import BetaMatrix, BlockOperator, Metric, adjoint_m, identity_defect
from .matfun import (
    SpectralDecomposition,
    arcsin_m,
    check_involution,
    decompose,
    exp_i,
)
from .tolerances import EPS_CLAMP


@dataclass(frozen=True)
class GeneratorResult:
    """Canonical generator, the form-A cross-check, and defect norms."""

    s: BlockOperator
    s_form_a: BlockOperator
    diagnostics: dict[str, float]


def denominator_decomposition(
    lam: BlockOperator, beta: BetaMatrix, metric: Metric, lambda_sq_tol: float | None = 1e-8
) -> SpectralDecomposition:
    """Decomposition of 2 + beta lambda + lambda beta, under the square
    root of both the Eriksen unitary and form A, made after checking that
    lambda squares to one within ``lambda_sq_tol`` (None skips it)."""
    if lambda_sq_tol is not None:
        check_involution(lam, lambda_sq_tol)
    return decompose(
        lam.like(2.0 * np.eye(lam.side) + beta.flip_rows(lam.data) + beta.flip_cols(lam.data)),
        metric,
    )


def generator_from_lambda(
    lam: BlockOperator,
    beta: BetaMatrix,
    metric: Metric,
    *,
    eps_clamp: float = EPS_CLAMP,
    lambda_sq_tol: float | None = 1e-8,
    dec: SpectralDecomposition | None = None,
) -> GeneratorResult:
    """Compute S from the sign operator through both forms.

    ``dec`` is the :func:`denominator_decomposition` when the caller
    already holds it; otherwise it is made here, with ``lambda_sq_tol``.

    Diagnostics: oddness_defect (beta S + S beta), hermiticity_defect
    (S - S^adj), form_agreement_defect (disagreement of the two forms,
    scaled by max(1, ||S||_F)),
    denominator_commutator_defect (form A symmetrization assumption) and
    clamp_excess (how far a real eigenvalue of the doubling argument
    pokes past 1; positive values mean the arcsine clamp was active).
    The doubling identities are checked by :func:`verify_trig_identities`.
    """
    if dec is None:
        dec = denominator_decomposition(lam, beta, metric, lambda_sq_tol)

    # each temporary below is a full matrix; the large ones are released
    # as soon as they are used

    # canonical route: half-angle arcsine of the doubling argument
    doubling = lam.like(0.5j * (beta.flip_rows(lam.data) - beta.flip_cols(lam.data)))
    arc, clamp_excess = arcsin_m(doubling, metric, eps_clamp)
    s = lam.like(-0.5 * arc.data)
    del arc

    # form A: full-angle arcsine with the square-root denominator
    # D = 2 sqrt(2 + beta lambda + lambda beta), evaluated as
    # D^{-1/2} (2M) D^{-1/2}; D and D^{-1/2} share one eigenbasis
    d_op = dec.positive(lambda w: 2.0 * np.sqrt(w))
    half = dec.positive(lambda w: 1.0 / np.sqrt(2.0 * np.sqrt(w)))
    del dec
    arg_a = lam.like(half @ (2.0 * doubling.data) @ half)
    del half
    s_form_a = lam.like(-arcsin_m(arg_a, metric, eps_clamp)[0].data)

    s_scale = max(1.0, s.norm())
    diagnostics = {
        "oddness_defect": float(
            np.linalg.norm(beta.flip_rows(s.data) + beta.flip_cols(s.data)) / s_scale
        ),
        "hermiticity_defect": float(
            np.linalg.norm(s.data - adjoint_m(s, metric).data) / s_scale
        ),
        "form_agreement_defect": float(np.linalg.norm(s_form_a.data - s.data) / s_scale),
        "denominator_commutator_defect": float(
            np.linalg.norm(doubling.data @ d_op - d_op @ doubling.data)
            / max(float(np.linalg.norm(d_op)), 1e-300)
        ),
        "clamp_excess": clamp_excess,
    }
    return GeneratorResult(s=s, s_form_a=s_form_a, diagnostics=diagnostics)


def trig_defects(
    dec_s: SpectralDecomposition, lam: BlockOperator, beta: BetaMatrix
) -> dict[str, float]:
    """sin2s_defect and cos2s_defect (see :func:`verify_trig_identities`)
    from a decomposition of S."""
    bl, lb = beta.flip_rows(lam.data), beta.flip_cols(lam.data)
    return {
        "sin2s_defect": identity_defect(
            dec_s.apply(lambda w: np.sin(2.0 * w)) + 0.5j * (bl - lb)
        ),
        "cos2s_defect": identity_defect(
            dec_s.apply(lambda w: np.cos(2.0 * w)) - 0.5 * (bl + lb)
        ),
    }


def exp_defect(exponential: np.ndarray, u: BlockOperator) -> float:
    """||exponential - U||_F / ||U||_F (also the polar form against U)."""
    return float(np.linalg.norm(exponential - u.data) / max(u.norm(), 1e-300))


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
    return trig_defects(decompose(g.s, metric, allow_complex=True), lam, beta)


def verify_exp_equivalence(
    g: GeneratorResult, u: BlockOperator, metric: Metric
) -> float:
    """Relative disagreement ||exp(iS) - U||_F / ||U||_F."""
    return exp_defect(exp_i(g.s, metric).data, u)
