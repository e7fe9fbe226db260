"""Exact one-step block-diagonalizing (Foldy-Wouthuysen) unitary.

Given the sign operator lambda = H / sqrt(H^2) of a gapped self-adjoint
Hamiltonian, the Eriksen unitary

    U = (1 + beta lambda) / sqrt(2 + beta lambda + lambda beta)

maps H to an even (block-diagonal) operator in one step.  Numerator and
denominator commute, U is metric-unitary, and beta U = U^dag beta in the
Hermitian metric.  The equivalent polar-decomposition form

    U = (1 + beta lambda) / sqrt((1 + beta lambda)^adj (1 + beta lambda))

is kept as a cross-check.  Every identity involved is measured and
reported as a dimensionless defect norm; identity-type defects are
Frobenius norms divided by ||1||_F = sqrt(n), so a clean result sits at
machine precision and a violation of size eps shows up as roughly eps.

The stationary H and the Floquet operator K = H(t) - i d/dt, which is
static on the extended space, share one pipeline that decomposes each
distinct matrix once: the decomposition of H gives lambda, the spectrum
and the scale, that of 2 + beta lambda + lambda beta gives U and form A
of S, and one decomposition of S gives sin 2S, cos 2S, exp(iS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockop import (
    BetaMatrix,
    BlockOperator,
    Metric,
    SplitHamiltonian,
    adjoint_m,
    identity_defect,
    odd_part,
)
from .errors import DomainError
from .expgen import denominator_decomposition, exp_defect, generator_from_lambda, trig_defects
from .matfun import SpectralDecomposition, check_involution, decompose, inv_sqrt_spd, sign_of
from .tolerances import EPS_CLAMP, GAP_TOL


@dataclass(frozen=True)
class FWResult:
    """Transformation bundle: sign operator, unitary, transformed
    Hamiltonian (or transformed Floquet operator) and defect norms.

    ``s`` is the exponential generator; both transforms fill it, and it
    is None only in a bundle assembled by hand.
    """

    sign_op: BlockOperator
    u: BlockOperator
    u_inverse: BlockOperator
    h_fw: BlockOperator
    diagnostics: dict[str, float]
    s: Optional[BlockOperator] = None


def eriksen_unitary(
    lam: BlockOperator,
    beta: BetaMatrix,
    metric: Metric,
    *,
    lambda_sq_tol: float | None = 1e-8,
    dec: SpectralDecomposition | None = None,
) -> BlockOperator:
    """U = (1 + beta lambda) (2 + beta lambda + lambda beta)^{-1/2}.

    ``lambda_sq_tol`` bounds the allowed involution defect of the input
    sign operator; pass None to skip the check (used when deliberately
    feeding an approximate sign operator to measure how it fails).
    ``dec`` is the :func:`~fwexact.expgen.denominator_decomposition` when
    the caller already holds it (the check ran when it was made).
    Raises "eriksen denominator degenerate" when the operator under the
    square root is not positive definite, which happens exactly when a
    sign eigenvector is orthogonal to the upper-block subspace.
    """
    if dec is None:
        dec = denominator_decomposition(lam, beta, metric, lambda_sq_tol)
    try:
        inv_root = dec.positive(lambda w: 1.0 / np.sqrt(w))
    except DomainError as exc:
        raise DomainError(f"eriksen denominator degenerate: {exc}") from exc
    return lam.like((np.eye(lam.side) + beta.flip_rows(lam.data)) @ inv_root)


def eriksen_unitary_alt(
    lam: BlockOperator,
    beta: BetaMatrix,
    metric: Metric,
    *,
    lambda_sq_tol: float | None = 1e-8,
) -> BlockOperator:
    """Polar form U = N (N^adj N)^{-1/2} with N = 1 + beta lambda.

    Equal to :func:`eriksen_unitary` up to roundoff; the adjoint is the
    metric adjoint, so for the beta-pseudo metric this is the
    pseudo-unitary polar factor.
    """
    if lambda_sq_tol is not None:
        check_involution(lam, lambda_sq_tol)
    numerator = lam.like(np.eye(lam.side) + beta.flip_rows(lam.data))
    gram = lam.like(adjoint_m(numerator, metric).data @ numerator.data)
    try:
        inv_root = inv_sqrt_spd(gram, metric)
    except DomainError as exc:
        raise DomainError(f"eriksen denominator degenerate: {exc}") from exc
    return lam.like(numerator.data @ inv_root.data)


def verify_eriksen_identities(
    result: FWResult, beta: BetaMatrix, metric: Metric
) -> dict[str, float]:
    """Defect norms of the defining identities; reports, never raises.

    Keys: lambda_sq_defect, sign_products_commute_defect (commutator of
    beta*lambda with lambda*beta), anticommutator_even_defect
    (commutator of beta with the anticommutator), eriksen_defect
    (beta U - U^dag beta), unitarity_defect (U U^adj - 1) and, for the
    beta-pseudo metric, pseudo_unitarity_defect.  The raw
    beta U - U^dag beta defect is always reported even though it has no
    reason to vanish for bosons.
    """
    lam, u = result.sign_op.data, result.u.data
    eye = np.eye(result.sign_op.side)
    bl, lb = beta.flip_rows(lam), beta.flip_cols(lam)
    out = {
        "lambda_sq_defect": identity_defect(lam @ lam - eye),
        "sign_products_commute_defect": identity_defect(bl @ lb - lb @ bl),
        "anticommutator_even_defect": identity_defect(
            beta.flip_rows(bl + lb) - beta.flip_cols(bl + lb)
        ),
        "eriksen_defect": identity_defect(beta.flip_rows(u) - beta.flip_cols(u.conj().T)),
        "unitarity_defect": identity_defect(
            u @ adjoint_m(result.u, metric).data - eye
        ),
    }
    if metric is Metric.BETA_PSEUDO:
        out["pseudo_unitarity_defect"] = identity_defect(
            adjoint_m(result.u, metric).data @ u - eye
        )
    return out


def verify_even_transformed(h_fw: BlockOperator, beta: BetaMatrix) -> float:
    """Relative odd-part norm ||odd(H')||_F / ||H'||_F."""
    return odd_part(h_fw, beta).norm() / max(h_fw.norm(), 1e-300)


def _transform(
    h: BlockOperator,
    beta: BetaMatrix,
    metric: Metric,
    gap_tol: float,
    eps_clamp: float,
) -> FWResult:
    """Sign operator, unitary, U H U^{-1} and generator of a graded
    operator, with the diagnostics every transform shares.

    U^{-1} is the metric adjoint of U (the residual is unitarity_defect).
    Diagnostics: the unitary identities, spectrum_defect (largest shift
    of the sorted spectrum under the similarity, relative to ||H||_2),
    the generator defects, the doubling identities and
    exp_equivalence_defect.
    """
    dec = decompose(h, metric)
    lam = sign_of(h, metric, gap_tol, dec)
    before, scale = np.sort(dec.eigenvalues.real), max(dec.scale, 1e-300)
    del dec
    # one decomposition of the denominator serves U and form A; it is
    # released before U H U^{-1} and its eigh, which set the peak memory
    den = denominator_decomposition(lam, beta, metric)
    u = eriksen_unitary(lam, beta, metric, dec=den)
    generator = generator_from_lambda(lam, beta, metric, eps_clamp=eps_clamp, dec=den)
    del den
    u_inverse = adjoint_m(u, metric)
    h_fw = h.like(u.data @ h.data @ u_inverse.data)
    after = np.sort(decompose(h_fw, metric).eigenvalues.real)
    result = FWResult(
        sign_op=lam,
        u=u,
        u_inverse=u_inverse,
        h_fw=h_fw,
        diagnostics={},
        s=generator.s,
    )
    result.diagnostics.update(verify_eriksen_identities(result, beta, metric))
    result.diagnostics["spectrum_defect"] = float(np.abs(before - after).max()) / scale
    result.diagnostics.update(generator.diagnostics)
    # one decomposition of S serves sin 2S, cos 2S and exp(iS)
    dec_s = decompose(generator.s, metric, allow_complex=True)
    result.diagnostics.update(trig_defects(dec_s, lam, beta))
    exponential = dec_s.apply(lambda w: np.exp(1j * w))
    result.diagnostics["exp_equivalence_defect"] = exp_defect(exponential, u)
    return result


def transform_stationary(
    split_h: SplitHamiltonian,
    gap_tol: float = GAP_TOL,
    eps_clamp: float = EPS_CLAMP,
) -> FWResult:
    """Run the full stationary transformation H -> U H U^{-1}.

    On top of the shared diagnostics (see :func:`_transform`): the
    relative odd norm of the transformed Hamiltonian, the agreement of
    the two unitary forms and the odd norm of sqrt(H^2) = lambda H.
    """
    h = split_h.total
    beta, metric = split_h.beta, split_h.metric
    result = _transform(h, beta, metric, gap_tol, eps_clamp)
    u, lam = result.u, result.sign_op
    u_alt = eriksen_unitary_alt(lam, beta, metric, lambda_sq_tol=None)
    result.diagnostics["odd_norm"] = verify_even_transformed(result.h_fw, beta)
    result.diagnostics["alt_form_defect"] = exp_defect(u_alt.data, u)
    # sqrt(H^2) is even when the mass is constant and the even term
    # vanishes, but not in general; reported, never asserted
    abs_h = h.like(lam.data @ h.data)
    result.diagnostics["sqrt_h2_odd_norm"] = verify_even_transformed(abs_h, beta)
    return result
