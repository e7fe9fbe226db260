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
static on the extended space, share one pipeline with one full-size
decomposition: that of H, which gives lambda, the spectrum and the gap
check.  Everything after it is even or odd under beta and is evaluated
on lambda's parity blocks lambda_{++}, lambda_{+-}, lambda_{-+},
lambda_{--} (:attr:`~fwexact.blockop.BlockOperator.blocks`), with the
paper's formulas as the objects computed.  For an operator self-adjoint
under either metric the diagonal blocks are Hermitian, so every later
kernel is a half-size ``eigh``, in both metrics:

* the denominator's blocks 2 + 2 lambda_{++} and 2 - 2 lambda_{--} give
  U and form A of S;
* the blocks of M^2, of the form-A argument squared and of S^2 give S,
  its cross-check, sin 2S, cos 2S and exp(iS) (:mod:`fwexact.expgen`);
* the diagonal blocks of the polar Gram matrix give the polar form;
* the diagonal blocks of U H U^{-1} give its spectrum.

lambda^2 is formed once, blockwise, for the involution pre-check,
``lambda_sq_defect`` and ``sign_products_commute_defect``.  Every
diagnostic is a Frobenius sum over blocks; no full-size temporary is
held beyond the outputs.  ``anticommutator_even_defect`` is an exact
zero: beta (beta lambda + lambda beta) and (beta lambda + lambda beta) beta
are both lambda + beta lambda beta, and sign flips are exact.

H may carry leading stack axes, shape (..., n, n): a stack of
Hamiltonians of one block structure and metric (the points of a sweep)
then runs through the same code as one transform, one stacked kernel
call per step.  Every check holds each Hamiltonian to its own scale, and
every diagnostic, ``h_fw_norm`` and ``s_norm`` come back as arrays with
the stack's shape (floats without a stack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blockop import (
    BlockOperator,
    Blocks,
    Metric,
    SplitHamiltonian,
    add_identity,
    adjoint_m,
    adjoint_sign,
    at_least,
    dagger,
    frobenius,
    hypot,
    per_matrix,
    relative_odd_norm,
)
from .errors import DomainError
from .expgen import (
    LAMBDA_SQ_TOL,
    OddSquare,
    denominator_decomposition,
    exp_blocks,
    exp_defect,
    generator_from_lambda,
    trig_defects,
)
from .matfun import (
    EvenDecomposition,
    check_involution,
    decompose,
    involution_defects,
    sign_of,
)
from .tolerances import EPS_CLAMP, GAP_TOL

_DEGENERATE = "eriksen denominator degenerate"


@dataclass(frozen=True)
class FWResult:
    """Transformation bundle: sign operator, unitary, transformed
    Hamiltonian (or transformed Floquet operator) and defect norms.

    ``s`` is the exponential generator; both transforms fill it, and it
    is None only in a bundle assembled by hand.  ``h_fw_norm`` and
    ``s_norm`` are the spectral norms of ``h_fw`` and ``s``, read off the
    block decompositions the transforms make (None when assembled by
    hand).  For a stacked transform the operators carry the stack axes
    and every number is an array with the stack's shape.
    """

    sign_op: BlockOperator
    u: BlockOperator
    u_inverse: BlockOperator
    h_fw: BlockOperator
    diagnostics: dict[str, float | np.ndarray]
    s: Optional[BlockOperator] = None
    h_fw_norm: Optional[float | np.ndarray] = None
    s_norm: Optional[float | np.ndarray] = None


def eriksen_unitary(
    lam: BlockOperator,
    *,
    lambda_sq_tol: float | None = LAMBDA_SQ_TOL,
    dec: EvenDecomposition | None = None,
) -> BlockOperator:
    """U = (1 + beta lambda) (2 + beta lambda + lambda beta)^{-1/2}.

    ``lambda_sq_tol`` bounds the allowed involution defect of the input
    sign operator; pass None to skip the check (used when deliberately
    feeding an approximate sign operator to measure how it fails).
    ``dec`` is the :func:`~fwexact.expgen.denominator_decomposition` when
    the caller already holds it (the check ran when it was made).
    Raises "eriksen denominator degenerate" when the operator under the
    square root is not positive definite, which happens exactly when a
    sign eigenvector is orthogonal to the upper-block subspace.  The
    formula is the same in both metrics.
    """
    if dec is None:
        dec = denominator_decomposition(lam, lambda_sq_tol)
    root_pp, root_mm = _inverse_root(dec)
    # 1 + beta lambda has blocks 1 + lambda_{++}, lambda_{+-}, -lambda_{-+},
    # 1 - lambda_{--}; the inverse root is even
    a, b, c, d = lam.blocks
    return lam.like_blocks(
        root_pp + a @ root_pp, b @ root_mm, -(c @ root_pp), root_mm - d @ root_mm
    )


def _inverse_root(dec: EvenDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of the inverse square root under either unitary form; a
    spectrum that is not positive is a degenerate denominator."""
    try:
        return dec.positive(lambda w: 1.0 / np.sqrt(w))
    except DomainError as exc:
        raise DomainError(f"{_DEGENERATE}: {exc}") from exc


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
    )
    root_pp, root_mm = _inverse_root(gram)
    return Blocks(n_pp @ root_pp, b @ root_mm, -(c @ root_pp), n_mm @ root_mm)


def eriksen_unitary_alt(lam: BlockOperator, metric: Metric) -> BlockOperator:
    """Polar form U = N (N^adj N)^{-1/2} with N = 1 + beta lambda.

    Equal to :func:`eriksen_unitary` up to roundoff; the adjoint is the
    metric adjoint, so for the beta-pseudo metric this is the
    pseudo-unitary polar factor.  lambda must square to one within
    ``LAMBDA_SQ_TOL``.
    """
    check_involution(lam, LAMBDA_SQ_TOL)
    return lam.like_blocks(*_polar_blocks(lam, metric))


def _unitary_defects(u: BlockOperator, metric: Metric) -> dict[str, float | np.ndarray]:
    """eriksen_defect, unitarity_defect and (beta-pseudo metric)
    pseudo_unitarity_defect from the parity blocks of U; the adjoint's
    off-diagonal blocks carry :func:`~fwexact.blockop.adjoint_sign`."""
    pp, pm, mp, mm = u.blocks
    sign = adjoint_sign(metric)
    root_n = math.sqrt(u.side)
    h = dagger

    out = {
        "eriksen_defect": hypot(
            frobenius(pp - h(pp)),
            frobenius(pm + h(mp)),
            frobenius(mp + h(pm)),
            frobenius(mm - h(mm)),
        )
        / root_n,
        "unitarity_defect": hypot(
            frobenius(add_identity(pp @ h(pp) + sign * (pm @ h(pm)), -1.0)),
            frobenius(sign * (pp @ h(mp)) + pm @ h(mm)),
            frobenius(mp @ h(pp) + sign * (mm @ h(pm))),
            frobenius(add_identity(sign * (mp @ h(mp)) + mm @ h(mm), -1.0)),
        )
        / root_n,
    }
    if metric is Metric.BETA_PSEUDO:
        out["pseudo_unitarity_defect"] = hypot(
            frobenius(add_identity(h(pp) @ pp + sign * (h(mp) @ mp), -1.0)),
            frobenius(h(pp) @ pm + sign * (h(mp) @ mm)),
            frobenius(sign * (h(pm) @ pp) + h(mm) @ mp),
            frobenius(add_identity(sign * (h(pm) @ pm) + h(mm) @ mm, -1.0)),
        ) / root_n
    return out


def verify_eriksen_identities(result: FWResult, metric: Metric) -> dict[str, float]:
    """Defect norms of the defining identities; reports, never raises.

    Keys: lambda_sq_defect, sign_products_commute_defect (commutator of
    beta*lambda with lambda*beta), anticommutator_even_defect
    (commutator of beta with the anticommutator; zero by construction),
    eriksen_defect (beta U - U^dag beta), unitarity_defect (U U^adj - 1)
    and, for the beta-pseudo metric, pseudo_unitarity_defect.  The raw
    beta U - U^dag beta defect is always reported even though it has no
    reason to vanish for bosons.
    """
    return _identity_defects(involution_defects(result.sign_op), result.u, metric)


def _identity_defects(
    involution: dict[str, float | np.ndarray], u: BlockOperator, metric: Metric
) -> dict[str, float | np.ndarray]:
    """The involution defects of lambda with those of U
    (see :func:`verify_eriksen_identities`)."""
    return {
        **involution,
        "anticommutator_even_defect": per_matrix(np.zeros(u.stack_shape)),
        **_unitary_defects(u, metric),
    }


def _transform(
    h: BlockOperator, metric: Metric, gap_tol: float, eps_clamp: float
) -> FWResult:
    """Sign operator, unitary, U H U^{-1} and generator of a graded
    operator, with the diagnostics every transform shares.

    U^{-1} is the metric adjoint of U (the residual is unitarity_defect).
    Diagnostics: the unitary identities, spectrum_defect (largest shift
    of the sorted spectrum under the similarity, relative to the
    spectral radius of H), the generator defects, the doubling
    identities and exp_equivalence_defect.
    """
    dec = decompose(h, metric)
    lam = sign_of(h, metric, gap_tol, dec)
    before, scale = np.sort(dec.eigenvalues.real), at_least(dec.scale, 1e-300)
    del dec
    involution = check_involution(lam, LAMBDA_SQ_TOL)
    # one decomposition of the denominator serves U and form A
    den = denominator_decomposition(lam, lambda_sq_tol=None)
    u = eriksen_unitary(lam, dec=den)
    generator = generator_from_lambda(lam, metric, eps_clamp=eps_clamp, dec=den)
    s, generator_defects = generator.s, generator.diagnostics
    del den, generator
    u_inverse = adjoint_m(u, metric)
    h_fw = h.like(u.data @ h.data @ u_inverse.data)
    # U H U^{-1} is even and metric-self-adjoint: Hermitian diagonal blocks
    after = np.linalg.eigvalsh(np.stack((h_fw.blocks.pp, h_fw.blocks.mm), axis=-3))
    after = np.sort(after.reshape(before.shape), axis=-1)
    square = OddSquare(s.blocks.pm, s.blocks.mp)
    result = FWResult(
        sign_op=lam,
        u=u,
        u_inverse=u_inverse,
        h_fw=h_fw,
        diagnostics=_identity_defects(involution, u, metric),
        s=s,
        h_fw_norm=per_matrix(np.abs(after).max(axis=-1, initial=0.0)),
        s_norm=square.norm_2(),
    )
    result.diagnostics["spectrum_defect"] = per_matrix(
        np.abs(before - after).max(axis=-1) / scale
    )
    result.diagnostics.update(generator_defects)
    # one square of S serves sin 2S, cos 2S and exp(iS)
    result.diagnostics.update(trig_defects(square, lam))
    result.diagnostics["exp_equivalence_defect"] = exp_defect(exp_blocks(square), u)
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
    h, metric = split_h.total, split_h.metric
    result = _transform(h, metric, gap_tol, eps_clamp)
    lam = result.sign_op
    result.diagnostics["odd_norm"] = relative_odd_norm(result.h_fw)
    result.diagnostics["alt_form_defect"] = exp_defect(_polar_blocks(lam, metric), result.u)
    # sqrt(H^2) is even when the mass is constant and the even term
    # vanishes, but not in general; reported, never asserted
    result.diagnostics["sqrt_h2_odd_norm"] = _sqrt_h2_odd_norm(lam, h)
    return result


def _sqrt_h2_odd_norm(lam: BlockOperator, h: BlockOperator) -> float:
    """Relative odd norm of sqrt(H^2) = lambda H, one block at a time."""
    a, b, c, d = lam.blocks
    h_pp, h_pm, h_mp, h_mm = h.blocks
    odd = hypot(frobenius(a @ h_pm + b @ h_mm), frobenius(c @ h_pp + d @ h_mp))
    even = hypot(frobenius(a @ h_pp + b @ h_mp), frobenius(c @ h_pm + d @ h_mm))
    return odd / at_least(hypot(odd, even), 1e-300)
