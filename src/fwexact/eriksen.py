"""Exact one-step block-diagonalizing (Foldy-Wouthuysen) unitary.

Given the sign operator lambda = H / sqrt(H^2) of a gapped self-adjoint
Hamiltonian, the Eriksen unitary

    U = (1 + beta lambda) / sqrt(2 + beta lambda + lambda beta)

maps H to an even (block-diagonal) operator in one step.  Numerator and
denominator commute, U is metric-unitary, and beta U = U^adj beta with
U^adj the metric adjoint.  The equivalent polar-decomposition form

    U = (1 + beta lambda) / sqrt((1 + beta lambda)^adj (1 + beta lambda))

is a cross-check in :mod:`fwexact.verify`, run on request
(``routes=True``).  Every identity involved is measured and reported
as a dimensionless defect norm; identity-type defects are Frobenius
norms divided by ||1||_F = sqrt(n), so a clean result sits at machine
precision and a violation of size eps shows up as roughly eps.

The stationary H and the Floquet operator K = H(t) - i d/dt, which is
static on the extended space, share one pipeline with one decomposition
of the whole operator: that of H, which gives lambda, the spectrum and
the gap check.  Every later kernel acts on an even or odd operator of
the chain, built from lambda's parity blocks lambda_{++}, lambda_{+-},
lambda_{-+}, lambda_{--} (:attr:`~fwexact.blockop.BlockOperator.blocks`),
with the paper's formulas as the objects computed.  For an operator
self-adjoint under either metric the diagonal blocks are Hermitian, so
every later kernel is an ``eigh`` of the two half-size blocks, in both
metrics, and there are two:

* the denominator's blocks 2 + 2 lambda_{++} and 2 - 2 lambda_{--} give
  U, S and ||S||_2 (:mod:`fwexact.expgen`): lambda^2 = 1 makes every even
  operator of the chain a function of lambda_{++} on the upper block and
  of lambda_{--} on the lower one;
* the diagonal blocks of U H U^{-1} (``eigvalsh``) give its spectrum.

sin 2S, cos 2S and exp(iS) are checked against lambda and U by one
Taylor chain of iS's blocks on probe vectors, with no decomposition.

``routes=True`` adds the cross-check routes of :mod:`fwexact.verify` and
their kernels (the polar Gram matrix, the canonical arcsine's M^2 and
form A's argument squared).

The chain runs in H's sector layout (:mod:`fwexact.matfun`), as it was
written (``dirac_1d``, the Floquet K) or gathered once, at sector size on
the distinct sectors and in float64 where the layout holds H real; the
result's operators are made dense, in H's basis, only when read.

Parity blocks are used only where an operand is even or odd, so that a
zero block saves work (the denominator, S, the probe chain, H_FW's
diagonal blocks, odd norms).  Each other check is one whole product in
the layout: U U^adj (U^adj U for bosons), beta U - U^adj beta, lambda H,
and lambda^2, made once for the involution pre-check,
``lambda_sq_defect`` and (its odd blocks)
``sign_products_commute_defect``; the unitary checks run before H_FW is
formed.  That beta commutes with beta lambda + lambda beta holds
by exact sign flips and is not measured (:mod:`fwexact.verify`).

H may carry leading stack axes (the points of a sweep): the stack runs
as one transform, each Hamiltonian held to its own scale, and every
diagnostic, ``h_fw_norm`` and ``s_norm`` has the stack's shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .blockop import (
    BlockOperator,
    Metric,
    SplitHamiltonian,
    adjoint_m,
    at_least,
    per_matrix,
    relative_odd_norm,
)
from .expgen import (
    LAMBDA_SQ_TOL,
    denominator_decomposition,
    exponential_defects,
    generator,
    generator_defects,
    inverse_root,
)
from .matfun import EvenDecomposition, check_involution, decompose, in_sectors, sign_of
from .tolerances import EPS_CLAMP, GAP_TOL
from .verify import alt_form_defect, generator_routes, unitary_defects


def _dense_on_read(name: str) -> property:
    """The operator ``name`` of a :class:`FWResult`, made dense when first read."""

    def read(result: "FWResult") -> Optional[BlockOperator]:
        op = result._operators[name]
        if op is not None and op.sectored:
            op = result._operators[name] = op.dense()
        return op

    return property(read)


class FWResult:
    """Transformation bundle: sign operator, unitary, transformed
    Hamiltonian (or transformed Floquet operator) and defect norms.

    ``s`` is the exponential generator; both transforms fill it, and it
    is None only in a bundle assembled by hand.  ``h_fw_norm`` and
    ``s_norm`` are the spectral norms of ``h_fw`` and ``s``, read off the
    block decompositions the transforms make, and ``taylor_terms`` the
    length of the chain that checks exp(iS) (each None when assembled by
    hand).  For a stacked transform the operators carry the stack axes
    and every number is an array with the stack's shape.  The transforms
    hold the operators in H's sector layout; each is made dense when
    first read, so a run that reads only the numbers assembles none.
    """

    sign_op = _dense_on_read("sign_op")
    u = _dense_on_read("u")
    u_inverse = _dense_on_read("u_inverse")
    h_fw = _dense_on_read("h_fw")
    s = _dense_on_read("s")

    def __init__(
        self,
        sign_op: BlockOperator,
        u: BlockOperator,
        u_inverse: BlockOperator,
        h_fw: BlockOperator,
        diagnostics: dict[str, float | np.ndarray],
        s: Optional[BlockOperator] = None,
        h_fw_norm: Optional[float | np.ndarray] = None,
        s_norm: Optional[float | np.ndarray] = None,
        taylor_terms: Optional[int] = None,
    ) -> None:
        self._operators = {"sign_op": sign_op, "u": u, "u_inverse": u_inverse, "h_fw": h_fw, "s": s}
        self.diagnostics = diagnostics
        self.h_fw_norm = h_fw_norm
        self.s_norm = s_norm
        self.taylor_terms = taylor_terms


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
    formula is the same in both metrics, and so is beta U = U^adj beta
    (U^adj = beta U^dag beta for the beta-pseudo metric): beta U is a
    function of beta + lambda, which is self-adjoint under the metric.
    U is built in lambda's sector layout (dense out for a dense lambda).
    """
    op = in_sectors(lam)
    if dec is None:
        dec = denominator_decomposition(op, lambda_sq_tol)
    root_pp, root_mm = inverse_root(dec)
    # 1 + beta lambda has blocks 1 + lambda_{++}, lambda_{+-}, -lambda_{-+},
    # 1 - lambda_{--}; the inverse root is even
    a, b, c, d = op.blocks
    u = op.like_blocks(root_pp + a @ root_pp, b @ root_mm, -(c @ root_pp), root_mm - d @ root_mm)
    return u if lam.sectored else u.dense()


def _transform(
    h: BlockOperator, metric: Metric, gap_tol: float, eps_clamp: float, routes: bool
) -> FWResult:
    """Sign operator, unitary, U H U^{-1} and generator of a graded
    operator, with the diagnostics every transform shares, all in the
    sector layout of ``h`` (made dense when read, see :class:`FWResult`).

    U, S and ||S||_2 come from one decomposition of the denominator.
    U^{-1} is the metric adjoint of U (the residual is unitarity_defect).
    Diagnostics: the unitary identities, spectrum_defect (largest shift
    of the sorted spectrum under the similarity, relative to the
    spectral radius of H), the generator defects, and the doubling
    identities and exp_equivalence_defect, estimated on probe vectors
    (:func:`~fwexact.expgen.exponential_defects`).  ``routes`` adds the
    generator cross-checks of :func:`~fwexact.verify.generator_routes`,
    whose arcsine is held to the clamp band ``eps_clamp``.  The spectra
    count each sector's eigenvalues as often as the sector occurs.
    """
    dec = decompose(h, metric)
    lam = sign_of(h, metric, gap_tol, dec)
    before = _spectrum(dec.eigenvalues.real, h)
    scale = at_least(dec.scale, 1e-300)
    del dec
    involution = check_involution(lam, LAMBDA_SQ_TOL)
    # one decomposition of the denominator serves U and S (and form A)
    den = denominator_decomposition(lam, lambda_sq_tol=None)
    u = eriksen_unitary(lam, dec=den)
    s, i_s, s_norm = generator(lam, metric, den)
    defects = generator_defects(*i_s, metric, lam.weights, phase=-1j)
    if routes:
        defects.update(generator_routes(lam, metric, eps_clamp=eps_clamp, dec=den))
    del den
    # one Taylor chain on probe vectors serves sin 2S, cos 2S and exp(iS)
    exponential, taylor_terms = exponential_defects(i_s, lam, u)
    del i_s
    u_inverse = adjoint_m(u, metric)
    unitary = unitary_defects(u, u_inverse, metric)
    h_fw = h.like(u.data @ h.data @ u_inverse.data)
    spectrum_defect, after = _spectrum_defect(before, h_fw, scale)
    result = FWResult(
        sign_op=lam,
        u=u,
        u_inverse=u_inverse,
        h_fw=h_fw,
        diagnostics={**involution, **unitary},
        s=s,
        h_fw_norm=per_matrix(np.abs(after).max(axis=-1, initial=0.0)),
        s_norm=s_norm,
        taylor_terms=taylor_terms,
    )
    result.diagnostics["spectrum_defect"] = spectrum_defect
    result.diagnostics.update(defects)
    result.diagnostics.update(exponential)
    return result


def _spectrum_defect(
    before: np.ndarray, h_fw: BlockOperator, scale: float | np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """spectrum_defect, the largest shift of H's sorted spectrum ``before``
    relative to ``scale``, and the spectrum of U H U^{-1} (``h_fw``, in the
    sector layout): even and metric-self-adjoint, Hermitian diagonal blocks."""
    after = _spectrum(np.linalg.eigvalsh(np.stack((h_fw.blocks.pp, h_fw.blocks.mm), axis=-3)), h_fw)
    return per_matrix(np.abs(before - after).max(axis=-1) / scale), after


def _spectrum(w: np.ndarray, h: BlockOperator) -> np.ndarray:
    """The sorted spectrum of each operator of ``h``'s stack from the
    eigenvalues ``w`` of its distinct sectors, each counted as often as
    its sector occurs."""
    w = np.repeat(w.reshape(*h.stack_shape, len(h.weights), -1), h.weights, axis=-2)
    return np.sort(w.reshape(*h.stack_shape, -1), axis=-1)


def transform_stationary(
    split_h: SplitHamiltonian,
    gap_tol: float = GAP_TOL,
    eps_clamp: float = EPS_CLAMP,
    *,
    routes: bool = False,
) -> FWResult:
    """Run the full stationary transformation H -> U H U^{-1}.

    On top of the shared diagnostics (see :func:`_transform`): the
    relative odd norm of the transformed Hamiltonian and the odd norm of
    sqrt(H^2) = lambda H.  ``routes=True`` runs the cross-check routes of
    :mod:`fwexact.verify` as well: alt_form_defect (the polar form
    against U), form_agreement_defect, denominator_commutator_defect and
    clamp_excess (the canonical arcsine, held to ``eps_clamp``).  A split
    whose model tried a real basis reports its real_basis_defect (see
    :mod:`fwexact.blockop`).
    """
    h, metric = in_sectors(split_h.h), split_h.metric
    result = _transform(h, metric, gap_tol, eps_clamp, routes)
    if split_h.real_basis_defect is not None:
        result.diagnostics["real_basis_defect"] = split_h.real_basis_defect
    lam, u, h_fw = (result._operators[name] for name in ("sign_op", "u", "h_fw"))
    diagnostics = result.diagnostics
    diagnostics["odd_norm"] = relative_odd_norm(h_fw)
    if routes:
        diagnostics["alt_form_defect"] = alt_form_defect(lam, u, metric)
    # sqrt(H^2) is even when the mass is constant and the even term
    # vanishes, but not in general; reported, never asserted
    diagnostics["sqrt_h2_odd_norm"] = _sqrt_h2_odd_norm(lam, h)
    return result


def _sqrt_h2_odd_norm(lam: BlockOperator, h: BlockOperator) -> float:
    """Relative odd norm of sqrt(H^2) = lambda H, from one whole product."""
    return relative_odd_norm(lam.like(lam.data @ h.data))
