"""Floquet extended-space representation and the nonstationary sign operator.

For a time-periodic H(t) = sum_n H_n exp(-i n w t), the operator
H(t) - i d/dt acts on the Fourier components exp(-i m w t) as the block
matrix

    K[m, n] = H_{m-n} - m w delta_{mn},     m, n in [-nf, nf],

truncated at order nf.  The diagonal ladder -m w realizes -i d/dt and
commutes with the extended grading beta, so K is a static graded
operator on the extended space (Shirley, Phys. Rev. 138, B979 (1965)):
:func:`transform_nonstationary` runs it through the same pipeline as a
stationary Hamiltonian, with the sign operator

    Lambda = K / sqrt(K^2)

of the full extended operator.  The "naive" alternative transplants the
stationary recipe: the instantaneous sign operator lambda(t) =
H(t)/sqrt(H(t)^2) sampled over one period and Fourier-transformed into a
block-Toeplitz extended operator.  Transforming K with the unitary built
from Lambda produces an even operator; with the naive operator the
time-derivative picks up terms proportional to d(lambda)/dt that are not
even, and the demonstration below measures exactly that.

K and the naive operator are written in the sector layout of the modes
(the ladder is diagonal), searched once per model
(:attr:`~fwexact.models.TimePeriodicHamiltonian.mode_layout`): each
sector of the modes over every copy, the upper components of every copy
first, so K's parity blocks are slices.  Each distinct block is one
strided copy of its bands: the naive operator's time samples H(t) go to
one stacked decomposition (every sample still checked), and its bands
come from one contraction of the sampled signs with the Fourier phases.
Real modes keep K, and the naive bands (H(-t) = H(t)^*), in float64,
and the samples too when H_-n = H_n.  K carries its model's metric, so
the functions of K take none.

Odd-part norms are measured on a central window of Fourier copies; the
edge copies of the truncated ladder are excluded as truncation
artifacts, and only the window's rows and columns of U K U^{-1} are
formed.  If the raw ladder closes the spectral gap (a quasienergy
resonance) this surfaces as an error.

Once nf * omega exceeds the gap of H_0, the ladder folds: copies whose
eigenvectors lie mostly in the lower block reach positive quasienergy,
K / sqrt(K^2) gives them Lambda = +1, and the denominator of the exact
unitary becomes singular.  The default (``sign="quasienergy"``) keeps the
paper's Lambda = K / sqrt(K^2) and reports such a fold by name.  The
opt-in ``sign="character"`` assigns particle and antiparticle by
beta-character instead,

    Lambda_chi = V sign(<v|beta|v>) V^dag,

the quasienergy-zone choice of Shirley (1965) and Eckardt & Anisimovas,
New J. Phys. 17, 093039 (2015).  Below the fold the two coincide; the
paper does not say how folded copies are to be assigned.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blockop import (
    BlockOperator,
    Metric,
    adjoint_m,
    check_finite_norm,
    dagger,
    relative_odd_norm,
)
from .errors import DomainError, SpectralGapError, StructureError
from .eriksen import FWResult, _transform, eriksen_unitary
from .expgen import DEGENERATE
from .matfun import SpectralDecomposition, check_gap, decompose, in_sectors, sign_of
from .models import TimePeriodicHamiltonian
from .tolerances import EPS_CLAMP, GAP_TOL

_SIGN_CHOICES = ("quasienergy", "character")
# eigenvalues of K closer than this, relative to ||K||_2, span one
# eigenspace for the beta-character (roundoff splits exact degeneracies
# at ~n * 1e-16)
_EIGENSPACE_TOL = 1e-12


@dataclass(frozen=True)
class ExtendedOperator:
    """H(t) - i d/dt truncated to 2*nf + 1 Fourier copies, ``held`` dense
    or in its sector layout (as :func:`build_extended` writes it), and
    self-adjoint under its model's ``metric``."""

    held: BlockOperator
    omega: float
    nf: int
    metric: Metric = Metric.HERMITIAN

    @cached_property
    def layout(self) -> BlockOperator:
        """K in its sector layout, found on first use when held dense."""
        return in_sectors(self.held)

    @cached_property
    def op(self) -> BlockOperator:
        """K as one dense matrix, assembled when first read."""
        return self.held.dense()


@dataclass(frozen=True)
class FloquetReport:
    """Central-window odd norms for the naive and extended sign operators.

    ``decay_table`` holds (nf, odd norm with Lambda) pairs at strictly
    increasing truncation orders.  ``notes`` carries configuration
    warnings (e.g. a window as wide as the truncation itself).
    """

    odd_norm_lambda_naive: float
    odd_norm_lambda: float
    window: int
    decay_table: tuple[tuple[int, float], ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.odd_norm_lambda_naive < 0 or self.odd_norm_lambda < 0:
            raise StructureError("odd norms must be nonnegative")
        orders = [nf for nf, _ in self.decay_table]
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise StructureError("decay table truncation orders must strictly increase")


def _block_toeplitz(modes: BlockOperator, bands: np.ndarray) -> BlockOperator:
    """The extended-space operator whose (m, n) block is band m - n (bands
    q = -2 nf ... 2 nf on axis 0, in the modes' layout ``modes``), in its
    sector layout: each sector of the modes over every copy, the upper
    components of every copy first.  Block row i lists the bands i - j,
    j = 0 ... 2 nf: a window of the reversed bands, so each block is one
    copy of a strided view."""
    copies, d, (count, s) = (len(bands) + 1) // 2, modes.internal_dim, modes.sectors.shape
    rows = sliding_window_view(bands[::-1], copies, axis=0)[::-1]
    # (i, sector, part, a, part', b, j) -> (sector, part, i, a, part', j, b)
    rows = rows.reshape(copies, -1, 2, s // 2, 2, s // 2, copies)
    data = np.moveaxis(rows, (0, -1), (2, 5)).reshape(-1, copies * s, copies * s)
    index = modes.sectors[:, None, :] + d * np.arange(copies)[:, None]
    index = index.reshape(count, copies, 2, s // 2).swapaxes(1, 2).reshape(count, -1)
    return BlockOperator(data, d, copies, index, modes.weights, images=modes.images)


def build_extended(model: TimePeriodicHamiltonian, nf: int) -> ExtendedOperator:
    """Write the truncated extended-space operator of H(t) - i d/dt in its
    sector layout: each distinct block is the block-Toeplitz of its
    sector's bands plus the ladder."""
    if nf < 1:
        raise StructureError(f"truncation order must be >= 1, got {nf}")
    if model.max_mode > 2 * nf:
        raise StructureError(
            f"truncation too small: model has Fourier mode {model.max_mode}, "
            f"representable range is |n| <= {2 * nf}"
        )
    modes = model.mode_layout
    bands = np.zeros((4 * nf + 1, *modes.data.shape[1:]), dtype=modes.data.dtype)
    bands[model.mode_stack[0] + 2 * nf] = modes.data
    k = _block_toeplitz(modes, bands)
    diagonal = np.arange(k.data.shape[-1])  # the ladder -m w, on K's fresh blocks
    k.data[..., diagonal, diagonal] -= (k.sectors[0] // model.internal_dim - nf) * model.omega
    check_finite_norm(k.data)
    return ExtendedOperator(k, model.omega, nf, model.metric)


def _beta_characters(
    dec: SpectralDecomposition, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors of a Hermitian K (or its sector stack)
    with beta diagonal inside each eigenspace of a sector, and their
    beta-characters <v|beta|v>; ``signs`` is beta's diagonal.

    Within a degenerate eigenspace the per-vector character would depend
    on the basis eigh happens to return; diagonalising V_c^dag beta V_c
    over each cluster of equal eigenvalues makes it a property of K.
    beta couples no two sectors, so clusters are taken per sector;
    clusters of one size go to one stacked ``eigh``.
    """
    v = dec.right_vectors.copy()
    chars = np.einsum("...ij,i,...ij->...j", v.conj(), signs, v).real
    side = v.shape[-1]
    spectra = dec.eigenvalues.real.reshape(-1, side)
    # v and chars are fresh arrays, so the reshapes are views written in place
    for w, v_s, chars_s in zip(spectra, v.reshape(-1, side, side), chars.reshape(-1, side)):
        edges = np.flatnonzero(np.diff(w) > _EIGENSPACE_TOL * dec.scale) + 1
        by_size: dict[int, list[np.ndarray]] = {}
        for cluster in np.split(np.arange(side), edges):
            if len(cluster) > 1:
                by_size.setdefault(len(cluster), []).append(cluster)
        for clusters in by_size.values():
            columns = np.stack(clusters)  # (clusters, size)
            blocks = v_s[:, columns].transpose(1, 0, 2)  # (clusters, side, size)
            gram = dagger(blocks) @ (signs[:, None] * blocks)
            chars_s[columns], rotation = np.linalg.eigh(gram)
            v_s[:, columns] = (blocks @ rotation).transpose(1, 0, 2)
    return v, chars


def _fold_diagnosis(k: ExtendedOperator) -> str:
    """nf * omega against the gap of H_0, and how many eigenvectors of K
    have a quasienergy sign opposite to their beta-character."""
    dec = decompose(k.layout, Metric.HERMITIAN)
    _, chars = _beta_characters(dec, k.layout.signs)
    opposite = np.sign(dec.eigenvalues.real) != np.sign(chars)
    # per distinct sector of K, counted as often as the sector occurs
    flipped = int(np.count_nonzero(opposite, axis=-1) @ k.layout.weights)
    h0 = central_window(k.layout, 0).dense().data  # K's copy m = 0
    gap = float(np.abs(np.linalg.eigvalsh(h0)).min())
    shift = k.nf * k.omega
    return (
        f"Floquet ladder fold: nf*omega = {shift:.4g} "
        f"{'>' if shift > gap else '<='} gap min|E(H_0)| = {gap:.4g}; "
        f"{flipped} of {k.layout.side} eigenvectors have a quasienergy sign "
        "opposite to their beta-character (sign='character' assigns by character)"
    )


@contextmanager
def _extended_errors(k: ExtendedOperator) -> Iterator[None]:
    """Name the failures of the extended operator for what they are: a gap
    violation is a quasienergy resonance, and a degenerate denominator of
    the exact unitary is set against the ladder fold (diagnosed from a
    fresh decomposition of K, on the error path only)."""
    try:
        yield
    except SpectralGapError as exc:
        raise SpectralGapError(
            f"{exc} [quasienergy resonance: adjust omega or add detuning]"
        ) from exc
    except DomainError as exc:
        if k.metric is not Metric.HERMITIAN or not str(exc).startswith(DEGENERATE):
            raise
        raise DomainError(f"{exc} [{_fold_diagnosis(k)}]") from exc


def lambda_capital(
    k: ExtendedOperator, gap_tol: float = GAP_TOL, sign: str = "quasienergy"
) -> BlockOperator:
    """Sign operator of the extended operator, under K's metric.

    ``sign="quasienergy"`` (the default) is the paper's Lambda =
    K / sqrt(K^2).  ``sign="character"`` is Lambda_chi = V sign(<v|beta|v>)
    V^dag over the eigenvectors of K, with beta diagonalised inside each
    degenerate eigenspace (Hermitian metric only).  Both need the gap of
    K (else a quasienergy-resonance SpectralGapError) and come from one
    decomposition of K.  They coincide below the ladder fold; past it
    only Lambda_chi pairs every eigenvector with its dominant block, and
    PAPER.md does not settle which assignment is meant there.  A
    character at or below ``gap_tol`` raises DomainError.
    """
    return _sign_of_k(k, gap_tol, sign).dense()


def _sign_of_k(k: ExtendedOperator, gap_tol: float, sign: str) -> BlockOperator:
    """:func:`lambda_capital` in the sector layout of K."""
    if sign not in _SIGN_CHOICES:
        raise ValueError(f"sign must be one of {_SIGN_CHOICES}, got {sign!r}")
    if sign == "character" and k.metric is not Metric.HERMITIAN:
        raise ValueError(
            "the beta-character sign is implemented for the Hermitian metric only"
        )
    op = k.layout
    with _extended_errors(k):
        dec = decompose(op, k.metric)
        if sign == "quasienergy":
            return sign_of(op, k.metric, gap_tol, dec)
        check_gap(dec, gap_tol)
    v, chars = _beta_characters(dec, op.signs)
    smallest = float(np.abs(chars).min())
    if smallest <= gap_tol:
        raise DomainError(
            f"beta-character collapsed: min |<v|beta|v>| = {smallest:.3e} "
            f"<= {gap_tol:.1e}; an eigenvector of K mixes the upper and lower "
            "blocks equally and has no particle/antiparticle assignment"
        )
    return op.like((v * np.sign(chars)[..., None, :]) @ dagger(v))


def lambda_naive(
    model: TimePeriodicHamiltonian, nf: int, gap_tol: float = GAP_TOL
) -> BlockOperator:
    """Instantaneous sign operator, Fourier-transformed to the extended space.

    lambda(t) = H(t)/sqrt(H(t)^2) is evaluated on 4*(2*nf+1) uniform
    samples over one period (oversampled Nyquist for the bands kept) and
    assembled into the block-Toeplitz extended operator with bands
    lambda_q for |q| <= 2*nf.  The samples H(t), from one contraction of
    the modes' distinct sector blocks with their phases, go to one stacked
    decomposition, which holds each to the checks of
    :func:`~fwexact.matfun.sign_of` (a gap failure names the first failing
    time); the bands, exactly zero between sectors, come from one
    contraction of the signs with the Fourier phases, real (float64) for
    real modes, since H(-t) = H(t)^*.  The result squares to one only up
    to the truncation error, which is the point of keeping it.
    """
    return _naive_layout(model, nf, gap_tol).dense()


def _naive_layout(model: TimePeriodicHamiltonian, nf: int, gap_tol: float) -> BlockOperator:
    """:func:`lambda_naive` in the sector layout :func:`build_extended` writes K in."""
    if nf < 1:
        raise StructureError(f"truncation order must be >= 1, got {nf}")
    samples = 4 * (2 * nf + 1)
    times = np.arange(samples) * (2.0 * np.pi / model.omega / samples)
    orders, modes = model.mode_stack[0], model.mode_layout
    angles, flat = model.omega * np.outer(times, orders), modes.data.reshape(len(orders), -1)
    # H(t) = sum_n H_n cos(n w t) - (i/2) sum_n (H_n - H_-n) sin(n w t), H_-n at
    # flat[::-1]: exactly real when every H_-n equals H_n
    h_t = np.cos(angles) @ flat - 0.5j * (np.sin(angles) @ (flat - flat[::-1]))
    if not h_t.imag.any():
        h_t = np.ascontiguousarray(h_t.real)
    dec = decompose(modes.like(h_t.reshape(samples, *modes.data.shape[1:])), model.metric)
    try:
        check_gap(dec, gap_tol)
    except SpectralGapError as exc:
        raise SpectralGapError(
            f"adiabatic sign undefined: instantaneous spectrum closes at "
            f"t = {times[exc.index]:.6g} ({exc})"
        ) from exc
    signs = dec.apply(lambda w: np.sign(w.real))
    q = np.arange(-2 * nf, 2 * nf + 1)
    fourier = np.exp(1j * model.omega * np.outer(q, times))
    bands = (fourier @ signs.reshape(samples, -1)).reshape(len(q), *signs.shape[1:]) / samples
    if not modes.data.imag.any():
        # H(-t) = H(t)^*: the samples at t_k and t_{S-k} are conjugates
        bands = bands.real
    return _block_toeplitz(modes, bands)


def _in_window(
    a: BlockOperator, window: int, block: Callable[[np.ndarray], np.ndarray]
) -> BlockOperator:
    """The |m| <= window Fourier copies of ``a`` in its sector layout:
    ``block(rows)`` from the positions ``rows`` they hold in every sector."""
    nf = (a.floquet_copies - 1) // 2
    if window < 0 or window > nf:
        raise StructureError(f"window must be in [0, {nf}], got {window}")
    lo, hi = (nf - window) * a.internal_dim, (nf + window + 1) * a.internal_dim
    rows = np.flatnonzero((a.sectors[0] >= lo) & (a.sectors[0] < hi))
    tags = (a.sectors[:, rows] - lo, a.weights, None, a.images)
    return BlockOperator(block(rows), a.internal_dim, 2 * window + 1, *tags)


def central_window(a: BlockOperator, window: int) -> BlockOperator:
    """Restriction to the |m| <= window Fourier copies, in ``a``'s sector
    layout (a dense ``a`` as one sector)."""
    if not a.sectored:
        a = a.in_sectors([np.arange(a.side)])
    return _in_window(a, window, lambda rows: a.data[..., rows[:, None], rows])


def central_odd_norm(a: BlockOperator, window: int) -> float:
    """Relative odd-part norm on the central window of Fourier copies,
    from the window's parity blocks."""
    return relative_odd_norm(central_window(a, window))


def _transformed_odd_norm(
    k: ExtendedOperator, window: int, gap_tol: float, sign: str, naive: BlockOperator | None = None
) -> float:
    """Central-window odd norm of U K U^{-1}, U the exact unitary of the
    naive operator ``naive`` (in K's sector layout) when given, else of
    Lambda.  Only the window is measured, so only its rows of U and its
    columns of U^{-1}, in each distinct sector, enter the product."""
    if naive is not None:
        u = eriksen_unitary(naive, lambda_sq_tol=None)
    else:
        lam = _sign_of_k(k, gap_tol, sign)
        with _extended_errors(k):
            u = eriksen_unitary(lam)
    u_inv = adjoint_m(u, k.metric).data
    windowed = _in_window(
        u, window, lambda rows: (u.data[..., rows, :] @ k.layout.data) @ u_inv[..., :, rows]
    )
    return relative_odd_norm(windowed)


def demonstrate_nonevenness(
    model: TimePeriodicHamiltonian,
    nf: int,
    window: Optional[int] = None,
    gap_tol: float = GAP_TOL,
    decay_nfs: Optional[Iterable[int]] = None,
    sign: str = "quasienergy",
) -> FloquetReport:
    """Compare the naive and extended sign operators on one model.

    Transforms K with the unitary built from each operator and measures
    the central-window relative odd norm of the result.  The involution
    pre-check is disabled on the naive branch: its failure to square to
    one is part of what is being demonstrated.  ``decay_nfs`` adds a
    table of Lambda-branch odd norms over extra truncation orders (the
    window, by default max(nf // 2, 1) as in :func:`transform_nonstationary`,
    is clamped to each order).

    ``sign`` chooses the extended operator as in :func:`lambda_capital`:
    the paper's K / sqrt(K^2) by default, for which a ladder folded past
    the gap raises "eriksen denominator degenerate" with the fold named;
    ``"character"`` assigns by beta-character and stays exact past the
    fold.  PAPER.md does not settle which is meant past the fold.
    """
    notes: list[str] = []
    if window is None:
        window = max(nf // 2, 1)
    w = min(window, nf)
    if w != window:
        notes.append(f"window {window} clamped to truncation order {nf}")
    if w == nf:
        notes.append("window equals truncation; edge effects dominate")
    k = build_extended(model, nf)
    # the naive operator is a temporary, freed before Lambda is built
    odd_naive = _transformed_odd_norm(k, w, gap_tol, sign, _naive_layout(model, nf, gap_tol))
    odd_lam = _transformed_odd_norm(k, w, gap_tol, sign)
    orders = sorted(set(decay_nfs)) if decay_nfs is not None else [nf]

    def odd_at(order: int) -> float:
        k_i = build_extended(model, order)
        return _transformed_odd_norm(k_i, min(window, order), gap_tol, sign)

    table = [(order, odd_lam if order == nf else odd_at(order)) for order in orders]
    return FloquetReport(
        odd_norm_lambda_naive=odd_naive,
        odd_norm_lambda=odd_lam,
        window=w,
        decay_table=tuple(table),
        notes=tuple(notes),
    )


def transform_nonstationary(
    model: TimePeriodicHamiltonian,
    nf: int,
    gap_tol: float = GAP_TOL,
    window: Optional[int] = None,
    eps_clamp: float = EPS_CLAMP,
    *,
    routes: bool = False,
) -> FWResult:
    """Full nonstationary pipeline on the extended space.

    Builds K and runs it through the pipeline shared with the stationary
    transform, with the extended sign operator Lambda; the diagnostics are the shared ones
    (unitary identities, spectrum displacement, generator defects,
    exp(iS) = U) plus the central-window odd norm of U K U^{-1}.
    ``routes=True`` adds the generator cross-checks of
    :func:`~fwexact.verify.generator_routes` (form_agreement_defect,
    denominator_commutator_defect and clamp_excess, held to ``eps_clamp``).
    """
    if window is None:
        window = max(nf // 2, 1)
    window = min(window, nf)
    k = build_extended(model, nf)
    with _extended_errors(k):
        result = _transform(k.layout, k.metric, gap_tol, eps_clamp, routes)
    result.diagnostics["odd_norm"] = central_odd_norm(result._operators["h_fw"], window)
    return result
