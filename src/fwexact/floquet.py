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

The extended-space kernels are batched: K and the naive operator are
assembled from their stacked bands by one strided copy, the naive
operator's time samples H(t) go to one stacked decomposition in the
sector layout they share (every sample still checked), and its bands
come from one contraction of the sampled signs with the Fourier phases,
exactly zero between sectors.  Real modes keep K, and the naive bands
(H(-t) = H(t)^*), in float64, and the samples too when H_-n = H_n.

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
from typing import Iterable, Iterator, Optional

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
    """H(t) - i d/dt truncated to 2*nf + 1 Fourier copies."""

    op: BlockOperator
    omega: float
    nf: int

    @property
    def internal_dim(self) -> int:
        return self.op.internal_dim

    @cached_property
    def layout(self) -> BlockOperator:
        """K in its sector layout, found on first use."""
        return in_sectors(self.op)


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


def _block_toeplitz(bands: np.ndarray) -> np.ndarray:
    """Extended-space matrix whose (m, n) block is band m - n, from the
    bands q = -2 nf ... 2 nf stacked along axis 0.

    Block row i (copy m = i - nf) lists the bands i - j for j = 0 ...
    2 nf, a window of the reversed bands; the windows are a strided
    view, so the matrix is one copy of it.
    """
    copies = (len(bands) + 1) // 2
    d = bands.shape[-1]
    rows = sliding_window_view(bands[::-1], copies, axis=0)[::-1]
    return rows.transpose(0, 1, 3, 2).reshape(copies * d, copies * d)


def build_extended(model: TimePeriodicHamiltonian, nf: int) -> ExtendedOperator:
    """Assemble the truncated extended-space matrix of H(t) - i d/dt."""
    if nf < 1:
        raise StructureError(f"truncation order must be >= 1, got {nf}")
    if model.max_mode > 2 * nf:
        raise StructureError(
            f"truncation too small: model has Fourier mode {model.max_mode}, "
            f"representable range is |n| <= {2 * nf}"
        )
    d = model.internal_dim
    orders, modes = model.mode_stack
    bands = np.zeros((4 * nf + 1, d, d), dtype=modes.dtype)
    bands[orders + 2 * nf] = modes
    data = _block_toeplitz(bands)
    data[np.diag_indices_from(data)] -= np.repeat(np.arange(-nf, nf + 1) * model.omega, d)
    check_finite_norm(data)
    return ExtendedOperator(BlockOperator(data, d, 2 * nf + 1), model.omega, nf)


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
    d, centre = k.internal_dim, k.nf * k.internal_dim
    h0 = k.op.data[centre : centre + d, centre : centre + d]
    gap = float(np.abs(np.linalg.eigvalsh(h0)).min())
    shift = k.nf * k.omega
    return (
        f"Floquet ladder fold: nf*omega = {shift:.4g} "
        f"{'>' if shift > gap else '<='} gap min|E(H_0)| = {gap:.4g}; "
        f"{flipped} of {k.op.side} eigenvectors have a quasienergy sign "
        "opposite to their beta-character (sign='character' assigns by character)"
    )


@contextmanager
def _extended_errors(k: ExtendedOperator, metric: Metric) -> Iterator[None]:
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
        if metric is not Metric.HERMITIAN or not str(exc).startswith(DEGENERATE):
            raise
        raise DomainError(f"{exc} [{_fold_diagnosis(k)}]") from exc


def lambda_capital(
    k: ExtendedOperator,
    gap_tol: float = GAP_TOL,
    metric: Metric = Metric.HERMITIAN,
    sign: str = "quasienergy",
) -> BlockOperator:
    """Sign operator of the extended operator.

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
    return _sign_of_k(k, gap_tol, metric, sign).dense()


def _sign_of_k(k: ExtendedOperator, gap_tol: float, metric: Metric, sign: str) -> BlockOperator:
    """:func:`lambda_capital` in the sector layout of K."""
    if sign not in _SIGN_CHOICES:
        raise ValueError(f"sign must be one of {_SIGN_CHOICES}, got {sign!r}")
    if sign == "character" and metric is not Metric.HERMITIAN:
        raise ValueError(
            "the beta-character sign is implemented for the Hermitian metric only"
        )
    op = k.layout
    with _extended_errors(k, metric):
        dec = decompose(op, metric)
        if sign == "quasienergy":
            return sign_of(op, metric, gap_tol, dec)
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
    lambda_q for |q| <= 2*nf.  The samples H(t) come from one contraction
    of the stacked Fourier modes with their phases and go, in the sector
    layout of the whole stack, to one stacked decomposition, which holds
    each sample to the checks of :func:`~fwexact.matfun.sign_of` (a gap
    failure names the first failing time); the bands come from one
    contraction of the signs with the Fourier phases and are exactly
    zero between sectors.  Real modes give real bands (float64), since
    H(-t) = H(t)^*.  The result squares to one only up to the
    truncation error, which is the point of keeping it.
    """
    if nf < 1:
        raise StructureError(f"truncation order must be >= 1, got {nf}")
    d = model.internal_dim
    copies = 2 * nf + 1
    samples = 4 * copies
    period = 2.0 * np.pi / model.omega
    times = np.arange(samples) * (period / samples)
    orders, modes = model.mode_stack
    angles, flat = model.omega * np.outer(times, orders), modes.reshape(len(orders), d * d)
    # H(t) = sum_n H_n cos(n w t) - (i/2) sum_n (H_n - H_-n) sin(n w t), H_-n at
    # flat[::-1]: exactly real when every H_-n equals H_n
    h_t = np.cos(angles) @ flat - 0.5j * (np.sin(angles) @ (flat - flat[::-1]))
    h_t = h_t.reshape(samples, d, d)
    layout = in_sectors(BlockOperator(h_t, d))
    dec = decompose(layout, model.metric)
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
    if not modes.imag.any():
        # H(-t) = H(t)^*: the samples at t_k and t_{S-k} are conjugates
        bands = bands.real
    return BlockOperator(_block_toeplitz(layout.like(bands).dense().data), d, copies)


def _window_bounds(a: BlockOperator, window: int) -> tuple[int, int]:
    """Index range of the |m| <= window Fourier copies of ``a``."""
    nf = (a.floquet_copies - 1) // 2
    if window < 0 or window > nf:
        raise StructureError(f"window must be in [0, {nf}], got {window}")
    return (nf - window) * a.internal_dim, (nf + window + 1) * a.internal_dim


def central_window(a: BlockOperator, window: int) -> BlockOperator:
    """Restriction to the |m| <= window Fourier copies."""
    lo, hi = _window_bounds(a, window)
    return BlockOperator(a.data[lo:hi, lo:hi], a.internal_dim, 2 * window + 1)


def central_odd_norm(a: BlockOperator, window: int) -> float:
    """Relative odd-part norm on the central window of Fourier copies,
    from the window's parity blocks."""
    return relative_odd_norm(central_window(a, window))


def _transformed_odd_norm(
    k: ExtendedOperator, lam: BlockOperator, metric: Metric, window: int, naive: bool
) -> float:
    """Central-window odd norm of U K U^{-1}, U the exact unitary of
    ``lam``: Lambda in the sector layout of K, or the dense naive
    operator, which :func:`~fwexact.eriksen.eriksen_unitary` gathers by
    its own sectors.  Only the window is measured, so only its rows of U
    and its columns of U^{-1} enter the product."""
    if naive:
        u = eriksen_unitary(lam, lambda_sq_tol=None)
    else:
        with _extended_errors(k, metric):
            u = eriksen_unitary(lam)
    u = u.dense()
    lo, hi = _window_bounds(k.op, window)
    u_inv = adjoint_m(u, metric).data
    windowed = (u.data[lo:hi] @ k.op.data) @ u_inv[:, lo:hi]
    return relative_odd_norm(BlockOperator(windowed, k.internal_dim, 2 * window + 1))


def _extended_odd_norm(
    model: TimePeriodicHamiltonian,
    k: ExtendedOperator,
    window: int,
    gap_tol: float,
    sign: str,
) -> float:
    lam = _sign_of_k(k, gap_tol, model.metric, sign)
    return _transformed_odd_norm(k, lam, model.metric, window, naive=False)


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
    odd_naive = _transformed_odd_norm(
        k, lambda_naive(model, nf, gap_tol), model.metric, w, naive=True
    )
    odd_lam = _extended_odd_norm(model, k, w, gap_tol, sign)
    orders = sorted(set(decay_nfs)) if decay_nfs is not None else [nf]
    table = []
    for order in orders:
        w_i = min(window, order)
        if order == nf and w_i == w:
            table.append((order, odd_lam))
        else:
            k_i = build_extended(model, order)
            table.append((order, _extended_odd_norm(model, k_i, w_i, gap_tol, sign)))
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
    with _extended_errors(k, model.metric):
        result = _transform(k.layout, model.metric, gap_tol, eps_clamp, routes)
    result.diagnostics["odd_norm"] = central_odd_norm(result.h_fw, window)
    return result
