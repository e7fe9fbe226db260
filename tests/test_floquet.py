import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fwexact.matfun
from fwexact import (
    DomainError,
    ExtendedOperator,
    Metric,
    SpectralGapError,
    StructureError,
    TimePeriodicHamiltonian,
    build_extended,
    central_odd_norm,
    demonstrate_nonevenness,
    floquet_dirac_scalar,
    floquet_dirac_vector,
    lambda_capital,
    lambda_naive,
    sign_of,
    transform_nonstationary,
)
from fwexact.blockop import BlockOperator, adjoint_m
from fwexact.eriksen import eriksen_unitary
from fwexact.floquet import _beta_characters, _fold_diagnosis, _naive_layout
from fwexact.matfun import decompose
from fwexact.models import ALPHA, BETA4
from fwexact.tolerances import GAP_TOL

# reference drive for the naive-vs-extended comparison: an odd (vector)
# drive at a frequency low enough that no ladder copy crosses the gap
# (nf * omega < sqrt(m^2 + p^2) up to nf = 12)
REFERENCE = dict(m=1.0, p=(0.0, 0.0, 0.5), a1=0.2, omega=0.08)

# frozen fixtures, computed once by this pipeline at nf=8, window=4
FROZEN_ODD_NAIVE = 3.728348852591401e-03
FROZEN_ODD_LAMBDA_BOUND = 1e-10


def reference_model():
    return floquet_dirac_vector(
        REFERENCE["m"], REFERENCE["p"], REFERENCE["a1"], REFERENCE["omega"]
    )


def block(extended_data, d, i, j):
    return extended_data[i * d : (i + 1) * d, j * d : (j + 1) * d]


def mixed_character_k():
    """d = 2, omega = 2/3: the upper copy m = 1 and the lower copy
    m = -2 both sit at quasienergy 1/3 (and their partners at -1/3); an
    even unitary hides the diagonal, so the basis eigh returns inside
    each degenerate pair is arbitrary.  Returns K and beta's signs."""
    nf, omega = 2, 2.0 / 3.0
    levels = [e - m * omega for m in range(-nf, nf + 1) for e in (1.0, -1.0)]
    b = np.tile([1.0, -1.0], 2 * nf + 1)
    rng = np.random.default_rng(7)
    w = np.zeros((b.size, b.size), dtype=complex)
    for idx in (np.flatnonzero(b > 0), np.flatnonzero(b < 0)):
        z = rng.normal(size=(idx.size, idx.size, 2)) @ [1.0, 1j]
        w[np.ix_(idx, idx)] = np.linalg.qr(z)[0]
    data = w @ np.diag(levels) @ w.conj().T
    k = ExtendedOperator(BlockOperator(0.5 * (data + data.conj().T), 2, 2 * nf + 1), omega, nf)
    return k, b


class TestBuildExtended:
    def test_static_model_is_block_diagonal_ladder(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.3)
        k = build_extended(model, 1)
        h0 = dict(model.modes)[0]
        d = 4
        assert_allclose(block(k.op.data, d, 0, 0), h0 + 0.3 * np.eye(4), atol=1e-15)
        assert_allclose(block(k.op.data, d, 1, 1), h0, atol=1e-15)
        assert_allclose(block(k.op.data, d, 2, 2), h0 - 0.3 * np.eye(4), atol=1e-15)
        assert np.linalg.norm(block(k.op.data, d, 0, 1)) == 0.0

    def test_scalar_drive_band_structure(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.3)
        k = build_extended(model, 2)
        data = k.op.data
        assert np.linalg.norm(data - data.conj().T) <= 1e-14 * np.linalg.norm(data)
        d = 4
        for i in range(5):
            for j in range(5):
                if abs(i - j) > 1:
                    assert np.linalg.norm(block(data, d, i, j)) == 0.0
                elif abs(i - j) == 1:
                    assert_allclose(block(data, d, i, j), 0.1 * np.eye(4), atol=0)

    def test_static_spectrum_is_shifted_ladder(self):
        # independent oracle: eigenvalues +-sqrt(m^2+p^2) - m*omega per copy
        m, pz, omega, nf = 1.0, 0.5, 0.1, 3
        model = floquet_dirac_scalar(m, (0, 0, pz), 0.0, omega)
        k = build_extended(model, nf)
        e = math.sqrt(m * m + pz * pz)
        expected = sorted(
            sign * e - copy * omega
            for copy in range(-nf, nf + 1)
            for sign in (1.0, -1.0)
            for _ in range(2)
        )
        assert_allclose(np.linalg.eigvalsh(k.op.data), expected, atol=1e-12)

    def test_ladder_commutes_with_grading(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.3)
        nf = 2
        k = build_extended(model, nf)
        ladder = np.kron(
            np.diag([-m * model.omega for m in range(-nf, nf + 1)]), np.eye(4)
        )
        b = np.diag(k.op.signs)
        assert np.linalg.norm(b @ ladder - ladder @ b) == 0.0

    def test_mode_beyond_truncation_rejected(self):
        h0 = BETA4.copy()
        mode3 = 0.05 * np.eye(4, dtype=complex)
        model = TimePeriodicHamiltonian(
            ((0, h0), (3, mode3), (-3, mode3)), 1.0, 4
        )
        with pytest.raises(StructureError, match="truncation too small"):
            build_extended(model, 1)


class TestLambdaCapital:
    def test_static_blocks_reproduce_shifted_signs(self):
        # per copy m the extended sign operator is sign(H0 - m omega),
        # including copies where the whole block has flipped sign
        m, pz, omega, nf = 1.0, 0.5, 0.3, 4
        model = floquet_dirac_scalar(m, (0, 0, pz), 0.0, omega)
        k = build_extended(model, nf)
        lam = lambda_capital(k)
        h0 = dict(model.modes)[0]
        d = 4
        for i, copy in enumerate(range(-nf, nf + 1)):
            shifted = BlockOperator(h0 - copy * omega * np.eye(4), 4, 1)
            expected = sign_of(shifted, Metric.HERMITIAN).data
            assert_allclose(block(lam.data, d, i, i), expected, atol=1e-12)
        flipped = block(lam.data, d, 8, 8)  # copy m = +4: 4*0.3 > sqrt(1.25)
        assert_allclose(flipped, -np.eye(4), atol=1e-12)

    def test_involution_for_driven_model(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.1)
        k = build_extended(model, 8)
        lam = lambda_capital(k)
        n = lam.side
        assert np.linalg.norm(lam.data @ lam.data - np.eye(n)) <= 1e-10 * np.sqrt(n)

    @pytest.mark.parametrize("drive", [floquet_dirac_scalar, floquet_dirac_vector])
    @pytest.mark.parametrize("nf", [4, 8, 12])
    def test_character_sign_equals_default_below_fold(self, drive, nf):
        # nf * 0.08 <= 0.96 < sqrt(1.25): no copy has folded
        k = build_extended(drive(1.0, (0, 0, 0.5), 0.2, 0.08), nf)
        default = lambda_capital(k)
        character = lambda_capital(k, sign="character")
        n = default.side
        assert np.linalg.norm(character.data - default.data) <= 1e-12 * np.sqrt(n)

    def test_character_sign_is_set_per_eigenspace(self):
        # the mixed pairs of mixed_character_k: the character sign is beta
        k, b = mixed_character_k()
        lam = lambda_capital(k, sign="character")
        assert np.linalg.norm(lam.data - np.diag(b)) <= 1e-12 * np.sqrt(b.size)

    def test_character_sign_collapse_raises(self):
        # built by hand: the models reject m <= 0.  K = tau_x has
        # eigenvectors (1, +-1)/sqrt(2), both of beta-character zero
        k = ExtendedOperator(BlockOperator(np.array([[0, 1], [1, 0]]), 2, 1), 1.0, 0)
        with pytest.raises(DomainError, match="beta-character collapsed"):
            lambda_capital(k, sign="character")

    def test_unknown_sign_rejected(self):
        k = build_extended(reference_model(), 2)
        with pytest.raises(ValueError, match="sign must be one of"):
            lambda_capital(k, sign="energy")

    def test_quasienergy_resonance_raises(self):
        # omega = E/2 puts the copy m = 2 block H0 - 2 omega exactly at
        # zero energy for the positive branch
        model = floquet_dirac_scalar(1.0, (0, 0, 0.0), 0.0, 0.5)
        k = build_extended(model, 2)
        with pytest.raises(SpectralGapError, match="quasienergy resonance"):
            lambda_capital(k)


class TestLambdaNaive:
    def test_static_model_is_toeplitz_diagonal(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.3)
        nf = 3
        lam = lambda_naive(model, nf)
        lam0 = sign_of(BlockOperator(dict(model.modes)[0], 4, 1), Metric.HERMITIAN).data
        expected = np.kron(np.eye(2 * nf + 1), lam0)
        assert_allclose(lam.data, expected, atol=1e-13)

    def test_scalar_drive_bands_vanish(self):
        # independent Fourier oracle: a uniform scalar drive shifts both
        # energy branches without mixing them, so the instantaneous sign
        # operator is constant in time and every off-diagonal band is zero
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.1)
        nf = 4
        lam = lambda_naive(model, nf)
        d = 4
        for q in (1, -1, 2):
            assert np.linalg.norm(block(lam.data, d, nf, nf - q)) <= 1e-12

    def test_vector_drive_bands_scale_linearly(self):
        d, nf = 4, 4
        norms = {}
        for a1 in (0.2, 0.1):
            model = floquet_dirac_vector(1.0, (0, 0, 0.5), a1, 0.1)
            lam = lambda_naive(model, nf)
            norms[a1] = np.linalg.norm(block(lam.data, d, nf, nf - 1))
        assert norms[0.2] > 0.1
        assert abs(norms[0.2] / norms[0.1] - 2.0) < 0.05

    def test_instantaneous_gap_closing(self):
        # V1 = sqrt(m^2 + p^2) makes the lower branch touch zero at t = 0
        e = math.sqrt(1.25)
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), e, 0.1)
        with pytest.raises(
            SpectralGapError,
            match=r"adiabatic sign undefined: instantaneous spectrum closes at t = 0 \(",
        ):
            lambda_naive(model, 2)


def phased_vector_drive(omega=0.03):
    """The reference H_0 with A_z(t) = 0.2 cos(w t - 0.7) (a term
    -alpha_z A_z) and a mass modulation 0.1 beta sin(2 w t): H_q and H_-q
    differ and H(t) is not even in t, so a transposed band or a
    conjugated phase shows."""
    h0 = dict(reference_model().modes)[0]
    h1 = -0.1 * np.exp(0.7j) * ALPHA[2]
    h2 = 0.05j * BETA4
    modes = ((0, h0), (1, h1), (-1, h1.conj().T), (2, h2), (-2, h2.conj().T))
    return TimePeriodicHamiltonian(modes, omega, 4)


def toeplitz_by_blocks(band, d, nf):
    """Loop-assembled extended matrix whose (m, n) block is band(m - n)."""
    copies = 2 * nf + 1
    data = np.zeros((d * copies, d * copies), dtype=complex)
    for i in range(copies):
        for j in range(copies):
            data[i * d : (i + 1) * d, j * d : (j + 1) * d] = band(i - j)
    return data


def naive_by_samples(model, nf):
    """lambda_naive sample by sample: sign_of(H(t)) at each time, each
    band a Python sum over the samples."""
    d, copies = model.internal_dim, 2 * nf + 1
    samples = 4 * copies
    times = np.arange(samples) * (2.0 * np.pi / model.omega / samples)
    signs = [
        sign_of(BlockOperator(model.at_time(t), d, 1), model.metric).data for t in times
    ]
    bands = {
        q: sum(s * np.exp(1j * q * model.omega * t) for s, t in zip(signs, times))
        / samples
        for q in range(-2 * nf, 2 * nf + 1)
    }
    return toeplitz_by_blocks(bands.__getitem__, d, nf)


class TestBatchedKernels:
    """The stacked kernels against per-sample and per-block oracles."""

    @pytest.mark.parametrize("nf", [3, 8])
    @pytest.mark.parametrize(
        "model",
        [floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.03), phased_vector_drive()],
        ids=["vector", "phased"],
    )
    def test_lambda_naive_matches_per_sample_signs(self, model, nf):
        expected = naive_by_samples(model, nf)
        assert np.abs(lambda_naive(model, nf).data - expected).max() <= 1e-14

    def test_pseudo_metric_lambda_naive_matches_per_sample_signs(self):
        # Hermitian modes declared beta-pseudo: each sample goes through
        # the general decomposition and its conditioning checks
        vector = floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.08)
        model = TimePeriodicHamiltonian(
            vector.modes, vector.omega, vector.internal_dim, Metric.BETA_PSEUDO
        )
        expected = naive_by_samples(model, 4)
        assert np.abs(lambda_naive(model, 4).data - expected).max() <= 1e-13

    @pytest.mark.parametrize("nf", [1, 2, 5])
    @pytest.mark.parametrize(
        "model",
        [
            floquet_dirac_scalar(1.0, (0.1, 0.0, 0.5), 0.2, 0.3),
            floquet_dirac_vector(1.0, (0.1, 0.0, 0.5), 0.2, 0.3),
            phased_vector_drive(0.3),
        ],
        ids=["scalar", "vector", "phased"],
    )
    def test_build_extended_equals_block_loop(self, model, nf):
        expected = toeplitz_by_blocks(lambda n: dict(model.modes).get(n, 0), 4, nf)
        expected[np.diag_indices_from(expected)] -= np.repeat(
            np.arange(-nf, nf + 1) * model.omega, 4
        )
        assert np.array_equal(build_extended(model, nf).op.data, expected)

    def test_windowed_odd_norms_equal_full_product(self):
        # the full product in K's sector layout: the windowed one sums the
        # same terms in the same order, so even Lambda's roundoff-level
        # norm agrees (a dense product orders the sums differently)
        model, nf, window = reference_model(), 8, 4
        rep = demonstrate_nonevenness(model, nf, window)
        k = build_extended(model, nf)
        for lam, measured in (
            (lambda_naive(model, nf), rep.odd_norm_lambda_naive),
            (lambda_capital(k), rep.odd_norm_lambda),
        ):
            u = eriksen_unitary(lam.in_sectors(k.layout.sectors), lambda_sq_tol=None)
            full = u.data @ k.layout.data @ adjoint_m(u, model.metric).data
            expected = central_odd_norm(k.layout.like(full), window)
            assert measured == pytest.approx(expected, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("nf", [12, 16, 24, 32])
    def test_windowed_odd_norms_near_full_product(self, nf):
        # past nf = 8 the windowed and full layout products may sum in
        # another order: the naive norm still agrees to rel 1e-13, and
        # Lambda's, itself roundoff (about 5e-16), within 4 eps; at
        # omega = 0.03 the ladder stays clear of the fold up to nf = 32
        model, window = floquet_dirac_vector(1.0, (0.0, 0.0, 0.5), 0.2, 0.03), 4
        rep = demonstrate_nonevenness(model, nf, window)
        k = build_extended(model, nf)
        for lam, measured, tolerance in (
            (lambda_naive(model, nf), rep.odd_norm_lambda_naive, {"rel": 1e-13, "abs": 1e-300}),
            (lambda_capital(k), rep.odd_norm_lambda, {"rel": 0, "abs": 4 * np.finfo(float).eps}),
        ):
            u = eriksen_unitary(lam.in_sectors(k.layout.sectors), lambda_sq_tol=None)
            full = u.data @ k.layout.data @ adjoint_m(u, model.metric).data
            expected = central_odd_norm(k.layout.like(full), window)
            assert measured == pytest.approx(expected, **tolerance)

    @pytest.mark.parametrize(
        "k",
        [
            # the fold point: 66 degenerate pairs
            build_extended(floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.08), 16),
            mixed_character_k()[0],
        ],
        ids=["fold", "mixed"],
    )
    def test_beta_characters_match_per_cluster_loop(self, monkeypatch, k):
        dec = decompose(k.op, Metric.HERMITIAN)
        signs = k.op.signs
        # oracle: one eigh of V_c^dag beta V_c per cluster of equal eigenvalues
        w, expected_v = dec.eigenvalues.real, dec.right_vectors.copy()
        expected_chars = np.einsum("ij,i,ij->j", expected_v.conj(), signs, expected_v).real
        edges = np.flatnonzero(np.diff(w) > 1e-12 * dec.scale) + 1
        clusters = [c for c in np.split(np.arange(len(w)), edges) if len(c) > 1]
        for cluster in clusters:
            columns = expected_v[:, cluster]
            gram = columns.conj().T @ (signs[:, None] * columns)
            expected_chars[cluster], rotation = np.linalg.eigh(gram)
            expected_v[:, cluster] = columns @ rotation

        calls = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        v, chars = _beta_characters(dec, signs)
        assert clusters
        assert len(calls) == len({len(c) for c in clusters})
        assert np.abs(chars - expected_chars).max() <= 1e-14
        assert np.abs(v - expected_v).max() <= 1e-14

    @pytest.mark.parametrize("nf", [4, 16])
    def test_lambda_naive_is_one_stacked_eigh(self, monkeypatch, nf):
        calls = Counter()
        for name in ("eigh", "eig", "eigvalsh", "svd"):
            original = getattr(np.linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        lambda_naive(reference_model(), nf)
        assert calls == Counter(eigh=1)


def pseudo_declared_model():
    """The reference drive's Hermitian modes declared beta-pseudo."""
    vector = reference_model()
    return TimePeriodicHamiltonian(
        vector.modes, vector.omega, vector.internal_dim, Metric.BETA_PSEUDO
    )


def transposed_drive():
    """Real modes with H_-1 = H_1^T = -H_1 (H_1 = 0.1 alpha_x beta): H(t) =
    H_0 - 0.2i alpha_x beta sin(w t) is complex, so dropping the sine part
    of the samples shows."""
    h1 = 0.1 * ALPHA[0] @ BETA4
    return TimePeriodicHamiltonian(
        ((0, dict(reference_model().modes)[0]), (1, h1), (-1, h1.T)), 0.03, 4
    )


#: drives whose Fourier modes are all exactly real (alpha_x, alpha_z, beta)
REAL_MODE_DRIVES = {
    "vector": floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.03),
    "vector_px": floquet_dirac_vector(1.0, (0.3, 0, 0.5), 0.2, 0.03),
    "scalar": floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.03),
    "scalar_px": floquet_dirac_scalar(1.0, (0.3, 0, 0.5), 0.2, 0.03),
}


class TestNaiveSectorRoute:
    """The naive operator in its samples' sector layout, real for real
    modes, against the complex route that takes it whole, as one sector."""

    @staticmethod
    def one_sector_odd_norm(model, nf, window):
        """odd_norm_lambda_naive from the per-sample complex lambda, gathered
        as one sector, with U K U^{-1} formed in full."""
        lam = BlockOperator(naive_by_samples(model, nf), model.internal_dim, 2 * nf + 1)
        whole = lam.in_sectors([np.arange(lam.side)])
        assert whole.data.dtype == np.complex128 and len(whole.sectors) == 1
        u = eriksen_unitary(whole, lambda_sq_tol=None).dense()
        k = build_extended(model, nf)
        full = u.data @ k.op.data @ adjoint_m(u, model.metric).data
        return central_odd_norm(k.op.like(full), window)

    @pytest.mark.parametrize(
        "model",
        [
            floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.03),
            floquet_dirac_vector(1.0, (0, 0.3, 0.5), 0.2, 0.03),
            phased_vector_drive(),
            pseudo_declared_model(),
            floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.03),
            transposed_drive(),
        ],
        ids=["vector", "vector_py", "phased", "pseudo", "scalar", "transposed"],
    )
    def test_odd_norm_matches_one_sector_complex_route(self, model):
        nf, window = 8, 4
        expected = self.one_sector_odd_norm(model, nf, window)
        measured = demonstrate_nonevenness(model, nf, window).odd_norm_lambda_naive
        # the uniform scalar drive's odd norm is itself roundoff
        assert measured == pytest.approx(expected, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("name", sorted(REAL_MODE_DRIVES))
    def test_real_modes_give_float64_bands(self, name):
        model, nf = REAL_MODE_DRIVES[name], 8
        lam = lambda_naive(model, nf)
        assert lam.data.dtype == np.float64
        # the imaginary part the complex route leaves, which is dropped
        complex_route = naive_by_samples(model, nf)
        dropped = np.linalg.norm(complex_route.imag) / np.linalg.norm(complex_route)
        assert dropped <= 1e-14
        assert np.abs(lam.data - complex_route.real).max() <= 1e-14

    @pytest.mark.parametrize(
        "model",
        [floquet_dirac_vector(1.0, (0, 0.3, 0.5), 0.2, 0.03), phased_vector_drive()],
        ids=["vector_py", "phased"],
    )
    def test_complex_modes_give_complex_bands(self, model):
        assert lambda_naive(model, 4).data.dtype == np.complex128

    def test_exact_zeros_off_the_samples_sectors(self):
        # alpha_z and beta couple spinor components {0, 2} and {1, 3}
        model, nf = REAL_MODE_DRIVES["vector"], 8
        lam = lambda_naive(model, nf).data
        sector = np.arange(lam.shape[-1]) % 4 % 2
        assert not lam[sector[:, None] != sector[None, :]].any()
        assert len(fwexact.matfun.find_sectors(lam)) == 2


#: drives whose K is written from the sector layout of their modes
MODE_LAYOUT_DRIVES = {
    "vector": floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.03),
    "vector_px": floquet_dirac_vector(1.0, (0.3, 0, 0.5), 0.2, 0.03),
    "scalar": floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.03),
    "phased": phased_vector_drive(),
    "p0": floquet_dirac_vector(1.0, (0, 0, 0), 0.2, 0.03),
}


class TestKFromModes:
    """build_extended writes K in the sector layout of its modes, each
    sector of the modes over every copy, with no extended-side search; the
    naive operator is held in the same layout."""

    @pytest.mark.parametrize("nf", [2, 8])
    @pytest.mark.parametrize("name", sorted(MODE_LAYOUT_DRIVES))
    def test_dense_k_equals_block_loop(self, monkeypatch, name, nf):
        # a fresh model: the mode layout is searched once per model and kept
        model = replace(MODE_LAYOUT_DRIVES[name])
        expected = toeplitz_by_blocks(lambda n: dict(model.modes).get(n, 0), 4, nf)
        expected[np.diag_indices_from(expected)] -= np.repeat(
            np.arange(-nf, nf + 1) * model.omega, 4
        )
        sides = []
        find_sectors = fwexact.matfun.find_sectors
        monkeypatch.setattr(
            fwexact.matfun, "find_sectors", lambda a: sides.append(a.shape) or find_sectors(a)
        )
        k = build_extended(model, nf)
        assert sides == [(len(model.modes), 4, 4)] and k.held.sectored
        assert np.array_equal(k.op.data, expected)

    @pytest.mark.parametrize(
        "name, weights, images",
        [
            ("vector", [2], [False, True]),
            ("vector_px", [1], None),
            ("scalar", [2], [False, True]),
            ("phased", [2], [False, True]),
            ("p0", [2], [False, True]),
        ],
    )
    def test_layout_is_the_modes_sectors_over_the_copies(self, name, weights, images):
        model, nf = MODE_LAYOUT_DRIVES[name], 4
        layout = build_extended(model, nf).layout
        assert layout.weights.tolist() == weights
        assert (None if layout.images is None else layout.images.tolist()) == images
        # every sector is one set of spinor components over all 2 nf + 1 copies
        components = layout.sectors % 4
        assert layout.sectors.shape[1] == (2 * nf + 1) * 4 // len(layout.sectors)
        assert all(len(set(row)) == 4 // len(layout.sectors) for row in components)
        naive = _naive_layout(model, nf, GAP_TOL)
        assert np.array_equal(naive.sectors, layout.sectors)
        assert np.array_equal(naive.weights, layout.weights)

    def test_zero_momentum_layout_is_coarser_than_k(self):
        # at p = 0 only H_+-1 couples a mode sector: K's finest components
        # split each mode sector by the parity of copy and component, and
        # the layout is still an exact direct sum
        k = build_extended(MODE_LAYOUT_DRIVES["p0"], 4)
        assert len(fwexact.matfun.find_sectors(k.op.data)) == 4
        assert len(k.layout.sectors) == 2

    @pytest.mark.parametrize("name", sorted(MODE_LAYOUT_DRIVES))
    def test_windowed_odd_norms_against_dense_full_product(self, name):
        model, nf, window = MODE_LAYOUT_DRIVES[name], 8, 4
        rep = demonstrate_nonevenness(model, nf, window)
        k = build_extended(model, nf)
        for lam, measured in (
            (lambda_naive(model, nf), rep.odd_norm_lambda_naive),
            (lambda_capital(k), rep.odd_norm_lambda),
        ):
            u = eriksen_unitary(lam, lambda_sq_tol=None)
            full = u.data @ k.op.data @ adjoint_m(u, model.metric).data
            expected = central_odd_norm(k.op.like(full), window)
            # Lambda's norm (and the uniform scalar drive's naive one) is
            # roundoff, which the dense product sums in another order
            assert measured == pytest.approx(expected, rel=1e-13, abs=1e-15)


class TestRealModes:
    """A drive whose modes are real and equal in pairs (H_-n = H_n) runs
    every extended-space decomposition in float64: K is built real, and
    the naive operator's samples are exactly real."""

    def test_decay_table_decomposes_only_float64(self, monkeypatch):
        model = REAL_MODE_DRIVES["vector"]
        assert build_extended(model, 8).op.data.dtype == np.float64
        inputs = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, **kwargs):
                inputs.append(np.asarray(a).dtype)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        demonstrate_nonevenness(model, 16, 6, decay_nfs=[8, 12, 16])
        assert inputs and set(inputs) == {np.dtype(np.float64)}

    def test_transposed_real_modes_keep_complex_samples(self):
        model = transposed_drive()
        assert build_extended(model, 4).op.data.dtype == np.float64
        lam = lambda_naive(model, 4)
        assert np.abs(lam.data - naive_by_samples(model, 4)).max() <= 1e-13


class TestDemonstrateNonevenness:
    def test_static_model_both_clean(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.1)
        rep = demonstrate_nonevenness(model, nf=8, window=4)
        assert rep.odd_norm_lambda_naive <= 1e-10
        assert rep.odd_norm_lambda <= 1e-10

    def test_reference_separation(self):
        rep = demonstrate_nonevenness(reference_model(), nf=8, window=4)
        assert rep.odd_norm_lambda <= FROZEN_ODD_LAMBDA_BOUND
        assert rep.odd_norm_lambda_naive > 10.0 * rep.odd_norm_lambda
        assert rep.odd_norm_lambda_naive == pytest.approx(FROZEN_ODD_NAIVE, rel=1e-6)

    def test_decay_table_orders_and_cleanliness(self):
        rep = demonstrate_nonevenness(
            reference_model(), nf=8, window=4, decay_nfs=[4, 6, 8]
        )
        assert [n for n, _ in rep.decay_table] == [4, 6, 8]
        assert all(v <= FROZEN_ODD_LAMBDA_BOUND for _, v in rep.decay_table)

    @pytest.mark.parametrize("nf, window", [(1, 1), (3, 1), (8, 4)])
    def test_default_window_is_the_transforms(self, nf, window):
        # the default of transform_nonstationary: max(nf // 2, 1)
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.1)
        rep = demonstrate_nonevenness(model, nf, decay_nfs=[1, nf])
        assert rep == demonstrate_nonevenness(model, nf, window, decay_nfs=[1, nf])
        assert rep.window == window

    def test_window_equals_truncation_warns(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.1)
        rep = demonstrate_nonevenness(model, nf=1, window=1)
        assert any("window equals truncation" in note for note in rep.notes)

    def test_scalar_reference_parameters_are_degenerate(self):
        # at omega = 0.3 the ladder pushes every copy with |m| >= 4 past
        # the spectral gap, the sign pairing with the upper block breaks
        # and the exact unitary stops existing on the raw extended space
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.3)
        with pytest.raises(DomainError, match="eriksen denominator degenerate"):
            demonstrate_nonevenness(model, nf=8, window=4)

    @pytest.mark.parametrize(
        "run",
        [
            lambda model: demonstrate_nonevenness(model, nf=8, window=4),
            lambda model: transform_nonstationary(model, nf=8),
        ],
        ids=["demonstrate", "transform"],
    )
    def test_fold_error_names_cause(self, run):
        # 8 * 0.3 = 2.4 is past the gap sqrt(1.25): the copies with
        # |m| >= 4 fold, 20 of the 68 eigenvectors of K carry a
        # quasienergy sign opposite to their beta-character
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.3)
        with pytest.raises(DomainError) as info:
            run(model)
        message = str(info.value)
        assert message.startswith("eriksen denominator degenerate")
        assert "nf*omega = 2.4 > gap min|E(H_0)| = 1.118" in message
        assert "20 of 68 eigenvectors" in message

    def test_fold_diagnosis_counts_repeated_sectors(self, monkeypatch):
        # two copies of the vector drive, beta's upper components first:
        # K is the drive's two sectors, beta images of each other, twice
        # over, held as one
        drive = reference_model()
        order = [0, 1, 4, 5, 2, 3, 6, 7]
        modes = tuple((n, np.kron(np.eye(2), h)[np.ix_(order, order)]) for n, h in drive.modes)
        doubled = TimePeriodicHamiltonian(modes, drive.omega, 8)
        k = build_extended(doubled, 16)
        assert sorted(k.layout.weights) == [4]
        assert k.layout.data.shape[-3] == 1
        message = _fold_diagnosis(k)
        assert "8 of 132 eigenvectors" in _fold_diagnosis(build_extended(drive, 16))
        assert "16 of 264 eigenvectors" in message
        monkeypatch.setattr(fwexact.matfun, "find_sectors", lambda a: [np.arange(a.shape[-1])])
        whole = build_extended(TimePeriodicHamiltonian(modes, drive.omega, 8), 16)
        assert whole.layout.weights.tolist() == [1]
        assert _fold_diagnosis(whole) == message


class TestTransformNonstationary:
    def test_static_reduction(self):
        m, pz, omega, nf = 1.0, 0.5, 0.1, 3
        model = floquet_dirac_scalar(m, (0, 0, pz), 0.0, omega)
        res = transform_nonstationary(model, nf)
        e = math.sqrt(m * m + pz * pz)
        d = 4
        for i, copy in enumerate(range(-nf, nf + 1)):
            expected = e * BETA4 - copy * omega * np.eye(4)
            assert_allclose(block(res.h_fw.data, d, i, i), expected, atol=1e-12)
        assert res.diagnostics["odd_norm"] <= 1e-12

    def test_vector_drive_full_pipeline(self):
        res = transform_nonstationary(reference_model(), nf=6, routes=True)
        diag = res.diagnostics
        assert diag["odd_norm"] <= 1e-10
        assert diag["spectrum_defect"] <= 1e-9
        assert diag["unitarity_defect"] <= 1e-10
        assert diag["exp_equivalence_defect"] <= 1e-9
        assert diag["form_agreement_defect"] <= 1e-9
        assert res.s is not None
        assert diag["hermiticity_defect"] <= 1e-10

    def test_central_window_restriction(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.1)
        k = build_extended(model, 2)
        full = central_odd_norm(k.op, 2)
        inner = central_odd_norm(k.op, 1)
        assert full >= 0.0 and inner >= 0.0
        with pytest.raises(StructureError):
            central_odd_norm(k.op, 3)
