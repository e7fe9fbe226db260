import numpy as np
import pytest
from numpy.testing import assert_allclose

from fwexact import (
    BlockOperator,
    DomainError,
    Metric,
    adjoint_m,
    dirac_1d,
    eriksen_unitary,
    eriksen_unitary_alt,
    feshbach_villars,
    free_dirac,
    sign_of,
    transform_stationary,
    verify_eriksen_identities,
)
from fwexact.blockop import relative_odd_norm
from fwexact.eriksen import FWResult, _spectrum
from fwexact.matfun import in_sectors

BETA4 = BlockOperator(np.diag([1.0, 1.0, -1.0, -1.0]), 4, 1)


def beta_of(a):
    """Dense beta for a test-local reference."""
    return np.diag(a.signs).astype(complex)


def gapped_hermitian(seed, side=6):
    """Random Hermitian with a balanced +-spectrum and gap >= 0.5.

    The balance matters: the block-diagonalizing unitary pairs the
    positive-sign subspace with the upper spinor block, so it only
    exists when both have dimension side/2.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    a = (a + a.conj().T) / 2
    _, v = np.linalg.eigh(a)
    magnitudes = 0.5 + rng.uniform(size=side)
    w = magnitudes * np.repeat([-1.0, 1.0], side // 2)
    return BlockOperator((v * w) @ v.conj().T, side, 1)


class TestEriksenUnitary:
    def test_identity_when_sign_is_beta(self):
        u = eriksen_unitary(BETA4)
        assert_allclose(u.data, np.eye(4), atol=1e-15)

    def test_free_dirac_unitary_and_grading(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        lam = sign_of(sp.total, sp.metric)
        u = eriksen_unitary(lam)
        b = beta_of(lam)
        assert np.linalg.norm(u.data @ u.data.conj().T - np.eye(4)) <= 1e-12
        assert np.linalg.norm(b @ u.data - u.data.conj().T @ b) <= 1e-12

    def test_degenerate_denominator(self):
        minus = BETA4.like(-BETA4.data)
        with pytest.raises(DomainError, match="eriksen denominator degenerate"):
            eriksen_unitary(minus)

    def test_non_involution_rejected(self):
        bad = BlockOperator(2.0 * np.diag([1.0, -1.0]), 2, 1)
        with pytest.raises(DomainError, match="involution"):
            eriksen_unitary(bad)


class TestAlternativeForm:
    def test_identity_case(self):
        assert_allclose(
            eriksen_unitary_alt(BETA4, Metric.HERMITIAN).data, np.eye(4), atol=1e-15
        )

    def test_free_dirac_forms_agree(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        lam = sign_of(sp.total, sp.metric)
        u = eriksen_unitary(lam)
        u_alt = eriksen_unitary_alt(lam, sp.metric)
        assert np.linalg.norm(u_alt.data - u.data) <= 1e-10

    def test_random_hermitian_forms_agree(self):
        for seed in (1, 2, 3):
            h = gapped_hermitian(seed)
            lam = sign_of(h, Metric.HERMITIAN)
            u = eriksen_unitary(lam)
            u_alt = eriksen_unitary_alt(lam, Metric.HERMITIAN)
            assert np.linalg.norm(u_alt.data - u.data) <= 1e-10

    def test_pseudo_metric_forms_agree(self):
        sp = feshbach_villars(1.0, 0.75)
        lam = sign_of(sp.total, sp.metric)
        u = eriksen_unitary(lam)
        u_alt = eriksen_unitary_alt(lam, sp.metric)
        assert np.linalg.norm(u_alt.data - u.data) <= 1e-10


class TestTransformStationary:
    def test_pure_mass_is_fixed_point(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.0))
        res = transform_stationary(sp)
        assert_allclose(res.u.data, np.eye(4), atol=1e-14)
        assert_allclose(res.h_fw.data, BETA4.data, atol=1e-14)

    def test_free_dirac_transforms_to_beta_times_energy(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        res = transform_stationary(sp)
        assert_allclose(res.h_fw.data, 1.25 * BETA4.data, atol=1e-12)
        assert res.diagnostics["odd_norm"] <= 1e-10

    def test_involution_checked_once(self, monkeypatch):
        # U, the polar form and the generator share one check of lambda^2
        import fwexact.eriksen
        import fwexact.expgen

        original = fwexact.expgen.check_involution
        calls = []

        def spy(lam, tol):
            calls.append(tol)
            return original(lam, tol)

        for module in (fwexact.eriksen, fwexact.expgen):
            monkeypatch.setattr(module, "check_involution", spy)
        transform_stationary(free_dirac(1.0, (0.0, 0.0, 0.75)))
        assert calls == [1e-8]

    def test_grid_model_even_and_isospectral(self):
        sp = dirac_1d(1.0, 32, 2 * np.pi, lambda x: 0.2 * np.cos(x))
        res = transform_stationary(sp)
        assert res.diagnostics["odd_norm"] <= 1e-10
        assert res.diagnostics["spectrum_defect"] <= 1e-10

    def test_free_grid_matches_per_momentum_transforms(self):
        # with V = 0 the grid model is a direct sum of fixed-momentum
        # problems, so the transformed upper block must carry exactly the
        # positive branches E(k) produced by the 4x4 transforms
        from fwexact import grid_momenta

        m, n, length = 1.0, 8, 2.0 * np.pi
        sp = dirac_1d(m, n, length, lambda x: np.zeros_like(x))
        res = transform_stationary(sp)
        half = sp.total.side // 2
        upper = res.h_fw.data[:half, :half]
        expected = []
        for k in grid_momenta(n, length):
            single = transform_stationary(free_dirac(m, (float(k), 0.0, 0.0)))
            expected.extend(np.diag(single.h_fw.data[:2, :2]).real)
        assert_allclose(np.linalg.eigvalsh(upper), np.sort(expected), atol=1e-12)

    def test_inverse_is_metric_adjoint(self):
        sp = feshbach_villars(1.0, 0.5)
        res = transform_stationary(sp)
        assert_allclose(
            res.u_inverse.data, adjoint_m(res.u, sp.metric).data, atol=0
        )
        assert res.diagnostics["pseudo_unitarity_defect"] <= 1e-10

    def test_transformed_hamiltonian_closed_form(self):
        # U H U^-1 = D^{-1/2} [2(beta*mass + even) + beta sqrt(H^2)
        #                      + sqrt(H^2) beta] D^{-1/2},
        # D = 2 + beta lambda + lambda beta; the square root is built here
        # from a raw eigendecomposition, independent of the library path
        for sp in (
            free_dirac(1.0, (0.1, -0.2, 0.75)),
            dirac_1d(1.0, 8, 2 * np.pi, lambda x: 0.3 * np.cos(x)),
            feshbach_villars(1.0, 0.75),
        ):
            h = sp.total
            b = beta_of(h)
            res = transform_stationary(sp)
            lam = res.sign_op.data
            n = h.side
            d = 2 * np.eye(n) + b @ lam + lam @ b
            if sp.metric is Metric.HERMITIAN:
                w, v = np.linalg.eigh(h.data)
                abs_h = (v * np.abs(w)) @ v.conj().T
                wd, vd = np.linalg.eigh(d)
                d_inv_half = (vd * (1 / np.sqrt(wd))) @ vd.conj().T
            else:
                w, v = np.linalg.eig(h.data)
                abs_h = (v * np.abs(w.real)) @ np.linalg.inv(v)
                wd, vd = np.linalg.eig(d)
                d_inv_half = (vd * (1 / np.sqrt(wd.real))) @ np.linalg.inv(vd)
            even_content = 2 * (b @ sp.mass.dense().data + sp.even.data)
            closed = d_inv_half @ (even_content + b @ abs_h + abs_h @ b) @ d_inv_half
            assert np.linalg.norm(closed - res.h_fw.data) <= 1e-11 * max(
                np.linalg.norm(res.h_fw.data), 1.0
            )

    def test_sqrt_h2_oddness_diagnostic(self):
        # constant mass, no even term: sqrt(H^2) is even
        free = transform_stationary(free_dirac(1.0, (0.0, 0.0, 0.75)))
        assert free.diagnostics["sqrt_h2_odd_norm"] <= 1e-12
        # with a potential the square root picks up a genuine odd part
        grid = transform_stationary(
            dirac_1d(1.0, 8, 2 * np.pi, lambda x: 0.3 * np.cos(x))
        )
        assert grid.diagnostics["sqrt_h2_odd_norm"] > 1e-6

    @pytest.mark.parametrize(
        "build, layout",
        [
            # the real pair basis, one block held for the two sectors
            pytest.param(
                lambda: dirac_1d(1.0, 16, 2 * np.pi, lambda x: 0.3 * np.cos(x)), "pairs",
                id="dirac_1d-even-v",
            ),
            pytest.param(
                lambda: dirac_1d(1.0, 16, 2 * np.pi, lambda x: 0.2 * np.cos(x) + 0.1 * np.sin(x)),
                "grid",
                id="dirac_1d-grid-basis",
            ),
            pytest.param(
                lambda: dirac_1d(np.array([1.0, 2.0]), 8, 2 * np.pi, lambda x: 0.3 * np.cos(x)),
                "pairs",
                id="dirac_1d-stack-over-m",
            ),
            pytest.param(lambda: free_dirac(1.0, (0.6, -0.8, 1.0)), "dense", id="free_dirac"),
            pytest.param(lambda: feshbach_villars(1.0, 2.0), "dense", id="feshbach_villars"),
        ],
    )
    def test_sqrt_h2_odd_norm_against_abs_h(self, build, layout):
        # |H| = V |E| V^{-1} from a decomposition of the dense H, an
        # independent route to sqrt(H^2) = lambda H
        sp = build()
        kind = "dense" if not sp.h.sectored else "grid" if sp.h.pairs is None else "pairs"
        assert kind == layout
        if layout == "pairs":
            assert sp.h.weights.tolist() == [2]
        total = sp.total
        odd = total.signs[:, None] != total.signs
        expected = []
        for h in total.data.reshape(-1, total.side, total.side):
            if sp.metric is Metric.HERMITIAN:
                w, v = np.linalg.eigh(h)
                abs_h = (v * np.abs(w)) @ v.conj().T
            else:
                w, v = np.linalg.eig(h)
                abs_h = (v * np.abs(w.real)) @ np.linalg.inv(v)
            expected.append(np.linalg.norm(abs_h[odd]) / np.linalg.norm(abs_h))
        measured = transform_stationary(sp).diagnostics["sqrt_h2_odd_norm"]
        assert_allclose(measured, np.reshape(expected, total.stack_shape), rtol=0, atol=1e-14)

    def test_spectrum_counts_each_sector_as_often_as_it_occurs(self):
        # sectors {0, 3} and {1, 4} hold one block, {2, 5} another: the
        # sorted spectrum is that of the dense matrix, so the sorted
        # differences spectrum_defect takes pair the same eigenvalues
        a, b = np.array([[1.0, 0.5], [0.5, -1.0]]), np.array([[2.0, 0.1], [0.1, -2.0]])
        dense = np.zeros((6, 6))
        for index, block in zip(([0, 3], [1, 4], [2, 5]), (a, a, b)):
            dense[np.ix_(index, index)] = block
        layout = in_sectors(BlockOperator(dense, 6, 1))
        assert layout.weights.tolist() == [2, 1]
        w = np.linalg.eigvalsh(layout.data)
        assert np.array_equal(_spectrum(w, layout), np.sort(np.linalg.eigvalsh(dense)))


class TestIdentityChecks:
    def test_trivial_case_machine_zero(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.0))
        res = transform_stationary(sp)
        checks = verify_eriksen_identities(res, sp.metric)
        assert max(checks.values()) <= 1e-14

    def test_momentum_sweep(self):
        for p in np.arange(0.1, 2.01, 0.19):
            sp = free_dirac(1.0, (0.0, 0.0, float(p)))
            res = transform_stationary(sp)
            checks = verify_eriksen_identities(res, sp.metric)
            assert max(checks.values()) <= 1e-10, f"p={p}: {checks}"

    def test_corrupted_unitary_is_detected(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        res = transform_stationary(sp)
        rng = np.random.default_rng(42)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise *= np.sqrt(4) / np.linalg.norm(noise)
        bad = FWResult(
            sign_op=res.sign_op,
            u=res.u.like(res.u.data + 1e-3 * noise),
            u_inverse=res.u_inverse,
            h_fw=res.h_fw,
            diagnostics={},
        )
        checks = verify_eriksen_identities(bad, sp.metric)
        assert 1e-4 <= checks["eriksen_defect"] <= 1e-2
        assert 1e-4 <= checks["unitarity_defect"] <= 1e-2

    def test_energy_projectors_idempotent(self):
        # (1 +- lambda)/2 are the energy-branch projectors; note that
        # (1 +- beta lambda)/2 is NOT idempotent unless beta and lambda
        # commute, since (beta lambda)^2 = 1 would force [beta, lambda] = 0
        sp = free_dirac(1.0, (0.2, 0.0, 0.6))
        lam = sign_of(sp.total, sp.metric).data
        for sign in (+1.0, -1.0):
            proj = (np.eye(4) + sign * lam) / 2.0
            assert np.linalg.norm(proj @ proj - proj) <= 1e-10

    def test_projectors_select_spinor_blocks_by_energy(self):
        # on a positive-energy eigenvector (1 + beta lambda)/2 acts as the
        # upper-block projector (1 + beta)/2 and cancels the lower spinor;
        # on a negative-energy one it acts as (1 - beta)/2
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        h = sp.total
        lam = sign_of(h, sp.metric).data
        b = beta_of(h)
        plus = (np.eye(4) + b @ lam) / 2.0
        w, v = np.linalg.eigh(h.data)
        for i in range(4):
            vec = v[:, i]
            block = (np.eye(4) + np.sign(w[i]) * b) / 2.0
            assert_allclose(plus @ vec, block @ vec, atol=1e-12)


class TestEvenness:
    def test_pure_mass(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.0))
        res = transform_stationary(sp)
        assert relative_odd_norm(res.h_fw) == 0.0

    def test_free_dirac(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        res = transform_stationary(sp)
        assert relative_odd_norm(res.h_fw) <= 1e-10


def _reference(h, signs, hermitian):
    """Full-size Eriksen U, generator S = -(1/2) arcsin M and U H U^{-1},
    evaluated here with numpy's own eig/eigh, independent of the library's
    parity blocks."""

    def function(a, f):
        if hermitian:
            w, v = np.linalg.eigh(a)
            return (v * f(w)) @ v.conj().T
        w, v = np.linalg.eig(a)
        return (v * f(w)) @ np.linalg.inv(v)

    n = h.shape[0]
    beta = np.diag(signs).astype(complex)
    lam = function(h, lambda w: np.sign(w.real))
    bl, lb = beta @ lam, lam @ beta
    u = (np.eye(n) + bl) @ function(2.0 * np.eye(n) + bl + lb, lambda w: 1.0 / np.sqrt(w.real))
    s = -0.5 * function(0.5j * (bl - lb), np.arcsin)
    u_inv = u.conj().T if hermitian else beta @ u.conj().T @ beta
    return u, s, u @ h @ u_inv


class TestParityRoute:
    """The block evaluation against a test-local full-size one, on a
    beta-pseudo Hamiltonian and on the interleaved Floquet layout."""

    @pytest.mark.parametrize("side", [8, 16])
    def test_beta_pseudo_random(self, side):
        # H = beta K with K Hermitian positive definite is exactly
        # beta-pseudo-Hermitian, with a real gapped spectrum
        from fwexact import split

        rng = np.random.default_rng(side)
        x = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        k = x @ x.conj().T / side + 0.2 * np.eye(side)
        k = (k + k.conj().T) / 2
        zero = BlockOperator(np.zeros((side, side)), side, 1)
        h = zero.like(zero.signs[:, None] * k)
        res = transform_stationary(split(h, zero, Metric.BETA_PSEUDO))
        u, s, h_fw = _reference(h.data, h.signs, hermitian=False)
        tol = 1e-12 * np.sqrt(side)
        assert np.linalg.norm(res.u.data - u) <= tol
        assert np.linalg.norm(res.s.data - s) <= tol
        assert np.linalg.norm(res.h_fw.data - h_fw) <= tol * max(np.linalg.norm(h_fw), 1.0)
        for key in ("odd_norm", "pseudo_unitarity_defect", "hermiticity_defect",
                    "exp_equivalence_defect", "sin2s_defect", "cos2s_defect"):
            assert res.diagnostics[key] <= 1e-10, key

    def test_interleaved_floquet_layout(self):
        from fwexact import floquet_dirac_vector, transform_nonstationary
        from fwexact.floquet import build_extended

        model = floquet_dirac_vector(1.0, (0.0, 0.0, 0.5), 0.2, 0.08)
        res = transform_nonstationary(model, 4)
        k = build_extended(model, 4)
        u, s, h_fw = _reference(k.op.data, k.op.signs, hermitian=True)
        tol = 1e-12 * np.sqrt(k.op.side)
        assert np.linalg.norm(res.u.data - u) <= tol
        assert np.linalg.norm(res.s.data - s) <= tol
        assert np.linalg.norm(res.h_fw.data - h_fw) <= tol * np.linalg.norm(h_fw)

    @pytest.mark.parametrize("internal_dim, copies", [(4, 1), (4, 2)])
    def test_zero_denominator_block_eigenvalue(self, internal_dim, copies):
        # lambda = beta with one upper component flipped squares to one,
        # and 2 + 2 lambda_{++} gets one zero eigenvalue
        side = internal_dim * copies
        signs = BlockOperator(np.zeros((side, side)), internal_dim, copies).signs.copy()
        signs[-internal_dim] = -1.0
        lam = BlockOperator(np.diag(signs), internal_dim, copies)
        with pytest.raises(DomainError, match="eriksen denominator degenerate"):
            eriksen_unitary(lam)

    def test_non_self_adjoint_sign_operator_rejected(self):
        from fwexact import MetricViolationError

        lam = BlockOperator(np.diag([1.0, 1.0, -1.0, -1.0]), 4, 1)
        lam.data[0, 1] = 1e-3
        with pytest.raises(MetricViolationError):
            eriksen_unitary(lam, lambda_sq_tol=None)

    @pytest.mark.parametrize(
        "sp",
        [
            free_dirac(1.0, (0.1, -0.2, 0.75)),
            dirac_1d(1.0, 8, 2 * np.pi, lambda x: 0.3 * np.cos(x)),
            feshbach_villars(1.0, 2.5),
        ],
        ids=["free_dirac", "dirac_1d", "feshbach_villars"],
    )
    def test_spectral_norms_from_blocks(self, sp):
        res = transform_stationary(sp)
        assert abs(res.h_fw_norm - np.linalg.norm(res.h_fw.data, 2)) <= 1e-12 * res.h_fw_norm
        assert abs(res.s_norm - np.linalg.norm(res.s.data, 2)) <= 1e-12
