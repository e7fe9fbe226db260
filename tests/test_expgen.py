import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fwexact import (
    DomainError,
    BlockOperator,
    Metric,
    dirac_1d,
    eriksen_unitary,
    feshbach_villars,
    free_dirac,
    generator_from_lambda,
    ModelSpec,
    sign_of,
    transform_nonstationary,
    transform_stationary,
)
from fwexact.expgen import (
    PROBES,
    _terms,
    denominator_decomposition,
    exponential_defects,
    probes,
)
from fwexact.verify import GeneratorResult, arcsin_odd
from oracles import exp_i, oracle_defects, verify_exp_equivalence, verify_trig_identities

BETA4 = BlockOperator(np.diag([1.0, 1.0, -1.0, -1.0]), 4, 1)


def dirac_generator(pz, m=1.0):
    sp = free_dirac(m, (0.0, 0.0, pz))
    lam = sign_of(sp.total, sp.metric)
    return sp, lam, generator_from_lambda(lam, sp.metric)


class TestArcsinOdd:
    """Principal arcsine of an odd operator X = [[0, pm], [mp, 0]]; for
    1x1 blocks X has eigenvalues +-sqrt(pm mp)."""

    @pytest.mark.parametrize(
        "pm, mp, expected_pm, expected_mp",
        [
            (0.0, 0.0, 0.0, 0.0),
            (0.6, 0.6, math.asin(0.6), math.asin(0.6)),
            (1.0, 1.0, math.pi / 2, math.pi / 2),
            # X^2 = -x^2: arcsin(i x) = i arcsinh(x)
            (0.75, -0.75, math.asinh(0.75), -math.asinh(0.75)),
        ],
        ids=["zero", "asin-0.6", "boundary", "asinh-branch"],
    )
    def test_scalar_oracles(self, pm, mp, expected_pm, expected_mp):
        arc_pm, arc_mp, excess = arcsin_odd(np.array([[pm + 0j]]), np.array([[mp + 0j]]))
        assert arc_pm[0, 0] == pytest.approx(expected_pm, rel=1e-15, abs=0)
        assert arc_mp[0, 0] == pytest.approx(expected_mp, rel=1e-15, abs=0)
        assert excess == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), imaginary=st.booleans())
    def test_arcsin_inverts_sin(self, seed, imaginary):
        # A = [[0, b], [+-b^dag, 0]] with ||A||_2 = 1.4 < pi/2: Hermitian
        # (real spectrum) or skew-Hermitian (imaginary spectrum)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b *= 1.4 / np.linalg.norm(b, 2)
        sign = -1.0 if imaginary else 1.0
        zero = np.zeros((2, 2))
        a = np.block([[zero, b], [sign * b.conj().T, zero]])
        # sin A = -i sinh(iA) for skew-Hermitian A, with iA Hermitian
        w, v = np.linalg.eigh(1j * a if imaginary else a)
        sin_a = (v * (np.sinh(w) if imaginary else np.sin(w))) @ v.conj().T
        if imaginary:
            sin_a = -1j * sin_a
        arc_pm, arc_mp, _ = arcsin_odd(sin_a[:2, 2:], sin_a[2:, :2])
        recovered = np.block([[zero, arc_pm], [arc_mp, zero]])
        assert np.linalg.norm(recovered - a) <= 1e-10 * np.linalg.norm(a)


class TestGenerator:
    def test_zero_when_sign_is_beta(self):
        g = generator_from_lambda(BETA4, Metric.HERMITIAN)
        for s in (g.s, g.s_form_a):
            assert np.linalg.norm(s.data) <= 1e-15

    def test_free_dirac_magnitude(self):
        # sin 2S has eigenvalues -+ p/E = -+0.6, so ||S||_2 = arcsin(0.6)/2
        _, _, g = dirac_generator(0.75)
        expected = 0.5 * math.asin(0.6)
        assert abs(np.linalg.norm(g.s.data, 2) - expected) <= 1e-10

    def test_small_momentum_leading_order(self):
        # for p << m the generator magnitude is p/(2m) to leading order
        p = 1e-6
        _, _, g = dirac_generator(p)
        assert abs(np.linalg.norm(g.s.data, 2) - p / 2.0) <= p**3

    def test_odd_and_hermitian(self):
        sp, _, g = dirac_generator(0.75)
        b = BETA4.data
        assert np.linalg.norm(b @ g.s.data + g.s.data @ b) <= 1e-10
        assert np.linalg.norm(g.s.data - g.s.data.conj().T) <= 1e-10
        assert g.diagnostics["hermiticity_defect"] <= 1e-10

    def test_three_forms_agree(self):
        _, _, g = dirac_generator(0.75)
        assert g.diagnostics["form_agreement_defect"] <= 1e-9
        assert np.linalg.norm(g.s_form_a.data - g.s.data) <= 1e-9

    def test_non_involution_rejected(self):
        bad = BlockOperator(2.0 * np.diag([1.0, -1.0]), 2, 1)
        with pytest.raises(DomainError, match="involution"):
            generator_from_lambda(bad, Metric.HERMITIAN)

    def test_grid_model_forms_agree(self):
        sp = dirac_1d(1.0, 16, 2 * np.pi, lambda x: 0.2 * np.cos(x))
        lam = sign_of(sp.total, sp.metric)
        g = generator_from_lambda(lam, sp.metric)
        assert g.diagnostics["form_agreement_defect"] <= 1e-9


class TestSharedDenominator:
    """One decomposition of 2 + beta lambda + lambda beta serves U and
    form A; handing it in must not change a bit of the result."""

    @pytest.mark.parametrize(
        "sp",
        [free_dirac(1.0, (0.0, 0.0, 0.75)), feshbach_villars(1.0, 0.75)],
        ids=["free_dirac", "feshbach_villars"],
    )
    def test_handed_decomposition_is_bit_identical(self, sp):
        lam = sign_of(sp.total, sp.metric)
        den = denominator_decomposition(lam)
        own = generator_from_lambda(lam, sp.metric)
        handed = generator_from_lambda(lam, sp.metric, dec=den)
        assert np.array_equal(own.s.data, handed.s.data)
        assert np.array_equal(own.s_form_a.data, handed.s_form_a.data)
        assert own.diagnostics == handed.diagnostics
        assert np.array_equal(
            eriksen_unitary(lam).data,
            eriksen_unitary(lam, dec=den).data,
        )


class TestBosonGenerator:
    def test_pseudo_metric_forms_and_adjointness(self):
        sp = feshbach_villars(1.0, 0.75)
        lam = sign_of(sp.total, sp.metric)
        g = generator_from_lambda(lam, sp.metric)
        assert g.diagnostics["form_agreement_defect"] <= 1e-9
        assert g.diagnostics["hermiticity_defect"] <= 1e-10
        # bosonic generator is pseudo-self-adjoint but anti-Hermitian in
        # the plain sense: its spectrum is imaginary
        assert np.linalg.norm(g.s.data + g.s.data.conj().T) <= 1e-12

    def test_pseudo_metric_exp_matches_unitary(self):
        sp = feshbach_villars(1.0, 0.75)
        res = transform_stationary(sp)
        g = generator_from_lambda(res.sign_op, sp.metric)
        assert verify_exp_equivalence(g, res.u, sp.metric) <= 1e-9


class TestTrigIdentities:
    def test_rest_case(self):
        g = generator_from_lambda(BETA4, Metric.HERMITIAN)
        checks = verify_trig_identities(g, BETA4)
        assert max(checks.values()) <= 1e-14

    def test_free_dirac(self):
        sp, lam, g = dirac_generator(0.75)
        checks = verify_trig_identities(g, lam)
        assert checks["sin2s_defect"] <= 1e-10
        assert checks["cos2s_defect"] <= 1e-10

    def test_boson_case(self):
        sp = feshbach_villars(1.0, 0.75)
        lam = sign_of(sp.total, sp.metric)
        g = generator_from_lambda(lam, sp.metric)
        checks = verify_trig_identities(g, lam)
        assert max(checks.values()) <= 1e-10

    def test_doubling_values_against_scalar_oracle(self):
        # sin 2S = -i(beta lambda - lambda beta)/2 must have eigenvalues
        # -+ p/E; cos 2S = (beta lambda + lambda beta)/2 eigenvalue m/E
        sp, lam, g = dirac_generator(0.75)
        b = BETA4.data
        w = np.linalg.eigvalsh(1j * (b @ lam.data - lam.data @ b) / 2)
        assert_allclose(np.sort(w), [-0.6, -0.6, 0.6, 0.6], atol=1e-12)
        anti = (b @ lam.data + lam.data @ b) / 2
        assert_allclose(np.linalg.eigvalsh(anti), [0.8, 0.8, 0.8, 0.8], atol=1e-12)


class TestExpEquivalence:
    def test_identity_case(self):
        g = generator_from_lambda(BETA4, Metric.HERMITIAN)
        u = BETA4.like(np.eye(4))
        assert verify_exp_equivalence(g, u, Metric.HERMITIAN) <= 1e-15

    def test_momentum_sweep(self):
        for pz in (0.1, 0.4, 0.75, 1.3, 2.0):
            sp = free_dirac(1.0, (0.0, 0.0, pz))
            res = transform_stationary(sp)
            g = generator_from_lambda(res.sign_op, sp.metric)
            assert verify_exp_equivalence(g, res.u, sp.metric) <= 1e-9, f"pz={pz}"

    def test_corrupted_generator_is_detected(self):
        sp, _, g = dirac_generator(0.75)
        res = transform_stationary(sp)
        rng = np.random.default_rng(7)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = (noise + noise.conj().T) / 2
        noise *= np.sqrt(4) / np.linalg.norm(noise)
        bad = GeneratorResult(
            s=g.s.like(g.s.data + 1e-4 * noise),
            s_form_a=g.s_form_a,
            diagnostics={},
        )
        defect = verify_exp_equivalence(bad, res.u, sp.metric)
        assert 1e-5 <= defect <= 1e-3

    def test_exp_i_cross_module(self):
        # exp(iS) reproduces the unitary built directly from the sign operator
        sp, _, g = dirac_generator(0.75)
        res = transform_stationary(sp)
        u_from_s = exp_i(g.s, sp.metric)
        assert np.linalg.norm(u_from_s.data - res.u.data) <= 1e-10


#: The catalog transforms the probe chain is held against its oracles on:
#: (model, params, nf), nf None for a stationary model.
CATALOG = {
    "free_dirac": ("free_dirac", {"px": 0.3, "pz": 0.75}, None),
    **{f"dirac_1d-N{n}": ("dirac_1d", {"N": n, "V1": 0.2}, None) for n in (8, 32, 128)},
    **{f"feshbach_villars-p{p}": ("feshbach_villars", {"p": p}, None) for p in (0.75, 2.0, 4.0)},
    **{
        f"vector-nf{nf}": ("floquet_dirac_vector", {"pz": 0.5, "A1": 0.2, "omega": 0.03}, nf)
        for nf in (8, 24)
    },
    "scalar-nf8": ("floquet_dirac_scalar", {"px": 0.1, "pz": 0.5, "V1": 0.2, "omega": 0.03}, 8),
}


def plant(op, size, seed, rank_one):
    """op plus a random array of Frobenius norm ``size`` in op's layout:
    dense, or real and of rank one."""
    rng = np.random.default_rng(seed)
    if rank_one:
        x, y = rng.standard_normal((2, *op.data.shape[:-1]))
        noise = x[..., :, None] * y[..., None, :]
    else:
        noise = rng.standard_normal(op.data.shape)
    return op.like(op.data + size * noise / op.frobenius(noise))


class TestProbeEstimates:
    """The probe chain's three defects against full-size oracles, in the
    sector layout the transforms run in, across the catalog: the sectors
    of dirac_1d at N = 32 and 128 and of the drives have half sides past
    the probe count, where Gaussian probes run.  Planted defects of 1e-8
    in U and lambda, dense or of rank one, read within 3x of their
    oracles; on the operators as built, where every defect is roundoff,
    an estimate reads no more than 3x its oracle or eps."""

    @staticmethod
    def transformed(name):
        model, params, nf = CATALOG[name]
        built = ModelSpec(model, params).build()
        if nf is None:
            return transform_stationary(built), built.metric
        return transform_nonstationary(built, nf), built.metric

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_estimates_within_3x_of_oracles(self, name):
        result, metric = self.transformed(name)
        lam, u, s = (result._operators[key] for key in ("sign_op", "u", "s"))
        i_s = (1j * s.blocks.pm, 1j * s.blocks.mp)
        estimates, _ = exponential_defects(i_s, lam, u)
        oracles = oracle_defects(s, lam, u, metric)
        assert estimates.keys() == oracles.keys()
        for key, oracle in oracles.items():
            assert estimates[key] <= 3.0 * max(oracle, np.finfo(float).eps), key
        for seed, rank_one in ((1, False), (2, True)):
            planted_lam = plant(lam, 1e-8 * math.sqrt(lam.side), seed, rank_one)
            planted_u = plant(u, 1e-8 * u.norm(), seed + 10, rank_one)
            estimates, _ = exponential_defects(i_s, planted_lam, planted_u)
            oracles = oracle_defects(s, planted_lam, planted_u, metric)
            for key, oracle in oracles.items():
                assert oracle / 3.0 <= estimates[key] <= 3.0 * oracle, (key, rank_one)

    def test_probes_are_gaussian_past_the_probe_count(self):
        assert np.array_equal(probes(PROBES), np.broadcast_to(np.eye(PROBES), (2, PROBES, PROBES)))
        g = probes(PROBES + 1)
        assert g.shape == (2, PROBES + 1, PROBES)
        assert np.array_equal(g, probes(PROBES + 1))  # one fixed seed

    def test_term_count_drops_a_tail_below_roundoff(self):
        for radius in (0.0, 0.1, 0.78, 3.3):
            m, x = _terms(radius), 2.0 * radius
            assert x ** (m + 1) / math.factorial(m + 1) <= 2.0**-53
            assert m == 0 or x**m / math.factorial(m) > 2.0**-53
        with pytest.raises(DomainError):
            _terms(math.inf)
