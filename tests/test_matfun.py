import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fwexact
from fwexact import (
    BlockOperator,
    EigendecompositionError,
    Metric,
    MetricViolationError,
    SpectralGapError,
    beta_matrix,
    decompose,
    exp_i,
    feshbach_villars,
    free_dirac,
    sign_of,
)


def hermitian_operator(seed, side=4, gap=0.5):
    """Random Hermitian matrix with |spectrum| >= gap (seeded oracle input)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    w = np.where(w >= 0, w + gap, w - gap)
    return BlockOperator((v * w) @ v.conj().T, side, 1)


class TestDecompose:
    def test_sorted_ascending(self):
        a = BlockOperator(np.diag([2.0, -1.0]).astype(complex), 2, 1)
        dec = decompose(a, Metric.HERMITIAN)
        assert_allclose(dec.eigenvalues.real, [-1.0, 2.0], atol=0)

    def test_free_dirac_eigenvalues(self):
        # sqrt(1 + 0.75^2) = sqrt(1.5625) = 1.25 exactly
        h = free_dirac(1.0, (0.0, 0.0, 0.75)).total
        dec = decompose(h, Metric.HERMITIAN)
        assert_allclose(dec.eigenvalues.real, [-1.25, -1.25, 1.25, 1.25], atol=1e-14)

    def test_feshbach_villars_real_spectrum(self):
        # characteristic polynomial by hand: E^2 = m^2 + p^2
        h = feshbach_villars(1.0, 0.75).total
        dec = decompose(h, Metric.BETA_PSEUDO)
        assert_allclose(dec.eigenvalues.real, [-1.25, 1.25], atol=1e-12)
        assert np.abs(dec.eigenvalues.imag).max() <= 1e-12

    def test_reconstruction(self):
        a = hermitian_operator(5)
        dec = decompose(a, Metric.HERMITIAN)
        assert np.linalg.norm(dec.reconstruct() - a.data) <= 1e-11 * np.linalg.norm(
            a.data
        )
        assert_allclose(dec.inverse_vectors, dec.right_vectors.conj().T, atol=0)

    def test_non_hermitian_rejected(self):
        a = BlockOperator(np.array([[0, 1], [0, 0]], dtype=complex), 2, 1)
        with pytest.raises(MetricViolationError):
            decompose(a, Metric.HERMITIAN)

    def test_broken_pseudo_hermiticity(self):
        # tau3-pseudo-Hermitian with eigenvalues +-i
        a = BlockOperator(np.array([[0, 1], [-1, 0]], dtype=complex), 2, 1)
        with pytest.raises(EigendecompositionError, match="broken pseudo-Hermiticity"):
            decompose(a, Metric.BETA_PSEUDO)

    def test_ill_conditioned_eigenbasis(self):
        a = BlockOperator(np.array([[1.0, 1.0], [0.0, 1.0 + 1e-12]], dtype=complex), 2, 1)
        with pytest.raises(EigendecompositionError, match="ill-conditioned"):
            decompose(a, Metric.BETA_PSEUDO)

    def test_deterministic_output(self):
        a = hermitian_operator(9)
        one = decompose(a, Metric.HERMITIAN)
        two = decompose(a, Metric.HERMITIAN)
        assert np.array_equal(one.right_vectors, two.right_vectors)
        assert np.array_equal(one.eigenvalues, two.eigenvalues)


class TestSign:
    def test_pure_mass_gives_beta(self):
        beta = beta_matrix(4, 1)
        h = BlockOperator(3.0 * beta.data, 4, 1)
        assert_allclose(sign_of(h, Metric.HERMITIAN).data, beta.data, atol=1e-15)

    def test_diagonal(self):
        h = BlockOperator(np.diag([3.0, -0.5]).astype(complex), 2, 1)
        assert_allclose(
            sign_of(h, Metric.HERMITIAN).data, np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_free_dirac_sign(self):
        h = free_dirac(1.0, (0.0, 0.0, 0.75)).total
        lam = sign_of(h, Metric.HERMITIAN)
        assert_allclose(lam.data, h.data / 1.25, atol=1e-14)
        assert np.linalg.norm(lam.data @ lam.data - np.eye(4)) <= 1e-10

    def test_gap_violation(self):
        h = BlockOperator(np.diag([1e-12, 1.0]).astype(complex), 2, 1)
        with pytest.raises(SpectralGapError, match="spectral gap violation"):
            sign_of(h, Metric.HERMITIAN)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_sign_properties(self, seed):
        h = hermitian_operator(seed)
        lam = sign_of(h, Metric.HERMITIAN)
        n = h.side
        assert np.linalg.norm(lam.data @ lam.data - np.eye(n)) <= 1e-10 * np.sqrt(n)
        assert np.linalg.norm(
            lam.data @ h.data - h.data @ lam.data
        ) <= 1e-10 * np.linalg.norm(h.data)
        assert np.linalg.norm(lam.data - lam.data.conj().T) <= 1e-12


class TestExpI:
    def test_zero_gives_identity(self):
        s = BlockOperator(np.zeros((2, 2)), 2, 1)
        assert_allclose(exp_i(s, Metric.HERMITIAN).data, np.eye(2), atol=0)

    def test_pi_rotation(self):
        s = BlockOperator(np.diag([np.pi, -np.pi]).astype(complex), 2, 1)
        assert_allclose(exp_i(s, Metric.HERMITIAN).data, -np.eye(2), atol=1e-15)

    def test_unitary_and_unimodular(self):
        s = hermitian_operator(21)
        u = exp_i(s, Metric.HERMITIAN)
        assert np.linalg.norm(u.data @ u.data.conj().T - np.eye(4)) <= 1e-10
        assert abs(abs(np.linalg.det(u.data)) - 1.0) <= 1e-8

    def test_non_self_adjoint_rejected(self):
        s = BlockOperator(np.array([[0, 1], [0, 0]], dtype=complex), 2, 1)
        with pytest.raises(MetricViolationError):
            exp_i(s, Metric.HERMITIAN)


def test_package_exports_resolve_once():
    exported = fwexact.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(fwexact, name)] == []
