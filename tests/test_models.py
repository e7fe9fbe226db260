import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fwexact import (
    Metric,
    MetricViolationError,
    ModelSpec,
    StructureError,
    TimePeriodicHamiltonian,
    dirac_1d,
    feshbach_villars,
    free_dirac,
    floquet_dirac_scalar,
    floquet_dirac_vector,
    grid_momenta,
    spectral_momentum,
)
from fwexact.models import ALPHA, BETA4, TAU3


class TestFreeDirac:
    def test_at_rest(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.0))
        assert_allclose(sp.total.data, BETA4, atol=0)

    def test_dispersion(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        w = np.linalg.eigvalsh(sp.total.data)
        assert_allclose(w, [-1.25, -1.25, 1.25, 1.25], atol=1e-14)

    def test_heavier_mass(self):
        sp = free_dirac(2.0, (0.0, 0.0, 0.0))
        assert_allclose(sp.total.data, 2.0 * BETA4, atol=0)

    def test_general_momentum_dispersion(self):
        p = (0.3, -0.4, 0.5)
        sp = free_dirac(1.0, p)
        e = math.sqrt(1.0 + sum(c * c for c in p))
        w = np.linalg.eigvalsh(sp.total.data)
        assert_allclose(w, [-e, -e, e, e], atol=1e-14)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(StructureError):
            free_dirac(0.0, (0.0, 0.0, 0.0))


class TestSpectralMomentum:
    def test_plane_waves_are_exact_eigenvectors(self):
        n, length = 8, 2.0 * np.pi
        p = spectral_momentum(n, length)
        x = np.arange(n) * (length / n)
        for k in grid_momenta(n, length):
            wave = np.exp(1j * k * x)
            assert_allclose(p @ wave, k * wave, atol=1e-12)

    def test_hermitian(self):
        p = spectral_momentum(16, 5.0)
        assert np.linalg.norm(p - p.conj().T) <= 1e-13 * np.linalg.norm(p)


class TestDirac1D:
    def test_free_grid_dispersion(self):
        # independent oracle: the analytic dispersion over the grid momenta
        m, n, length = 1.0, 8, 2.0 * np.pi
        sp = dirac_1d(m, n, length, lambda x: np.zeros_like(x))
        expected = []
        for k in grid_momenta(n, length):
            e = math.sqrt(m * m + k * k)
            expected += [e, e, -e, -e]
        assert_allclose(
            np.linalg.eigvalsh(sp.total.data), np.sort(expected), atol=1e-12
        )

    def test_constant_potential_shifts_spectrum(self):
        m, n, length, c = 1.0, 8, 2.0 * np.pi, 0.37
        free = dirac_1d(m, n, length, lambda x: np.zeros_like(x))
        shifted = dirac_1d(m, n, length, lambda x: np.full_like(x, c))
        assert_allclose(
            np.linalg.eigvalsh(shifted.total.data),
            np.linalg.eigvalsh(free.total.data) + c,
            atol=1e-12,
        )

    def test_cosine_potential_structure(self):
        n, length = 32, 2.0 * np.pi
        sp = dirac_1d(1.0, n, length, lambda x: 0.2 * np.cos(2 * np.pi * x / length))
        h = sp.total
        b = sp.beta.data
        scale = h.norm()
        assert np.linalg.norm(h.data - h.data.conj().T) <= 1e-12 * scale
        assert (
            np.linalg.norm(b @ sp.even.data - sp.even.data @ b) <= 1e-12 * scale
        )
        assert (
            np.linalg.norm(b @ sp.odd.data + sp.odd.data @ b) <= 1e-12 * scale
        )

    def test_complex_potential_rejected(self):
        with pytest.raises(MetricViolationError):
            dirac_1d(1.0, 8, 1.0, lambda x: 1j * x)

    def test_grid_size_must_be_power_of_two(self):
        # the same rule as the run-config check in ModelSpec
        with pytest.raises(StructureError, match="power of two"):
            dirac_1d(1.0, 12, 1.0, lambda x: np.zeros_like(x))


class TestFeshbachVillars:
    def test_at_rest(self):
        sp = feshbach_villars(1.0, 0.0)
        assert_allclose(sp.total.data, TAU3, atol=0)
        assert_allclose(np.linalg.eigvals(sp.total.data).real, [1.0, -1.0], atol=1e-15)

    def test_dispersion(self):
        sp = feshbach_villars(1.0, 0.75)
        w = np.sort(np.linalg.eigvals(sp.total.data).real)
        assert_allclose(w, [-1.25, 1.25], atol=1e-13)

    def test_pseudo_hermitian_not_hermitian(self):
        h = feshbach_villars(1.0, 0.75).total.data
        b = TAU3
        assert_allclose(b @ h.conj().T @ b, h, atol=1e-15)
        assert np.linalg.norm(h - h.conj().T) > 0.1

    def test_metric_tag(self):
        assert feshbach_villars(1.0, 0.3).metric is Metric.BETA_PSEUDO


class TestFloquetModels:
    def test_scalar_no_drive_single_mode(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.0, 0.3)
        assert [n for n, _ in model.modes] == [0]

    def test_scalar_mode_content(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.3)
        assert [n for n, _ in model.modes] == [-1, 0, 1]
        assert_allclose(model.mode(1), 0.1 * np.eye(4), atol=0)

    def test_scalar_reconstruction_at_zero(self):
        model = floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.3)
        expected = ALPHA[2] * 0.5 + BETA4 + 0.2 * np.eye(4)
        assert_allclose(model.at_time(0.0), expected, atol=1e-15)

    def test_vector_no_drive_single_mode(self):
        model = floquet_dirac_vector(1.0, (0, 0, 0.5), 0.0, 0.3)
        assert [n for n, _ in model.modes] == [0]

    def test_vector_mode_content(self):
        model = floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.3)
        assert_allclose(model.mode(1), -0.1 * ALPHA[2], atol=0)
        assert_allclose(model.mode(-1), -0.1 * ALPHA[2], atol=0)

    def test_vector_hermitian_at_sampled_times(self):
        model = floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.3)
        for t in np.linspace(0.0, 2 * np.pi / 0.3, 7):
            h = model.at_time(t)
            assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(h)

    def test_inconsistent_modes_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        good = np.zeros((2, 2), dtype=complex)
        with pytest.raises(MetricViolationError):
            TimePeriodicHamiltonian(((0, good), (1, bad), (-1, bad)), 1.0, 2)


class TestModelSpec:
    def test_build_dispatch(self):
        spec = ModelSpec("free_dirac", {"m": 1.0, "pz": 0.75})
        sp = spec.build()
        assert_allclose(np.linalg.eigvalsh(sp.total.data), [-1.25, -1.25, 1.25, 1.25])

    def test_unknown_model_rejected(self):
        with pytest.raises(StructureError, match="unknown model"):
            ModelSpec("no_such_model", {})

    def test_grid_size_validation(self):
        with pytest.raises(StructureError, match="power of two"):
            ModelSpec("dirac_1d", {"N": 12})

    def test_floquet_frequency_validation(self):
        with pytest.raises(StructureError):
            ModelSpec("floquet_dirac_scalar", {"omega": -0.1})

    def test_dirac_1d_build(self):
        spec = ModelSpec("dirac_1d", {"m": 1.0, "N": 8, "L": 2 * np.pi, "V1": 0.2})
        sp = spec.build()
        assert sp.total.side == 32
