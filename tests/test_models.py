import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fwexact import (
    FwExactError,
    Metric,
    MetricViolationError,
    ModelSpec,
    SplitHamiltonian,
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
from fwexact.models import ALPHA, BETA4, MODEL_CATALOG, TAU3


def kronecker_sum(m, n, length, v):
    """dirac_1d's H at one point as the dense Kronecker build
    alpha_x (x) P + 1 (x) diag(V) + m beta (x) 1 in the grid basis."""
    return (
        np.kron(ALPHA[0], spectral_momentum(n, length))
        + np.kron(np.eye(4, dtype=complex), np.diag(v))
        + m * np.kron(BETA4, np.eye(n))
    )


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

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 512])
    @pytest.mark.parametrize("length", [2.0 * np.pi, 7.3, np.array([1.0, 3.0, 9.5])])
    def test_circulant_is_the_fourier_product(self, n, length):
        # reference: F^dag diag(k) F, the unitary DFT F of the identity
        f = np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)
        k = grid_momenta(n, np.asarray(length)[..., None])
        reference = f.conj().T @ (k[..., :, None] * f)
        p = spectral_momentum(n, length)
        assert p.shape == reference.shape
        scale = np.abs(reference).max()
        assert np.abs(p - reference).max() <= 16 * np.finfo(float).eps * scale


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
        b = np.diag(h.signs)
        scale = h.norm()
        assert np.linalg.norm(h.data - h.data.conj().T) <= 1e-12 * scale
        assert (
            np.linalg.norm(b @ sp.even.data - sp.even.data @ b) <= 1e-12 * scale
        )
        assert (
            np.linalg.norm(b @ sp.odd.data + sp.odd.data @ b) <= 1e-12 * scale
        )

    @pytest.mark.parametrize(
        "m, length",
        [
            (1.0, 2.0 * np.pi),
            (np.array([0.5, 1.0, 2.0]), 2.0 * np.pi),
            (1.0, np.array([4.0, 7.5])),
        ],
        ids=["scalar", "stacked_mass", "stacked_length"],
    )
    def test_written_blocks_equal_the_kronecker_sum(self, m, length):
        # H is written block by block in the grid-parity basis; assembled
        # dense it is the Kronecker build alpha_x (x) P + 1 (x) diag(V) +
        # m beta (x) 1 to roundoff, with the same exact zeros, for one
        # point and for each point of a stack
        n = 16
        length = np.asarray(length)

        def potential(x):
            return 0.1 + 0.3 * np.cos(2 * np.pi * x / length[..., None])

        sp = dirac_1d(m, n, length, potential)
        assert sp.h.pairs is not None
        h = sp.total.data
        stack = np.broadcast_shapes(np.shape(m), length.shape)
        assert h.shape == (*stack, 4 * n, 4 * n)
        for point in np.ndindex(stack):
            size = np.broadcast_to(length, stack)[point]
            v = 0.1 + 0.3 * np.cos(2 * np.pi * (np.arange(n) * (size / n)) / size)
            reference = kronecker_sum(np.broadcast_to(m, stack)[point], n, size, v)
            assert np.abs(h[point] - reference).max() <= 1e-14 * np.abs(reference).max()
            assert np.array_equal(h[point] == 0, reference == 0)

    def test_grid_basis_blocks_equal_the_kronecker_sum_bit_for_bit(self):
        # a potential that is not even is written in the grid basis, complex,
        # and assembles to the Kronecker build bit for bit
        n, length = 16, 2.0 * np.pi

        def potential(x):
            return 0.1 + 0.3 * np.sin(2 * np.pi * x / length)

        sp = dirac_1d(1.5, n, length, potential)
        assert sp.h.pairs is None and sp.h.data.dtype == np.complex128
        reference = kronecker_sum(1.5, n, length, potential(np.arange(n) * (length / n)))
        assert sp.total.data.tobytes() == reference.tobytes()

    def test_two_axis_stack_has_a_defect_per_point(self):
        # m (2, 1) and length (2,) broadcast to a (2, 2) stack of splits,
        # each point's defects those of its own build
        m, length = np.array([[1.0], [2.0]]), np.array([5.0, 6.0])

        def potential(x):
            return 0.2 * np.cos(x)

        sp = dirac_1d(m, 16, length, potential)
        assert sp.total.data.shape == (2, 2, 64, 64)
        for point in np.ndindex(2, 2):
            single = dirac_1d(m[point[0], 0], 16, length[point[1]], potential)
            for key, defects in sp.defects.items():
                assert np.shape(defects) == (2, 2), key
                assert defects[point] == single.defects[key], key

    def test_writes_two_equal_sectors_in_grid_parity(self):
        # spinors {0, 3} and {1, 2}, beta = +1 rows first, held once; the
        # pair map sends each row to the same spinor at grid point -j mod n
        n = 8
        h = dirac_1d(1.0, n, 1.0, lambda x: np.zeros_like(x)).h
        grid = np.arange(n)
        assert np.array_equal(h.sectors, [np.r_[grid, grid + 3 * n], np.r_[grid + n, grid + 2 * n]])
        assert np.array_equal(h.weights, [2]) and h.data.shape == (1, 2 * n, 2 * n)
        spinor, point = np.divmod(np.arange(2 * n), n)
        assert np.array_equal(h.pairs, spinor * n + (-point) % n)

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

    def test_every_catalog_parameter_has_a_value(self):
        for name, entry in MODEL_CATALOG.items():
            spec = ModelSpec(name, {"m": 2.0})
            assert spec.value("m") == 2.0
            for key in entry["params"]:
                assert np.isfinite(spec.value(key)), (name, key)
        assert ModelSpec("dirac_1d").side == 4 * ModelSpec("dirac_1d").value("N") == 128

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

    def test_grid_size_must_be_integral(self):
        with pytest.raises(StructureError, match="grid size must be an integer, got 8.7"):
            ModelSpec("dirac_1d", {"N": 8.7})
        assert ModelSpec("dirac_1d", {"N": 8.0}).build().total.side == 32

    @pytest.mark.parametrize("length", [0.0, -3.0])
    def test_box_length_must_be_positive(self, length):
        with pytest.raises(StructureError, match=f"box length must be positive, got {length}"):
            ModelSpec("dirac_1d", {"L": length})

    @pytest.mark.parametrize("m", [1e308, 1e200])
    def test_overflowing_norm_is_a_structure_error(self, m):
        # from entries of about 1e154 up ||H||_F overflows, and every
        # relative defect would read 0 beside it
        with pytest.raises(StructureError, match="norm is not finite"):
            ModelSpec("free_dirac", {"m": m}).build()

    def test_overflowing_norm_is_checked_per_matrix(self):
        spec = ModelSpec("free_dirac", {"m": np.array([1.0, 1e200]), "pz": 0.5})
        with pytest.raises(StructureError, match=r"\|\|H\|\|_F = inf"):
            spec.build()

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"N": 8, "L": [1.0, -2.0, 0.0]}, "box length must be positive, got -2.0"),
            ({"N": 8, "m": [1.0, 2.0, -1.0], "L": [1.0, 1.0, -5.0]}, "mass must be positive"),
            ({"N": 12, "L": [-1.0, 1.0]}, "power of two >= 8, got 12"),
        ],
    )
    def test_array_values_raise_the_first_failing_point_error(self, params, message):
        with pytest.raises(StructureError, match=message):
            ModelSpec("dirac_1d", {k: np.array(v) if isinstance(v, list) else v
                                   for k, v in params.items()})

    @pytest.mark.parametrize(
        "name, key", [("dirac_1d", "N"), ("floquet_dirac_scalar", "V1")]
    )
    def test_only_stackable_parameters_take_arrays(self, name, key):
        spec = ModelSpec(name, {})
        assert not spec.stacks(key)
        with pytest.raises(StructureError, match="takes one value"):
            ModelSpec(name, {key: np.array([8.0, 16.0])})

    @pytest.mark.parametrize(
        "name, params",
        [("free_dirac", {}), ("feshbach_villars", {}), ("dirac_1d", {"N": 16})],
    )
    def test_side_is_that_of_the_build(self, name, params):
        spec = ModelSpec(name, params)
        assert spec.side == spec.build().total.side


POSITIVE = st.floats(0.05, 10.0)
REAL = st.floats(-4.0, 4.0)

#: The parameters that take arrays, with values that build cleanly
#: (dirac_1d at N = 8).
STACKABLE = {
    "free_dirac": {"m": POSITIVE, "px": REAL, "py": REAL, "pz": REAL},
    "feshbach_villars": {"m": POSITIVE, "p": REAL},
    "dirac_1d": {"m": POSITIVE, "L": st.floats(0.1, 50.0), "V0": REAL, "V1": REAL},
}


class TestStackedBuild:
    """An array of parameter values builds the stack of the per-point
    builds, bit for bit, and any finite parameters either build a finite
    Hamiltonian or raise a typed error."""

    @pytest.mark.parametrize(
        "name, parameter", [(n, p) for n in sorted(STACKABLE) for p in STACKABLE[n]]
    )
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_array_build_is_the_stack_of_point_builds(self, name, parameter, data):
        strategies = STACKABLE[name]
        values = data.draw(st.lists(strategies[parameter], min_size=2, max_size=5))
        params = {k: data.draw(s) for k, s in strategies.items() if k != parameter}
        if name == "dirac_1d":
            params["N"] = 8
        stacked = ModelSpec(name, {**params, parameter: np.array(values)}).build()
        points = [ModelSpec(name, {**params, parameter: v}).build() for v in values]
        for part in ("mass", "even", "odd"):
            expected = np.stack([getattr(point, part).data for point in points])
            assert np.array_equal(getattr(stacked, part).data, expected), part
        assert stacked.defects.keys() == points[0].defects.keys()
        for key, defects in stacked.defects.items():
            assert np.array_equal(defects, [point.defects[key] for point in points]), key

    @pytest.mark.parametrize("name", sorted(MODEL_CATALOG))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_finite_parameters_build_or_raise_a_typed_error(self, name, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        # small grid sizes only: a huge valid N is a huge matrix
        grid_sizes = st.one_of(st.sampled_from([8, 16, 8.0, 32.0]), st.floats(-64.0, 64.0))
        params = {
            key: data.draw(grid_sizes if key == "N" else finite)
            for key in MODEL_CATALOG[name]["params"]
            if data.draw(st.booleans())
        }
        try:
            built = ModelSpec(name, params).build()
        except FwExactError:
            return
        if isinstance(built, SplitHamiltonian):
            assert np.isfinite(built.total.data).all()
        else:
            assert all(np.isfinite(h).all() for _, h in built.modes)
