"""Real arithmetic: an H whose imaginary part is exactly zero runs the
chain in float64, and ``dirac_1d`` runs in the real basis of its
grid-parity pair map.  The real path must give what the complex path
gives: the same diagnostics and, back in the grid basis, the same
operators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwexact import BlockOperator, Metric, ModelSpec, dirac_1d, split, transform_stationary
from fwexact.blockop import REAL_BASIS_TOL, _pair_basis
from fwexact.matfun import gather, in_sectors

OPERATORS = ("sign_op", "u", "u_inverse", "h_fw", "s")


def run_both(first, second):
    return [transform_stationary(sp, routes=True) for sp in (first, second)]


def assert_same_numbers(one, two):
    """Every diagnostic (real_basis_defect aside), h_fw_norm and s_norm within 1e-13."""
    shared = set(one.diagnostics) - {"real_basis_defect"}
    assert shared == set(two.diagnostics) - {"real_basis_defect"}
    for key in shared:
        assert abs(one.diagnostics[key] - two.diagnostics[key]) <= 1e-13, key
    assert abs(one.h_fw_norm - two.h_fw_norm) <= 1e-13
    assert abs(one.s_norm - two.s_norm) <= 1e-13


class TestPairBasis:
    @settings(max_examples=25, deadline=None)
    @given(half=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_is_the_unitary_change_of_basis(self, half, seed):
        rng = np.random.default_rng(seed)
        n = 2 * half
        pairs = (-np.arange(n)) % n  # fixed points 0 and n/2, pairs otherwise
        q = np.zeros((n, n), dtype=complex)
        r = math.sqrt(0.5)
        for i, j in enumerate(pairs):
            if i == j:
                q[i, i] = 1.0
            elif i < j:
                q[i, i], q[j, i] = r, r
            else:
                q[j, i], q[i, i] = 1j * r, -1j * r
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-15
        x = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        forward = _pair_basis(x, pairs)
        assert np.abs(forward - q.conj().T @ x @ q).max() <= 1e-14
        assert np.abs(_pair_basis(forward, pairs, inverse=True) - x).max() <= 1e-14
        # a matrix that commutes with parity times conjugation turns real
        symmetric = x + x[..., pairs[:, None], pairs].conj()
        assert np.abs(_pair_basis(symmetric, pairs).imag).max() <= 1e-14


def random_hamiltonian(half, metric, rng):
    """A real gapped H: beta diag(m) + X in the Hermitian metric and
    beta (diag(m) + X) (unbroken phase) in the beta-pseudo one, with
    masses m in [1, 2] and a real symmetric X with ||X||_2 = 1/2."""
    n = 2 * half
    beta = np.repeat([1.0, -1.0], half)
    x = rng.normal(size=(n, n))
    x = x + x.T
    x *= 0.5 / max(np.linalg.norm(x, 2), 1e-300)
    masses = np.diag(rng.uniform(1.0, 2.0, n))
    if metric is Metric.HERMITIAN:
        return beta[:, None] * masses + x
    return beta[:, None] * (masses + x)


@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(1, 5),
    metric=st.sampled_from(list(Metric)),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_path_matches_the_gauged_complex_path(half, metric, seed):
    # D H D^dag, D a diagonal phase, is H in another basis that beta
    # keeps: every diagnostic is the same, and D^dag X D gives back each
    # operator X of the real path
    rng = np.random.default_rng(seed)
    h = random_hamiltonian(half, metric, rng)
    n = 2 * half
    d = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    gauged = d[:, None] * h * d.conj()
    splits = [
        split(BlockOperator(a, n), BlockOperator(np.eye(n), n), metric)
        for a in (h.astype(complex), gauged)
    ]
    assert in_sectors(splits[0].total).data.dtype == np.float64
    assert in_sectors(splits[1].total).data.dtype == np.complex128
    real, gauge = run_both(*splits)
    assert_same_numbers(real, gauge)
    for name in OPERATORS:
        back = d.conj()[:, None] * getattr(gauge, name).data * d
        assert np.abs(getattr(real, name).data - back).max() <= 1e-13, name


class TestDirac1DRealBasis:
    def test_layout_is_real(self):
        h, defect = gather(ModelSpec("dirac_1d", {"N": 64, "V1": 0.2}).build().total)
        assert h.data.dtype == np.float64 and h.pairs is not None
        assert 0.0 < defect <= 1e-15

    @pytest.mark.parametrize("n", [8, 32])
    def test_real_basis_matches_the_grid_basis(self, n):
        sp = ModelSpec("dirac_1d", {"N": n, "V0": 0.1, "V1": 0.3}).build()
        grid = dataclasses.replace(sp, total=dataclasses.replace(sp.total, pairs=None))
        assert in_sectors(grid.total).data.dtype == np.complex128
        real, plain = run_both(sp, grid)
        assert "real_basis_defect" not in plain.diagnostics
        assert real.diagnostics["real_basis_defect"] <= 1e-15
        assert_same_numbers(real, plain)
        for name in OPERATORS:
            ours = getattr(real, name).data
            assert ours.dtype == np.complex128
            assert np.abs(ours - getattr(plain, name).data).max() <= 1e-13, name

    @pytest.mark.parametrize("odd", [1e-14, 1e-13, 0.2])
    def test_real_basis_drops_roundoff_only(self, odd):
        # a sine part makes V not even: its imaginary part in the real basis
        # is the part of H that dropping it would remove, so above roundoff
        # (REAL_BASIS_TOL) the complex path runs, whatever the tolerances
        length = 2.0 * np.pi
        sp = dirac_1d(
            1.0, 16, length,
            lambda x: 0.2 * np.cos(2 * np.pi * x / length) + odd * np.sin(2 * np.pi * x / length),
        )
        h, defect = gather(sp.total)
        assert (defect <= REAL_BASIS_TOL) == (odd < 1e-13)
        assert h.data.dtype == (np.float64 if odd < 1e-13 else np.complex128)
        assert (h.pairs is not None) == (odd < 1e-13)
