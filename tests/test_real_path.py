"""Real arithmetic: an H whose imaginary part is exactly zero runs the
chain in float64, and ``dirac_1d`` writes its H in the real basis of
grid parity.  The real path must give what the complex path gives: the
same diagnostics and, back in the grid basis, the same operators; and
the layout ``dirac_1d`` writes must be what gathering its dense grid-basis
H on its sectors gives, taken to that basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwexact import (
    BlockOperator,
    Metric,
    ModelSpec,
    SplitHamiltonian,
    dirac_1d,
    spectral_momentum,
    split,
    transform_stationary,
)
from fwexact.blockop import REAL_BASIS_TOL, _from_pair_basis
from fwexact.matfun import in_sectors
from fwexact.models import ALPHA, BETA4

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


def pair_basis(pairs):
    """The real basis Q of an involution as a matrix: e_i at a fixed
    point, (e_i + e_j)/sqrt2 and i(e_i - e_j)/sqrt2 for a pair i < j."""
    n = len(pairs)
    q = np.zeros((n, n), dtype=complex)
    r = math.sqrt(0.5)
    for i, j in enumerate(pairs):
        if i == j:
            q[i, i] = 1.0
        elif i < j:
            q[i, i], q[j, i] = r, r
        else:
            q[j, i], q[i, i] = 1j * r, -1j * r
    return q


def grid_split(sp):
    """The dense grid-basis form of a split, which the transform gathers."""
    return SplitHamiltonian(sp.total, sp.mass.dense(), sp.metric)


class TestPairBasis:
    @settings(max_examples=25, deadline=None)
    @given(half=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_is_the_unitary_change_of_basis(self, half, seed):
        rng = np.random.default_rng(seed)
        n = 2 * half
        pairs = (-np.arange(n)) % n  # fixed points 0 and n/2, pairs otherwise
        q = pair_basis(pairs)
        assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-15
        x = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        back = _from_pair_basis(x, pairs)
        assert np.abs(back - q @ x @ q.conj().T).max() <= 1e-14
        assert np.abs(q.conj().T @ back @ q - x).max() <= 1e-14
        # a real matrix there commutes with parity times conjugation
        real = _from_pair_basis(x.real, pairs)
        assert np.abs(real - real[..., pairs[:, None], pairs].conj()).max() <= 1e-14


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
    assert in_sectors(splits[0].h).data.dtype == np.float64
    assert in_sectors(splits[1].h).data.dtype == np.complex128
    real, gauge = run_both(*splits)
    assert_same_numbers(real, gauge)
    for name in OPERATORS:
        back = d.conj()[:, None] * getattr(gauge, name).data * d
        assert np.abs(getattr(real, name).data - back).max() <= 1e-13, name


class TestDirac1DRealBasis:
    def test_layout_is_real(self):
        sp = ModelSpec("dirac_1d", {"N": 64, "V1": 0.2}).build()
        assert sp.h.data.dtype == np.float64 and sp.h.pairs is not None
        assert 0.0 < sp.real_basis_defect <= 1e-15

    @pytest.mark.parametrize("n", [8, 32])
    def test_real_basis_matches_the_grid_basis(self, n):
        sp = ModelSpec("dirac_1d", {"N": n, "V0": 0.1, "V1": 0.3}).build()
        grid = grid_split(sp)
        assert in_sectors(grid.h).data.dtype == np.complex128
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
        assert (sp.real_basis_defect <= REAL_BASIS_TOL) == (odd < 1e-13)
        assert sp.h.data.dtype == (np.float64 if odd < 1e-13 else np.complex128)
        assert (sp.h.pairs is not None) == (odd < 1e-13)


#: (m, L) stack shapes that broadcast: none, one axis, and two axes
STACKS = [((), ()), ((2,), ()), ((), (3,)), ((2,), (2,)), ((2, 1), (3,)), ((1, 2), (3, 1))]


class TestWrittenLayout:
    """dirac_1d writes its layout without a dense H; the layout must be the
    dense Kronecker build gathered on its own sectors (taken to the
    grid-parity basis when V is even to roundoff), and its total, defects
    and real_basis_defect those of the dense build."""

    @staticmethod
    def dense_build(m, n, length, potential):
        """The stack of dense grid-basis H, one Kronecker sum per point."""
        stack = np.broadcast_shapes(np.shape(m), np.shape(length))
        m, length = np.broadcast_to(m, stack), np.broadcast_to(length, stack)
        h = np.zeros((*stack, 4 * n, 4 * n), dtype=complex)
        for point in np.ndindex(stack):
            v = potential(np.arange(n) * (length[point] / n), length[point])
            h[point] = (
                np.kron(ALPHA[0], spectral_momentum(n, length[point]))
                + np.kron(np.eye(4, dtype=complex), np.diag(v))
                + m[point] * np.kron(BETA4, np.eye(n))
            )
        return h, m

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 32]),
        v0=st.floats(-0.5, 0.5),
        v1=st.floats(-0.5, 0.5),
        odd=st.sampled_from([0.0, 1e-14, 1e-3]),
        shapes=st.sampled_from(STACKS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_written_layout_is_the_gathered_dense_build(self, n, v0, v1, odd, shapes, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.5, 3.0, shapes[0]) if shapes[0] else rng.uniform(0.5, 3.0)
        length = rng.uniform(1.0, 10.0, shapes[1]) if shapes[1] else rng.uniform(1.0, 10.0)

        def potential(x, size):
            phase = 2 * np.pi * x / size
            return v0 + v1 * np.cos(phase) + odd * np.sin(phase)

        sp = dirac_1d(m, n, length, lambda x: potential(x, np.asarray(length)[..., None]))
        dense, masses = self.dense_build(m, n, length, potential)
        reference = in_sectors(BlockOperator(dense, 4 * n))
        layout, scale = sp.h, np.abs(dense).max()
        assert np.array_equal(layout.sectors, reference.sectors)
        assert np.array_equal(layout.weights, reference.weights)
        # each row's partner: the same spinor at grid point -j mod n
        rows = list(reference.sectors[0])
        spinor, point = np.divmod(reference.sectors[0], n)
        parity = [rows.index(r) for r in spinor * n + (-point) % n]
        rotated = pair_basis(parity).conj().T @ reference.data @ pair_basis(parity)
        norms = [np.linalg.norm(x, axis=(-2, -1)) for x in (rotated.imag, rotated)]
        dropped = norms[0] / norms[1]
        assert np.abs(sp.real_basis_defect - dropped[..., 0]).max() <= 1e-15 + 1e-10 * dropped.max()
        if np.all(dropped <= 0.5 * REAL_BASIS_TOL):
            assert np.array_equal(layout.pairs, parity) and layout.data.dtype == np.float64
            assert np.abs(layout.data - rotated.real).max() <= 1e-14 * scale
        elif np.any(dropped > 2 * REAL_BASIS_TOL):
            assert layout.pairs is None and layout.data.dtype == np.complex128
            assert np.abs(layout.data - reference.data).max() <= 1e-14 * scale
        assert np.abs(sp.total.data - dense).max() <= 1e-14 * scale
        assert np.array_equal(sp.total.data == 0, dense == 0)
        mass = masses[..., None, None] * np.eye(4 * n)
        expected = split(BlockOperator(dense, 4 * n), BlockOperator(mass, 4 * n), Metric.HERMITIAN)
        for key, value in expected.defects.items():
            assert np.shape(sp.defects[key]) == np.shape(value), key
            assert np.abs(sp.defects[key] - value).max() <= 1e-15, key
