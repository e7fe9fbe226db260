import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import fwexact
import fwexact.matfun
from fwexact import (
    BlockOperator,
    EigendecompositionError,
    Metric,
    MetricViolationError,
    ModelSpec,
    SpectralGapError,
    decompose,
    feshbach_villars,
    floquet_dirac_vector,
    free_dirac,
    sign_of,
    transform_nonstationary,
    transform_stationary,
)
from fwexact.blockop import SplitHamiltonian, split
from fwexact.matfun import (
    EvenDecomposition,
    _fix_phases,
    decompose_array,
    find_sectors,
    in_sectors,
)
from oracles import exp_i


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
        assert np.linalg.norm(dec.apply(lambda w: w) - a.data) <= 1e-11 * np.linalg.norm(
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
        beta = np.diag([1.0, 1.0, -1.0, -1.0])
        h = BlockOperator(3.0 * beta, 4, 1)
        assert_allclose(sign_of(h, Metric.HERMITIAN).data, beta, atol=1e-15)

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


@st.composite
def direct_sums(draw):
    """A stack of random Hermitian direct sums of dense blocks, under one
    random permutation of rows and columns, with the expected sectors."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    stack = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    a = np.zeros((stack, n, n), dtype=complex)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    for block in range(len(sizes)):
        k, at = sizes[block], np.flatnonzero(owner == block)
        b = rng.normal(size=(stack, k, k)) + 1j * rng.normal(size=(stack, k, k))
        a[:, at[:, None], at] = b + b.conj().swapaxes(-1, -2)
    perm = rng.permutation(n)
    owner = owner[perm]
    expected = sorted((np.flatnonzero(owner == b) for b in set(owner)), key=lambda s: s[0])
    return a[:, perm][:, :, perm], owner, expected


class TestSectors:
    @settings(max_examples=60, deadline=None)
    @given(case=direct_sums())
    def test_sector_kernels_match_the_dense_matrix(self, case):
        a, owner, expected = case
        sectors = find_sectors(a)
        assert [list(s) for s in sectors] == [list(s) for s in expected]
        w_full, v_full = np.linalg.eigh(a)
        scale = np.abs(w_full).max(axis=-1, keepdims=True)
        dec = decompose_array(a, Metric.HERMITIAN)
        assert np.abs(dec.eigenvalues.real - w_full).max() <= 1e-13 * scale.max()

        def f(w):
            return np.exp(1j * w.real)

        reference = (v_full * f(w_full)[..., None, :]) @ v_full.conj().swapaxes(-1, -2)
        applied = dec.apply(f)
        assert np.abs(applied - reference).max() <= 1e-12
        v = dec.right_vectors
        assert np.abs(a @ v - v * dec.eigenvalues[..., None, :]).max() <= 1e-12 * scale.max()
        gram = v.conj().swapaxes(-1, -2) @ v
        assert np.abs(gram - np.eye(len(owner))).max() <= 1e-12
        even = EvenDecomposition.of(a, a[::-1])
        pp, mm = even.apply(f)
        assert np.abs(pp - reference).max() <= 1e-12
        assert np.abs(mm - reference[::-1]).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(side=st.integers(1, 12), stack=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_one_sector_is_plain_eigh(self, side, stack, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(stack, side, side)) + 1j * rng.normal(size=(stack, side, side))
        a = b + b.conj().swapaxes(-1, -2)
        assert len(find_sectors(a)) == 1
        w, v = np.linalg.eigh(a)
        v = _fix_phases(v)
        dec = decompose_array(a, Metric.HERMITIAN)
        assert np.array_equal(dec.eigenvalues, w.astype(complex))
        assert np.array_equal(dec.right_vectors, v)
        assert np.array_equal(dec.inverse_vectors, v.conj().swapaxes(-1, -2))
        even = EvenDecomposition.of(a, a)
        w2, v2 = np.linalg.eigh(np.stack((a, a), axis=-3))
        upper, _ = even.apply(lambda w: np.exp(1j * w))
        expected = (v2 * np.exp(1j * w2)[..., None, :]) @ v2.conj().swapaxes(-1, -2)
        assert np.array_equal(even.eigenvalues, w2)
        assert np.array_equal(upper, expected[..., 0, :, :])

    def test_isolated_and_zero_entries(self):
        a = np.diag([2.0, -1.0, 0.0]).astype(complex)
        a[0, 2] = a[2, 0] = 1e-300
        assert [list(s) for s in find_sectors(a)] == [[0, 2], [1]]


class TestOneSectorTransforms:
    """A transform decomposed as one sector agrees with the sector-wise one;
    dirac_1d, which writes its own layout, is forced to one sector through
    its dense H."""

    CASES = {
        "dirac_1d_8": lambda routes, dense: transform_stationary(
            dense(ModelSpec("dirac_1d", {"N": 8, "V1": 0.2}).build()), routes=routes
        ),
        "dirac_1d_32": lambda routes, dense: transform_stationary(
            dense(ModelSpec("dirac_1d", {"N": 32, "V1": 0.2}).build()), routes=routes
        ),
        "vector_drive": lambda routes, dense: transform_nonstationary(
            floquet_dirac_vector(1.0, (0.0, 0.0, 0.5), 0.2, 0.08), 4, routes=routes
        ),
    }

    @staticmethod
    def dense_split(sp):
        return SplitHamiltonian(
            sp.total, sp.mass.dense(), sp.metric, real_basis_defect=sp.real_basis_defect
        )

    @pytest.mark.parametrize("routes", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_result_as_one_sector(self, monkeypatch, case, routes):
        sectored = self.CASES[case](routes, lambda sp: sp)
        assert len(find_sectors(sectored.u.data)) == 2
        monkeypatch.setattr(fwexact.matfun, "find_sectors", lambda a: [np.arange(a.shape[-1])])
        whole = self.CASES[case](routes, self.dense_split)
        assert len(find_sectors(whole.u.data)) == 1
        assert sectored.diagnostics.keys() == whole.diagnostics.keys()
        for key, value in whole.diagnostics.items():
            assert abs(sectored.diagnostics[key] - value) <= 1e-13, key
        assert np.abs(sectored.u.data - whole.u.data).max() <= 1e-13
        assert np.abs(sectored.s.data - whole.s.data).max() <= 1e-13


def sector_block(beta, metric, stack, rng):
    """A stack of random sector blocks on components with beta's signs
    ``beta``: m beta + X in the Hermitian metric and beta (m + X) in the
    beta-pseudo one, with X Hermitian, ||X||_2 = 1/2 and m = 1, so the
    sector is gapped with the signs of beta."""
    k = len(beta)
    x = rng.normal(size=(stack, k, k)) + 1j * rng.normal(size=(stack, k, k))
    x = x + x.conj().swapaxes(-1, -2)
    x *= 0.5 / np.linalg.norm(x, ord=2, axis=(-2, -1))[:, None, None]
    if metric is Metric.BETA_PSEUDO:
        return beta[:, None] * (np.eye(k) + x)
    return np.diag(beta) + x


def direct_sum(members, blocks, metric):
    """The split of the stack of direct sums of ``blocks`` over ``members``
    (the global indices of each sector, beta = +1 components first)."""
    n = sum(len(index) for index in members)
    h = np.zeros((len(blocks[0]), n, n), dtype=complex)
    for index, block in zip(members, blocks):
        h[:, index[:, None], index] = block
    op = BlockOperator(h, n, 1)
    return split(op, op.like(np.zeros_like(h)), metric)


def sectored_hamiltonian(members, metric, stack, rng):
    """A stack of Hamiltonians that are direct sums over ``members`` of
    random :func:`sector_block` s."""
    n = sum(len(index) for index in members)
    signs = np.repeat([1.0, -1.0], n // 2)
    blocks = [sector_block(signs[index], metric, stack, rng) for index in members]
    return direct_sum(members, blocks, metric)


def balanced_members(count, half, rng):
    """``count`` equal, parity-balanced sectors placed at random indices:
    each sector takes half of its components from beta's upper block and
    half from its lower one, both drawn by a random permutation."""
    n = 2 * count * half
    upper = rng.permutation(n // 2).reshape(count, half)
    lower = n // 2 + rng.permutation(n // 2).reshape(count, half)
    return [np.concatenate((np.sort(u), np.sort(d))) for u, d in zip(upper, lower)]


@st.composite
def balanced_sectors(draw):
    """Random, equal, parity-balanced sectors (:func:`balanced_members`)."""
    count, half = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = balanced_members(count, half, rng)
    return members, draw(st.sampled_from(list(Metric))), draw(st.integers(1, 2)), rng


@st.composite
def repeated_sectors(draw):
    """2-3 copies of one random sector block beside a distinct one, placed
    by :func:`balanced_members`; in a stack of two, one copy may differ
    from the others at one point only.  Returns the split, the members
    and the expected sector weights, ascending."""
    copies, half = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    metric, stack = draw(st.sampled_from(list(Metric))), draw(st.integers(1, 2))
    differs = stack == 2 and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = balanced_members(copies + 1, half, rng)
    beta = np.repeat([1.0, -1.0], half)
    repeated = sector_block(beta, metric, stack, rng)
    blocks = [repeated] * copies + [sector_block(beta, metric, stack, rng)]
    if differs:
        blocks[0] = repeated.copy()
        blocks[0][1] *= 1.001
    order = rng.permutation(copies + 1)
    weights = sorted([copies - 1, 1, 1] if differs else [copies, 1])
    return direct_sum(members, [blocks[i] for i in order], metric), members, weights


class TestSectorLayout:
    """A transform in H's sector layout against the same transform forced
    to one sector."""

    @staticmethod
    def transforms(monkeypatch, split_h):
        sectored = transform_stationary(split_h, routes=True)
        with monkeypatch.context() as patch:
            patch.setattr(fwexact.matfun, "find_sectors", lambda a: [np.arange(a.shape[-1])])
            whole = transform_stationary(split_h, routes=True)
        return sectored, whole

    @staticmethod
    def operators(result):
        return {
            "sign_op": result.sign_op.data,
            "u": result.u.data,
            "u_inverse": result.u_inverse.data,
            "s": result.s.data,
            "h_fw": result.h_fw.data,
        }

    def check_matches_one_sector(self, split_h, members):
        """Diagnostics, norms and operators as on the one-sector path,
        within 1e-13, with exact zeros off the sectors."""
        with pytest.MonkeyPatch.context() as monkeypatch:
            sectored, whole = self.transforms(monkeypatch, split_h)
        assert sectored.diagnostics.keys() == whole.diagnostics.keys()
        for key, value in whole.diagnostics.items():
            assert np.abs(sectored.diagnostics[key] - value).max() <= 1e-13, key
        for key in ("h_fw_norm", "s_norm"):
            assert np.abs(getattr(sectored, key) - getattr(whole, key)).max() <= 1e-13, key
        whole_ops = self.operators(whole)
        n = split_h.total.side
        off_sector = np.ones((n, n), dtype=bool)
        for index in members:
            off_sector[index[:, None], index] = False
        for key, data in self.operators(sectored).items():
            assert data.shape == whole_ops[key].shape, key
            assert np.abs(data - whole_ops[key]).max() <= 1e-13, key
            assert np.all(data[:, off_sector] == 0), key

    @settings(max_examples=30, deadline=None)
    @given(case=balanced_sectors())
    def test_equal_balanced_sectors_match_one_sector(self, case):
        members, metric, stack, rng = case
        split_h = sectored_hamiltonian(members, metric, stack, rng)
        layout = in_sectors(split_h.total)
        assert layout.sectors.shape == (len(members), len(members[0]))
        self.check_matches_one_sector(split_h, members)

    @settings(max_examples=40, deadline=None)
    @given(case=repeated_sectors())
    def test_repeated_sectors_are_held_once(self, case):
        split_h, members, weights = case
        layout = in_sectors(split_h.total)
        assert layout.sectors.shape == (len(members), len(members[0]))
        assert sorted(layout.weights) == weights
        assert layout.data.shape[-3] == len(weights)
        assert np.array_equal(layout.dense().data, split_h.total.data)
        self.check_matches_one_sector(split_h, members)

    def test_sectors_one_ulp_apart_stay_distinct(self):
        members = balanced_members(2, 2, np.random.default_rng(17))
        beta, metric = np.repeat([1.0, -1.0], 2), Metric.HERMITIAN
        block = sector_block(beta, metric, 1, np.random.default_rng(3))
        apart = block.copy()
        apart[0, 0, 0] = np.nextafter(apart[0, 0, 0].real, np.inf)
        same = in_sectors(direct_sum(members, [block, block], metric).total)
        assert same.weights.tolist() == [2]
        layout = in_sectors(direct_sum(members, [block, apart], metric).total)
        assert layout.weights.tolist() == [1, 1]
        assert layout.data.shape[-3] == 2

    # sectors {0, 3} and {1, 2, 4, 5} differ in size; {0, 1} and {2, 3}
    # are all upper and all lower components
    PINNED = {
        "unequal": ([np.array([0, 3]), np.array([1, 2, 4, 5])], 6),
        "unbalanced": ([np.array([0, 1]), np.array([2, 3])], 4),
    }

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_unequal_or_unbalanced_sectors_are_one_sector(self, monkeypatch, case, metric):
        members, n = self.PINNED[case]
        split_h = sectored_hamiltonian(members, metric, 2, np.random.default_rng(15))
        assert [list(s) for s in find_sectors(split_h.total.data)] == [list(s) for s in members]
        assert in_sectors(split_h.total).sectors.shape == (1, n)
        sectored, whole = self.transforms(monkeypatch, split_h)
        for key, value in whole.diagnostics.items():
            assert np.array_equal(sectored.diagnostics[key], value), key
        whole_ops = self.operators(whole)
        for key, data in self.operators(sectored).items():
            assert np.array_equal(data, whole_ops[key]), key


def test_package_exports_resolve_once():
    exported = fwexact.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(fwexact, name)] == []
