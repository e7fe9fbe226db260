import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import fwexact.matfun
from fwexact import (
    BlockOperator,
    Metric,
    MetricViolationError,
    StructureError,
    adjoint_m,
    even_part,
    feshbach_villars,
    free_dirac,
    odd_part,
    split,
    transform_stationary,
)


def random_operator(seed, internal_dim=4, copies=1):
    rng = np.random.default_rng(seed)
    side = internal_dim * copies
    data = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return BlockOperator(data, internal_dim, copies)


def signs_of(internal_dim, copies=1):
    return BlockOperator(np.zeros((internal_dim * copies,) * 2), internal_dim, copies).signs


def beta_of(a):
    """Dense beta for a test-local reference."""
    return np.diag(a.signs).astype(complex)


class TestBetaMatrix:
    """beta as the sign vector BlockOperator.signs."""

    def test_smallest_case(self):
        assert_array_equal(signs_of(2), [1.0, -1.0])

    def test_dirac_case(self):
        assert_array_equal(signs_of(4), [1.0, 1.0, -1.0, -1.0])

    def test_replicated_across_copies(self):
        assert_array_equal(signs_of(4, 3), np.tile([1.0, 1.0, -1.0, -1.0], 3))

    def test_exact_involution_and_hermiticity(self):
        signs = signs_of(6, 2)
        assert set(signs) == {1.0, -1.0}
        assert_array_equal(signs * signs, np.ones(12))
        assert not signs.flags.writeable

    def test_odd_internal_dim_rejected(self):
        with pytest.raises(StructureError):
            BlockOperator(np.zeros((3, 3)), 3, 1)


class TestDtype:
    """An operator keeps a float64 or complex128 input; blocks, joins and
    dense assembly keep it; the sector layout holds exactly real input real."""

    @pytest.mark.parametrize(
        "given, kept",
        [
            (np.float64, np.float64),
            (np.complex128, np.complex128),
            (np.int64, np.float64),
            (np.float32, np.float64),
            (np.complex64, np.complex128),
        ],
    )
    def test_dtype_kept_or_converted(self, given, kept):
        data = np.diag([1, 2, -1, -2]).astype(given)
        op = BlockOperator(data, 4)
        assert op.data.dtype == kept
        if given in (np.float64, np.complex128):
            assert op.data is data

    def test_blocks_and_joins_keep_real(self):
        op = BlockOperator(np.arange(36.0).reshape(6, 6), 2, 3)
        assert even_part(op).data.dtype == np.float64
        assert op.like_blocks(None, op.blocks.pm, None, None).data.dtype == np.float64
        assert op.like_blocks(1j * op.blocks.pp, None, None, None).data.dtype == np.complex128

    def test_layout_holds_exactly_real_input_real(self):
        data = np.kron(np.eye(2), [[1.0, 0.5], [0.5, -1.0]]).astype(complex)
        layout = BlockOperator(data, 4).in_sectors([np.array([0, 1]), np.array([2, 3])])
        assert layout.data.dtype == np.float64
        assert np.array_equal(layout.dense().data, data)
        assert layout.dense().data.dtype == np.float64
        data[0, 1] += 1e-300j
        data[1, 0] -= 1e-300j
        layout = BlockOperator(data, 4).in_sectors([np.array([0, 1]), np.array([2, 3])])
        assert layout.data.dtype == np.complex128


class TestBlockOperator:
    def test_side_must_match_tags(self):
        with pytest.raises(StructureError):
            BlockOperator(np.eye(4), 4, 2)

    def test_non_square_rejected(self):
        with pytest.raises(StructureError):
            BlockOperator(np.ones((2, 3)), 2, 1)


class TestEvenOddParts:
    def test_beta_is_even(self):
        beta = BlockOperator(np.diag([1.0, 1.0, -1.0, -1.0]), 4, 1)
        assert_array_equal(even_part(beta).data, beta.data)
        assert_array_equal(odd_part(beta).data, np.zeros((4, 4)))

    def test_antidiagonal_is_odd(self):
        a = BlockOperator(np.array([[0, 1], [1, 0]], dtype=complex), 2, 1)
        assert_array_equal(even_part(a).data, np.zeros((2, 2)))
        assert_array_equal(odd_part(a).data, a.data)

    def test_random_split_reconstructs_exactly(self):
        # beta is a +-1 diagonal, so the projections only zero entries:
        # the sum reproduces the input bit for bit
        a = random_operator(7)
        total = even_part(a).data + odd_part(a).data
        assert_array_equal(total, a.data)

    def test_random_split_commutation(self):
        a = random_operator(11)
        b = beta_of(a)
        ev = even_part(a).data
        od = odd_part(a).data
        scale = np.linalg.norm(a.data)
        assert np.linalg.norm(b @ ev - ev @ b) <= 1e-14 * scale
        assert np.linalg.norm(b @ od + od @ b) <= 1e-14 * scale

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        half=st.integers(1, 4),
        copies=st.integers(1, 3),
    )
    def test_even_odd_properties(self, seed, half, copies):
        a = random_operator(seed, 2 * half, copies)
        b = beta_of(a)
        ev = even_part(a).data
        od = odd_part(a).data
        assert_array_equal(ev + od, a.data)
        # anticommutator of beta with anything is even; commutator is odd
        anti = b @ a.data + a.data @ b
        assert np.linalg.norm(odd_part(a.like(anti)).data) <= 1e-14 * max(
            np.linalg.norm(anti), 1.0
        )
        assert np.linalg.norm(b @ ev - ev @ b) == 0.0
        assert np.linalg.norm(b @ od + od @ b) == 0.0
        # the sign flips are the dense (A +- beta A beta) / 2, exactly
        flipped = b @ a.data @ b
        assert_array_equal(ev, (a.data + flipped) / 2)
        assert_array_equal(od, (a.data - flipped) / 2)


class TestAdjoint:
    def test_hermitian_input_is_fixed_point(self):
        a = random_operator(3)
        herm = a.like(a.data + a.data.conj().T)
        assert_allclose(
            adjoint_m(herm, Metric.HERMITIAN).data, herm.data, rtol=0, atol=0
        )

    def test_beta_is_fixed_point_of_pseudo_adjoint(self):
        beta = BlockOperator(np.diag([1.0, 1.0, -1.0, -1.0]), 4, 1)
        assert_array_equal(adjoint_m(beta, Metric.BETA_PSEUDO).data, beta.data)

    def test_feshbach_villars_hamiltonian_is_pseudo_self_adjoint(self):
        h = feshbach_villars(1.0, 0.75).total
        assert_allclose(adjoint_m(h, Metric.BETA_PSEUDO).data, h.data, atol=1e-15)
        assert np.linalg.norm(h.data - h.data.conj().T) > 0.1  # not plain Hermitian

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), metric=st.sampled_from(list(Metric)))
    def test_adjoint_is_involution(self, seed, metric):
        a = random_operator(seed)
        twice = adjoint_m(adjoint_m(a, metric), metric)
        assert_array_equal(twice.data, a.data)


class TestSplit:
    def test_free_dirac_split(self):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        sigma_z = np.array([[1, 0], [0, -1]], dtype=complex)
        alpha_z = np.kron(np.array([[0, 1], [1, 0]]), sigma_z)
        assert_allclose(sp.even.data, np.zeros((4, 4)), atol=0)
        assert_allclose(sp.odd.data, 0.75 * alpha_z, atol=0)
        assert_allclose(sp.mass.data, np.eye(4), atol=0)

    def test_pure_mass_hamiltonian(self):
        h = BlockOperator(2.0 * np.diag([1.0, 1.0, -1.0, -1.0]), 4, 1)
        mass = BlockOperator(2.0 * np.eye(4), 4, 1)
        sp = split(h, mass, Metric.HERMITIAN)
        assert np.linalg.norm(sp.even.data) == 0.0
        assert np.linalg.norm(sp.odd.data) == 0.0

    def test_grid_model_split(self):
        from fwexact import dirac_1d

        n = 8
        length = 2.0 * np.pi
        sp = dirac_1d(1.0, n, length, lambda x: 0.3 * np.cos(2 * np.pi * x / length))
        x = np.arange(n) * (length / n)
        v = 0.3 * np.cos(2 * np.pi * x / length)
        assert_allclose(sp.even.data, np.kron(np.eye(4), np.diag(v)), atol=1e-15)
        # odd part is alpha_x (x) P: block-antidiagonal in the spinor grading
        b = beta_of(sp.odd)
        assert np.linalg.norm(b @ sp.odd.data + sp.odd.data @ b) <= 1e-14

    def test_non_self_adjoint_rejected(self):
        mass = BlockOperator(np.eye(2), 2, 1)
        h = BlockOperator(np.array([[0, 1], [0, 0]], dtype=complex), 2, 1)
        with pytest.raises(MetricViolationError, match="metric violation"):
            split(h, mass, Metric.HERMITIAN)

    def test_non_even_mass_rejected(self):
        mass = BlockOperator(np.array([[0, 1], [1, 0]], dtype=complex), 2, 1)
        h = BlockOperator(np.diag([1.0, -1.0]).astype(complex), 2, 1)
        with pytest.raises(StructureError, match="not even"):
            split(h, mass, Metric.HERMITIAN)

    def test_mass_block_structure_mismatch_rejected(self):
        mass = BlockOperator(np.eye(4), 4, 1)
        h = BlockOperator(np.diag([1.0, -1.0]).astype(complex), 2, 1)
        with pytest.raises(StructureError, match="block structure mismatch"):
            split(h, mass, Metric.HERMITIAN)

    def test_validate_reports_defects(self):
        sp = free_dirac(1.0, (0.1, 0.2, 0.3))
        defects = sp.validate()
        assert all(v >= 0.0 for v in defects.values())
        assert max(defects.values()) <= 1e-12

    def test_split_keeps_its_defects(self):
        sp = free_dirac(1.0, (0.1, 0.2, 0.3))
        assert sp.defects == sp.validate()
        assert sp.check(1e-12) == sp.defects

    def test_check_holds_kept_defects_to_the_tolerance(self):
        import dataclasses

        sp = free_dirac(1.0, (0.1, 0.2, 0.3))
        noisy = dataclasses.replace(sp, defects={**sp.defects, "self_adjoint_defect": 1e-9})
        assert noisy.check(1e-6)["self_adjoint_defect"] == 1e-9
        with pytest.raises(MetricViolationError, match="not self-adjoint"):
            noisy.check(1e-12)

    def test_two_axis_stack_reports_the_failing_point(self):
        # a (2, 2) stack of diag(1, -1) with one point not self-adjoint:
        # ||H - H^dag||_F / ||H||_F = sqrt(2) * 0.5 / 1.5 there
        h = np.broadcast_to(np.diag([1.0, -1.0]), (2, 2, 2, 2)).copy()
        h[1, 0, 0, 1] = 0.5
        mass = BlockOperator(np.broadcast_to(np.eye(2), (2, 2, 2, 2)), 2, 1)
        expected = f"{math.sqrt(2.0) * 0.5 / 1.5:.3e}"
        with pytest.raises(MetricViolationError, match=f"defect {expected}"):
            split(BlockOperator(h, 2, 1), mass, Metric.HERMITIAN)

    def test_check_validates_a_split_assembled_by_hand(self):
        from fwexact import SplitHamiltonian

        sp = free_dirac(1.0, (0.1, 0.2, 0.3))
        by_hand = SplitHamiltonian(sp.total, sp.mass, sp.metric)
        assert by_hand.defects == {}
        assert by_hand.check() == sp.defects


@st.composite
def random_split(draw):
    """A validated split of a stack of 1-2 random Hamiltonians, self-adjoint
    under a drawn metric (beta X with X Hermitian for the beta-pseudo
    one), with a random even mass of half their scale."""
    metric, stack = draw(st.sampled_from(list(Metric))), draw(st.integers(1, 2))
    internal_dim, copies = 2 * draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (stack, internal_dim * copies, internal_dim * copies)

    def gaussian():
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return BlockOperator(data, internal_dim, copies)

    x = gaussian()
    x = x.like(x.data + x.data.conj().swapaxes(-1, -2))
    h = x.like(x.signs[:, None] * x.data) if metric is Metric.BETA_PSEUDO else x
    mass = gaussian()
    return split(h, even_part(mass.like(mass.data / 2)), metric)


class TestSplitHoldsH:
    """A split holds the H it was given and its mass; the even and odd
    terms are read off H's parity blocks, and nothing re-sums them."""

    def test_building_a_model_joins_no_blocks(self, monkeypatch):
        from fwexact import ModelSpec
        from fwexact.blockop import _Parity

        joins = []
        original = _Parity.join

        def counted(self, blocks):
            joins.append(len(blocks))
            return original(self, blocks)

        monkeypatch.setattr(_Parity, "join", counted)
        sp = ModelSpec("dirac_1d", {"N": 16, "V1": 0.2}).build()
        assert joins == []

    def test_split_holds_the_given_h(self):
        h = BlockOperator(free_dirac(1.0, (0.1, 0.2, 0.3)).total.data, 4)
        sp = split(h, h.like(np.eye(4)), Metric.HERMITIAN)
        assert sp.total is h
        assert set(sp.defects) == {"mass_even_defect", "even_defect", "self_adjoint_defect"}
        assert all(type(v) is float for v in sp.defects.values())

    @settings(max_examples=40, deadline=None)
    @given(sp=random_split())
    def test_even_and_odd_are_read_off_the_parity_blocks(self, sp):
        h, mass = sp.total, sp.mass
        beta_mass = mass.like(mass.signs[:, None] * mass.data)
        even, odd = sp.even.blocks, sp.odd.blocks
        assert not odd.pp.any() and not odd.mm.any()
        assert_array_equal(even.pp, h.blocks.pp - beta_mass.blocks.pp)
        assert_array_equal(even.mm, h.blocks.mm - beta_mass.blocks.mm)
        residual = beta_mass.data + sp.even.data + sp.odd.data - h.data
        scale = np.linalg.norm(h.data, axis=(-2, -1))
        assert (np.linalg.norm(residual, axis=(-2, -1)) <= 1e-15 * scale).all()


class TestParityBlocks:
    """blocks splits rows and columns by the sign of beta; like_blocks
    scatters them back to the original layout."""

    @pytest.mark.parametrize("internal_dim, copies", [(4, 1), (2, 1), (4, 3), (6, 2)])
    def test_blocks_follow_the_signs_of_beta(self, internal_dim, copies):
        a = random_operator(3, internal_dim, copies)
        signs = a.signs
        up, dn = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
        blocks = a.blocks
        assert_array_equal(blocks.pp, a.data[np.ix_(up, up)])
        assert_array_equal(blocks.pm, a.data[np.ix_(up, dn)])
        assert_array_equal(blocks.mp, a.data[np.ix_(dn, up)])
        assert_array_equal(blocks.mm, a.data[np.ix_(dn, dn)])
        assert_array_equal(a.like_blocks(*blocks).data, a.data)

    def test_stationary_blocks_are_views(self):
        a = random_operator(4)
        assert all(np.shares_memory(x, a.data) for x in a.blocks)

    def test_missing_blocks_are_zero(self):
        a = random_operator(5, 4, 3)
        b = beta_of(a)
        flipped = b @ a.data @ b
        assert_array_equal(
            a.like_blocks(None, a.blocks.pm, a.blocks.mp, None).data, (a.data - flipped) / 2
        )
        assert_array_equal(
            a.like_blocks(a.blocks.pp, None, None, a.blocks.mm).data, (a.data + flipped) / 2
        )


def gapped_block(seed, stack=()):
    """A 4x4 Hermitian block held upper first, beta plus a small random
    Hermitian coupling: gapped, with nonzero odd blocks."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(*stack, 4, 4)) + 1j * rng.normal(size=(*stack, 4, 4))
    return np.diag([1.0, 1.0, -1.0, -1.0]) + 0.1 * (z + z.conj().swapaxes(-1, -2))


def image(block):
    """beta B beta for a block held upper first."""
    beta = np.array([1.0, 1.0, -1.0, -1.0])
    return beta[:, None] * block * beta


def direct_sum(blocks):
    """The dense operator with each block (held upper first) on its own
    sector: sector j takes upper components 2j, 2j + 1 and lower
    components half + 2j, half + 2j + 1; a stack on leading axes."""
    half = 2 * len(blocks)
    data = np.zeros((*blocks[0].shape[:-2], 2 * half, 2 * half), dtype=complex)
    for j, b in enumerate(blocks):
        index = np.array([2 * j, 2 * j + 1, half + 2 * j, half + 2 * j + 1])
        data[..., index[:, None], index] = b
    return BlockOperator(data, 2 * half)


class TestBetaImageSectors:
    """A sector whose block is exactly beta B beta of an earlier block B,
    at every point of a stack, is held once, and dense() gives it back."""

    @staticmethod
    def layout(blocks):
        a = direct_sum(blocks)
        return a, a.in_sectors(fwexact.matfun.find_sectors(a.data))

    @pytest.mark.parametrize("pattern", [("a", "image"), ("a", "a", "image")])
    def test_image_is_held_once(self, pattern):
        a = gapped_block(1)
        blocks = [image(a) if p == "image" else a for p in pattern]
        dense, held = self.layout(blocks)
        assert held.data.shape == (1, 4, 4) and np.array_equal(held.data[0], a)
        assert held.weights.tolist() == [len(pattern)]
        assert held.images.tolist() == [p == "image" for p in pattern]
        assert np.array_equal(held.dense().data, dense.data)

    def test_stack_merges_only_when_every_point_is_an_image(self):
        a = gapped_block(2, (3,))
        dense, held = self.layout([a, image(a)])
        assert held.weights.tolist() == [2]
        assert np.array_equal(held.dense().data, dense.data)
        broken = image(a)
        broken[1] = gapped_block(3)
        dense, held = self.layout([a, broken])
        assert held.weights.tolist() == [1, 1] and held.images is None
        assert np.array_equal(held.dense().data, dense.data)

    def test_one_ulp_is_not_an_image(self):
        a = gapped_block(4)
        nudged = image(a)
        nudged[0, 2] = np.nextafter(nudged[0, 2].real, np.inf) + 1j * nudged[0, 2].imag
        dense, held = self.layout([a, nudged])
        assert held.weights.tolist() == [1, 1] and held.images is None
        assert np.array_equal(held.dense().data, dense.data)

    @staticmethod
    def transform(h):
        mass = BlockOperator(np.eye(h.side), h.internal_dim)
        return transform_stationary(split(h, mass, Metric.HERMITIAN), routes=True)

    def test_transform_matches_one_sector(self, monkeypatch):
        a = gapped_block(5)
        h = direct_sum([a, image(a)])
        held = self.transform(h)
        monkeypatch.setattr(fwexact.matfun, "find_sectors", lambda x: [np.arange(x.shape[-1])])
        whole = self.transform(h)
        assert held.diagnostics.keys() == whole.diagnostics.keys()
        for key, value in held.diagnostics.items():
            assert abs(value - whole.diagnostics[key]) <= 1e-15, key

    def test_s_scatters_to_minus_s_on_the_image(self):
        a = gapped_block(6)
        s = self.transform(direct_sum([a, image(a)])).s.data
        first, second = np.array([0, 1, 4, 5]), np.array([2, 3, 6, 7])
        assert np.abs(s[np.ix_(first, first)]).max() > 0.01
        # S is odd, so beta S beta = -S
        assert np.array_equal(s[np.ix_(second, second)], -s[np.ix_(first, first)])
