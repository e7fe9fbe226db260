"""Operators with a leading stack axis run through the same transform as
one operator: every result equals that of the per-operator transform,
and every check holds each operator of a stack to its own scale."""

import dataclasses

import numpy as np
import pytest

from fwexact import (
    BlockOperator,
    DomainError,
    EigendecompositionError,
    Metric,
    MetricViolationError,
    dirac_1d,
    feshbach_villars,
    free_dirac,
    transform_stationary,
)
from fwexact.blockop import frobenius
from fwexact.verify import arcsin_odd
from fwexact.matfun import EvenDecomposition, check_hermitian, check_involution, decompose_array

#: Per model: the builder of the split at one value, or of the stack of
#: splits at an array of values, and the values of a stack.
BUILDERS = {
    "free_dirac": (lambda pz: free_dirac(1.0, (0.0, 0.0, pz)), (0.05, 1.0, 4.0)),
    "feshbach_villars": (lambda p: feshbach_villars(1.0, p), (0.05, 2.5, 4.0)),
    # one potential row per point of a stack
    "dirac_1d": (
        lambda v1: dirac_1d(1.0, 8, 2 * np.pi, lambda x: np.asarray(v1)[..., None] * np.cos(x)),
        (0.1, 0.2, 0.3),
    ),
}


def stacked_split(name):
    build, values = BUILDERS[name]
    return build(np.array(values))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stacked_transform_matches_each_operator(name):
    build, values = BUILDERS[name]
    stacked = transform_stationary(stacked_split(name))
    for j, point in enumerate(values):
        single = transform_stationary(build(point))
        assert stacked.diagnostics.keys() == single.diagnostics.keys()
        for key, value in single.diagnostics.items():
            assert type(value) is float
            assert stacked.diagnostics[key].shape == (len(values),)
            assert abs(stacked.diagnostics[key][j] - value) <= 1e-14, key
        assert type(single.s_norm) is float and type(single.h_fw_norm) is float
        assert stacked.s_norm[j] == pytest.approx(single.s_norm, rel=1e-14, abs=1e-300)
        assert stacked.h_fw_norm[j] == pytest.approx(single.h_fw_norm, rel=1e-14)
        for part in ("sign_op", "u", "u_inverse", "h_fw", "s"):
            expected = getattr(single, part).data
            assert np.abs(getattr(stacked, part).data[j] - expected).max() <= 1e-14, part


def test_stacked_validate_holds_each_split_to_its_scale():
    m, pz = np.array([1.0, 1e6]), np.array([0.5, 5e5])
    stacked = free_dirac(m, (0, 0, pz))
    defects = stacked.validate()
    for j in range(2):
        for key, value in free_dirac(m[j], (0, 0, pz[j])).validate().items():
            assert defects[key][j] == pytest.approx(value, abs=1e-15)
    # an anti-Hermitian term of 1e-9 is tiny beside the large H (1e-15
    # relative), not beside the small one
    anti_hermitian = np.array([1e-9j, 0])[:, None, None] * np.eye(4)
    h = stacked.total
    broken = dataclasses.replace(stacked, h=h.like(h.data + anti_hermitian))
    with pytest.raises(MetricViolationError, match="not self-adjoint"):
        broken.validate()
    dataclasses.replace(stacked, h=h.like(h.data + anti_hermitian[::-1])).validate()


def random_hermitian(seed, side, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    return scale * (a + a.conj().T) / 2


class TestChecksPerMatrix:
    """A defect that a joint scale over the stack would hide raises, and a
    stack whose matrices each pass raises nothing."""

    def test_hermiticity(self):
        small = random_hermitian(1, 4)
        small[0, 1] += 1e-9
        stack = np.stack((random_hermitian(2, 4, 1e6), small))
        with pytest.raises(MetricViolationError, match="not Hermitian"):
            check_hermitian(stack)
        check_hermitian(stack[:1])

    def test_involution(self):
        lam = transform_stationary(stacked_split("free_dirac")).sign_op
        broken = lam.data.copy()
        broken[1] *= 1.0 + 1e-6
        defects = check_involution(lam, 1e-8)
        assert defects["lambda_sq_defect"].shape == (3,)
        with pytest.raises(DomainError, match="not an involution") as info:
            check_involution(lam.like(broken), 1e-8)
        expected = check_involution(lam.like(broken[1]), 1.0)["lambda_sq_defect"]
        assert f"{expected:.3e}" in str(info.value)

    def test_positive_definite_threshold(self):
        # joint threshold 1e-12 * 1e6 would reject the small eigenvalue 1e-7
        blocks = np.zeros((2, 2, 2, 2))
        blocks[0, :, 0, 0], blocks[0, :, 1, 1] = 1.0, 1e-7
        blocks[1, :, 0, 0], blocks[1, :, 1, 1] = 1e6, 1.0
        dec = EvenDecomposition.of(blocks[:, 0] + 0j, blocks[:, 1] + 0j)
        dec.positive(np.sqrt)
        blocks[0, 1, 1, 1] = -1e-7
        dec = EvenDecomposition.of(blocks[:, 0] + 0j, blocks[:, 1] + 0j)
        with pytest.raises(DomainError, match="min eigenvalue -1.000e-07"):
            dec.positive(np.sqrt)
        # within the threshold (1e-12 at that point) the eigenvalue is
        # roundoff: the message states the threshold, not its digits
        for low in (-1e-13, 0.0, 1e-13):
            blocks[0, 1, 1, 1] = low
            dec = EvenDecomposition.of(blocks[:, 0] + 0j, blocks[:, 1] + 0j)
            with pytest.raises(DomainError) as info:
                dec.positive(np.sqrt)
            assert str(info.value) == (
                "not positive definite: min eigenvalue within the threshold of zero "
                "(threshold 1.000e-12)"
            )

    def test_arcsine_clamp(self):
        pm = np.zeros((3, 1, 1), dtype=complex)
        pm[:, 0, 0] = [0.5, 1.0 + 1e-12, 0.25]
        arc_pm, arc_mp, excess = arcsin_odd(pm, pm.copy(), eps_clamp=1e-10)
        assert excess.shape == (3,) and excess[1] == pytest.approx(1e-12, rel=1e-3)
        assert arc_pm[0, 0, 0] == pytest.approx(np.arcsin(0.5))
        pm[2, 0, 0] = 1.0 + 1e-6
        with pytest.raises(DomainError, match="exceeds 1 by 1.000e-06"):
            arcsin_odd(pm, pm.copy(), eps_clamp=1e-10)

    def test_real_spectrum_under_the_pseudo_metric(self):
        # imaginary parts 1e-3 on a spectrum of 1e6 (relative 1e-9) and
        # 1e-7 on a spectrum of 1 (relative 1e-7, past the 1e-8 bound)
        def with_spectrum(real, imag):
            return np.array([[real + 1j * imag, 0], [0, -real - 1j * imag]])

        stack = np.stack((with_spectrum(1e6, 1e-3), with_spectrum(1.0, 1e-7)))
        decompose_array(stack[:1], Metric.BETA_PSEUDO)
        with pytest.raises(EigendecompositionError, match="imaginary part 1.000e-07"):
            decompose_array(stack, Metric.BETA_PSEUDO)

    def test_eigenbasis_condition(self):
        eps = 1e-10
        skewed = np.array([[1.0, 1.0], [0.0, 1.0 + eps]])
        stack = np.stack((np.diag([1.0, 2.0]), skewed)) + 0j
        decompose_array(stack[:1], Metric.BETA_PSEUDO)
        with pytest.raises(EigendecompositionError, match="ill-conditioned"):
            decompose_array(stack, Metric.BETA_PSEUDO)


def test_blocks_and_norms_per_matrix():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(3, 12, 12)) + 1j * rng.normal(size=(3, 12, 12))
    op = BlockOperator(data, 4, 3)
    assert op.stack_shape == (3,)
    assert np.array_equal(op.like_blocks(*op.blocks).data, data)
    for j in range(3):
        single = BlockOperator(data[j], 4, 3)
        for stacked_block, block in zip(op.blocks, single.blocks):
            assert np.array_equal(stacked_block[j], block)
        assert op.norm()[j] == pytest.approx(single.norm(), rel=1e-15)
        assert single.norm() == pytest.approx(np.linalg.norm(data[j]), rel=1e-15)
    assert type(frobenius(data[0])) is float
    # rows that are not contiguous take the real and imaginary parts
    assert frobenius(data[0].T) == pytest.approx(np.linalg.norm(data[0]), rel=1e-15)
