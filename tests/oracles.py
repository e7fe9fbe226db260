"""Full-size oracles for the identities of the exponential generator.

The transforms check exp(iS) = U and the doubling identities on probe
vectors (:func:`fwexact.expgen.exponential_defects`).  These oracles
compute the same defects exactly, from one decomposition of the whole
S, for the tests to hold the probe estimates against.
"""

import math

import numpy as np

from fwexact import BlockOperator, Metric, MetricViolationError, adjoint_m
from fwexact.blockop import first_failing
from fwexact.matfun import _decompose_general, _decompose_hermitian
from fwexact.verify import GeneratorResult


def exp_i(s: BlockOperator, metric: Metric) -> BlockOperator:
    """exp(iS) in the eigenbasis of S.

    S must be self-adjoint under ``metric``; the result is then
    metric-unitary.  For the beta-pseudo metric the spectrum of S may be
    complex (bosonic generators have imaginary eigenvalues), so the
    general decomposition is used.
    """
    defect = s.frobenius(s.data - adjoint_m(s, metric).data)
    i = first_failing(defect > 1e-8 * np.maximum(s.norm(), 1.0))
    if i is not None:
        raise MetricViolationError(
            f"generator is not self-adjoint under {metric.value}: "
            f"defect {np.ravel(defect)[i]:.3e}"
        )
    decompose = _decompose_hermitian if metric is Metric.HERMITIAN else _decompose_general
    return s.like(decompose(s.data, s.sectored).apply(lambda w: np.exp(1j * w)))


def exp_defect(exponential: BlockOperator, u: BlockOperator) -> float | np.ndarray:
    """||exponential - U||_F / ||U||_F, both in one layout."""
    return u.frobenius(exponential.data - u.data) / np.maximum(u.norm(), 1e-300)


def verify_exp_equivalence(g: GeneratorResult, u: BlockOperator, metric: Metric) -> float:
    """exp_equivalence_defect, ||exp(iS) - U||_F / ||U||_F, with exp(iS)
    from a full-size decomposition of S."""
    return exp_defect(exp_i(g.s, metric), u)


def doubling_defects(s: BlockOperator, lam: BlockOperator) -> dict[str, float | np.ndarray]:
    """sin2s_defect and cos2s_defect, the norms of
    sin 2S + i(beta lambda - lambda beta)/2 and
    cos 2S - (beta lambda + lambda beta)/2 over sqrt(n), with sin 2S and
    cos 2S from a full-size decomposition of S (``s`` and ``lam`` in one
    layout)."""
    w, v = np.linalg.eig(s.data)
    inverse = np.linalg.inv(v)

    def of_s(f):
        return (v * f(w)[..., None, :]) @ inverse

    signs = lam.signs
    beta_lam, lam_beta = signs[:, None] * lam.data, lam.data * signs
    root_n = math.sqrt(lam.side)
    return {
        "sin2s_defect": lam.frobenius(of_s(lambda x: np.sin(2 * x)) + 0.5j * (beta_lam - lam_beta))
        / root_n,
        "cos2s_defect": lam.frobenius(of_s(lambda x: np.cos(2 * x)) - 0.5 * (beta_lam + lam_beta))
        / root_n,
    }


def verify_trig_identities(g: GeneratorResult, lam: BlockOperator) -> dict[str, float]:
    """The doubling identities recomputed from g.s alone (see
    :func:`doubling_defects`)."""
    return doubling_defects(g.s, lam)


def oracle_defects(s: BlockOperator, lam: BlockOperator, u: BlockOperator, metric: Metric):
    """The three defects the probe chain estimates, exactly."""
    return {
        **doubling_defects(s, lam),
        "exp_equivalence_defect": exp_defect(exp_i(s, metric), u),
    }

