"""Every bounded diagnostic can fail.

For each key of ``cli._BOUND_BY_DIAGNOSTIC`` a defect of size EPS is
planted in the operator the diagnostic watches, only through the inputs
of the function that measures it.  The diagnostic must read EPS within a
factor of 10, in its own normalisation (a Frobenius norm over sqrt(n)
for an identity defect, a relative norm otherwise), and at most CLEAN on
the same inputs with nothing planted.  A diagnostic that read a constant
would fail its case.

A guard keeps the bounds and the cases in step: the bounded keys are
exactly the keys with a case, the catalog's CLI runs produce each of
them, and everything else they produce is named informational.
"""

import json
import math
from functools import cache

import numpy as np
import pytest

from fwexact import Metric, ModelSpec, feshbach_villars, free_dirac, transform_stationary
from fwexact.blockop import BlockOperator, SplitHamiltonian, adjoint_m, relative_odd_norm
from fwexact.cli import _BOUND_BY_DIAGNOSTIC, main
from fwexact.eriksen import _spectrum_defect
from fwexact.expgen import denominator_decomposition, exponential_defects, generator_defects
from fwexact.matfun import in_sectors, involution_defects
from fwexact.verify import alt_form_defect, arcsin_odd, generator_from_lambda, unitary_defects

EPS = 1e-6
CLEAN = 1e-13

#: Reported without a bound: what a model's real basis dropped, and the
#: odd part of sqrt(H^2), which vanishes only for a constant mass.
INFORMATIONAL = {"real_basis_defect", "sqrt_h2_odd_norm"}


@cache
def transformed(metric: Metric):
    """A split and its transform: free_dirac at a momentum that couples
    every component (Hermitian), feshbach_villars (beta-pseudo).  Both
    momenta are large enough that ||S||_F is not far below the floor 1
    of form_agreement_defect's scale."""
    if metric is Metric.HERMITIAN:
        sp = free_dirac(1.0, (0.6, -0.8, 1.0))
    else:
        sp = feshbach_villars(1.0, 2.0)
    return sp, transform_stationary(sp)


METRICS = (Metric.HERMITIAN, Metric.BETA_PSEUDO)


def unit(
    op: BlockOperator, blocks: str, seed: int, antihermitian: bool = False, rank_one: bool = False
) -> np.ndarray:
    """A random array of ``op.data``'s shape and dtype, zero outside the
    parity ``blocks`` named (of "pp", "pm", "mp", "mm"), with unit norm
    in ``op``'s layout; each block anti-Hermitian if asked, or the named
    blocks of one real rank-one matrix."""
    rng = np.random.default_rng(seed)
    if rank_one:
        x, y = rng.standard_normal((2, *op.data.shape[:-1]))
        outer = op.like(x[..., :, None] * y[..., None, :]).blocks
        named = (getattr(outer, b) if b in blocks.split() else None for b in outer._fields)
        x = op.like_blocks(*named).data
        return x / op.frobenius(x)
    parts = {}
    for name in blocks.split():
        shape = getattr(op.blocks, name).shape
        block = rng.standard_normal(shape)
        if np.iscomplexobj(op.data):
            block = block + 1j * rng.standard_normal(shape)
        if antihermitian:
            block = block - block.conj().swapaxes(-1, -2)
        parts[name] = block
    x = op.like_blocks(*(parts.get(name) for name in ("pp", "pm", "mp", "mm"))).data
    return x / op.frobenius(x)


def plus(op: BlockOperator, x: np.ndarray) -> BlockOperator:
    return op.like(op.data + x)


# ---------------------------------------------------------------------------
# the cases: each yields (clean, planted) readings of its key

PLANTED = {}


def case(*keys):
    def register(function):
        for key in keys:
            PLANTED[key] = lambda key=key: function(key)
        return function

    return register


@case("odd_norm")
def odd_blocks_of_h_fw(key):
    # ||odd(H_FW)||_F / ||H_FW||_F
    for metric in METRICS:
        h_fw = transformed(metric)[1].h_fw
        odd = EPS * h_fw.norm() * unit(h_fw, "pm mp", 1)
        yield relative_odd_norm(h_fw), relative_odd_norm(plus(h_fw, odd))


@case("eriksen_defect", "unitarity_defect", "pseudo_unitarity_defect")
def defect_of_u(key):
    # ||.||_F / sqrt(n) of beta U - U^adj beta, planted as U + i EPS / 2
    # (beta U gains i EPS beta / 2, U^adj beta loses as much), and of
    # U U^adj - 1 and U^adj U - 1, planted as (1 + EPS / 2) U
    for metric in METRICS:
        if key == "pseudo_unitarity_defect" and metric is Metric.HERMITIAN:
            continue
        u = transformed(metric)[1].u
        if key == "eriksen_defect":
            planted = plus(u, 0.5j * EPS * np.eye(u.side))
        else:
            planted = u.like((1.0 + 0.5 * EPS) * u.data)
        yield tuple(unitary_defects(x, adjoint_m(x, metric), metric)[key] for x in (u, planted))


@case("lambda_sq_defect", "sign_products_commute_defect")
def defect_of_lambda(key):
    # ||lambda^2 - 1||_F / sqrt(n), ||[beta lambda, lambda beta]||_F / sqrt(n)
    for metric in METRICS:
        lam = transformed(metric)[1].sign_op
        planted = plus(lam, EPS * math.sqrt(lam.side) * unit(lam, "pp pm mp mm", 3))
        yield involution_defects(lam)[key], involution_defects(planted)[key]


@case("alt_form_defect")
def polar_form_against_u(key):
    # ||U_polar - U||_F / ||U||_F
    for metric in METRICS:
        _, result = transformed(metric)
        lam, u = result.sign_op, result.u
        planted = plus(u, EPS * u.norm() * unit(u, "pp pm mp mm", 4))
        yield alt_form_defect(lam, u, metric), alt_form_defect(lam, planted, metric)


@cache
def grid_transform():
    """dirac_1d at N = 32 (side 128), whose half side passes the probe
    count: the chain runs on Gaussian probes."""
    return transform_stationary(ModelSpec("dirac_1d", {"N": 32, "V1": 0.2}).build())


def chain_plants():
    """(result, rank_one) per plant of the probe chain's cases: a dense
    plant in each metric's transform (2x2 blocks, identity probes), a
    dense and a rank-one plant in the grid model's."""
    for metric in METRICS:
        yield transformed(metric)[1], False
    for rank_one in (False, True):
        yield grid_transform(), rank_one


def chain_readings(key, result, lam, u):
    """``key`` from the probe chain of ``result``'s S, against ``lam`` and ``u``."""
    s = result.s
    return exponential_defects((1j * s.blocks.pm, 1j * s.blocks.mp), lam, u)[0][key]


@case("exp_equivalence_defect")
def exponential_against_u(key):
    # ||exp(iS) - U||_F / ||U||_F, estimated on the probes
    for result, rank_one in chain_plants():
        lam, u = result.sign_op, result.u
        planted = plus(u, EPS * u.norm() * unit(u, "pp pm mp mm", 4, rank_one=rank_one))
        yield chain_readings(key, result, lam, u), chain_readings(key, result, lam, planted)


@case("spectrum_defect")
def spectrum_of_h_fw(key):
    # largest shift of the sorted spectrum over the spectral radius of H:
    # every upper (positive) eigenvalue of H_FW moved by EPS times it
    for metric in METRICS:
        sp, result = transformed(metric)
        before = np.sort(np.linalg.eigvals(sp.total.data).real)
        scale = np.abs(before).max()
        h_fw = in_sectors(result.h_fw)
        upper = h_fw.blocks.pp.shape
        shift = EPS * scale * np.broadcast_to(np.eye(upper[-1]), upper)
        planted = plus(h_fw, h_fw.like_blocks(shift, None, None, None).data)
        yield _spectrum_defect(before, h_fw, scale)[0], _spectrum_defect(before, planted, scale)[0]


@case("hermiticity_defect")
def adjoint_of_s(key):
    # ||S - S^adj||_F / max(1, ||S||_F)
    for metric in METRICS:
        s = transformed(metric)[1].s
        pm, mp = s.blocks.pm, s.blocks.mp
        size = EPS * max(1.0, s.norm())
        planted = pm + size * s.like(unit(s, "pm", 5)).blocks.pm
        yield (
            generator_defects(pm, mp, metric)[key],
            generator_defects(planted, mp, metric)[key],
        )


@case("sin2s_defect", "cos2s_defect")
def doubling_identities(key):
    # ||sin 2S + i(beta lambda - lambda beta)/2||_F / sqrt(n) watches the odd
    # blocks of lambda, ||cos 2S - (beta lambda + lambda beta)/2||_F / sqrt(n)
    # the diagonal ones; both estimated on the probes
    for result, rank_one in chain_plants():
        lam, u = result.sign_op, result.u
        blocks = "pm mp" if key == "sin2s_defect" else "pp mm"
        planted = plus(lam, EPS * math.sqrt(lam.side) * unit(lam, blocks, 6, rank_one=rank_one))
        yield chain_readings(key, result, lam, u), chain_readings(key, result, planted, u)


@case("form_agreement_defect", "denominator_commutator_defect")
def form_a_on_a_planted_denominator(key):
    # form A and [M, D] read the denominator decomposition handed in: its
    # upper eigenvalues times (1 + EPS)^2 make D_{++} (1 + EPS) D_{++}
    for metric in METRICS:
        lam = in_sectors(transformed(metric)[1].sign_op)
        dec = denominator_decomposition(lam)
        upper = np.ones_like(dec.eigenvalues)
        upper[..., 0, :] = (1.0 + EPS) ** 2
        planted = dec._replace(eigenvalues=dec.eigenvalues * upper)
        yield (
            generator_from_lambda(lam, metric, dec=dec).diagnostics[key],
            generator_from_lambda(lam, metric, dec=planted).diagnostics[key],
        )


@case("clamp_excess")
def doubling_argument_past_one(key):
    # how far sqrt of the largest real eigenvalue of M^2 passes 1; only
    # a real spectrum has one, so the Hermitian metric
    lam = transformed(Metric.HERMITIAN)[1].sign_op
    pm, mp = 1j * lam.blocks.pm, -1j * lam.blocks.mp
    radius = math.sqrt(np.linalg.eigvalsh(pm @ mp).max())
    scale = (1.0 + EPS) / radius
    yield (
        arcsin_odd(pm, mp, 10 * EPS)[2],
        arcsin_odd(scale * pm, scale * mp, 10 * EPS)[2],
    )


@cache
def grid_split():
    """dirac_1d as written, in its real sector layout."""
    return ModelSpec("dirac_1d", {"N": 8, "V1": 0.2}).build()


@case("mass_even_defect", "even_defect", "self_adjoint_defect")
def structure_of_the_split(key):
    # ||[beta, mass]||_F / ||mass||_F and ||[beta, even]||_F / ||even||_F
    # watch the mass, ||H - H^adj||_F / ||H||_F watches H; validate raises
    # above its tol, so it is given one above EPS
    sp = grid_split()
    h, mass = sp.h, sp.mass
    if key == "self_adjoint_defect":
        h = plus(h, 0.5 * EPS * h.norm() * unit(h, "pp", 8, antihermitian=True))
    else:
        size = 0.5 * EPS * (mass.norm() if key == "mass_even_defect" else sp.even.norm())
        mass = plus(mass, size * unit(mass, "pm", 9))
    clean = SplitHamiltonian(sp.h, sp.mass, sp.metric).validate(1e-3)[key]
    yield clean, SplitHamiltonian(h, mass, sp.metric).validate(1e-3)[key]


@pytest.mark.parametrize("key", sorted(PLANTED))
def test_planted_defect_reads_eps(key):
    readings = list(PLANTED[key]())
    assert readings
    for clean, planted in readings:
        assert clean <= CLEAN, readings
        assert EPS / 10 <= planted <= 10 * EPS, readings


# ---------------------------------------------------------------------------
# the guard

CLI_RUNS = {
    "dirac_1d": ["model.params.N=8", "model.params.V1=0.2"],
    "feshbach_villars": ["model.params.p=0.75"],
    "floquet_dirac_vector": [
        "model.params.pz=0.5",
        "model.params.A1=0.2",
        "model.params.omega=0.08",
        "floquet.nf=[4]",
    ],
}


def test_bounds_and_planted_cases_are_the_same_keys():
    assert set(_BOUND_BY_DIAGNOSTIC) == set(PLANTED)


def test_the_catalog_produces_every_bounded_key_and_only_named_others(tmp_path):
    produced = set()
    for model, assignments in CLI_RUNS.items():
        for routes in ("false", "true"):
            report = tmp_path / f"{model}-{routes}.json"
            argv = ["transform", "--report", str(report), "--set", f"model.name={model}"]
            for assignment in [*assignments, f"verify.routes={routes}"]:
                argv += ["--set", assignment]
            assert main(argv) == 0
            produced |= set(json.loads(report.read_text())["diagnostics"])
    assert set(_BOUND_BY_DIAGNOSTIC) <= produced
    assert produced - set(_BOUND_BY_DIAGNOSTIC) <= INFORMATIONAL

