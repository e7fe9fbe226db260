"""The transforms make U and S by one route, from the one decomposition of
the Eriksen denominator; the cross-check routes of ``fwexact.verify``
run only on request (``routes=True``, config key ``verify.routes``)."""

import json
import math

import numpy as np
import pytest

from fwexact import (
    ModelSpec,
    eriksen_unitary,
    feshbach_villars,
    free_dirac,
    generator_from_lambda,
    transform_nonstationary,
    transform_stationary,
)
from fwexact.cli import main

ROUTE_KEYS = {
    "alt_form_defect",
    "form_agreement_defect",
    "denominator_commutator_defect",
    "clamp_excess",
}
#: The Floquet transform has no polar form check.
FLOQUET_ROUTE_KEYS = ROUTE_KEYS - {"alt_form_defect"}

STATIONARY = {
    "dirac_1d_N128": ModelSpec("dirac_1d", {"N": 128, "V1": 0.2}),
    **{
        f"feshbach_villars_p{p}": ModelSpec("feshbach_villars", {"p": p})
        for p in (0.05, 0.75, 2.5, 4.0)
    },
}
VECTOR_DRIVE = ModelSpec(
    "floquet_dirac_vector", {"pz": 0.5, "A1": 0.2, "omega": 0.03}
)


def assert_route_agreement(result, metric):
    """The transform's S against the canonical arcsine of the cross-check
    route, to 1e-13 sqrt(n); its U against eriksen_unitary of its dense
    sign operator, bit for bit, or to 1e-13 sqrt(n) where the transform
    held H in the real basis of a pair map (dirac_1d), since the dense
    sign operator runs in the grid basis."""
    paired = result._operators["sign_op"].pairs is not None  # before sign_op is read
    lam = result.sign_op
    reference = generator_from_lambda(lam, metric).s.data
    root_n = math.sqrt(lam.side)
    defect = np.linalg.norm(result.s.data - reference, axis=(-2, -1))
    assert np.all(defect <= 1e-13 * root_n), defect
    u = eriksen_unitary(lam).data
    if paired:
        defect = np.linalg.norm(result.u.data - u, axis=(-2, -1))
        assert np.all(defect <= 1e-13 * root_n), defect
    else:
        assert np.array_equal(result.u.data, u)


@pytest.mark.parametrize("name", sorted(STATIONARY))
def test_stationary_s_matches_the_canonical_arcsine(name):
    split = STATIONARY[name].build()
    assert_route_agreement(transform_stationary(split), split.metric)


def test_floquet_s_matches_the_canonical_arcsine():
    model = VECTOR_DRIVE.build()
    assert_route_agreement(transform_nonstationary(model, 8), model.metric)


def test_stacked_s_matches_the_canonical_arcsine():
    split = feshbach_villars(1.0, np.array([0.05, 0.75, 2.5, 4.0]))
    assert_route_agreement(transform_stationary(split), split.metric)


def test_rest_frame_generator_is_exactly_zero():
    # lambda = beta at p = 0: both denominator blocks are 4, h(0) = 1 and
    # lambda_{+-} = 0
    result = transform_stationary(free_dirac(1.0, (0.0, 0.0, 0.0)))
    assert not np.any(result.s.data)


@pytest.mark.parametrize(
    "spec",
    [ModelSpec("dirac_1d", {"N": 16, "V1": 0.2}), STATIONARY["feshbach_villars_p2.5"]],
    ids=["dirac_1d", "feshbach_villars"],
)
def test_routes_add_exactly_the_route_keys(spec):
    split = spec.build()
    default = transform_stationary(split).diagnostics
    routed = transform_stationary(split, routes=True)
    assert set(routed.diagnostics) - set(default) == ROUTE_KEYS
    assert set(default) <= set(routed.diagnostics)
    # the switch adds checks; it changes no operator
    assert np.array_equal(routed.s.data, transform_stationary(split).s.data)
    assert routed.diagnostics["clamp_excess"] == 0.0


def run_report(tmp_path, command, assignments, routes):
    report = tmp_path / f"{command}-{routes}.json"
    argv = [command, "--report", str(report)]
    for assignment in [*assignments, f"verify.routes={json.dumps(routes)}"]:
        argv += ["--set", assignment]
    assert main(argv) == 0
    return json.loads(report.read_text())


CLI_CASES = {
    "transform": (
        "transform",
        ["model.name=free_dirac", "model.params.pz=0.75"],
        ROUTE_KEYS,
    ),
    "sweep": (
        "sweep",
        ["model.name=feshbach_villars", "sweep.parameter=p", "sweep.values=[0.05,2.5,4.0]"],
        ROUTE_KEYS,
    ),
    "floquet_transform": (
        "transform",
        [
            "model.name=floquet_dirac_vector",
            "model.params.pz=0.5",
            "model.params.A1=0.2",
            "model.params.omega=0.08",
            "floquet.nf=[4]",
        ],
        FLOQUET_ROUTE_KEYS,
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_default_report_lacks_exactly_the_route_keys(tmp_path, case):
    command, assignments, route_keys = CLI_CASES[case]
    default = run_report(tmp_path, command, assignments, False)
    routed = run_report(tmp_path, command, assignments, True)
    assert default["schema_version"] == routed["schema_version"] == "3"
    for section in ("diagnostics", "verdicts"):
        assert set(routed[section]) - set(default[section]) == route_keys
        assert set(default[section]) <= set(routed[section])
    assert (default["config"]["verify"], routed["config"]["verify"]) == (
        {"routes": False},
        {"routes": True},
    )
