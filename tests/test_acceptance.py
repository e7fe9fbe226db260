"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
criterion-by-criterion pass/fail lines.

Criterion 7 keeps its stated parameters (omega = 0.3, nf = 8,
window = 4, decay orders 4-12, drive amplitude 0.2, pz = 0.5) and
checks the two halves of the nonstationary claim that apply there:

* Past the ladder fold.  At omega = 0.3 the ladder pushes the |m| >= 4
  copies past the gap sqrt(1.25), so K / sqrt(K^2) gives folded copies
  of lower-block character Lambda = +1 and the denominator of the exact
  unitary is exactly singular (the default sign still raises that, see
  ``tests/test_floquet.py``).  The criterion uses the beta-character
  sign operator, ``lambda_capital(k, sign="character")``, which equals
  K / sqrt(K^2) below the fold and stays exact past it.
* The uniform scalar drive commutes with the instantaneous sign
  operator, so the naive operator is the exact one and no separation is
  promised: the criterion asserts that they coincide and that both
  transforms come out even.  The separation itself is asserted on the
  odd (vector) drive at the same omega and nf.

U is built from the exact sign of each truncated K, so U K U^-1 is even
to machine precision at every truncation order: the decay table is
asserted to be clean, not monotone.  Criterion 7b repeats the vector
drive at omega = 0.08, below the fold, with the default sign.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from fwexact import (
    Metric,
    adjoint_m,
    build_extended,
    demonstrate_nonevenness,
    dirac_1d,
    eriksen_unitary,
    eriksen_unitary_alt,
    feshbach_villars,
    free_dirac,
    floquet_dirac_scalar,
    floquet_dirac_vector,
    generator_from_lambda,
    lambda_capital,
    lambda_naive,
    sign_of,
    transform_stationary,
)
from fwexact.cli import main
from oracles import verify_exp_equivalence, verify_trig_identities


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:>3} [{description}]: FAIL ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>3} [{description}]: PASS ({elapsed:.2f} s)")


def catalog_sign_and_unitary():
    """(name, lambda, metric, U) for every catalog model at gapped
    parameters; Floquet models enter through their extended operator."""
    entries = []
    for name, split_h in (
        ("free_dirac", free_dirac(1.0, (0.0, 0.0, 0.75))),
        ("dirac_1d", dirac_1d(1.0, 32, 2 * np.pi, lambda x: 0.2 * np.cos(x))),
        ("feshbach_villars", feshbach_villars(1.0, 0.75)),
    ):
        lam = sign_of(split_h.total, split_h.metric)
        entries.append((name, lam, split_h.metric, eriksen_unitary(lam)))
    for name, model in (
        ("floquet_dirac_scalar", floquet_dirac_scalar(1.0, (0, 0, 0.5), 0.2, 0.1)),
        ("floquet_dirac_vector", floquet_dirac_vector(1.0, (0, 0, 0.5), 0.2, 0.1)),
    ):
        k = build_extended(model, 4)
        lam = lambda_capital(k)
        entries.append((name, lam, model.metric, eriksen_unitary(lam)))
    return entries


def test_criterion_1_free_dirac_exactness():
    with criterion(1, "free-Dirac exactness over momentum set"):
        start = time.perf_counter()
        for p in (0.25, 0.5, 0.75, 1.0, 2.0):
            sp = free_dirac(1.0, (0.0, 0.0, p))
            res = transform_stationary(sp)
            energy = math.sqrt(1.0 + p * p)
            beta = np.diag(res.h_fw.signs)
            defect = np.linalg.norm(res.h_fw.data - energy * beta) / energy
            assert defect <= 1e-10, f"p={p}: defect {defect:.3e}"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_eriksen_conditions_across_catalog():
    with criterion(2, "sign/unitary identities across the model catalog"):
        start = time.perf_counter()
        for name, lam, metric, u in catalog_sign_and_unitary():
            b, l, ud = np.diag(lam.signs), lam.data, u.data
            n = lam.side
            root_n = np.sqrt(n)
            eye = np.eye(n)
            bl, lb = b @ l, l @ b
            defects = {
                "lambda_sq": np.linalg.norm(l @ l - eye) / root_n,
                "products_commute": np.linalg.norm(bl @ lb - lb @ bl) / root_n,
                "anticomm_even": np.linalg.norm(b @ (bl + lb) - (bl + lb) @ b) / root_n,
                "metric_unitarity": np.linalg.norm(
                    ud @ adjoint_m(u, metric).data - eye
                )
                / root_n,
            }
            if metric is Metric.HERMITIAN:
                defects["grading_symmetry"] = (
                    np.linalg.norm(b @ ud - ud.conj().T @ b) / root_n
                )
            else:
                # bosonic substitute: beta-pseudo-unitarity
                defects["grading_symmetry"] = (
                    np.linalg.norm(b @ ud.conj().T @ b @ ud - eye) / root_n
                )
            worst = max(defects.values())
            assert worst <= 1e-10, f"{name}: {defects}"
        assert time.perf_counter() - start < 10.0


def test_criterion_3_form_equivalences():
    with criterion(3, "unitary forms, generator forms, exp(iS) = U"):
        for name, lam, metric, u in catalog_sign_and_unitary():
            u_alt = eriksen_unitary_alt(lam, metric)
            assert (
                np.linalg.norm(u_alt.data - u.data) / max(u.norm(), 1.0) <= 1e-10
            ), name
            g = generator_from_lambda(lam, metric)
            assert g.diagnostics["form_agreement_defect"] <= 1e-9, name
            assert verify_exp_equivalence(g, u, metric) <= 1e-9, name


def test_criterion_4_trig_identities():
    with criterion(4, "sine/cosine doubling identities"):
        for name, lam, metric, _ in catalog_sign_and_unitary():
            g = generator_from_lambda(lam, metric)
            checks = verify_trig_identities(g, lam)
            assert max(checks.values()) <= 1e-10, f"{name}: {checks}"


def test_criterion_5_generator_magnitude():
    with criterion(5, "generator magnitude against scalar arcsine"):
        sp = free_dirac(1.0, (0.0, 0.0, 0.75))
        lam = sign_of(sp.total, sp.metric)
        g = generator_from_lambda(lam, sp.metric)
        expected = 0.5 * math.asin(0.6)  # = 0.3217505543966422
        assert abs(np.linalg.norm(g.s.data, 2) - expected) <= 1e-10


def test_criterion_6_grid_model_evenness():
    with criterion(6, "grid model evenness and spectrum preservation"):
        start = time.perf_counter()
        sp = dirac_1d(1.0, 32, 2 * np.pi, lambda x: 0.2 * np.cos(x))
        res = transform_stationary(sp)
        assert res.diagnostics["odd_norm"] <= 1e-10
        assert res.diagnostics["spectrum_defect"] <= 1e-10
        assert time.perf_counter() - start < 30.0


def test_criterion_7_nonstationary_separation_as_stated():
    # past the ladder fold; see the module docstring for the sign choice
    # and for why the scalar drive is checked for coincidence
    with criterion(7, "naive-vs-extended separation past the fold at omega=0.3"):
        start = time.perf_counter()
        nf, window, decay_nfs = 8, 4, [4, 6, 8, 10, 12]
        scalar = floquet_dirac_scalar(1.0, (0.0, 0.0, 0.5), 0.2, 0.3)
        lam_chi = lambda_capital(build_extended(scalar, nf), sign="character")
        lam_toe = lambda_naive(scalar, nf)
        assert np.linalg.norm(lam_chi.data - lam_toe.data) <= 1e-10 * np.sqrt(
            lam_chi.side
        )
        rep = demonstrate_nonevenness(
            scalar, nf=nf, window=window, decay_nfs=decay_nfs, sign="character"
        )
        assert rep.odd_norm_lambda <= 1e-10
        assert rep.odd_norm_lambda_naive <= 1e-10
        assert all(v <= 1e-10 for _, v in rep.decay_table), rep.decay_table
        vector = floquet_dirac_vector(1.0, (0.0, 0.0, 0.5), 0.2, 0.3)
        rep = demonstrate_nonevenness(
            vector, nf=nf, window=window, decay_nfs=decay_nfs, sign="character"
        )
        assert rep.odd_norm_lambda <= 1e-10
        assert rep.odd_norm_lambda_naive > 10.0 * rep.odd_norm_lambda, (
            f"no separation: naive {rep.odd_norm_lambda_naive:.3e} vs "
            f"extended {rep.odd_norm_lambda:.3e}"
        )
        assert all(v <= 1e-10 for _, v in rep.decay_table), rep.decay_table
        assert time.perf_counter() - start < 120.0


def test_criterion_7b_nonstationary_separation_vector_drive():
    # the working counterpart: an odd drive at a resonance-free frequency
    with criterion("7b", "naive-vs-extended separation, vector drive at omega=0.08"):
        start = time.perf_counter()
        model = floquet_dirac_vector(1.0, (0.0, 0.0, 0.5), 0.2, 0.08)
        rep = demonstrate_nonevenness(
            model, nf=8, window=4, decay_nfs=[4, 6, 8, 10, 12]
        )
        assert rep.odd_norm_lambda <= 1e-10
        assert rep.odd_norm_lambda_naive > 10.0 * rep.odd_norm_lambda
        assert all(v <= 1e-10 for _, v in rep.decay_table)
        assert time.perf_counter() - start < 120.0


def test_criterion_8_pseudo_hermitian_mode():
    with criterion(8, "bosonic two-component transformation"):
        sp = feshbach_villars(1.0, 0.75)
        res = transform_stationary(sp)
        tau3 = np.diag([1.0, -1.0])
        assert np.linalg.norm(res.h_fw.data - 1.25 * tau3) / 1.25 <= 1e-9
        assert res.diagnostics["pseudo_unitarity_defect"] <= 1e-9


def test_criterion_9_static_limit_consistency():
    with criterion(9, "static limit: naive and extended operators coincide"):
        for model in (
            floquet_dirac_scalar(1.0, (0.0, 0.0, 0.5), 0.0, 0.1),
            floquet_dirac_vector(1.0, (0.0, 0.0, 0.5), 0.0, 0.1),
        ):
            nf = 8
            k = build_extended(model, nf)
            lam_ext = lambda_capital(k)
            lam_toe = lambda_naive(model, nf)
            assert np.linalg.norm(lam_ext.data - lam_toe.data) <= 1e-10 * np.sqrt(
                lam_ext.side
            )
            rep = demonstrate_nonevenness(model, nf=nf, window=4)
            assert rep.odd_norm_lambda_naive <= 1e-10
            assert rep.odd_norm_lambda <= 1e-10


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical reports modulo timings"):
        path = tmp_path / "report.json"
        args = [
            "transform",
            "--set", "model.name=dirac_1d",
            "--set", "model.params.m=1",
            "--set", "model.params.N=16",
            "--set", "model.params.V1=0.2",
            "--report", str(path),
        ]
        serialized = []
        for _ in range(2):
            assert main(args) == 0
            content = json.loads(path.read_text())
            content.pop("timings")
            serialized.append(json.dumps(content, sort_keys=True))
        assert serialized[0] == serialized[1]
