import csv
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fwexact.cli
import fwexact.eriksen
import fwexact.matfun
import fwexact.verify
from fwexact import BlockOperator, ModelSpec, dirac_1d, transform_stationary
from fwexact.cli import _IDENTITY_KEYS, _chunk_size, dump_matrix, load_matrix, main
from fwexact.errors import SpectralGapError


def run(argv):
    return main(argv)


class TestModelsList:
    def test_text_lists_all_models(self, capsys):
        assert run(["models", "list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "free_dirac",
            "dirac_1d",
            "feshbach_villars",
            "floquet_dirac_scalar",
            "floquet_dirac_vector",
        ):
            assert name in out

    def test_json_format(self, capsys):
        assert run(["models", "list", "--format", "json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert len(catalog) == 5
        assert catalog["free_dirac"]["kind"] == "stationary"

    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["models", "list", "--no-such-flag"])
        assert excinfo.value.code == 2

    def test_runs_as_python_m_fwexact(self):
        src = str(Path(fwexact.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
        done = subprocess.run(
            [sys.executable, "-m", "fwexact", "models", "list"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "dirac_1d  [stationary]" in done.stdout


class TestParser:
    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        built = Counter()
        original = fwexact.cli.build_parser

        def counted():
            built["parser"] += 1
            return original()

        monkeypatch.setattr(fwexact.cli, "build_parser", counted)
        fwexact.cli._parser.cache_clear()
        try:
            assert run(["models", "list"]) == 0
            assert run(["models", "list", "--format", "json"]) == 0
        finally:
            fwexact.cli._parser.cache_clear()
        assert built["parser"] == 1

    def test_dispatch_reaches_a_replaced_command(self, monkeypatch):
        # tracers wrap the cmd_* functions by replacing the module attribute
        seen = []
        monkeypatch.setattr(fwexact.cli, "cmd_transform", lambda args: seen.append(args) or 7)
        assert run(["transform", "--set", "model.name=free_dirac"]) == 7
        assert seen[0].set == ["model.name=free_dirac"]


class TestTransform:
    def test_free_dirac_report_and_dump(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--set", "model.params.m=1",
                "--set", "model.params.pz=0.75",
                "--set", f"output.dump_dir={tmp_path / 'dumps'}",
                "--report", str(report_path),
                "--dump",
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == "3"
        assert set(report["verdicts"].values()) == {"pass"}
        assert report["diagnostics"]["odd_norm"] <= 1e-10
        h_fw = load_matrix(tmp_path / "dumps" / "h_fw.csv")
        assert_allclose(np.diag(h_fw.data).real, [1.25, 1.25, -1.25, -1.25], atol=1e-12)

    def test_rest_case_unitary_is_identity(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--set", "model.params.m=1",
                "--set", f"output.dump_dir={tmp_path / 'dumps'}",
                "--report", str(report_path),
                "--dump",
            ]
        )
        assert code == 0
        u = load_matrix(tmp_path / "dumps" / "u.csv")
        s = load_matrix(tmp_path / "dumps" / "s.csv")
        assert_allclose(u.data, np.eye(4), atol=1e-12)
        assert np.linalg.norm(s.data) <= 1e-12

    def test_gapless_model_exits_3(self, tmp_path):
        # constant potential -1 drags the k = 0 upper branch to zero energy
        code = run(
            [
                "transform",
                "--set", "model.name=dirac_1d",
                "--set", "model.params.m=1",
                "--set", "model.params.N=8",
                "--set", "model.params.V0=-1",
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 3

    def test_config_file_with_overrides(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"name": "feshbach_villars", "params": {"m": 1.0, "p": 0.75}},
                    "output": {"report": str(tmp_path / "fv.json")},
                }
            )
        )
        assert run(["transform", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "fv.json").read_text())
        assert report["diagnostics"]["pseudo_unitarity_defect"] <= 1e-9
        # beta U = U^adj beta, measured in the metric form and bounded for bosons too
        assert report["diagnostics"]["eriksen_defect"] <= 1e-14
        assert report["verdicts"]["eriksen_defect"] == "pass"

    @pytest.mark.parametrize("momentum", [0.3, 0.75, 2.0, 3.0])
    def test_boson_eriksen_identity_is_measured_in_the_metric_form(self, tmp_path, momentum):
        # beta U = U^adj beta with U^adj = beta U^dag beta: the plain-adjoint
        # form read 0.04 to 1.2 here and was passed regardless
        report_path = tmp_path / "fv.json"
        argv = ["transform", "--set", "model.name=feshbach_villars"]
        argv += ["--set", f"model.params.p={momentum}", "--report", str(report_path)]
        assert run(argv) == 0
        report = json.loads(report_path.read_text())
        assert fwexact.cli._BOUND_BY_DIAGNOSTIC["eriksen_defect"] == "tol_identity"
        assert report["diagnostics"]["eriksen_defect"] <= 1e-14
        assert report["verdicts"]["eriksen_defect"] == "pass"

    def test_unknown_model_usage_error(self, tmp_path):
        code = run(
            ["transform", "--set", "model.name=bogus", "--report", str(tmp_path / "r.json")]
        )
        assert code == 2

    def test_every_diagnostic_has_a_verdict(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run(
            [
                "transform",
                "--set", "model.name=feshbach_villars",
                "--set", "model.params.p=0.75",
                "--report", str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        assert set(report["diagnostics"]) == set(report["verdicts"])

    def test_tolerance_failure_exits_4(self, tmp_path):
        code = run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--set", "model.params.pz=0.75",
                "--set", "tolerances.tol_identity=1e-30",
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 4

    def test_unwritable_report_exits_5(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--report", str(blocker / "sub" / "report.json"),
            ]
        )
        assert code == 5


class TestSweep:
    def test_dispersion_column(self, tmp_path):
        report_path = tmp_path / "sweep.json"
        code = run(
            [
                "sweep",
                "--set", "model.name=free_dirac",
                "--set", "model.params.m=1",
                "--set", "sweep.parameter=pz",
                "--set", "sweep.values=[0.25,0.5,0.75]",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].split(",")[0] == "parameter"
        dispersion = [float(line.split(",")[5]) for line in rows[1:]]
        assert_allclose(
            dispersion,
            [np.sqrt(1.0625), np.sqrt(1.25), 1.25],
            rtol=0,
            atol=1e-12,
        )
        report = json.loads(report_path.read_text())
        assert report["tables"] == [str(tmp_path / "sweep.csv")]

    def test_empty_sweep_single_row(self, tmp_path):
        code = run(
            [
                "sweep",
                "--set", "model.name=free_dirac",
                "--set", "model.params.pz=0.5",
                "--report", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + one row

    @pytest.mark.parametrize(
        "model, parameter, shown",
        [
            ("dirac_1d", "N", "32"),
            ("dirac_1d", "L", "6.2831853071795862"),
            ("free_dirac", "m", "1"),
            ("floquet_dirac_vector", "omega", "0.080000000000000002"),
        ],
    )
    def test_parameter_without_values_runs_at_the_model_value(
        self, tmp_path, capsys, model, parameter, shown
    ):
        # one row at the value transform runs (the default here)
        base = ["--set", f"model.name={model}"]
        code = run(["transform", *base, "--report", str(tmp_path / "t.json")])
        err = capsys.readouterr().err
        sweep = ["sweep", *base, "--set", f"sweep.parameter={parameter}"]
        assert run([*sweep, "--report", str(tmp_path / "s.json")]) == code
        assert capsys.readouterr().err == err
        assert code == 0
        rows = (tmp_path / "s.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith(f"{parameter},{shown},")
        transform = json.loads((tmp_path / "t.json").read_text())
        assert json.loads((tmp_path / "s.json").read_text())["diagnostics"] == transform["diagnostics"]

    def test_bare_number_is_one_value(self, tmp_path):
        code = run(
            [
                "sweep",
                "--set", "model.name=free_dirac",
                "--set", "sweep.parameter=pz",
                "--set", "sweep.values=0.5",
                "--report", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("pz,0.5,")

    def test_boson_identity_column_is_roundoff(self, tmp_path):
        # max_identity_defect takes every tol_identity key, eriksen_defect
        # included, in both metrics
        code = run(
            [
                "sweep",
                "--set", "model.name=feshbach_villars",
                "--set", "sweep.parameter=p",
                "--set", "sweep.values=[0.3,0.75,2.0]",
                "--report", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(row["value"]) for row in rows] == [0.3, 0.75, 2.0]
        assert all(float(row["max_identity_defect"]) <= 1e-12 for row in rows), rows

    def test_pseudo_metric_past_unit_doubling_norm_passes(self, tmp_path):
        # the feshbach_villars doubling argument is non-normal with an
        # imaginary spectrum (+-1.16i at p = 2.5): its 2-norm exceeds 1
        # although the arcsine clamp never acts
        report_path = tmp_path / "sweep.json"
        code = run(
            [
                "sweep",
                "--set", "model.name=feshbach_villars",
                "--set", "sweep.parameter=p",
                "--set", "sweep.values=[2.5,4.0]",
                "--set", "verify.routes=true",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        diagnostics = report["diagnostics"]
        tol_generator = report["config"]["tolerances"]["tol_generator"]
        assert diagnostics["clamp_excess"] == 0.0
        assert diagnostics["form_agreement_defect"] <= tol_generator
        assert diagnostics["exp_equivalence_defect"] <= tol_generator

    def test_non_numeric_value_usage_error(self, tmp_path):
        code = run(
            [
                "sweep",
                "--set", "model.name=free_dirac",
                "--set", "sweep.parameter=pz",
                "--set", "sweep.values=abc",
                "--report", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 2


def sweep_argv(tmp_path, model, params, parameter, values):
    argv = ["sweep", "--set", f"model.name={model}"]
    for key, value in params.items():
        argv += ["--set", f"model.params.{key}={value!r}"]
    argv += ["--set", f"sweep.parameter={parameter}"]
    argv += ["--set", "sweep.values=" + json.dumps(values)]
    return argv + ["--report", str(tmp_path / "sweep.json")]


class TestStackedSweep:
    """A sweep transforms runs of consecutive values as one stack when its
    parameter stacks, and point by point otherwise; its rows and
    worst-case diagnostics are those of per-point transforms."""

    CASES = {
        "free_dirac": ("free_dirac", {"m": 1.0}, "pz", np.linspace(0.05, 4.0, 9).tolist()),
        "feshbach_villars": (
            "feshbach_villars", {"m": 1.0}, "p", np.linspace(0.05, 4.0, 9).tolist()
        ),
        "dirac_1d": ("dirac_1d", {"N": 8}, "V1", [0.1, 0.2, 0.3]),
        "mixed_shapes": ("dirac_1d", {"V1": 0.2}, "N", [8, 16, 8]),
        "one_point": ("free_dirac", {}, "pz", [0.5]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_and_worst_match_per_point_transforms(self, tmp_path, case):
        model, params, parameter, values = self.CASES[case]
        assert run(sweep_argv(tmp_path, model, params, parameter, values)) == 0
        with open(tmp_path / "sweep.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert len(rows) == len(values)
        worst = {}
        for row, value in zip(rows, values):
            split = ModelSpec(model, {**params, parameter: value}).build()
            result = transform_stationary(split)
            diagnostics = {**split.check(), **result.diagnostics}
            for key, v in diagnostics.items():
                worst[key] = max(worst.get(key, 0.0), v)
            assert float(row["value"]) == value
            expected_max = max(diagnostics[k] for k in _IDENTITY_KEYS if k in diagnostics)
            assert abs(float(row["max_identity_defect"]) - expected_max) <= 1e-14
            assert abs(float(row["odd_norm"]) - diagnostics["odd_norm"]) <= 1e-14
            assert float(row["s_norm_2"]) == pytest.approx(result.s_norm, rel=1e-14, abs=1e-300)
            if model == "dirac_1d":
                assert math.isnan(float(row["dispersion"]))
            else:
                assert float(row["dispersion"]) == pytest.approx(result.h_fw_norm, rel=1e-14)
        assert report["diagnostics"].keys() == worst.keys()
        for key, v in worst.items():
            assert abs(report["diagnostics"][key] - v) <= 1e-14

    def test_timings(self, tmp_path):
        assert run(sweep_argv(tmp_path, "dirac_1d", {"V1": 0.2}, "N", [8, 16, 8])) == 0
        timings = json.loads((tmp_path / "sweep.json").read_text())["timings"]
        assert timings.keys() == {"build_ms", "transform_ms", "transform_calls"}
        assert timings["transform_calls"] == 3  # N does not stack: one call per point
        assert timings["build_ms"] > 0 and timings["transform_ms"] > 0

    def test_points_that_do_not_stack_are_built_as_they_run(self, tmp_path, monkeypatch):
        # each point of an N sweep is built when it runs, so the sweep
        # holds one model at a time
        events = []
        build, transform = ModelSpec.build, fwexact.cli.transform_stationary

        def spy_build(self):
            events.append("build")
            return build(self)

        def spy_transform(*args, **kwargs):
            events.append("transform")
            return transform(*args, **kwargs)

        monkeypatch.setattr(ModelSpec, "build", spy_build)
        monkeypatch.setattr(fwexact.cli, "transform_stationary", spy_transform)
        assert run(sweep_argv(tmp_path, "dirac_1d", {"V1": 0.2}, "N", [8, 16, 8])) == 0
        assert events == ["build", "transform"] * 3


class TestSweepChunks:
    def test_chunk_size(self):
        sides = (2, 4, 32, 128, 512, 1024)
        assert [_chunk_size(side) for side in sides] == [65536, 16384, 256, 16, 1, 1]


class TestSweepErrorReplay:
    """A failing sweep exits as its first failing point does alone."""

    def outcome(self, capsys, tmp_path, *args):
        code = run(sweep_argv(tmp_path, *args))
        return code, capsys.readouterr().err

    def test_build_failure(self, tmp_path, capsys):
        code, err = self.outcome(capsys, tmp_path, "feshbach_villars", {}, "m", [1, -1])
        assert code == 4
        assert (code, err) == self.outcome(capsys, tmp_path, "feshbach_villars", {}, "m", [-1])
        assert not (tmp_path / "sweep.json").exists()

    def test_second_point_of_a_stack_fails(self, tmp_path, capsys, monkeypatch):
        # V0 = -1 drags the k = 0 upper branch to zero energy
        original = fwexact.cli.transform_stationary
        stacks = []

        def spy(split_h, *args, **kwargs):
            stacks.append(split_h.mass.stack_shape)
            return original(split_h, *args, **kwargs)

        monkeypatch.setattr(fwexact.cli, "transform_stationary", spy)
        code, err = self.outcome(capsys, tmp_path, "dirac_1d", {"N": 8}, "V0", [0, -1, 0, -1])
        assert code == 3
        # the stack, then its points one at a time up to the first failure
        assert stacks == [(4,), (), ()]
        alone = self.outcome(capsys, tmp_path, "dirac_1d", {"N": 8}, "V0", [-1])
        assert (code, err) == alone

    def test_transform_failure_before_build_failure(self, tmp_path, capsys):
        # m = 1 with V0 = -1 has no gap (exit 3); m = -1 does not build (exit 4)
        code, err = self.outcome(capsys, tmp_path, "dirac_1d", {"N": 8, "V0": -1}, "m", [1, -1])
        assert code == 3
        assert (code, err) == self.outcome(
            capsys, tmp_path, "dirac_1d", {"N": 8, "V0": -1}, "m", [1]
        )


class TestModelValueErrors:
    """A parameter value the model cannot take exits 2 in the config and
    4 as a sweep's first failing point, as m = -1 does; an overflowing
    ||H||_F exits 4."""

    BAD = {
        "fractional_N": ("N", 8.7, "grid size must be an integer, got 8.7"),
        "zero_L": ("L", 0, "box length must be positive, got 0.0"),
        "negative_L": ("L", -3, "box length must be positive, got -3.0"),
        "negative_m": ("m", -1, "mass must be positive"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_config_value_is_usage_error(self, tmp_path, capsys, case):
        key, value, message = self.BAD[case]
        argv = ["transform", "--set", "model.name=dirac_1d", "--set", f"model.params.{key}={value}"]
        assert run([*argv, "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_sweep_value_fails_as_that_point(self, tmp_path, capsys, case):
        key, value, message = self.BAD[case]
        params = {} if key == "N" else {"N": 8}
        good = 16 if key == "N" else 1.5
        assert run(sweep_argv(tmp_path, "dirac_1d", params, key, [good, value, good])) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep.json").exists()

    def test_integral_float_grid_sizes_run(self, tmp_path):
        assert run(sweep_argv(tmp_path, "dirac_1d", {}, "N", [8.0, 16.0])) == 0
        with open(tmp_path / "sweep.csv", newline="") as handle:
            assert [row["value"] for row in csv.DictReader(handle)] == ["8", "16"]

    OVERFLOWING = {
        "1e308": ["transform", "model.name=free_dirac", "model.params.m=1e308"],
        "1e200": ["transform", "model.name=free_dirac", "model.params.m=1e200"],
        "scalar_drive": [
            "transform",
            "model.name=floquet_dirac_scalar",
            "model.params.m=1e200",
            "model.params.V1=0.2",
        ],
        "vector_drive": [
            "floquet",
            "model.name=floquet_dirac_vector",
            "model.params.pz=1e308",
            "model.params.px=1e308",
        ],
    }

    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_norm_exits_4(self, tmp_path, capsys, case):
        command, *assignments = self.OVERFLOWING[case]
        argv = [command, *(arg for a in assignments for arg in ("--set", a))]
        assert run([*argv, "--report", str(tmp_path / "r.json")]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Hamiltonian norm is not finite: ||H||_F = ")
        assert "nan" not in captured.out
        assert not (tmp_path / "r.json").exists()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--set", "model.params.foo=1"],
            ["sweep", "--set", "sweep.parameter=foo", "--set", "sweep.values=[1,2]"],
        ],
        ids=["transform", "sweep"],
    )
    def test_unknown_model_parameter_is_usage_error(self, tmp_path, capsys, argv):
        report = tmp_path / "report.json"
        code = run([*argv, "--set", "model.name=free_dirac", "--report", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'foo'" in err and "m, px, py, pz" in err
        assert not report.exists()

    @pytest.mark.parametrize(
        "command, assignment, message",
        [
            (
                "floquet",
                "floquet.sign=character",
                "unknown config key floquet.sign (not a key yet: the command line runs "
                "the quasienergy sign); floquet knows: nf, window",
            ),
            (
                "transform",
                "verify.bogus=1",
                "unknown config key verify.bogus; verify knows: routes",
            ),
            (
                "transform",
                "nosuch.key=3",
                "unknown config key 'nosuch'; sections: model, tolerances, output, "
                "sweep, floquet, verify",
            ),
            (
                "sweep",
                "output.reprot=x",
                "unknown config key output.reprot; output knows: report, dump, dump_dir",
            ),
        ],
    )
    def test_unknown_key_is_usage_error(self, tmp_path, capsys, command, assignment, message):
        name = "floquet_dirac_vector" if command == "floquet" else "free_dirac"
        report = tmp_path / "report.json"
        code = run(
            [command, "--set", f"model.name={name}", "--set", assignment, "--report", str(report)]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--set", "model.name=dirac_1d", "--set", "verify.routes=true"],
            [
                "sweep", "--set", "model.name=free_dirac",
                "--set", "sweep.parameter=pz", "--set", "sweep.values=[0.5,1.0]",
            ],
            [
                "floquet", "--set", "model.name=floquet_dirac_vector",
                "--set", "floquet.nf=[4,8]", "--set", "floquet.window=2",
            ],
        ],
        ids=["transform", "sweep", "floquet"],
    )
    def test_config_echo_loads_back_unchanged(self, tmp_path, argv):
        report = tmp_path / "report.json"
        assert run([*argv, "--report", str(report)]) == 0
        echo = json.loads(report.read_text())["config"]
        assert fwexact.cli.RunConfig.from_dict(echo).echo() == echo

    @pytest.mark.parametrize("command", ["floquet", "transform"])
    def test_empty_nf_is_usage_error(self, tmp_path, capsys, command):
        report = tmp_path / "report.json"
        code = run(
            [
                command,
                "--set", "model.name=floquet_dirac_vector",
                "--set", "floquet.nf=[]",
                "--report", str(report),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: floquet.nf") and "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("text", ["[1,nan]", "{1", "[0.25,"])
    def test_malformed_bracketed_value_is_not_valid_json(self, tmp_path, capsys, text):
        code = run(
            [
                "sweep",
                "--set", "model.name=free_dirac",
                "--set", "sweep.parameter=pz",
                "--set", f"sweep.values={text}",
                "--report", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_comma_list_still_parsed(self, tmp_path):
        code = run(
            [
                "sweep",
                "--set", "model.name=free_dirac",
                "--set", "sweep.parameter=pz",
                "--set", "sweep.values=0.25,0.5",
                "--report", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        assert len((tmp_path / "sweep.csv").read_text().strip().splitlines()) == 3


class TestFloquet:
    def test_static_model_passes(self, tmp_path):
        report_path = tmp_path / "floquet.json"
        code = run(
            [
                "floquet",
                "--set", "model.name=floquet_dirac_scalar",
                "--set", "model.params.m=1",
                "--set", "model.params.pz=0.5",
                "--set", "model.params.V1=0",
                "--set", "model.params.omega=0.1",
                "--set", "floquet.nf=[4,6]",
                "--set", "floquet.window=2",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        flo = report["floquet"]
        assert flo["odd_norm_lambda_naive"] <= 1e-10
        assert flo["odd_norm_lambda"] <= 1e-10
        assert [entry[0] for entry in flo["decay_table"]] == [4, 6]
        assert set(report["diagnostics"]) <= set(report["verdicts"])

    def test_vector_drive_ordering_holds(self, tmp_path):
        report_path = tmp_path / "floquet.json"
        code = run(
            [
                "floquet",
                "--set", "model.name=floquet_dirac_vector",
                "--set", "model.params.m=1",
                "--set", "model.params.pz=0.5",
                "--set", "model.params.A1=0.2",
                "--set", "model.params.omega=0.08",
                "--set", "floquet.nf=[6]",
                "--set", "floquet.window=3",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["verdicts"]["floquet_ordering"] == "pass"
        flo = report["floquet"]
        assert flo["odd_norm_lambda_naive"] > 10 * flo["odd_norm_lambda"]

    def test_window_warning_note(self, tmp_path, capsys):
        report_path = tmp_path / "floquet.json"
        code = run(
            [
                "floquet",
                "--set", "model.name=floquet_dirac_scalar",
                "--set", "model.params.m=1",
                "--set", "model.params.pz=0.5",
                "--set", "model.params.V1=0",
                "--set", "model.params.omega=0.1",
                "--set", "floquet.nf=[1]",
                "--set", "floquet.window=1",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert any("window equals truncation" in n for n in report["floquet"]["notes"])
        assert "window equals truncation" in capsys.readouterr().out

    def test_stationary_model_rejected(self, tmp_path):
        code = run(
            [
                "floquet",
                "--set", "model.name=free_dirac",
                "--report", str(tmp_path / "floquet.json"),
            ]
        )
        assert code == 2

    def test_degenerate_scalar_reference_exits_4(self, tmp_path):
        # at omega = 0.3 with nf = 8 the ladder folds copies past the gap
        # and the unitary's denominator is singular
        code = run(
            [
                "floquet",
                "--set", "model.name=floquet_dirac_scalar",
                "--set", "model.params.pz=0.5",
                "--set", "model.params.V1=0.2",
                "--set", "model.params.omega=0.3",
                "--set", "floquet.nf=[8]",
                "--set", "floquet.window=4",
                "--report", str(tmp_path / "floquet.json"),
            ]
        )
        assert code == 4

    def test_vector_drive_fold_exits_4_and_names_it(self, tmp_path, capsys):
        # 16 * 0.08 = 1.28 passes the gap sqrt(1.25) = 1.118 at the
        # largest order of the table
        code = run(
            [
                "floquet",
                "--set", "model.name=floquet_dirac_vector",
                "--set", "model.params.pz=0.5",
                "--set", "model.params.A1=0.2",
                "--set", "model.params.omega=0.08",
                "--set", "floquet.nf=[8,16]",
                "--set", "floquet.window=6",
                "--report", str(tmp_path / "floquet.json"),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "eriksen denominator degenerate" in err
        assert "Floquet ladder fold: nf*omega = 1.28 > gap" in err

    def test_quasienergy_resonance_exits_3(self, tmp_path):
        # omega = E/2 at p = 0 puts a ladder copy exactly at zero energy
        code = run(
            [
                "floquet",
                "--set", "model.name=floquet_dirac_scalar",
                "--set", "model.params.V1=0",
                "--set", "model.params.omega=0.5",
                "--set", "floquet.nf=[2]",
                "--set", "floquet.window=1",
                "--report", str(tmp_path / "floquet.json"),
            ]
        )
        assert code == 3


    def test_transform_passes_eps_clamp_to_generator(self, tmp_path, monkeypatch):
        original = fwexact.verify.generator_from_lambda
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("eps_clamp"))
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("fwexact")
                and getattr(module, "generator_from_lambda", None) is original
            ):
                monkeypatch.setattr(module, "generator_from_lambda", spy)
        code = run(
            [
                "transform",
                "--set", "model.name=floquet_dirac_vector",
                "--set", "model.params.pz=0.5",
                "--set", "model.params.A1=0.2",
                "--set", "model.params.omega=0.08",
                "--set", "floquet.nf=[4]",
                "--set", "tolerances.eps_clamp=3e-11",
                "--set", "verify.routes=true",
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        assert seen == [3e-11]


class TestMalformedConfigValues:
    """A malformed value is a usage error (exit 2), not a traceback or a
    structure error."""

    @pytest.mark.parametrize(
        "command, assignment",
        [
            ("floquet", "floquet.window=abc"),
            ("floquet", "floquet.window=-1"),
            ("transform", "model.params.m=abc"),
            ("transform", "model.params.pz=abc"),
            ("transform", "floquet=abc"),
            ("transform", "sweep=abc"),
            ("transform", "output=abc"),
            ("transform", "model=username"),
            ("sweep", "sweep.values=[1,2]"),
            ("transform", "output.dump=no"),
            ("transform", "output.dump=1"),
            ("transform", "output.report=7"),
            ("transform", "output.dump_dir=5"),
            ("transform", "verify=abc"),
            ("transform", "verify.routes=yes"),
            ("sweep", "verify.routes=1"),
            ("transform", "tolerances=abc"),
            ("transform", "tolerances.gap_tol=nan"),
            ("sweep", "tolerances.eps_clamp=true"),
            ("transform", "model.name=[1]"),
            ("sweep", "sweep.parameter=[1]"),
            # a falsy section is not an empty one
            ("transform", "verify=false"),
            ("transform", "tolerances=0"),
            ("transform", "output=[]"),
            ("transform", 'sweep=""'),
            # nor is falsy model.params
            ("transform", "model.params=false"),
            ("transform", "model.params=[]"),
        ],
    )
    def test_usage_error(self, tmp_path, capsys, command, assignment):
        name = "floquet_dirac_vector" if command == "floquet" else "free_dirac"
        code = run(
            [
                command,
                "--set", f"model.name={name}",
                "--set", assignment,
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 2
        assert assignment.partition("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_dump_string_in_a_config_file(self, tmp_path, capsys):
        # bool("false") is True: a string must not switch the dumps on
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "model": {"name": "free_dirac"},
                    "output": {"dump": "false", "dump_dir": str(tmp_path / "dumps")},
                }
            )
        )
        code = run(["transform", "--config", str(config), "--report", str(tmp_path / "r.json")])
        assert code == 2
        assert "output.dump 'false' is not true or false" in capsys.readouterr().err
        assert not (tmp_path / "dumps").exists()

    def test_dump_dir_not_a_string_with_dumping_on(self, tmp_path, capsys):
        code = run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--set", "output.dump_dir=5",
                "--dump",
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 2
        assert "output.dump_dir 5 is not a string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ("tolerances.gap_tol=nan", "tolerances.gap_tol 'nan' is not a finite number"),
            ("tolerances.gap_tol=abc", "tolerances.gap_tol 'abc' is not a finite number"),
            ("tolerances.gap_tol=NaN", "tolerances.gap_tol nan is not a finite number"),
            ("tolerances.tol_identity=true", "tolerances.tol_identity True is not a finite number"),
        ],
    )
    def test_tolerance_names_key_and_value(self, tmp_path, capsys, assignment, message):
        code = run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--set", assignment,
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 2
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_config_echo_runs_as_a_config(self, tmp_path):
        first = tmp_path / "first.json"
        assert run(
            [
                "transform",
                "--set", "model.name=free_dirac",
                "--set", "verify.routes=true",
                "--report", str(first),
            ]
        ) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(json.loads(first.read_text())["config"]))
        second = tmp_path / "second.json"
        assert run(["transform", "--config", str(config), "--report", str(second)]) == 0
        echoed = json.loads(second.read_text())["config"]
        assert echoed["verify"] == {"routes": True}
        assert echoed["output"] == {"report": str(second), "dump": False, "dump_dir": "dumps"}

    @pytest.mark.parametrize(
        "command, assignment", [("sweep", "sweep.values=abc"), ("floquet", "floquet.nf=abc")]
    )
    def test_bare_string_is_one_value(self, tmp_path, capsys, command, assignment):
        name = "floquet_dirac_vector" if command == "floquet" else "free_dirac"
        code = run(
            [
                command,
                "--set", f"model.name={name}",
                "--set", "sweep.parameter=pz",
                "--set", assignment,
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 2
        assert "'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, assignment, entry",
        [
            ("floquet", "floquet.nf=2.7", "2.7"),
            ("floquet", "floquet.nf=[true]", "True"),
            ("floquet", "floquet.nf=4,x", "'x'"),
            ("sweep", "sweep.values=true", "True"),
            ("sweep", "sweep.values=[true,2]", "True"),
            ("sweep", "sweep.values=[null]", "None"),
        ],
    )
    def test_list_entry_held_to_the_scalar_rules(
        self, tmp_path, capsys, command, assignment, entry
    ):
        # int() truncates 2.7 and float() takes a bool as 1.0; neither
        # may run a point
        name = "floquet_dirac_vector" if command == "floquet" else "free_dirac"
        code = run(
            [
                command,
                "--set", f"model.name={name}",
                "--set", "sweep.parameter=pz",
                "--set", assignment,
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == 2
        key = assignment.partition("=")[0]
        assert f"{key} entry {entry} is not" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "assignment, expected",
        [
            ("floquet.nf=4,8", [4, 8]),
            ("floquet.nf=[8,4,8]", [4, 8]),
            ("sweep.values=1,2", [1.0, 2.0]),
            ("sweep.values=[1,0.5]", [1.0, 0.5]),
        ],
    )
    def test_list_entries_parsed(self, assignment, expected):
        config = fwexact.cli.load_config(
            None, ["model.name=free_dirac", "sweep.parameter=pz", assignment]
        )
        key = assignment.partition("=")[0]
        parsed = config.floquet_nf if key == "floquet.nf" else config.sweep_values
        assert list(parsed) == expected
        assert all(type(v) is type(expected[0]) for v in parsed)


class TestSectorSearch:
    """The sectors of each decomposed Hamiltonian are found once.  K is
    written in the sector layout of its Fourier modes, so a Floquet
    transform searches only the d x d mode stack, and a Floquet run that
    stack once per K of its decay table and once for the naive operator,
    whose time samples and bands share K's layout; no search runs at the
    extended side.  dirac_1d writes H in its sector layout, so its
    transform searches none (with the cross-check routes and the dumps,
    which take U, S and lambda in the same layout, and with a potential
    that is not even)."""

    @staticmethod
    def searched(monkeypatch, tmp_path, command, assignments):
        sides = []
        find_sectors = fwexact.matfun.find_sectors

        def counted(a):
            sides.append(a.shape[-1])
            return find_sectors(a)

        monkeypatch.setattr(fwexact.matfun, "find_sectors", counted)
        argv = [command, "--report", str(tmp_path / "report.json")]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert run(argv) == 0
        return sides

    VECTOR_DRIVE = [
        "model.name=floquet_dirac_vector",
        "model.params.pz=0.5",
        "model.params.A1=0.2",
        "model.params.omega=0.03",
    ]

    def test_stationary_transform(self, tmp_path, monkeypatch):
        assignments = [
            "model.name=dirac_1d",
            "model.params.N=8",
            "model.params.V1=0.2",
            "verify.routes=true",
            "output.dump=true",
            f"output.dump_dir={tmp_path / 'dumps'}",
        ]
        assert self.searched(monkeypatch, tmp_path, "transform", assignments) == []

    def test_stationary_transform_of_a_potential_that_is_not_even(self, tmp_path, monkeypatch):
        length = 2.0 * np.pi

        def sine(self):
            return dirac_1d(1.0, 8, length, lambda x: 0.2 * np.sin(2 * np.pi * x / length))

        monkeypatch.setattr(ModelSpec, "build", sine)
        assignments = ["model.name=dirac_1d", "model.params.N=8"]
        assert self.searched(monkeypatch, tmp_path, "transform", assignments) == []

    def test_floquet_transform(self, tmp_path, monkeypatch):
        assignments = [*self.VECTOR_DRIVE, "floquet.nf=[4]", "verify.routes=true"]
        assert self.searched(monkeypatch, tmp_path, "transform", assignments) == [4]

    def test_floquet_run(self, tmp_path, monkeypatch):
        assignments = [*self.VECTOR_DRIVE, "floquet.nf=[4,6,8]", "floquet.window=2"]
        sides = self.searched(monkeypatch, tmp_path, "floquet", assignments)
        # the (3, 4, 4) mode stack for each K and for the naive operator at nf = 8
        assert sides == [4, 4, 4, 4]


class TestDecompositionCounts:
    """One decomposition call per kernel of a CLI transform: that of H
    (or K), then the half-size block kernels of the even operators; no
    spectral norm is taken, since every scale comes from known
    eigenvalues.  A reducible H is decomposed sector by sector, its
    sectors of one size in one call, and so is every later kernel.  A
    sweep decomposes the H of the points of each chunk in one stacked
    call."""

    DECOMPOSITIONS = ("eigh", "eig", "eigvalsh", "svd")

    def count(self, monkeypatch, argv):
        """Calls and matrices (the product of the leading axes) per
        decomposition and side, and the spectral norms taken; each
        decomposition's (routine, dtype, side) goes to ``self.inputs``."""
        calls, matrices = Counter(), Counter()
        self.inputs, self.eigh_inputs = set(), []
        linalg = np.linalg
        for name in self.DECOMPOSITIONS:
            original = getattr(linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                shape = np.shape(a)
                calls[_name, shape[-1]] += 1
                matrices[_name, shape[-1]] += math.prod(shape[:-2])
                self.inputs.add((_name, np.asarray(a).dtype.name, shape[-1]))
                if _name == "eigh":
                    self.eigh_inputs.append(np.array(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(linalg, name, counted)
        norm = linalg.norm

        def counted_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                calls["spectral_norm"] += 1
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(linalg, "norm", counted_norm)
        assert run(argv) == 0
        return calls, matrices

    @staticmethod
    def by_side(calls, side):
        return sum(n for key, n in calls.items() if isinstance(key, tuple) and key[1] == side)

    #: per model: config assignments; the decomposition of H (or K) as
    #: (routine, sector side, matrices); the sector side and matrices of
    #: each half-size block kernel; the half-size calls of the parent's
    #: default with every cross-check route.  dirac_1d (side 32) and the
    #: vector drive (side 36) split in two sectors, whose parity blocks
    #: split in two again; dirac_1d's two sectors are equal, the vector
    #: drive's are beta images of each other, and each pair is decomposed
    #: once.  feshbach_villars (side 2) is one sector.
    TRANSFORMS = {
        "dirac_1d": (
            ["model.name=dirac_1d", "model.params.N=8", "model.params.V1=0.2"],
            ("eigh", 16, 1),
            (8, 2),
            5,
        ),
        "floquet_dirac_vector": (
            [
                "model.name=floquet_dirac_vector",
                "model.params.pz=0.5",
                "model.params.A1=0.2",
                "model.params.omega=0.08",
                "floquet.nf=[4]",
            ],
            ("eigh", 18, 1),
            (9, 2),
            4,
        ),
        "feshbach_villars": (
            ["model.name=feshbach_villars", "model.params.p=0.75"],
            ("eig", 2, 1),
            (1, 2),
            5,
        ),
    }

    def transform_calls(self, tmp_path, monkeypatch, assignments):
        argv = ["transform", "--report", str(tmp_path / "report.json")]
        for assignment in assignments:
            argv += ["--set", assignment]
        calls, matrices = self.count(monkeypatch, argv)
        assert calls["spectral_norm"] == 0
        return calls, matrices

    def check_transform(self, tmp_path, monkeypatch, model, dtype="float64", assignments=()):
        # H (or K), then the denominator, which gives U and S, and U H
        # U^{-1}'s spectrum; the doubling identities and exp(iS) run on
        # probe vectors, with no decomposition of S^2
        model_assignments, (routine, side, count), (half, half_count), _ = self.TRANSFORMS[model]
        generators = []
        generator = fwexact.eriksen.generator

        def spy(*args, **kwargs):
            generators.append(generator(*args, **kwargs))
            return generators[-1]

        monkeypatch.setattr(fwexact.eriksen, "generator", spy)
        calls, matrices = self.transform_calls(
            tmp_path, monkeypatch, [*model_assignments, *assignments]
        )
        assert calls[routine, side] == 1 and matrices[routine, side] == count
        assert calls["eigh", half] == 1 and calls["eigvalsh", half] == 1
        assert matrices["eigh", half] == half_count
        assert matrices["eigvalsh", half] == half_count
        assert sum(calls.values()) == 3
        # the diagonal blocks of S^2 are -(iS)_{+-} (iS)_{-+} and -(iS)_{-+} (iS)_{+-}
        ((_, (t_pm, t_mp), _),) = generators
        square = -np.stack((t_pm @ t_mp, t_mp @ t_pm), axis=-3)
        for a in self.eigh_inputs:
            assert not (a.shape == square.shape and np.allclose(a, square, rtol=1e-12, atol=0))
        # every catalog H here is real (dirac_1d in its grid-parity basis):
        # each decomposition runs in float64
        dtypes = {(name, dtype_name) for name, dtype_name, _ in self.inputs}
        assert dtypes == {(routine, dtype), ("eigh", dtype), ("eigvalsh", dtype)}
        return json.loads((tmp_path / "report.json").read_text())

    def test_stationary_transform(self, tmp_path, monkeypatch):
        self.check_transform(tmp_path, monkeypatch, "dirac_1d")

    def test_floquet_transform(self, tmp_path, monkeypatch):
        self.check_transform(tmp_path, monkeypatch, "floquet_dirac_vector")

    def test_pseudo_metric_transform(self, tmp_path, monkeypatch):
        self.check_transform(tmp_path, monkeypatch, "feshbach_villars")

    def test_potential_that_is_not_even_runs_complex(self, tmp_path, monkeypatch):
        # V1 sin(2 pi x / L) is not even on the grid, so H is not real in
        # the grid-parity basis: the complex path runs, however loose the
        # structural tolerance, with the counts of the catalog potential
        length = 2.0 * np.pi

        def sine(self):
            return dirac_1d(1.0, 8, length, lambda x: 0.2 * np.sin(2 * np.pi * x / length))

        monkeypatch.setattr(ModelSpec, "build", sine)
        report = self.check_transform(
            tmp_path, monkeypatch, "dirac_1d", "complex128", ["tolerances.tol_struct=0.5"]
        )
        assert report["diagnostics"]["real_basis_defect"] > 1e-3
        assert set(report["verdicts"].values()) == {"pass"}

    @pytest.mark.parametrize("model", sorted(TRANSFORMS))
    def test_transform_with_routes(self, tmp_path, monkeypatch, model):
        assignments, (routine, side, _), (half, _), parent_half = self.TRANSFORMS[model]
        calls, _ = self.transform_calls(
            tmp_path, monkeypatch, [*assignments, "verify.routes=true"]
        )
        full, half_calls = calls[routine, side], self.by_side(calls, half)
        assert full == 1
        assert 3 < half_calls <= parent_half
        assert sum(calls.values()) == full + half_calls

    def test_floquet_run_decomposes_complex_only_at_sample_size(self, tmp_path, monkeypatch):
        # the vector drive at p = (0, 0, pz) has real modes: K, Lambda and the
        # naive operator are real, and only the 4x4 samples H(t) may be complex
        argv = ["floquet", "--report", str(tmp_path / "floquet.json")]
        for assignment in [*TestSectorSearch.VECTOR_DRIVE, "floquet.nf=[4,6,8]"]:
            argv += ["--set", assignment]
        calls, _ = self.count(monkeypatch, argv)
        assert calls["spectral_norm"] == 0
        complex_sides = [side for _, dtype, side in self.inputs if dtype == "complex128"]
        assert max(complex_sides, default=0) <= 4
        # the one distinct sector of each K, in float64
        assert {("eigh", "float64", side) for side in (18, 26, 34)} <= self.inputs

    def test_sweep_takes_no_spectral_norm(self, tmp_path, monkeypatch):
        calls, matrices = self.count(
            monkeypatch,
            [
                "sweep",
                "--set", "model.name=dirac_1d",
                "--set", "model.params.N=8",
                "--set", "sweep.parameter=V1",
                "--set", "sweep.values=[0.1,0.2,0.3]",
                "--report", str(tmp_path / "sweep.json"),
            ],
        )
        # three points of side 32, two equal sectors of side 16 each,
        # decomposed once per point; of the half-size blocks only the
        # denominator's, never those of S^2
        assert calls["eigh", 16] == 1
        assert matrices["eigh", 16] == 3
        assert calls["eigh", 8] == 1 and matrices["eigh", 8] == 3 * 2
        assert calls["spectral_norm"] == 0


class TestDenseAssembly:
    """The transforms build their operators in H's sector layout, and a
    result operator is assembled dense only when it is read, by a dump.
    A Floquet run and a Floquet transform assemble nothing: K and the
    naive operator are written in their layout, and the central-window
    odd norms take the window's rows and columns in each sector."""

    DIRAC = ["--set", "model.name=dirac_1d", "--set", "model.params.N=8"]

    @staticmethod
    def assemblies(monkeypatch, argv):
        """How many times each result operator (by its field name) and any
        other operator in a sector layout was assembled dense."""
        from fwexact.eriksen import FWResult

        built, assembled = {}, Counter()
        init, dense = FWResult.__init__, BlockOperator.dense

        def record(self, **fields):
            # the transforms pass every field by name; the operators are kept
            # alive here, so their ids stay theirs
            built.update({id(op): (name, op) for name, op in fields.items()})
            init(self, **fields)

        def counted(self):
            if self.sectored:
                assembled[built.get(id(self), ("other",))[0]] += 1
            return dense(self)

        monkeypatch.setattr(FWResult, "__init__", record)
        monkeypatch.setattr(BlockOperator, "dense", counted)
        assert run(argv) == 0
        return assembled

    def test_stationary_transform_assembles_nothing(self, tmp_path, monkeypatch):
        argv = ["transform", *self.DIRAC, "--report", str(tmp_path / "r.json")]
        assert self.assemblies(monkeypatch, argv) == {}

    def test_sweep_assembles_nothing(self, tmp_path, monkeypatch):
        argv = [
            "sweep", *self.DIRAC,
            "--set", "sweep.parameter=V1",
            "--set", "sweep.values=[0.1,0.2,0.3]",
            "--report", str(tmp_path / "sweep.json"),
        ]
        assert self.assemblies(monkeypatch, argv) == {}

    def test_dump_assembles_each_dumped_operator_once(self, tmp_path, monkeypatch):
        argv = [
            "transform", *self.DIRAC,
            "--dump", "--set", f"output.dump_dir={tmp_path / 'dumps'}",
            "--report", str(tmp_path / "r.json"),
        ]
        # sign_op is dumped as lambda; u_inverse is not dumped
        assert self.assemblies(monkeypatch, argv) == {"sign_op": 1, "u": 1, "h_fw": 1, "s": 1}

    @pytest.mark.parametrize("command", ["transform", "floquet"])
    def test_floquet_assembles_nothing(self, tmp_path, monkeypatch, command):
        assignments, *_ = TestDecompositionCounts.TRANSFORMS["floquet_dirac_vector"]
        argv = [command, "--report", str(tmp_path / "r.json")]
        for assignment in [*assignments, "floquet.nf=[4,6]"]:
            argv += ["--set", assignment]
        assert self.assemblies(monkeypatch, argv) == {}


class TestBuildCounts:
    """A stationary transform builds and validates its split once, and a
    sweep once per chunk: its points are built as one stack."""

    def test_one_build_and_validate_per_transform_and_sweep_chunk(self, tmp_path, monkeypatch):
        from fwexact.blockop import SplitHamiltonian

        calls = Counter()
        for owner, name in ((SplitHamiltonian, "validate"), (ModelSpec, "build")):
            original = getattr(owner, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        base = ["--set", "model.name=dirac_1d", "--set", "model.params.N=8"]
        assert run(["transform", *base, "--report", str(tmp_path / "t.json")]) == 0
        assert calls == {"build": 1, "validate": 1}
        sweep = [
            "--set", "sweep.parameter=V1",
            "--set", "sweep.values=[0.1,0.2,0.3]",
            "--report", str(tmp_path / "s.json"),
        ]
        assert run(["sweep", *base, *sweep]) == 0
        assert calls == {"build": 1 + 1, "validate": 1 + 1}


HEADER_2 = "# rows=2 cols=2 internal_dim=2 floquet_copies=1\n"


class TestMatrixDump:
    def test_beta_dump_content(self, tmp_path):
        beta = BlockOperator(np.diag([1, 1, -1, -1]), 4)
        path = dump_matrix(beta, tmp_path / "beta.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# rows=4 cols=4 internal_dim=4 floquet_copies=1"
        assert lines[1].split(",")[0] == "1+0j"
        assert lines[3].split(",")[2] == "-1+0j"

    @pytest.mark.parametrize(
        "command, model, dump",
        [
            ("sweep", "free_dirac", ["--dump"]),
            ("sweep", "free_dirac", ["--set", "output.dump=true"]),
            ("floquet", "floquet_dirac_vector", ["--dump"]),
            ("floquet", "floquet_dirac_vector", ["--set", "output.dump=true"]),
        ],
    )
    def test_dump_rejected_outside_transform(self, tmp_path, capsys, command, model, dump):
        report = tmp_path / "report.json"
        code = run(
            [command, "--set", f"model.name={model}", *dump, "--report", str(report)]
        )
        assert code == 2
        assert f"the {command} command writes no matrix dumps" in capsys.readouterr().err
        assert not report.exists()

    def test_bytes_match_per_entry_format(self, tmp_path):
        # signed zeros, the smallest subnormal, huge and integral entries
        rng = np.random.default_rng(5)
        data = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        data[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
        data[1, 1] = complex(5e-324, -2.2250738585072014e-308)
        data[2, 2] = complex(1e300, -1.7976931348623157e308)
        data[3, 3] = complex(-1.0, 3.0)
        original = BlockOperator(data, 2, 3)
        path = dump_matrix(original, tmp_path / "m.csv")
        expected = ["# rows=6 cols=6 internal_dim=2 floquet_copies=3"] + [
            ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in data
        ]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        loaded = load_matrix(path)
        assert loaded.data.tobytes() == original.data.tobytes()

    @pytest.mark.parametrize(
        "content, line",
        [
            ("", 1),
            ("\n\n", 1),
            ("rows=2 cols=2\n1+0j,0+0j\n0+0j,1+0j\n", 1),
            (HEADER_2 + "1+0j,abc\n0+0j,1+0j\n", 2),
            (HEADER_2 + "1+0j,0+0j\n0+0j,1+0j,0+0j\n", 3),
            (HEADER_2 + "1+0j,0+0j\n0+0j\n", 3),
            (HEADER_2.replace("internal_dim=2", "internal_dim=4") + "1+0j,0+0j\n" * 2, 1),
        ],
        ids=["empty", "blank", "no-header", "not-complex", "long-row", "short-row", "tags"],
    )
    def test_malformed_dump_names_path_and_line(self, tmp_path, content, line):
        path = tmp_path / "m.csv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(fwexact.cli.UsageError, match=f"line {line}: ") as info:
            load_matrix(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_dump_missing_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(HEADER_2 + "1+0j,0+0j\n", encoding="utf-8")
        with pytest.raises(fwexact.cli.UsageError, match="1 body rows, header says rows=2"):
            load_matrix(path)

    @pytest.mark.parametrize(
        "params",
        [
            {"name": "dirac_1d", "params": {"N": 16, "V1": 0.2}},
            {"name": "free_dirac", "params": {"pz": 0.75}},
        ],
        ids=["dirac_1d", "free_dirac"],
    )
    def test_real_path_dumps_are_grid_basis(self, tmp_path, params):
        # the chain ran in float64 (dirac_1d in its grid-parity basis); the
        # dumps are the complex grid-basis operators, and u H u^dag of the
        # model's own H is the dumped h_fw
        spec = ModelSpec(params["name"], params["params"])
        assert fwexact.matfun.in_sectors(spec.build().h).data.dtype == np.float64
        argv = ["transform", "--dump", "--set", f"output.dump_dir={tmp_path / 'dumps'}"]
        argv += ["--set", f"model.name={params['name']}"]
        for key, value in params["params"].items():
            argv += ["--set", f"model.params.{key}={value}"]
        assert run([*argv, "--report", str(tmp_path / "r.json")]) == 0
        dumps = {name: tmp_path / "dumps" / f"{name}.csv" for name in ("lambda", "u", "h_fw", "s")}
        for path in dumps.values():
            assert all(entry.endswith("j") for entry in path.read_text().splitlines()[1].split(","))
        u, h_fw = (load_matrix(dumps[name]).data for name in ("u", "h_fw"))
        h = spec.build().total.data
        assert np.abs(u @ h @ u.conj().T - h_fw).max() <= 1e-13 * np.abs(h_fw).max()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(123)
        data = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        original = BlockOperator(data, 4, 2)
        loaded = load_matrix(dump_matrix(original, tmp_path / "m.csv"))
        assert np.array_equal(loaded.data, original.data)
        assert loaded.internal_dim == 4
        assert loaded.floquet_copies == 2


class TestDeterminism:
    def test_reports_identical_modulo_timings(self, tmp_path):
        path = tmp_path / "report.json"
        args = [
            "transform",
            "--set", "model.name=free_dirac",
            "--set", "model.params.m=1",
            "--set", "model.params.pz=0.75",
            "--report", str(path),
        ]
        serialized = []
        for _ in range(2):
            assert run(args) == 0
            content = json.loads(path.read_text())
            content.pop("timings")
            serialized.append(json.dumps(content, sort_keys=True))
        assert serialized[0] == serialized[1]


class TestBlasThreadCounts:
    """A dirac_1d N = 128 transform (side 512) run at 1 and at 2 OpenBLAS
    threads: the same verdicts and keys, and every diagnostic within a
    band.  Measured on a 2-core OpenBLAS host: the diagnostics at
    roundoff (about 3e-15) differ by at most 3.3e-16 (spectrum_defect),
    and sqrt_h2_odd_norm (3.76e-3) by 3.5e-15 relative."""

    ABSOLUTE, RELATIVE = 1e-15, 1e-12

    @staticmethod
    def report(tmp_path, threads):
        src = str(Path(fwexact.__file__).resolve().parent.parent)
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", ""))),
            "OPENBLAS_NUM_THREADS": str(threads),
        }
        path = tmp_path / f"threads{threads}.json"
        argv = ["transform", "--report", str(path)]
        for assignment in ["model.name=dirac_1d", "model.params.N=128", "model.params.V1=0.2"]:
            argv += ["--set", assignment]
        done = subprocess.run(
            [sys.executable, "-m", "fwexact", *argv],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(path.read_text())

    def test_one_and_two_threads_agree_within_the_band(self, tmp_path):
        one, two = (self.report(tmp_path, threads) for threads in (1, 2))
        assert one["verdicts"] == two["verdicts"]
        assert one.keys() == two.keys()
        assert one["diagnostics"].keys() == two["diagnostics"].keys()
        for key, a in one["diagnostics"].items():
            b = two["diagnostics"][key]
            assert abs(a - b) <= self.ABSOLUTE + self.RELATIVE * max(abs(a), abs(b)), key


class TestExitCodes:
    """One planted failure per documented exit code: each is typed, maps
    to its code, and names the key, path or diagnostic that tripped it,
    with the number that tripped it where there is one."""

    FREE = ["--set", "model.name=free_dirac", "--set", "model.params.pz=0.75"]

    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys):
        assignments = ["model.name=free_dirac", "output.reprot=r.json"]
        with pytest.raises(fwexact.cli.UsageError):
            fwexact.cli.load_config(None, assignments)
        report = tmp_path / "r.json"
        argv = ["transform", "--report", str(report)]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key output.reprot;")
        assert not report.exists()

    def test_gap_exits_3_with_the_number_that_tripped_it(self, tmp_path, capsys):
        # V0 = -1 drags the k = 0 upper branch of m = 1 to zero energy
        assignments = ["model.name=dirac_1d", "model.params.N=8", "model.params.V0=-1"]
        config = fwexact.cli.load_config(None, assignments)
        timings = {"build_ms": 0.0, "transform_ms": 0.0}
        with pytest.raises(SpectralGapError) as raised:
            fwexact.cli._run(config, config.model, timings)
        report = tmp_path / "r.json"
        argv = ["transform", "--report", str(report)]
        for assignment in assignments:
            argv += ["--set", assignment]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {raised.value}\n"
        found = re.search(r"min \|eigenvalue\| = (\S+) <= .* = (\S+);", err)
        assert found is not None
        min_abs, bound = (float(g) for g in found.groups())
        assert min_abs <= bound
        assert not report.exists()

    def test_tolerance_exits_4_and_prints_the_reported_defect(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        argv = ["transform", *self.FREE, "--set", "tolerances.tol_identity=1e-30"]
        assert run([*argv, "--report", str(report_path)]) == 4
        out = capsys.readouterr().out
        report = json.loads(report_path.read_text())
        failing = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")}
        assert failing == {k for k, v in report["verdicts"].items() if v == "fail"}
        # each roundoff-level defect fails unless it reads exactly 0
        name = min(failing)
        value = report["diagnostics"][name]
        assert value > 1e-30
        assert f"FAIL {name} = {value:.6e}\n" in out

    def test_unwritable_dump_exits_5_and_names_the_path(self, tmp_path, capsys):
        # the dumps go out before the report: a directory where h_fw.csv
        # belongs stops the run with no report written
        blocked = tmp_path / "dumps" / "h_fw.csv"
        blocked.mkdir(parents=True)
        report = tmp_path / "r.json"
        argv = ["transform", *self.FREE, "--dump"]
        argv += ["--set", f"output.dump_dir={tmp_path / 'dumps'}", "--report", str(report)]
        assert run(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocked) in err
        assert not report.exists()
        assert sorted(p.name for p in (tmp_path / "dumps").iterdir()) == ["h_fw.csv"]


class TestReportWriter:
    """Every run command writes its report through one writer: the same
    six top-level keys plus the command's own, to ``<command>_report.json``
    unless ``--report`` or ``output.report`` names another path."""

    MODELS = {"transform": "free_dirac", "sweep": "free_dirac", "floquet": "floquet_dirac_vector"}
    SHARED = {"schema_version", "config", "diagnostics", "verdicts", "timings", "matrix_dumps"}

    @pytest.mark.parametrize(
        "command, own, written",
        [
            ("transform", set(), ["transform_report.json"]),
            ("sweep", {"tables"}, ["sweep_report.csv", "sweep_report.json"]),
            ("floquet", {"floquet"}, ["floquet_report.json"]),
        ],
    )
    def test_default_report_path_and_keys(
        self, tmp_path, monkeypatch, capsys, command, own, written
    ):
        monkeypatch.chdir(tmp_path)
        assert run([command, "--set", f"model.name={self.MODELS[command]}"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == written
        assert f"report written to {command}_report.json" in capsys.readouterr().out
        report = json.loads((tmp_path / f"{command}_report.json").read_text())
        assert set(report) == self.SHARED | own
        assert report["schema_version"] == "3"
        assert report["config"]["output"]["report"] is None

    def test_sweep_csv_header(self, tmp_path):
        argv = ["sweep", "--set", "model.name=free_dirac", "--set", "sweep.parameter=pz"]
        argv += ["--set", "sweep.values=[0.25,0.5]", "--report", str(tmp_path / "s.json")]
        assert run(argv) == 0
        header, *rows = (tmp_path / "s.csv").read_text().splitlines()
        assert header == (
            "parameter,value,max_identity_defect,odd_norm,s_norm_2,dispersion,dispersion_error"
        )
        assert [row.split(",")[:2] for row in rows] == [["pz", "0.25"], ["pz", "0.5"]]

    def test_null_section_is_left_out(self, tmp_path):
        report = tmp_path / "r.json"
        argv = ["transform", "--set", "model.name=free_dirac", "--set", "verify=null"]
        argv += ["--set", "tolerances=null", "--report", str(report)]
        assert run(argv) == 0
        config = json.loads(report.read_text())["config"]
        assert config["verify"] == {"routes": False}
        assert config["tolerances"] == asdict(fwexact.cli.Tolerances())

    def test_null_model_params_is_left_out(self, tmp_path):
        report = tmp_path / "r.json"
        argv = ["transform", "--set", "model.name=free_dirac", "--set", "model.params=null"]
        assert run([*argv, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["model"]["params"] == {}

    @pytest.mark.parametrize("command", ["transform", "sweep", "floquet"])
    def test_unwritable_report_exits_5_and_names_the_path(self, tmp_path, capsys, command):
        report = tmp_path / "report.json"
        report.mkdir()
        argv = [command, "--set", f"model.name={self.MODELS[command]}"]
        assert run([*argv, "--report", str(report)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(report) in err

    def test_unwritable_sweep_report_leaves_no_table(self, tmp_path):
        report = tmp_path / "rdir"
        report.mkdir()
        assert run(["sweep", "--set", "model.name=free_dirac", "--report", str(report)]) == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rdir"]
