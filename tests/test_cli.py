import csv
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fwexact.cli
import fwexact.verify
from fwexact import BlockOperator, Metric, ModelSpec, transform_stationary
from fwexact.cli import _IDENTITY_KEYS, _chunk_size, _chunks, dump_matrix, load_matrix, main


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
        assert report["schema_version"] == "2"
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
        assert report["verdicts"]["eriksen_defect"] == "pass"  # informational for bosons

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
    """A sweep transforms its points of one shape as one stack; its rows
    and worst-case diagnostics are those of per-point transforms."""

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
        assert timings["transform_calls"] == 2  # N = 8 twice in one stack, N = 16 alone
        assert timings["build_ms"] > 0 and timings["transform_ms"] > 0


class TestSweepChunks:
    def test_chunk_size(self):
        sides = (2, 4, 32, 128, 512, 1024)
        assert [_chunk_size(side) for side in sides] == [65536, 16384, 256, 16, 1, 1]

    def test_points_group_by_shape_in_value_order(self):
        h, p = Metric.HERMITIAN, Metric.BETA_PSEUDO
        keys = [(32, h), (64, h), (32, h), None, (32, p), (512, h), (512, h), (32, h)]
        assert _chunks(keys) == [[0, 2, 7], [1], [3], [4], [5], [6]]

    def test_groups_split_at_the_chunk_size(self):
        assert _chunks([(256, Metric.HERMITIAN)] * 9) == [[0, 1, 2, 3], [4, 5, 6, 7], [8]]


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

    @pytest.mark.parametrize("m", ["1e308", "1e200"])
    def test_overflowing_norm_exits_4(self, tmp_path, capsys, m):
        argv = ["transform", "--set", "model.name=free_dirac", "--set", f"model.params.m={m}"]
        assert run([*argv, "--report", str(tmp_path / "r.json")]) == 4
        assert capsys.readouterr().err.startswith("error: Hamiltonian norm is not finite")


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


class TestDecompositionCounts:
    """One full-size decomposition per CLI transform, that of H (or K);
    every later kernel is a half-size block decomposition, and no
    spectral norm is taken, since every scale comes from known
    eigenvalues.  A sweep decomposes the H of all its points of one
    shape in one stacked call."""

    DECOMPOSITIONS = ("eigh", "eig", "eigvalsh", "svd")

    @classmethod
    def count(cls, monkeypatch, argv):
        """Calls and matrices (the product of the leading axes) per
        decomposition and side, and the spectral norms taken."""
        calls, matrices = Counter(), Counter()
        linalg = np.linalg
        for name in cls.DECOMPOSITIONS:
            original = getattr(linalg, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                shape = np.shape(a)
                calls[_name, shape[-1]] += 1
                matrices[_name, shape[-1]] += math.prod(shape[:-2])
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

    #: (side, config assignments, half-size calls of the parent's
    #: default with every cross-check route) per model
    TRANSFORMS = {
        "dirac_1d": (32, ["model.name=dirac_1d", "model.params.N=8", "model.params.V1=0.2"], 6),
        "floquet_dirac_vector": (
            36,
            [
                "model.name=floquet_dirac_vector",
                "model.params.pz=0.5",
                "model.params.A1=0.2",
                "model.params.omega=0.08",
                "floquet.nf=[4]",
            ],
            5,
        ),
        "feshbach_villars": (2, ["model.name=feshbach_villars", "model.params.p=0.75"], 6),
    }

    def transform_calls(self, tmp_path, monkeypatch, assignments):
        argv = ["transform", "--report", str(tmp_path / "report.json")]
        for assignment in assignments:
            argv += ["--set", assignment]
        calls, _ = self.count(monkeypatch, argv)
        assert calls["spectral_norm"] == 0
        return calls

    def check_transform(self, tmp_path, monkeypatch, model):
        # H (or K), then the denominator, which gives U and S, S^2 for
        # the doubling identities and exp(iS), and U H U^{-1}'s spectrum
        side, assignments, _ = self.TRANSFORMS[model]
        calls = self.transform_calls(tmp_path, monkeypatch, assignments)
        assert self.by_side(calls, side) == 1
        assert calls["eigh", side // 2] == 2 and calls["eigvalsh", side // 2] == 1
        assert self.by_side(calls, side // 2) == 3
        assert sum(calls.values()) == 4

    def test_stationary_transform(self, tmp_path, monkeypatch):
        self.check_transform(tmp_path, monkeypatch, "dirac_1d")

    def test_floquet_transform(self, tmp_path, monkeypatch):
        self.check_transform(tmp_path, monkeypatch, "floquet_dirac_vector")

    def test_pseudo_metric_transform(self, tmp_path, monkeypatch):
        self.check_transform(tmp_path, monkeypatch, "feshbach_villars")

    @pytest.mark.parametrize("model", sorted(TRANSFORMS))
    def test_transform_with_routes(self, tmp_path, monkeypatch, model):
        side, assignments, parent_half = self.TRANSFORMS[model]
        calls = self.transform_calls(tmp_path, monkeypatch, [*assignments, "verify.routes=true"])
        full, half = self.by_side(calls, side), self.by_side(calls, side // 2)
        assert full == 1
        assert 3 < half <= parent_half
        assert sum(calls.values()) == full + half

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
        assert self.by_side(calls, 32) == 1
        assert self.by_side(matrices, 32) == 3
        assert calls["spectral_norm"] == 0


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
