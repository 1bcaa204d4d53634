import csv
import json
import math

import pytest

from gammaratio.cli import EXIT_CHECK_FAILED, EXIT_INPUT_ERROR, EXIT_OK, main
from gammaratio.ratio import RatioSpec
from gammaratio.verification import LAPLACE_TOL


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def load_report(out_dir, spec_name, command):
    path = out_dir / spec_name / f"{command}.report"
    assert path.exists(), f"missing report {path}"
    return json.loads(path.read_text(encoding="utf-8"))


MIXED = {"name": "mixed", "A": [2, 3, 1], "a": [0.4, 2.4, 0.9], "B": [1, 5], "b": [2, 6]}
BERN = {"name": "bern", "A": [4, 2], "a": [0.7, 1.8], "B": [3, 1], "b": [0.6, 1.2]}
TRIVIAL = {"name": "trivial", "A": [1], "a": [1], "B": [1], "b": [1]}
INVERSE = {"name": "inverse", "A": [1], "a": [0], "B": [1], "b": [1]}
PAIRED = {"name": "paired", "A": [2, 3, 1.4], "a": [0.8, 8, 2.3], "B": [1, 2.4, 3], "b": [1.5, 7.8, 11]}


class TestClassifyCommand:
    def test_mixed_scale_report(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [MIXED], "commands": ["classify"]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        report = load_report(out, "mixed", "classify")
        assert report["results"]["classification"] == "LCM"
        assert report["results"]["derived"]["rho"] == pytest.approx(0.03456, abs=1e-5)

    def test_bernstein_report(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [BERN], "commands": ["classify"]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        report = load_report(out, "bern", "classify")
        assert report["results"]["classification"] == "BERNSTEIN_DERIVATIVE"
        statuses = {e["condition_id"]: e["status"] for e in report["results"]["evidence"]}
        assert statuses["NEC_A"] == "fails"

    def test_spec_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [MIXED], "commands": ["classify"]})
        out = tmp_path / "out"
        main(["--config", cfg, "--output", str(out)])
        report = load_report(out, "mixed", "classify")
        parsed = RatioSpec.from_dict(report["spec"])
        assert parsed == RatioSpec.from_dict(MIXED)


class TestVerifyMeasure:
    def test_trivial_passes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"specs": [INVERSE], "commands": ["verify-measure"], "grids": {"x": [0.5, 1.0, 2.0]}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        report = load_report(out, "inverse", "verify-measure")
        assert report["status"] == "ok"
        assert all(chk["passed"] for chk in report["checks"])
        laplace = report["checks"][0]
        assert laplace["check_id"] == "laplace_reconstruct"
        assert max(laplace["residuals"]) <= 1e-15

    def test_tolerance_scaling_forces_failure(self, tmp_path):
        # The Laplace residual of spec_paired is a quadrature residual well
        # above 1e-18; W = 1/x is reproduced to the last bit.
        cfg = write_config(
            tmp_path,
            {"specs": [PAIRED], "commands": ["verify-measure"], "grids": {"x": [1.0]}},
        )
        out = tmp_path / "out"
        code = main(["--config", cfg, "--output", str(out), "--tol-scale", "1e-12"])
        assert code == EXIT_CHECK_FAILED

    def test_identical_spec(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"specs": [TRIVIAL], "commands": ["verify-measure"], "grids": {"x": [1.0, 2.0]}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK

    def test_degenerate_report_fields(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"specs": [TRIVIAL], "commands": ["verify-measure"], "grids": {"x": [1.0, 2.0]}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--tol-scale", "3"]) == EXIT_OK
        laplace = load_report(out, "trivial", "verify-measure")["checks"][0]
        assert laplace["check_id"] == "laplace_reconstruct"
        assert laplace["notes"] == "degenerate point-mass measure at t=0; density part vanishes"
        assert laplace["sample_points"] == [1.0, 2.0]
        assert laplace["tolerance"] == LAPLACE_TOL * 3.0
        assert laplace["max_residual"] == max(laplace["residuals"]) == 0.0
        assert laplace["passed"] is True


class TestEvalH:
    def test_writes_csv_curve(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"specs": [INVERSE], "commands": ["eval-h"], "grids": {"x": [0.2, 0.5, 0.8]}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        csv_path = out / "inverse" / "eval-h.csv"
        raw = csv_path.read_bytes()
        assert b"\r\n" in raw
        rows = list(csv.reader(csv_path.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == ["x", "value", "error_estimate"]
        assert len(rows) == 4
        for row in rows[1:]:
            x, value, err = (float(v) for v in row)
            assert value == pytest.approx(1.0, abs=1e-9)
            assert err >= 0.0

    def test_error_recorded_for_unsupported_spec(self, tmp_path):
        # mu = -1 < 0: density evaluation is unsupported.
        bad = {"name": "bad", "A": [1], "a": [1], "B": [1], "b": [0]}
        cfg = write_config(tmp_path, {"specs": [bad], "commands": ["eval-h"]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_CHECK_FAILED
        report = load_report(out, "bad", "eval-h")
        assert report["status"] == "error"
        assert "mu" in report["error"]

    def test_overflowing_spec_does_not_stop_batch(self, tmp_path):
        # rho = 1000^1000 overflows a float: derive gives rho = inf, and the density
        # refuses the spec with a package error.
        big = {"name": "big", "A": [1000], "a": [0], "B": [1] * 1000, "b": [1] * 1000}
        cfg = write_config(
            tmp_path,
            {"specs": [big, INVERSE], "commands": ["eval-h"], "grids": {"x": [0.2, 0.5]}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_CHECK_FAILED
        report = load_report(out, "big", "eval-h")
        assert report["status"] == "error"
        assert report["error"].startswith("UnsupportedParameterError: density evaluation needs a finite rho")
        assert load_report(out, "inverse", "eval-h")["status"] == "ok"


class TestIdentitiesAndZeros:
    def test_identities_trivial(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [INVERSE], "commands": ["identities"]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        report = load_report(out, "inverse", "identities")
        ids = [chk["check_id"] for chk in report["checks"]]
        assert "meijer_integral_equation" in ids
        assert "fox_integral_equation" in ids

    def test_identities_unit_spec_at_small_x(self, tmp_path):
        spec = {"name": "linear", "A": [1], "a": [0], "B": [1], "b": [2]}
        cfg = write_config(tmp_path, {"specs": [spec], "commands": ["identities"], "grids": {"x": [1e-4]}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        checks = load_report(out, "linear", "identities")["checks"]
        assert [chk["check_id"] for chk in checks] == ["meijer_integral_equation", "fox_integral_equation"]
        assert all(chk["passed"] for chk in checks)

    def test_zeros_exploratory(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [INVERSE], "commands": ["zeros"]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        report = load_report(out, "inverse", "zeros")
        assert report["results"]["q_zero_count"] == 0

    def test_mc_moments_applicability(self, tmp_path):
        eligible = {"name": "elig", "A": [1, 2], "a": [0.5, 1.0], "B": [1, 2], "b": [1.5, 3.0]}
        cfg = write_config(
            tmp_path,
            {"specs": [eligible, MIXED], "commands": ["mc-moments"], "seed": 9,
             "grids": {"x": [1.5, 2.0]}},
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        assert load_report(out, "elig", "mc-moments")["status"] == "ok"
        assert load_report(out, "mixed", "mc-moments")["status"] == "not_applicable"


class TestDerivesPerJob:
    @pytest.mark.parametrize("spec, command", [(INVERSE, "identities"), (MIXED, "identities"),
                                               (PAIRED, "verify-measure")])
    def test_one_evaluator_per_job(self, tmp_path, monkeypatch, spec, command):
        # The handler shares one density evaluator between its checks, so a
        # job derives its spec at most twice: once for the job, once for the
        # evaluator.
        from gammaratio import cli, foxh, verification

        calls = []
        derive = foxh.derive

        def counted(spec):
            calls.append(spec)
            return derive(spec)

        for module in (cli, foxh, verification):
            monkeypatch.setattr(module, "derive", counted)
        cfg = write_config(tmp_path, {"specs": [spec], "commands": [command]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out)]) == EXIT_OK
        assert load_report(out, spec["name"], command)["status"] == "ok"
        assert 1 <= len(calls) <= 2


class TestDeterminism:
    def test_reports_identical_modulo_meta(self, tmp_path):
        payload = {
            "specs": [MIXED, BERN],
            "commands": ["classify", "zeros"],
            "seed": 123,
        }
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", cfg, "--output", str(out1), "--seed", "123"]) == EXIT_OK
        assert main(["--config", cfg, "--output", str(out2), "--seed", "123"]) == EXIT_OK
        for spec_name in ("mixed", "bern"):
            for command in ("classify", "zeros"):
                r1 = load_report(out1, spec_name, command)
                r2 = load_report(out2, spec_name, command)
                r1.pop("meta")
                r2.pop("meta")
                assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


class TestWriters:
    """The report and CSV writers format whole and write once; their bytes are those
    of json.dump and of csv.writer writing row by row into the file."""

    PAYLOAD = {
        "status": "ok",
        "results": {"value": 0.1, "estimate": math.inf, "parts": [-math.inf, math.nan, 2, None]},
        "checks": [
            {"check_id": "laplace", "max_residual": 1.5e-13, "passed": True, "points": [0.5, 1.0]},
            {"check_id": "mellin", "max_residual": math.nan, "passed": False, "nested": {"x": [[1, 2], []]}},
        ],
    }

    def test_report_bytes_equal_streamed_json(self, tmp_path):
        from gammaratio import cli

        cli._write_report(str(tmp_path), "identities", self.PAYLOAD)
        got = (tmp_path / "identities.report").read_bytes()
        expected = tmp_path / "expected.report"
        with open(expected, "w", encoding="utf-8") as fh:
            payload = {**self.PAYLOAD, "meta": json.loads(got)["meta"]}
            json.dump(cli._to_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        assert got == expected.read_bytes()
        assert b'"inf"' in got and b'"-inf"' in got and b'"nan"' in got

    def test_csv_bytes_equal_row_by_row_writer(self, tmp_path):
        from gammaratio import cli

        rows = [(0.02 * k, math.exp(-k) / 3.0, 1e-15 * k) for k in range(1, 50)]
        rows[3] = (rows[3][0], math.inf, "a, quoted\nfield")
        header = ["x", "value", "error_estimate"]
        cli._write_csv(str(tmp_path), "eval-h", header, rows)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        got = (tmp_path / "eval-h.csv").read_bytes()
        assert got == expected.read_bytes()
        assert got.count(b"\r\n") == 50


class TestInputValidation:
    def test_missing_config(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "--output", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(path), "--output", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [MIXED], "commands": ["explode"]})
        assert main(["--config", cfg, "--output", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_invalid_spec_field(self, tmp_path):
        bad = {"name": "bad", "A": [-1], "a": [0], "B": [1], "b": [1]}
        cfg = write_config(tmp_path, {"specs": [bad], "commands": ["classify"]})
        assert main(["--config", cfg, "--output", str(tmp_path)]) == EXIT_INPUT_ERROR

    def test_non_increasing_grid(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"specs": [MIXED], "commands": ["classify"], "grids": {"x": [2.0, 1.0]}},
        )
        assert main(["--config", cfg, "--output", str(tmp_path)]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("entry", [math.inf, math.nan, 10**400])
    def test_non_finite_grid_entry(self, tmp_path, capsys, entry):
        # json.load accepts Infinity, NaN and integers beyond the double range.
        cfg = write_config(
            tmp_path,
            {"specs": [MIXED], "commands": ["classify"], "grids": {"x": [0.5, entry]}},
        )
        assert main(["--config", cfg, "--output", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["max_nodes", "abscissa_c", "truncation_T"])
    def test_unknown_contour_field(self, tmp_path, capsys, field):
        cfg = write_config(
            tmp_path,
            {"specs": [MIXED], "commands": ["classify"], "contour": {field: 1.0}},
        )
        assert main(["--config", cfg, "--output", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert field in capsys.readouterr().err

    def test_missing_output(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [MIXED], "commands": ["classify"]})
        assert main(["--config", cfg]) == EXIT_INPUT_ERROR

    def test_command_override(self, tmp_path):
        cfg = write_config(tmp_path, {"specs": [MIXED], "commands": ["identities"]})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--output", str(out), "--command", "classify"]) == EXIT_OK
        assert (out / "mixed" / "classify.report").exists()
        assert not (out / "mixed" / "identities.report").exists()
