"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentadapt
from momentadapt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_zero_moments(self, tmp_path, capsys):
        f = tmp_path / "mom.csv"
        f.write_text("0.0\n0.0\n")
        code, out, _ = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == [0.0, 0.0]

    def test_truncnorm_round_trip(self, tmp_path, capsys):
        from momentadapt.basis import make_tensor_basis
        from momentadapt.densities import make_truncated_normal, moments

        mu = moments(make_truncated_normal(0.45, 0.15), make_tensor_basis(2, 1))
        f = tmp_path / "mom.csv"
        f.write_text(",".join(repr(float(v)) for v in mu.values) + "\n")
        code, out, _ = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-9

    def test_malformed_csv(self, tmp_path, capsys):
        f = tmp_path / "mom.csv"
        f.write_text("0.0,not-a-number\n")
        code, _, err = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1")
        assert code == 1
        assert ":1:2:" in err

    def test_wrong_length(self, tmp_path, capsys):
        f = tmp_path / "mom.csv"
        f.write_text("0.0\n")
        code, _, err = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1")
        assert code == 1

    def test_infeasible_exit_code(self, tmp_path, capsys):
        f = tmp_path / "mom.csv"
        f.write_text(f"{np.sqrt(3.0)},{np.sqrt(5.0)}\n")
        code, _, _ = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1")
        assert code == 2


class TestCertify:
    def test_section7_preset(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--preset", "section7")
        assert code == 0
        payload = json.loads(out)
        table = payload["section7_table"]
        assert abs(table["moment_coefficient"] - 84.6) <= 0.5
        assert abs(table["sampling_coefficient"] - 513.0) <= 2.0
        assert abs(table["minimal_k"] - 6.3e9) / 6.3e9 <= 0.02
        assert abs(table["vc_term"] - 2.95e-4) / 2.95e-4 <= 0.02

    def test_small_k_total_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--preset", "section7", "--k", "1000"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] is None
        sample_cond = next(
            c for c in payload["conditions"] if c["name"] == "sample_size"
        )
        assert sample_cond["ok"] is False

    def test_negative_epsilon(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--preset", "section7", "--epsilon", "-0.1"
        )
        assert code == 1

    def test_explicit_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "certify",
            "--k", "1e12", "--d", "6", "--m", "5", "--N", "5",
            "--c-inf", "5", "--c-r", "10", "--moment-distance", "1e-6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] is not None

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--k", "100")
        assert code == 1


class TestDistance:
    P = '{"type":"truncnorm","mean":0.4,"sigma":0.3}'
    Q = '{"type":"truncnorm","mean":0.6,"sigma":0.3}'

    def test_identical_specs_zero(self, capsys):
        for metric in ("l1", "kl", "moment-l1", "levy"):
            code, out, _ = run_cli(
                capsys, "distance", "--p", self.P, "--q", self.P, "--metric", metric
            )
            assert code == 0
            assert abs(json.loads(out)["value"]) <= 2e-6

    def test_l1_matches_library(self, capsys):
        from momentadapt.densities import make_truncated_normal
        from momentadapt.metrics import l1_distance

        expected = l1_distance(
            make_truncated_normal(0.4, 0.3), make_truncated_normal(0.6, 0.3)
        )
        code, out, _ = run_cli(
            capsys, "distance", "--p", self.P, "--q", self.Q, "--metric", "l1"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)

    def test_cmd_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "distance", "--p", self.P, "--q", self.Q, "--metric", "cmd"
        )
        assert code == 1

    def test_cmd_with_seed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "distance", "--p", self.P, "--q", self.Q,
            "--metric", "cmd", "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_unsupported_metric(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys, "distance", "--p", self.P, "--q", self.Q,
                "--metric", "wasserstein",
            )
        assert exc.value.code == 1

    def test_expfam_spec(self, capsys):
        spec = '{"type":"expfam","m":2,"N":1,"lambda":[0.3,-0.2]}'
        code, out, _ = run_cli(
            capsys, "distance", "--p", spec, "--q", spec, "--metric", "kl"
        )
        assert code == 0
        assert abs(json.loads(out)["value"]) <= 1e-12

    def test_bad_json(self, capsys):
        code, _, err = run_cli(
            capsys, "distance", "--p", "{broken", "--q", self.P, "--metric", "l1"
        )
        assert code == 1


class TestExperiment:
    def test_deterministic_files(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            code, _, _ = run_cli(
                capsys,
                "experiment", "theorem1-verify",
                "--trials", "5", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        name = "theorem1-verify-7"
        assert (out1 / f"{name}.csv").read_bytes() == (out2 / f"{name}.csv").read_bytes()
        assert (out1 / f"{name}.json").read_bytes() == (out2 / f"{name}.json").read_bytes()

    def test_section7_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "section7-repro")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "nope")
        assert code == 1
        assert "unknown experiment" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "levy-probe", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("t,levy,moment_l1")


class TestBasis:
    def test_dump_m2(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--m", "2")
        assert code == 0
        rows = json.loads(out)
        np.testing.assert_allclose(
            rows[1], [-np.sqrt(3.0), 2 * np.sqrt(3.0), 0.0], rtol=1e-12
        )

    def test_degree_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "basis", "--m", "99")
        assert code == 1


class TestParserBehavior:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("fit", "certify", "distance", "experiment", "basis"):
            assert sub in out

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])  # missing required arguments
        assert exc.value.code == 1

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "basis", "--m", "2"])
        assert exc.value.code == 1

    def test_error_reported_once(self):
        """An input error reaches stderr exactly once, in a fresh process
        where logging writes to the real stderr."""
        env = dict(os.environ, PYTHONPATH=str(Path(momentadapt.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "momentadapt.cli", "certify", "--k", "1000"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.count("missing required flags") == 1
