"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import momentadapt
from momentadapt.bounds import SECTION7, section7_values
from momentadapt.cli import main


def _non_standard_constant(name):
    raise ValueError(f"{name} is not standard JSON")


def run_cli(capsys, *argv):
    """Run the CLI in process; JSON on stdout must be standard JSON, without
    NaN or Infinity."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith(("{", "[")):
        json.loads(captured.out, parse_constant=_non_standard_constant)
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

    def test_nan_moment_rejected(self, tmp_path, capsys):
        f = tmp_path / "mom.csv"
        f.write_text("nan,0.1\n")
        code, _, _ = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1")
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, tmp_path, capsys, tol):
        f = tmp_path / "mom.csv"
        f.write_text("0.0\n0.0\n")
        code, out, err = run_cli(capsys, "fit", str(f), "--m", "2", "--N", "1", "--tol", tol)
        assert code == 1
        assert out == "" and "tolerance" in err

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

    def test_preset_is_flag_path_with_section7_values(self, capsys):
        """The preset fills the unset flags from SECTION7 and prints the
        certificate of the flag path, plus the worked table."""
        flags = []
        for name, value in SECTION7.items():
            flags += [f"--{name.replace('_', '-')}", repr(value)]
        _, preset_out, _ = run_cli(capsys, "certify", "--preset", "section7")
        code, flags_out, _ = run_cli(capsys, "certify", *flags)
        assert code == 0
        preset = json.loads(preset_out)
        table = {k: v for k, v in section7_values().items() if k != "constants"}
        assert preset.pop("section7_table") == table
        assert preset == json.loads(flags_out)

    def test_preset_honours_delta(self, capsys):
        """A flag given with the preset takes effect: halving delta doubles
        the required sample size."""

        def sample_size(out):
            payload = json.loads(out)
            return next(c for c in payload["conditions"] if c["name"] == "sample_size")

        _, base, _ = run_cli(capsys, "certify", "--preset", "section7")
        code, out, _ = run_cli(
            capsys, "certify", "--preset", "section7", "--delta", "0.1"
        )
        assert code == 0
        assert json.loads(out)["inputs"]["delta"] == 0.1
        assert sample_size(out)["required"] == pytest.approx(
            2.0 * sample_size(base)["required"], rel=1e-12
        )

    def test_section7_table_only_for_unmodified_preset(self, capsys):
        """The worked table holds the preset's own values, so it is left out
        when a flag changes the certificate."""
        _, out, _ = run_cli(capsys, "certify", "--preset", "section7", "--delta", "0.1")
        assert "section7_table" not in json.loads(out)
        _, out, _ = run_cli(capsys, "certify", "--preset", "section7", "--source-risk", "0.1")
        assert "section7_table" in json.loads(out)

    def test_preset_rejects_invalid_flag(self, capsys):
        """--m 3 with the preset's r = 5 violates m >= r: exit 1, not a
        silently ignored flag."""
        code, out, err = run_cli(capsys, "certify", "--preset", "section7", "--m", "3")
        assert code == 1
        assert out == ""
        assert "m >= r" in err

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

    FLAGS = ("certify", "--k", "1e12", "--d", "3", "--m", "3", "--N", "2")

    def test_distance_above_feature_range_total_null(self, capsys):
        """A moment distance is not one feature entry: 2.0 exceeds the range
        of any single feature yet is a valid distance failing the gate."""
        code, out, _ = run_cli(capsys, *self.FLAGS, "--moment-distance", "2.0")
        assert code == 0
        payload = json.loads(out)
        cond = next(c for c in payload["conditions"] if c["name"] == "moment_distance")
        assert cond["actual"] == 2.0 and cond["ok"] is False
        assert payload["total"] is None

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--moment-distance", "-1.0"),
            ("--epsilon", "nan"),
            ("--source-risk", "nan"),
            ("--source-risk", "1.5"),
            ("--lambda-star", "-0.5"),
            ("--k", "inf"),
        ],
    )
    def test_invalid_input_rejected(self, capsys, flag, value):
        argv = [*self.FLAGS, "--moment-distance", "1e-5", flag, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == "" and "error:" in err

    @pytest.mark.parametrize(
        "flags,source",
        [
            (("--delta", "1e-320"), "delta"),
            (("--moment-distance", "1e308"), "moment distance"),
            (("--epsilon", "1e308"), "epsilon"),
            (("--k", "1e308"), "k or delta"),
            (("--c-inf", "400", "--c-r", "0"), "C = "),
        ],
        ids=["delta", "moment-distance", "epsilon", "k", "constant"],
    )
    def test_overflowing_certificate_names_input(self, capsys, flags, source):
        """A certificate entry beyond the float range exits 1 with an error
        that names the input behind it."""
        code, out, err = run_cli(capsys, *self.FLAGS, *flags)
        assert (code, out) == (1, "")
        assert "overflows" in err and source in err

    @pytest.mark.parametrize(
        "c_inf,c_r", [("nan", "1"), ("inf", "1"), ("1", "inf"), ("300", "1")]
    )
    def test_non_finite_or_overflowing_constants_rejected(self, capsys, c_inf, c_r):
        code, out, err = run_cli(capsys, *self.FLAGS, "--c-inf", c_inf, "--c-r", c_r)
        assert code == 1
        assert out == "" and "error:" in err

    @pytest.mark.parametrize(
        "partial", [("--c-inf", "1.5"), ("--c-r", "2.0"), ("--r", "2")], ids=lambda a: a[0]
    )
    def test_partial_improved_constant_flags_rejected(self, capsys, partial):
        """--c-inf and --c-r go together and --r needs both; a partial set
        used to certify silently with the uniform constant."""
        code, out, err = run_cli(capsys, *self.FLAGS, *partial)
        assert code == 1
        assert out == "" and "--c-inf and --c-r" in err
        code, out, _ = run_cli(capsys, *self.FLAGS, "--r", "2", "--c-inf", "1.5", "--c-r", "2.0")
        assert code == 0
        assert json.loads(out)["constants"]["r"] == 2


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

    def test_cmd_sample_over_budget(self, capsys, monkeypatch):
        from momentadapt import quadrature

        monkeypatch.setattr(quadrature, "MAX_NODES", 1_000)
        code, out, err = run_cli(
            capsys,
            "distance", "--p", self.P, "--q", self.Q,
            "--metric", "cmd", "--seed", "3", "--k", "1001",
        )
        assert (code, out) == (1, "")
        assert "MAX_NODES" in err

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

    def test_non_finite_expfam_lambda_exits_1(self, capsys):
        spec = '{"type":"expfam","m":1,"N":1,"lambda":[NaN]}'
        code, out, err = run_cli(capsys, "distance", "--p", spec, "--q", self.P, "--metric", "kl")
        assert (code, out) == (1, "")
        assert "finite" in err

    def test_expfam_n5_l1_over_budget_kl_factorized(self, capsys):
        """At N=5 the joint grid exceeds the node budget: L1 exits 1 with the
        error on stderr, while KL adds the five 1-D KLs."""
        p = json.dumps({"type": "expfam", "m": 2, "N": 5, "lambda": [0.2, -0.1] * 5})
        q = json.dumps({"type": "expfam", "m": 2, "N": 5, "lambda": [-0.1, 0.3] * 5})
        code, out, err = run_cli(capsys, "distance", "--p", p, "--q", q, "--metric", "l1")
        assert (code, out) == (1, "")
        assert "MAX_NODES" in err
        code, out, _ = run_cli(capsys, "distance", "--p", p, "--q", q, "--metric", "kl")
        assert code == 0
        assert json.loads(out)["value"] > 0

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

    def test_section7_rejects_trials(self, capsys):
        """section7-repro has no trial count, so --trials is an error as it
        is for levy-probe, not silently ignored."""
        code, out, err = run_cli(capsys, "experiment", "section7-repro", "--trials", "5")
        assert code == 1
        assert out == "" and "bad parameters" in err

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_concentration_rejects_non_positive_trials(self, capsys, trials):
        code, out, err = run_cli(
            capsys, "experiment", "sample-concentration", "--trials", trials
        )
        assert code == 1
        assert out == "" and err.startswith("error: trials must be at least 1")

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
