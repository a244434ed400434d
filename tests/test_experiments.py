"""Tests for the experiment drivers (reduced trial counts; the full-size
runs live in the acceptance suite)."""

import numpy as np
import pytest

from momentadapt.basis import make_tensor_basis
from momentadapt.densities import ExpFamilyDensity
from momentadapt.experiments import (
    DemoScenario,
    levy_relation_probe,
    run_experiment,
    sample_concentration,
    section7_repro,
    theorem1_empirical_verification,
    toy_adaptation_demo,
    truncated_normal_counterexample,
)


class TestTruncatedNormalCounterexample:
    def test_default_run_passes(self):
        record = truncated_normal_counterexample()
        assert record.passed

    def test_rows_have_error_column(self):
        record = truncated_normal_counterexample(sigma_grid=(0.3, 0.1))
        assert all("error" in row for row in record.rows)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            truncated_normal_counterexample(sigma_grid=(0.3, -0.1))


class TestTheorem1Verification:
    def test_small_run_no_violations(self):
        record = theorem1_empirical_verification(trials=10, seed=5)
        assert record.passed
        assert record.summary["violations"] == 0

    def test_acceptance_rate(self):
        """The lambda box keeps the membership acceptance above 30%."""
        record = theorem1_empirical_verification(trials=15, seed=9)
        rate = record.summary["accepted"] / record.summary["attempts"]
        assert rate >= 0.3

    def test_slack_reported(self):
        record = theorem1_empirical_verification(trials=5, seed=2)
        assert record.summary["slack_min"] >= 0
        assert record.summary["slack_median"] >= record.summary["slack_min"]

    @pytest.mark.parametrize("m", [2, 4])
    def test_orders_without_a_lambda_box_rejected(self, m):
        with pytest.raises(ValueError, match=f"m = {m}, but H30_LAMBDA_BOX is defined for m = 3 only"):
            theorem1_empirical_verification(trials=1, m=m)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_multivariate_pairs(self, dim):
        """The lambda box is tiled per coordinate, so the verification runs
        on [0,1]^N and finds admissible pairs there."""
        record = theorem1_empirical_verification(trials=2, dim=dim, seed=0)
        assert record.passed
        assert record.summary["accepted"] == 2 and record.summary["violations"] == 0


@pytest.fixture(scope="module")
def p():
    basis = make_tensor_basis(3, 1)
    return ExpFamilyDensity(basis=basis, lam=np.array([0.2, -0.1, 3e-4]))


class TestSampleConcentration:
    def test_reduced_run(self, p):
        record = sample_concentration(p, k_grid=(100, 1000, 10000), trials=25, seed=1)
        assert record.passed
        assert record.summary["worst_violation_fraction"] <= 0.2 + 3 * np.sqrt(
            0.2 * 0.8 / 25
        )

    def test_median_decays(self, p):
        record = sample_concentration(p, k_grid=(100, 10000), trials=20, seed=4)
        medians = [row["median_kl"] for row in record.rows]
        assert medians[0] > medians[1]

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"trials": 0}, "trials"),
            ({"trials": -2}, "trials"),
            ({"delta": 0.0}, "delta"),
            ({"delta": 1.0}, "delta"),
            ({"delta": 1.5}, "delta"),
            ({"delta": float("nan")}, "delta"),
            ({"k_grid": ()}, "k_grid"),
            ({"k_grid": (100,)}, "k_grid"),
            ({"k_grid": (100, 100)}, "k_grid"),
            ({"k_grid": (0, 100)}, "k_grid"),
            ({"p": ExpFamilyDensity(make_tensor_basis(3, 2), np.zeros(6))}, "N = 2"),
        ],
    )
    def test_invalid_parameters_name_input(self, p, kwargs, name):
        """No ZeroDivisionError, math domain error or one-point slope fit:
        every invalid parameter is a ValueError naming it.  The bound
        C e^{-c_inf} m/(k delta) has no N, so p must be one-dimensional."""
        with pytest.raises(ValueError, match=name):
            sample_concentration(**{"p": p, "k_grid": (10, 20), "trials": 1, **kwargs})


class TestSection7Repro:
    def test_passes(self):
        record = section7_repro()
        assert record.passed

    def test_reconciliation_row_not_asserted(self):
        record = section7_repro()
        row = next(
            r for r in record.rows if r["quantity"] == "end_to_end_cmd_coefficient"
        )
        # the gap is real (factor ~2) but reported with ok=True by design
        assert row["ok"] is True
        assert row["rel_error"] > 0.5


class TestToyAdaptation:
    def test_default_scenario(self):
        record = toy_adaptation_demo(seed=3)
        assert record.passed
        weights = {row["weight"] for row in record.rows}
        assert weights == {0.0, 1.0}

    def test_identical_domains(self):
        """source = target: achieved target risk tracks source risk within
        sampling noise 3/sqrt(k)."""
        s = DemoScenario(target_mean=0.30)
        record = toy_adaptation_demo(s, seed=3)
        best = record.rows[-1]
        noise = 3.0 / np.sqrt(s.k)
        assert abs(best["target_risk"] - best["empirical_source_risk"]) <= noise

    def test_certificate_reported_honestly(self):
        """At desk scale the certificate conditions fail: total is None."""
        record = toy_adaptation_demo(seed=0)
        assert record.summary["certificate_applicable"] is False
        assert record.summary["certificate"]["total"] is None
        assert record.summary["bound_holds"] is None


class TestLevyProbe:
    def test_passes(self):
        record = levy_relation_probe()
        assert record.passed

    def test_comonotone(self):
        record = levy_relation_probe(t_grid=(0.0, 0.05, 0.1))
        levy = [r["levy"] for r in record.rows]
        mom = [r["moment_l1"] for r in record.rows]
        assert levy == sorted(levy) and mom == sorted(mom)


class TestHarness:
    def test_registry_dispatch(self):
        record = run_experiment("section7-repro")
        assert record.name == "section7-repro"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("no-such-experiment")

    def test_byte_identical_reruns(self, tmp_path):
        a = theorem1_empirical_verification(trials=5, seed=8)
        b = theorem1_empirical_verification(trials=5, seed=8)
        assert a.to_csv() == b.to_csv()
        assert a.to_json() == b.to_json()

    def test_file_naming(self, tmp_path):
        record = levy_relation_probe(t_grid=(0.0, 0.1))
        csv_path, json_path = record.write(tmp_path)
        assert csv_path.name == "levy-probe-0.csv"
        assert json_path.name == "levy-probe-0.json"
        assert csv_path.read_text().startswith("t,levy,moment_l1")
