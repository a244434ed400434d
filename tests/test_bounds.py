"""Tests for the bound constants and certificates."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentadapt.bounds import (
    constant_C_simple,
    corollary1_risk_bound,
    cmd_to_moment_bound,
    improved_constants,
    minimal_sample_size,
    section7_certificate,
    section7_values,
    smoothness_membership,
    theorem1_l1_bound,
    theorem1_threshold,
    theorem2_certificate,
    vc_generalization_term,
)
from momentadapt.densities import (
    make_truncated_normal,
    smoothness_report,
    uniform_density,
)


def _theorem2_cert(k=6.3e9, dist=0.0, **kwargs):
    consts = improved_constants(5, 5, 5.0, 10.0)
    defaults = dict(
        k=k,
        d=6,
        delta=0.2,
        m=5,
        dim=5,
        moment_distance=dist,
        epsilon=0.0,
        constants=consts,
        empirical_source_risk=0.0,
        lambda_star=0.0,
    )
    defaults.update(kwargs)
    return theorem2_certificate(**defaults)


class TestSimpleConstant:
    def test_reference_values(self):
        assert constant_C_simple(2) == pytest.approx(2 * math.exp(2.5))
        assert constant_C_simple(5) == pytest.approx(2 * math.exp(7.0))

    def test_monotone(self):
        vals = [constant_C_simple(m) for m in range(2, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            constant_C_simple(1)


class TestImprovedConstants:
    def test_gamma_xi_formulas(self):
        """gamma and xi match a direct reimplementation."""
        m, r, c_inf, c_r = 5, 5, 5.0, 10.0
        consts = improved_constants(m, r, c_inf, c_r)
        gamma = math.exp(r) * c_r / (2**r * math.sqrt(r - 1) * (m + r) ** (r - 1))
        falling = 1.0
        for t in range(m - r + 2, m + r + 2):
            falling *= t
        xi = math.sqrt(math.exp(c_inf) * c_r**2 / (4**r * falling))
        assert consts.gamma == pytest.approx(gamma, rel=1e-12)
        assert consts.xi == pytest.approx(xi, rel=1e-12)
        expo = 1 + c_inf + 2 * gamma + 4 * math.exp(4 * gamma + 1) * xi * math.exp(c_inf / 2) * (m + 1)
        assert consts.C == pytest.approx(2 * math.exp(expo), rel=1e-12)

    def test_remark1_limit_at_zero_cr(self):
        consts = improved_constants(6, 3, 2.0, 0.0)
        assert consts.gamma == 0.0 and consts.xi == 0.0
        assert consts.C == pytest.approx(2 * math.exp(3.0), rel=1e-14)
        assert consts.applicable

    def test_definition1_thresholds_below_simple(self):
        """With the class thresholds as inputs, the improved constant never
        exceeds the uniform one, and is applicable, for m in 2..12."""
        for m in range(2, 13):
            consts = improved_constants(m, m, (3 * m - 6) / 2.0, 5.0 ** (m - 4))
            assert consts.applicable, m
            assert consts.C <= constant_C_simple(m), m

    def test_large_m_no_overflow(self):
        """Log-space falling product survives m = r = 15."""
        consts = improved_constants(15, 15, 1.0, 1.0)
        assert math.isfinite(consts.C) and consts.C > 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            improved_constants(2, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            improved_constants(5, 5, -1.0, 1.0)

    @pytest.mark.parametrize(
        "c_inf,c_r",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan), (300.0, 1.0)],
    )
    def test_non_finite_inputs_and_overflow_rejected(self, c_inf, c_r):
        """Non-finite constants, and a C that overflows a float (c_inf = 300
        puts e^{c_inf/2} xi in the exponent), raise instead of giving C = nan,
        inf or an OverflowError."""
        with pytest.raises(ValueError):
            improved_constants(3, 3, c_inf, c_r)


class TestInductionInequalities:
    """The three inequalities behind the constant-simplification lemma."""

    @pytest.mark.parametrize("m", range(2, 21))
    def test_inequality_1(self, m):
        lhs = 5.0 ** (m - 4)
        rhs = math.sqrt(math.factorial(2 * m + 1) * (m - 1)) / (2 * math.exp(m + 2))
        assert lhs <= rhs

    @pytest.mark.parametrize("m", range(2, 21))
    def test_inequality_2(self, m):
        lhs = (3 * m - 6) / 2.0
        rhs = math.log(
            math.exp(m) * 2 ** (m - 1) / ((m + 1) * math.sqrt(max(m - 1, 1)))
        )
        assert lhs <= rhs

    @pytest.mark.parametrize("m", range(2, 21))
    def test_inequality_3(self, m):
        lhs = math.sqrt(math.factorial(2 * m + 1)) / (
            4.0**m * float(m) ** (m - 1) * math.e**2
        )
        assert lhs <= 0.25


class TestTheorem1Bound:
    def test_zero_difference_zero_bound(self):
        res = theorem1_l1_bound(0.0, 3, 0.0)
        assert res.applicable and res.total == 0.0

    def test_simple_threshold_m5(self):
        res = theorem1_l1_bound(0.0, 5, 0.0)
        (cond,) = res.conditions
        assert cond.name == "moment_distance"
        assert cond.required == pytest.approx(
            1.0 / (2 * 2 * math.exp(7.0) * 6), rel=1e-12
        )
        assert res.constants == {"C": constant_C_simple(5), "source": "simple"}

    def test_gate_rejection(self):
        res = theorem1_l1_bound(0.5, 3, 0.0)
        assert not res.applicable and res.total is None
        assert res.conditions[0].actual == 0.5 and res.conditions[0].ok is False

    def test_epsilon_term(self):
        res = theorem1_l1_bound(0.0, 3, 0.02)
        assert res.terms["epsilon_term"] == pytest.approx(math.sqrt(0.16), rel=1e-12)
        assert res.total == pytest.approx(math.sqrt(0.16), rel=1e-12)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            theorem1_l1_bound(0.0, 3, -0.1)

    def test_improved_constants_entry(self):
        consts = improved_constants(5, 5, 5.0, 10.0)
        res = theorem1_l1_bound(0.0, 5, 0.0, consts)
        assert res.constants == consts.to_dict()
        assert res.conditions[0].required == theorem1_threshold(consts.C, 5)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(2, 8),
        ratio=st.floats(0.0, 2.0),
        epsilon=st.floats(0.0, 1.0),
    )
    def test_total_is_gated_sum(self, m, ratio, epsilon):
        """The total is sqrt(2C) d + sqrt(8 eps) to the bit, and None exactly
        when d exceeds the threshold."""
        c_val = constant_C_simple(m)
        threshold = theorem1_threshold(c_val, m)
        dist = ratio * threshold
        res = theorem1_l1_bound(dist, m, epsilon)
        if dist > threshold:
            assert res.total is None
        else:
            assert res.total == math.sqrt(2.0 * c_val) * dist + math.sqrt(8.0 * epsilon)


class TestCorollary1:
    def test_additivity(self):
        base = theorem1_l1_bound(1e-5, 3, 0.0)
        full = corollary1_risk_bound(1e-5, 3, 0.0, 0.1, 0.05)
        assert full.total == base.total + 0.1 + 0.05
        assert list(full.terms) == ["moment_term", "epsilon_term", "source_risk", "lambda_star"]

    def test_all_zero(self):
        assert corollary1_risk_bound(0.0, 2, 0.0, 0.0, 0.0).total == 0.0

    def test_gate_rejection_carries_terms(self):
        res = corollary1_risk_bound(0.5, 3, 0.0, 0.1, 0.05)
        assert res.total is None and res.terms["source_risk"] == 0.1


def _ids(bad: dict) -> str:
    return "-".join(f"{k}={v}" for k, v in bad.items())


class TestInputValidation:
    """NaN, infinite and out-of-range inputs raise instead of producing a
    total that is not a bound (or not valid JSON)."""

    BAD = [
        {"moment_distance": -1.0},
        {"moment_distance": math.nan},
        {"moment_distance": math.inf},
        {"epsilon": -0.1},
        {"epsilon": math.nan},
        {"lambda_star": -0.5},
        {"lambda_star": math.nan},
        {"source_risk": 1.5},
        {"source_risk": -0.1},
        {"source_risk": math.nan},
    ]

    @pytest.mark.parametrize("bad", BAD, ids=_ids)
    def test_corollary1(self, bad):
        args = {"moment_distance": 1e-5, "m": 3, "epsilon": 0.0, "source_risk": 0.1, "lambda_star": 0.0}
        with pytest.raises(ValueError):
            corollary1_risk_bound(**{**args, **bad})

    @pytest.mark.parametrize("bad", BAD, ids=_ids)
    def test_theorem2(self, bad):
        key = {"source_risk": "empirical_source_risk"}
        with pytest.raises(ValueError):
            _theorem2_cert(**{key.get(k, k): v for k, v in bad.items()})

    @pytest.mark.parametrize(
        "bad", [b for b in BAD if set(b) <= {"moment_distance", "epsilon"}], ids=_ids
    )
    def test_theorem1(self, bad):
        with pytest.raises(ValueError):
            theorem1_l1_bound(**{"moment_distance": 1e-5, "m": 3, "epsilon": 0.0, **bad})


class TestVCTerm:
    def test_section7_value(self):
        assert vc_generalization_term(6.3e9, 6, 0.2) == pytest.approx(
            2.95e-4, rel=0.02
        )

    def test_log4_delta_is_3(self):
        """delta = 4 e^{-3} makes log(4/delta) = 3 exactly."""
        delta = 4.0 * math.exp(-3.0)
        k, d = 1e6, 5.0
        expected = math.sqrt(4.0 / k * (d * math.log(2 * math.e * k / d) + 3.0))
        assert vc_generalization_term(k, d, delta) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_k(self):
        vals = [vc_generalization_term(k, 6, 0.2) for k in (1e4, 1e6, 1e8)]
        assert vals[0] > vals[1] > vals[2]

    def test_domain(self):
        with pytest.raises(ValueError):
            vc_generalization_term(5, 6, 0.2)
        with pytest.raises(ValueError):
            vc_generalization_term(100, 6, 1.5)
        with pytest.raises(ValueError):  # 4/k * log(k) would be 0 * inf = nan
            vc_generalization_term(math.inf, 3, 0.2)


class TestTheorem2Certificate:
    def test_minimal_k_reproduced(self):
        consts = improved_constants(5, 5, 5.0, 10.0)
        assert minimal_sample_size(consts, 5, 0.2) == pytest.approx(6.3e9, rel=0.02)

    def test_total_is_sum_of_terms(self):
        cert = _theorem2_cert(dist=1e-5, empirical_source_risk=0.1, lambda_star=0.05)
        assert cert.applicable
        assert cert.total == sum(cert.terms.values())

    def test_small_k_inapplicable(self):
        cert = _theorem2_cert(k=1e6)
        assert not cert.applicable and cert.total is None
        names = {c.name: c.ok for c in cert.conditions}
        assert names["sample_size"] is False

    def test_moment_condition(self):
        cert = _theorem2_cert(dist=1e-3)
        names = {c.name: c.ok for c in cert.conditions}
        assert names["moment_distance"] is False and cert.total is None

    def test_sampling_term_value(self):
        cert = _theorem2_cert()
        assert 0.0140 <= cert.terms["sampling_term"] <= 0.0150

    def test_sharper_condition_smaller(self):
        consts = improved_constants(5, 5, 5.0, 10.0)
        plain = minimal_sample_size(consts, 5, 0.2)
        sharp = minimal_sample_size(consts, 5, 0.2, sharper=True)
        assert sharp == pytest.approx(plain * math.exp(-5.0), rel=1e-12)

    def test_json_schema_and_determinism(self):
        cert1 = _theorem2_cert(dist=1e-5)
        cert2 = _theorem2_cert(dist=1e-5)
        assert cert1.to_json() == cert2.to_json()
        payload = json.loads(cert1.to_json())
        assert set(payload) == {"inputs", "constants", "conditions", "terms", "total"}
        assert {"name", "required", "actual", "ok"} <= set(payload["conditions"][0])
        assert payload["constants"]["source"] == "improved"
        assert payload["total"] == cert1.total

    def test_simple_constant_entry(self):
        cert = _theorem2_cert(constants=None)
        assert cert.constants == {"C": constant_C_simple(5), "source": "simple"}


class TestCmdConversion:
    def test_unit_factor(self):
        assert cmd_to_moment_bound(1, 1.0) == pytest.approx(1500.0)

    def test_sqrt_n_scaling(self):
        assert cmd_to_moment_bound(4, 2.0) == pytest.approx(2 * 1500.0 * 2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            cmd_to_moment_bound(0, 1.0)


class TestSection7:
    def test_reference_table(self):
        vals = section7_values()
        assert vals["moment_coefficient"] == pytest.approx(84.6, abs=0.5)
        assert vals["sampling_coefficient"] == pytest.approx(513.0, abs=2.0)
        assert vals["moment_threshold"] == pytest.approx(2.3e-5, rel=0.05)
        assert vals["minimal_k"] == pytest.approx(6.3e9, rel=0.02)
        assert vals["vc_term"] == pytest.approx(2.95e-4, rel=0.02)

    def test_cmd_reconciliation_reported(self):
        """Both readings of C5 are present; the gap is reported, not hidden."""
        vals = section7_values()
        assert vals["c5_from_coefficients"] == pytest.approx(2330.22, rel=1e-4)
        assert vals["c5_implied_by_quoted_coefficient"] == pytest.approx(1044.0, rel=0.01)

    def test_preset_certificate(self):
        cert = section7_certificate()
        assert cert.applicable
        assert cert.constants["C"] == pytest.approx(1311.0, rel=0.01)


class TestSmoothnessMembership:
    def test_uniform_member_with_full_margins(self):
        report = smoothness_report(uniform_density(1), 5)
        verdict = smoothness_membership(report, epsilon=0.0)
        assert verdict.member is True
        assert verdict.a2_margin == pytest.approx(4.5, abs=1e-6)
        assert verdict.a3_margin == pytest.approx(5.0, abs=1e-4)

    def test_narrow_truncnorm_not_member(self):
        p = make_truncated_normal(0.5, 0.01, order=512)
        report = smoothness_report(p, 5)
        verdict = smoothness_membership(report, epsilon=1.0)
        assert verdict.a2_ok is False
        assert verdict.member in (False, None)
