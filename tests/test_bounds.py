"""Tests for the bound constants and certificates."""

import json
import math

import numpy as np
import pytest

from momentadapt.basis import make_tensor_basis
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
    theorem2_certificate,
    vc_generalization_term,
)
from momentadapt.densities import (
    MomentVector,
    make_truncated_normal,
    smoothness_report,
    uniform_density,
)


def _mu(basis, values):
    return MomentVector(basis=basis, values=np.asarray(values, dtype=float))


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
        basis = make_tensor_basis(3, 1)
        mu = _mu(basis, np.zeros(3))
        res = theorem1_l1_bound(mu, mu, 3, 0.0)
        assert res.applicable and res.value == 0.0

    def test_simple_threshold_m5(self):
        basis = make_tensor_basis(5, 1)
        mu = _mu(basis, np.zeros(5))
        res = theorem1_l1_bound(mu, mu, 5, 0.0)
        assert res.threshold == pytest.approx(
            1.0 / (2 * 2 * math.exp(7.0) * 6), rel=1e-12
        )

    def test_gate_rejection(self):
        basis = make_tensor_basis(3, 1)
        mu_p = _mu(basis, np.zeros(3))
        mu_q = _mu(basis, [0.5, 0.0, 0.0])
        res = theorem1_l1_bound(mu_p, mu_q, 3, 0.0)
        assert not res.applicable and res.value is None

    def test_epsilon_term(self):
        basis = make_tensor_basis(3, 1)
        mu = _mu(basis, np.zeros(3))
        res = theorem1_l1_bound(mu, mu, 3, 0.02)
        assert res.value == pytest.approx(math.sqrt(0.16), rel=1e-12)

    def test_negative_epsilon_rejected(self):
        basis = make_tensor_basis(3, 1)
        mu = _mu(basis, np.zeros(3))
        with pytest.raises(ValueError):
            theorem1_l1_bound(mu, mu, 3, -0.1)


class TestCorollary1:
    def test_additivity(self):
        basis = make_tensor_basis(3, 1)
        mu_p = _mu(basis, np.zeros(3))
        mu_q = _mu(basis, [1e-5, 0.0, 0.0])
        base = theorem1_l1_bound(mu_p, mu_q, 3, 0.0)
        full = corollary1_risk_bound(mu_p, mu_q, 3, 0.0, 0.1, 0.05)
        assert full.value == pytest.approx(base.value + 0.15, rel=1e-12)

    def test_all_zero(self):
        basis = make_tensor_basis(2, 1)
        mu = _mu(basis, np.zeros(2))
        assert corollary1_risk_bound(mu, mu, 2, 0.0, 0.0, 0.0).value == 0.0


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


class TestTheorem2Certificate:
    def _cert(self, k=6.3e9, dist=0.0, **kwargs):
        basis = make_tensor_basis(5, 5)
        mu_p = _mu(basis, np.zeros(25))
        values = np.zeros(25)
        values[0] = dist
        mu_q = _mu(basis, values)
        consts = improved_constants(5, 5, 5.0, 10.0)
        defaults = dict(
            k=k,
            d=6,
            delta=0.2,
            m=5,
            dim=5,
            mu_hat_p=mu_p,
            mu_hat_q=mu_q,
            epsilon=0.0,
            constants=consts,
            empirical_source_risk=0.0,
            lambda_star=0.0,
        )
        defaults.update(kwargs)
        return theorem2_certificate(**defaults)

    def test_minimal_k_reproduced(self):
        consts = improved_constants(5, 5, 5.0, 10.0)
        assert minimal_sample_size(consts, 5, 0.2) == pytest.approx(6.3e9, rel=0.02)

    def test_total_is_sum_of_terms(self):
        cert = self._cert(dist=1e-5)
        assert cert.applicable
        assert cert.total == pytest.approx(sum(cert.terms.values()), rel=1e-12)

    def test_small_k_inapplicable(self):
        cert = self._cert(k=1e6)
        assert not cert.applicable and cert.total is None
        names = {c.name: c.ok for c in cert.conditions}
        assert names["sample_size"] is False

    def test_moment_condition(self):
        cert = self._cert(dist=1e-3)
        names = {c.name: c.ok for c in cert.conditions}
        assert names["moment_distance"] is False and cert.total is None

    def test_sampling_term_value(self):
        cert = self._cert()
        assert 0.0140 <= cert.terms["sampling_term"] <= 0.0150

    def test_sharper_condition_smaller(self):
        consts = improved_constants(5, 5, 5.0, 10.0)
        plain = minimal_sample_size(consts, 5, 0.2)
        sharp = minimal_sample_size(consts, 5, 0.2, sharper=True)
        assert sharp == pytest.approx(plain * math.exp(-5.0), rel=1e-12)

    def test_json_schema_and_determinism(self):
        cert1 = self._cert(dist=1e-5)
        cert2 = self._cert(dist=1e-5)
        assert cert1.to_json() == cert2.to_json()
        payload = json.loads(cert1.to_json())
        assert set(payload) == {"inputs", "constants", "conditions", "terms", "total"}
        assert {"name", "required", "actual", "ok"} <= set(payload["conditions"][0])
        assert payload["constants"]["source"] == "improved"


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
