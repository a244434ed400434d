"""Evaluable generalization-bound certificates.

Every bound is reported as an explicit breakdown: the constants used, each
applicability condition with its required and actual value, and the named
terms whose sum forms the total.  A certificate whose conditions fail
carries total = None rather than a silently meaningless number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .basis import PolyBasis1D, build_legendre_basis, coefficient_abs_sums
from .densities import MomentVector, SmoothnessReport, class_margins
from .metrics import moment_l1


def constant_C_simple(m: int) -> float:
    """Uniform constant 2 e^{(3m-1)/2} for the smooth high-entropy class."""
    if m < 2:
        raise ValueError("the simple constant is defined for m >= 2")
    return 2.0 * math.exp((3 * m - 1) / 2.0)


@dataclass(frozen=True)
class ImprovedConstants:
    """Sharper constant from the explicit polynomial-approximation errors.

    gamma and xi are the sup-norm and weighted-L2 errors of approximating
    the log density by degree-m polynomials, bounded through its r-th
    derivative norm c_r and log-density bound c_inf.  `applicable` records
    whether 4 e^{4*gamma+1} e^{c_inf/2} (m+1) xi <= 1, the regime where
    the constant is valid.
    """

    m: int
    r: int
    c_inf: float
    c_r: float
    gamma: float
    xi: float
    C: float
    applicable: bool

    def __post_init__(self):
        if self.gamma < 0 or self.xi < 0:
            raise ValueError("gamma and xi must be non-negative")
        floor = 2.0 * math.exp(1.0 + self.c_inf)
        if self.C < floor * (1 - 1e-12):
            raise ValueError(f"constant {self.C} below its limit value {floor}")

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "r": self.r,
            "c_inf": self.c_inf,
            "c_r": self.c_r,
            "gamma": self.gamma,
            "xi": self.xi,
            "C": self.C,
            "applicable": self.applicable,
            "source": "improved",
        }


ConstantSpec = Union[str, float, ImprovedConstants]


def improved_constants(m: int, r: int, c_inf: float, c_r: float) -> ImprovedConstants:
    """Evaluate gamma, xi and the improved constant C.

    The falling product (m+r+1)...(m-r+2) inside xi^2 is accumulated as a
    log-sum: it overflows 64-bit integers already near m = r = 10.
    """
    if not (m >= r >= 2):
        raise ValueError("need m >= r >= 2")
    if c_inf < 0 or c_r < 0:
        raise ValueError("c_inf and c_r must be non-negative")
    gamma = (
        math.exp(r) / (math.sqrt(r - 1) * (m + r) ** (r - 1)) * 0.5**r * c_r
        if c_r > 0
        else 0.0
    )
    if c_r > 0:
        log_falling = sum(math.log(t) for t in range(m - r + 2, m + r + 2))
        log_xi2 = c_inf + 2.0 * math.log(c_r) - r * math.log(4.0) - log_falling
        xi = math.exp(0.5 * log_xi2)
    else:
        xi = 0.0
    gate = 4.0 * math.exp(4.0 * gamma + 1.0) * math.exp(c_inf / 2.0) * (m + 1) * xi
    # exponent: 1 + c_inf + 2*gamma + 4 e^{4 gamma + 1} xi e^{c_inf/2} (m+1)
    log_half_c = 1.0 + c_inf + 2.0 * gamma + gate
    c_val = 2.0 * math.exp(log_half_c)
    return ImprovedConstants(
        m=m, r=r, c_inf=c_inf, c_r=c_r, gamma=gamma, xi=xi, C=c_val,
        applicable=gate <= 1.0,
    )


def _resolve_constant(constants: ConstantSpec, m: int) -> tuple[float, str]:
    if isinstance(constants, ImprovedConstants):
        return constants.C, "improved"
    if constants == "simple":
        return constant_C_simple(m), "simple"
    if isinstance(constants, (int, float)):
        return float(constants), "explicit"
    raise ValueError(f"unknown constant spec {constants!r}")


@dataclass(frozen=True)
class L1Bound:
    """Result of the moment-to-L1 bound: either a value or the reason it
    does not apply."""

    applicable: bool
    threshold: float
    moment_distance: float
    constant: float
    constant_source: str
    epsilon: float
    value: Optional[float]

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "threshold": self.threshold,
            "moment_distance": self.moment_distance,
            "constant": self.constant,
            "constant_source": self.constant_source,
            "epsilon": self.epsilon,
            "value": self.value,
        }


def theorem1_threshold(c_val: float, m: int) -> float:
    """Largest moment distance 1/(2C(m+1)) at which the L1 bound applies."""
    return 1.0 / (2.0 * c_val * (m + 1))


def theorem1_l1_bound(
    mu_p: MomentVector,
    mu_q: MomentVector,
    m: int,
    epsilon: float,
    constants: ConstantSpec = "simple",
) -> L1Bound:
    """L1 bound sqrt(2C) ||mu_p - mu_q||_1 + sqrt(8 eps), gated on the
    moment difference being below 1/(2C(m+1))."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    c_val, source = _resolve_constant(constants, m)
    dist = moment_l1(mu_p, mu_q)
    threshold = theorem1_threshold(c_val, m)
    if dist > threshold:
        return L1Bound(False, threshold, dist, c_val, source, epsilon, None)
    value = math.sqrt(2.0 * c_val) * dist + math.sqrt(8.0 * epsilon)
    return L1Bound(True, threshold, dist, c_val, source, epsilon, value)


def corollary1_risk_bound(
    mu_p: MomentVector,
    mu_q: MomentVector,
    m: int,
    epsilon: float,
    source_risk: float,
    lambda_star: float,
    constants: ConstantSpec = "simple",
) -> L1Bound:
    """Target-risk bound: source risk + moment term + sqrt(8 eps) + lambda*."""
    base = theorem1_l1_bound(mu_p, mu_q, m, epsilon, constants)
    if not base.applicable:
        return base
    return L1Bound(
        True,
        base.threshold,
        base.moment_distance,
        base.constant,
        base.constant_source,
        epsilon,
        base.value + source_risk + lambda_star,
    )


def vc_generalization_term(k: float, d: float, delta: float) -> float:
    """Uniform-convergence term sqrt((4/k)(d log(2ek/d) + log(4/delta)))."""
    if not (k > d >= 1):
        raise ValueError("need sample size k > VC dimension d >= 1")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(4.0 / k * (d * math.log(2.0 * math.e * k / d) + math.log(4.0 / delta)))


def minimal_sample_size(
    constants: ConstantSpec, m: int, delta: float, sharper: bool = False
) -> float:
    """Smallest k satisfying the sample-size condition 4C^2(m+1)^2 m / delta <= k.

    With sharper=True and improved constants, the e^{-c_inf} factor from
    the sample lemma is included.
    """
    c_val, _ = _resolve_constant(constants, m)
    base = 4.0 * c_val**2 * (m + 1) ** 2 * m / delta
    if sharper:
        if not isinstance(constants, ImprovedConstants):
            raise ValueError("the sharper condition needs improved constants")
        base *= math.exp(-constants.c_inf)
    return base


@dataclass(frozen=True)
class Condition:
    name: str
    required: float
    actual: float
    ok: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "required": self.required, "actual": self.actual, "ok": self.ok}


@dataclass(frozen=True)
class BoundCertificate:
    """Full evaluated bound: inputs, conditions, per-term breakdown, total.

    total is the plain sum of the terms when every condition holds and
    None otherwise.
    """

    inputs: dict
    constants: dict
    conditions: tuple[Condition, ...]
    terms: dict
    total: Optional[float]

    @property
    def applicable(self) -> bool:
        return all(c.ok for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "inputs": self.inputs,
            "constants": self.constants,
            "conditions": [c.to_dict() for c in self.conditions],
            "terms": self.terms,
            "total": self.total,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def theorem2_certificate(
    k: float,
    d: float,
    delta: float,
    m: int,
    dim: int,
    mu_hat_p: MomentVector,
    mu_hat_q: MomentVector,
    epsilon: float,
    constants: ConstantSpec,
    empirical_source_risk: float,
    lambda_star: float,
    sharper_sample_condition: bool = False,
) -> BoundCertificate:
    """Sample-based target-risk certificate.

    Conditions: 4C^2(m+1)^2 m / delta <= k and
    ||mu_hat_p - mu_hat_q||_1 <= 1/(2(m+1) e C).  Terms: empirical source
    risk, VC term, sqrt(2eC)*moment distance, sqrt(8C)*sqrt(N m/(k delta)),
    sqrt(8 epsilon), lambda*.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    c_val, source = _resolve_constant(constants, m)
    dist = moment_l1(mu_hat_p, mu_hat_q)
    k_required = minimal_sample_size(constants, m, delta, sharper_sample_condition)
    moment_threshold = 1.0 / (2.0 * (m + 1) * math.e * c_val)
    conditions = (
        Condition("sample_size", required=k_required, actual=float(k), ok=k >= k_required),
        Condition("moment_distance", required=moment_threshold, actual=dist, ok=dist <= moment_threshold),
    )
    terms = {
        "empirical_source_risk": empirical_source_risk,
        "vc_term": vc_generalization_term(k, d, delta),
        "moment_term": math.sqrt(2.0 * math.e * c_val) * dist,
        "sampling_term": math.sqrt(8.0 * c_val) * math.sqrt(dim * m / (k * delta)),
        "epsilon_term": math.sqrt(8.0 * epsilon),
        "lambda_star": lambda_star,
    }
    total = float(sum(terms.values())) if all(c.ok for c in conditions) else None
    constants_dict = (
        constants.to_dict()
        if isinstance(constants, ImprovedConstants)
        else {"C": c_val, "source": source}
    )
    return BoundCertificate(
        inputs={
            "k": float(k),
            "d": float(d),
            "delta": delta,
            "m": m,
            "N": dim,
            "epsilon": epsilon,
            "lambda_star": lambda_star,
            "sharper_sample_condition": sharper_sample_condition,
        },
        constants=constants_dict,
        conditions=conditions,
        terms=terms,
        total=total,
    )


def cmd_to_moment_bound(dim: int, c5: float) -> float:
    """Factor converting a 5th-order CMD value into a feature-moment bound.

    ||mu_hat_p - mu_hat_q||_1 <= c5 * 5^2 * (5+1) * max_t C(5,t) * sqrt(N)
    * d_5(X_p, X_q); max_t C(5,t) = 10.
    """
    if dim < 1 or c5 <= 0:
        raise ValueError("need dim >= 1 and c5 > 0")
    return c5 * 25.0 * 6.0 * 10.0 * math.sqrt(dim)


@dataclass(frozen=True)
class MembershipVerdict:
    member: Optional[bool]
    a1_ok: bool
    a2_ok: bool
    a3_ok: bool
    a1_margin: float
    a2_margin: float
    a3_margin: float
    indeterminate: bool

    def to_dict(self) -> dict:
        return {
            "member": self.member,
            "a1": {"ok": self.a1_ok, "margin": self.a1_margin},
            "a2": {"ok": self.a2_ok, "margin": self.a2_margin},
            "a3": {"ok": self.a3_ok, "margin": self.a3_margin},
            "indeterminate": self.indeterminate,
        }


def smoothness_membership(
    report: SmoothnessReport, m: int, epsilon: float
) -> MembershipVerdict:
    """Check the three class conditions with numerical margins.

    Margins are threshold minus estimate (positive = satisfied).  An
    unconverged derivative estimate yields an indeterminate verdict.
    """
    if report.m != m:
        raise ValueError(f"report computed for order {report.m}, not {m}")
    a1_margin, a2_margin, a3_margin = class_margins(
        m, epsilon, report.epsilon, report.c_inf, report.c_r
    )
    a1_ok = a1_margin >= -1e-12
    a2_ok = a2_margin >= 0
    a3_ok = a3_margin >= 0
    indeterminate = not report.derivative_converged
    member = None if indeterminate else (a1_ok and a2_ok and a3_ok)
    return MembershipVerdict(
        member=member,
        a1_ok=a1_ok,
        a2_ok=a2_ok,
        a3_ok=a3_ok,
        a1_margin=a1_margin,
        a2_margin=a2_margin,
        a3_margin=a3_margin,
        indeterminate=indeterminate,
    )


def section7_certificate(
    k: float = 6.3e9,
    moment_distance: float = 0.0,
    epsilon: float = 0.0,
    empirical_source_risk: float = 0.0,
    lambda_star: float = 0.0,
) -> BoundCertificate:
    """Certificate at the fifth-order application preset (m=r=5, c_inf=5,
    c_r=10, delta=0.2, N=5, d=6), with zero defaults for the empirical
    inputs."""
    from .basis import make_tensor_basis

    p = SECTION7
    consts = improved_constants(p["m"], p["r"], p["c_inf"], p["c_r"])
    basis = make_tensor_basis(p["m"], p["N"])
    zero = MomentVector(basis=basis, values=np.zeros(basis.n_features))
    shifted = MomentVector(
        basis=basis,
        values=np.concatenate(
            [[moment_distance], np.zeros(basis.n_features - 1)]
        ),
    )
    return theorem2_certificate(
        k=k,
        d=p["d"],
        delta=p["delta"],
        m=p["m"],
        dim=p["N"],
        mu_hat_p=zero,
        mu_hat_q=shifted,
        epsilon=epsilon,
        constants=consts,
        empirical_source_risk=empirical_source_risk,
        lambda_star=lambda_star,
    )


SECTION7 = {
    "m": 5,
    "r": 5,
    "c_inf": 5.0,
    "c_r": 10.0,
    "delta": 0.2,
    "N": 5,
    "d": 6,
    "k": 6.3e9,
}


def section7_values(basis: Optional[PolyBasis1D] = None) -> dict:
    """All worked constants of the fifth-order application scenario.

    Returns the improved constant, the two coefficient values, the moment
    threshold, the minimal sample size, the VC and sampling terms at the
    quoted sample size, and both readings of the CMD conversion factor
    (the one implied by the quoted end-to-end coefficient and the one
    following from the printed polynomial coefficients; they disagree, so
    both are reported and neither asserted).
    """
    p = SECTION7
    consts = improved_constants(p["m"], p["r"], p["c_inf"], p["c_r"])
    c_val = consts.C
    if basis is None:
        basis = build_legendre_basis(5)
    _, c5_from_coeffs = coefficient_abs_sums(basis)
    sqrt_2ec = math.sqrt(2.0 * math.e * c_val)
    sqrt_8cmd = math.sqrt(8.0 * c_val * p["m"] / p["delta"])
    min_k = minimal_sample_size(consts, p["m"], p["delta"])
    vc = vc_generalization_term(p["k"], p["d"], p["delta"])
    sampling = math.sqrt(8.0 * c_val) * math.sqrt(p["N"] * p["m"] / (p["k"] * p["delta"]))
    quoted_total_coefficient = 2.96e8
    c5_implied = quoted_total_coefficient / (
        sqrt_2ec * 25.0 * 6.0 * 10.0 * math.sqrt(p["N"])
    )
    return {
        "constants": consts.to_dict(),
        "moment_coefficient": sqrt_2ec,          # quoted as 84.6
        "sampling_coefficient": sqrt_8cmd,       # quoted as 513
        "moment_threshold": 1.0 / (2.0 * (p["m"] + 1) * math.e * c_val),  # 2.3e-5
        "minimal_k": min_k,                      # quoted as 6.3e9
        "vc_term": vc,                           # quoted as 2.95e-4
        "sampling_term": sampling,               # quoted as 1.44e-2 / 0.0148
        "cmd_factor_from_coefficients": cmd_to_moment_bound(p["N"], c5_from_coeffs),
        "c5_from_coefficients": c5_from_coeffs,
        "c5_implied_by_quoted_coefficient": c5_implied,
        "end_to_end_cmd_coefficient": sqrt_2ec
        * cmd_to_moment_bound(p["N"], c5_from_coeffs),
        "quoted_end_to_end_cmd_coefficient": quoted_total_coefficient,
    }
