"""Evaluable generalization-bound certificates.

Every bound takes the two moment vectors only through their l1 distance
and is reported as a `BoundCertificate`: the constants used, each
applicability condition with its required and actual value, and the named
terms whose sum forms the total.  A certificate whose conditions fail
carries total = None rather than a silently meaningless number.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .basis import build_legendre_basis, coefficient_abs_sums
from .densities import SmoothnessReport


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
        return {**asdict(self), "source": "improved"}


def improved_constants(m: int, r: int, c_inf: float, c_r: float) -> ImprovedConstants:
    """Evaluate gamma, xi and the improved constant C.

    The falling product (m+r+1)...(m-r+2) inside xi^2 is accumulated as a
    log-sum: it overflows 64-bit integers already near m = r = 10.
    """
    if not (m >= r >= 2):
        raise ValueError("need m >= r >= 2")
    if not (0 <= c_inf < math.inf and 0 <= c_r < math.inf):
        raise ValueError(f"c_inf and c_r must be finite and non-negative, got {c_inf}, {c_r}")
    gamma = xi = 0.0
    try:
        if c_r > 0:
            gamma = math.exp(r) / (math.sqrt(r - 1) * (m + r) ** (r - 1)) * 0.5**r * c_r
            log_falling = sum(math.log(t) for t in range(m - r + 2, m + r + 2))
            log_xi2 = c_inf + 2.0 * math.log(c_r) - r * math.log(4.0) - log_falling
            xi = math.exp(0.5 * log_xi2)
        gate = 4.0 * math.exp(4.0 * gamma + 1.0) * math.exp(c_inf / 2.0) * (m + 1) * xi
        # exponent: 1 + c_inf + 2*gamma + 4 e^{4 gamma + 1} xi e^{c_inf/2} (m+1)
        c_val = 2.0 * math.exp(1.0 + c_inf + 2.0 * gamma + gate)
    except OverflowError:
        c_val = math.inf
    if c_val == math.inf:
        raise ValueError(f"improved constant overflows a float at c_inf={c_inf}, c_r={c_r}")
    return ImprovedConstants(
        m=m, r=r, c_inf=c_inf, c_r=c_r, gamma=gamma, xi=xi, C=c_val,
        applicable=gate <= 1.0,
    )


def _constant(constants: Optional[ImprovedConstants], m: int) -> tuple[float, dict]:
    """C and its certificate entry; None selects the uniform constant."""
    if constants is None:
        c_val = constant_C_simple(m)
        return c_val, {"C": c_val, "source": "simple"}
    return constants.C, constants.to_dict()


def _check_inputs(
    moment_distance: float,
    epsilon: float,
    source_risk: float = 0.0,
    lambda_star: float = 0.0,
) -> None:
    """Reject NaN, infinite and out-of-range bound inputs."""
    for name, value in (
        ("moment distance", moment_distance),
        ("epsilon", epsilon),
        ("lambda_star", lambda_star),
    ):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    if not 0 <= source_risk <= 1:
        raise ValueError(f"source risk must lie in [0, 1], got {source_risk}")


@dataclass(frozen=True)
class Condition:
    name: str
    required: float
    actual: float
    ok: bool


# the input that drives each certificate entry past the float range
_OVERFLOW_INPUT = {
    "sample_size": "delta",
    "vc_term": "k or delta",
    "moment_term": "moment distance",
    "sampling_term": "delta",
    "epsilon_term": "epsilon",
}


@dataclass(frozen=True)
class BoundCertificate:
    """Full evaluated bound: inputs, conditions and per-term breakdown.

    The total is derived, never stored: the plain sum of the terms, in
    their order, when every condition holds and None otherwise.  Every
    required value and term is finite.
    """

    inputs: dict
    constants: dict
    conditions: tuple[Condition, ...]
    terms: dict

    def __post_init__(self):
        entries = [(c.name, c.required) for c in self.conditions] + list(self.terms.items())
        for name, value in entries:
            if not math.isfinite(value):
                source = _OVERFLOW_INPUT.get(name, "an input")
                raise ValueError(f"{name} overflows a float ({value}): {source} is out of range")

    @property
    def applicable(self) -> bool:
        return all(c.ok for c in self.conditions)

    @property
    def total(self) -> Optional[float]:
        return float(sum(self.terms.values())) if self.applicable else None

    def to_dict(self) -> dict:
        return {**asdict(self), "total": self.total}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def theorem1_threshold(c_val: float, m: int) -> float:
    """Largest moment distance 1/(2C(m+1)) at which the L1 bound applies."""
    return 1.0 / (2.0 * c_val * (m + 1))


def theorem1_l1_bound(
    moment_distance: float,
    m: int,
    epsilon: float,
    constants: Optional[ImprovedConstants] = None,
) -> BoundCertificate:
    """L1 bound sqrt(2C) ||mu_p - mu_q||_1 + sqrt(8 eps), gated on the
    moment distance being at most 1/(2C(m+1))."""
    _check_inputs(moment_distance, epsilon)
    c_val, constants_dict = _constant(constants, m)
    threshold = theorem1_threshold(c_val, m)
    return BoundCertificate(
        inputs={"m": m, "epsilon": epsilon},
        constants=constants_dict,
        conditions=(
            Condition(
                "moment_distance",
                required=threshold,
                actual=moment_distance,
                ok=moment_distance <= threshold,
            ),
        ),
        terms={
            "moment_term": math.sqrt(2.0 * c_val) * moment_distance,
            "epsilon_term": math.sqrt(8.0 * epsilon),
        },
    )


def corollary1_risk_bound(
    moment_distance: float,
    m: int,
    epsilon: float,
    source_risk: float,
    lambda_star: float,
    constants: Optional[ImprovedConstants] = None,
) -> BoundCertificate:
    """Target-risk bound: moment term + sqrt(8 eps) + source risk + lambda*."""
    _check_inputs(moment_distance, epsilon, source_risk, lambda_star)
    base = theorem1_l1_bound(moment_distance, m, epsilon, constants)
    return replace(
        base, terms={**base.terms, "source_risk": source_risk, "lambda_star": lambda_star}
    )


def vc_generalization_term(k: float, d: float, delta: float) -> float:
    """Uniform-convergence term sqrt((4/k)(d log(2ek/d) + log(4/delta)))."""
    if not (math.inf > k > d >= 1):
        raise ValueError("need finite sample size k > VC dimension d >= 1")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(4.0 / k * (d * math.log(2.0 * math.e * k / d) + math.log(4.0 / delta)))


def minimal_sample_size(
    constants: Optional[ImprovedConstants], m: int, delta: float, sharper: bool = False
) -> float:
    """Smallest k satisfying the sample-size condition 4C^2(m+1)^2 m / delta <= k.

    constants None selects the uniform constant.  With sharper=True and
    improved constants, the e^{-c_inf} factor from the sample lemma is
    included.
    """
    c_val, _ = _constant(constants, m)
    try:
        base = 4.0 * c_val**2 * (m + 1) ** 2 * m / delta
    except OverflowError:
        raise ValueError(f"sample_size overflows a float: C = {c_val:.3e} is out of range") from None
    if sharper:
        if constants is None:
            raise ValueError("the sharper condition needs improved constants")
        base *= math.exp(-constants.c_inf)
    return base


def theorem2_certificate(
    k: float,
    d: float,
    delta: float,
    m: int,
    dim: int,
    moment_distance: float,
    epsilon: float,
    constants: Optional[ImprovedConstants],
    empirical_source_risk: float,
    lambda_star: float,
    sharper_sample_condition: bool = False,
) -> BoundCertificate:
    """Sample-based target-risk certificate.

    Conditions: 4C^2(m+1)^2 m / delta <= k and the empirical moment
    distance ||mu_hat_p - mu_hat_q||_1 <= 1/(2(m+1) e C).  Terms: empirical
    source risk, VC term, sqrt(2eC)*moment distance,
    sqrt(8C)*sqrt(N m/(k delta)), sqrt(8 epsilon), lambda*.
    """
    _check_inputs(moment_distance, epsilon, empirical_source_risk, lambda_star)
    c_val, constants_dict = _constant(constants, m)
    k_required = minimal_sample_size(constants, m, delta, sharper_sample_condition)
    moment_threshold = 1.0 / (2.0 * (m + 1) * math.e * c_val)
    conditions = (
        Condition("sample_size", required=k_required, actual=float(k), ok=k >= k_required),
        Condition(
            "moment_distance",
            required=moment_threshold,
            actual=moment_distance,
            ok=moment_distance <= moment_threshold,
        ),
    )
    terms = {
        "empirical_source_risk": empirical_source_risk,
        "vc_term": vc_generalization_term(k, d, delta),
        "moment_term": math.sqrt(2.0 * math.e * c_val) * moment_distance,
        "sampling_term": math.sqrt(8.0 * c_val) * math.sqrt(dim * m / (k * delta)),
        "epsilon_term": math.sqrt(8.0 * epsilon),
        "lambda_star": lambda_star,
    }
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


def smoothness_membership(report: SmoothnessReport, epsilon: float) -> MembershipVerdict:
    """Verdict on the smooth high-entropy class at the report's order m.

    The three conditions are a1 entropy gap <= epsilon, a2 c_inf <=
    (3m-6)/2 and a3 max_j c_r[j] <= 5^(m-4).  Each margin is threshold
    minus estimate, so a non-negative margin means the condition holds;
    a1 allows 1e-12 of quadrature noise.  An unconverged derivative
    estimate yields an indeterminate verdict (member None).
    """
    m = report.m
    a1_margin = epsilon - report.epsilon
    a2_margin = (3 * m - 6) / 2.0 - report.c_inf
    a3_margin = 5.0 ** (m - 4) - float(np.max(report.c_r))
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


# The fifth-order application: order, smoothness order, class constants,
# failure probability, dimension, VC dimension and the quoted sample size.
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


def section7_certificate() -> BoundCertificate:
    """Certificate at the SECTION7 preset, with zero empirical inputs."""
    p = SECTION7
    return theorem2_certificate(
        k=p["k"],
        d=p["d"],
        delta=p["delta"],
        m=p["m"],
        dim=p["N"],
        moment_distance=0.0,
        epsilon=0.0,
        constants=improved_constants(p["m"], p["r"], p["c_inf"], p["c_r"]),
        empirical_source_risk=0.0,
        lambda_star=0.0,
    )


def section7_values() -> dict:
    """All worked constants of the fifth-order application scenario.

    Returns the improved constant, the two coefficient values, the moment
    threshold, the minimal sample size, the VC and sampling terms at the
    quoted sample size (the last four read from `section7_certificate`),
    and both readings of the CMD conversion factor (the one implied by the
    quoted end-to-end coefficient and the one following from the printed
    polynomial coefficients; they disagree, so both are reported and
    neither asserted).
    """
    p = SECTION7
    cert = section7_certificate()
    required = {c.name: c.required for c in cert.conditions}
    c_val = cert.constants["C"]
    _, c5_from_coeffs = coefficient_abs_sums(build_legendre_basis(p["m"]))
    sqrt_2ec = math.sqrt(2.0 * math.e * c_val)
    sqrt_8cmd = math.sqrt(8.0 * c_val * p["m"] / p["delta"])
    quoted_total_coefficient = 2.96e8
    c5_implied = quoted_total_coefficient / (
        sqrt_2ec * 25.0 * 6.0 * 10.0 * math.sqrt(p["N"])
    )
    return {
        "constants": cert.constants,
        "moment_coefficient": sqrt_2ec,          # quoted as 84.6
        "sampling_coefficient": sqrt_8cmd,       # quoted as 513
        "moment_threshold": required["moment_distance"],  # quoted as 2.3e-5
        "minimal_k": required["sample_size"],    # quoted as 6.3e9
        "vc_term": cert.terms["vc_term"],        # quoted as 2.95e-4
        "sampling_term": cert.terms["sampling_term"],  # quoted as 1.44e-2 / 0.0148
        "cmd_factor_from_coefficients": cmd_to_moment_bound(p["N"], c5_from_coeffs),
        "c5_from_coefficients": c5_from_coeffs,
        "c5_implied_by_quoted_coefficient": c5_implied,
        "end_to_end_cmd_coefficient": sqrt_2ec
        * cmd_to_moment_bound(p["N"], c5_from_coeffs),
        "quoted_end_to_end_cmd_coefficient": quoted_total_coefficient,
    }
