"""Seeded experiment drivers.

Each driver returns an ExperimentRecord: named parameters, per-trial rows,
summary statistics, and explicit pass/fail criteria.  Rerunning a driver
with identical parameters and seed reproduces identical output bytes, and
every inequality check computes its two sides independently.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import make_tensor_basis
from .bounds import (
    SECTION7,
    constant_C_simple,
    improved_constants,
    section7_values,
    smoothness_membership,
    theorem1_l1_bound,
    theorem1_threshold,
    theorem2_certificate,
)
from .densities import (
    ExpFamilyDensity,
    GridResolutionError,
    ProductDensity,
    Sample,
    draw_sample,
    make_truncated_normal,
    moments,
    native_order,
    product_density,
    sample_moments,
    smoothness_report,
)
from .maxent import InfeasibleMomentsError, _fit_rows, epsilon_gap
from .metrics import (
    Classifier,
    Labeling,
    cmd,
    kl_expfam_closed_form,
    l1_distance,
    levy_metric,
    moment_l1,
    risk,
    tabulate_cdf,
)
from .quadrature import gauss_rule

# Stride between derived per-trial seeds; any large prime keeps the
# substreams of distinct trials distinct for every base seed.
SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class ExperimentRecord:
    """Result table of one experiment run.

    rows all share the same key set (the CSV header, in declaration
    order); criteria are named pass/fail checks whose conjunction is
    `passed`.
    """

    name: str
    parameters: dict
    seed: int
    rows: tuple[dict, ...]
    summary: dict
    criteria: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.criteria)

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.rows:
            writer = csv.DictWriter(buf, fieldnames=list(self.rows[0].keys()), lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "parameters": self.parameters,
                "seed": self.seed,
                "summary": self.summary,
                "criteria": list(self.criteria),
                "passed": self.passed,
            },
            sort_keys=True,
        )

    def write(self, outdir) -> tuple[Path, Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        csv_path = outdir / f"{self.name}-{self.seed}.csv"
        json_path = outdir / f"{self.name}-{self.seed}.json"
        csv_path.write_text(self.to_csv())
        json_path.write_text(self.to_json())
        return csv_path, json_path


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _criterion(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------
# Example-1 counterexample: moment closeness does not imply L1 closeness
# ---------------------------------------------------------------------------

def truncated_normal_counterexample(
    sigma_grid: Sequence[float] = (0.3, 0.1, 0.03, 0.01),
    mean_gap: float = 0.2,
    m: int = 2,
) -> ExperimentRecord:
    """Two truncated normals with a fixed mean gap and shrinking sigma.

    Both densities have log-quadratic form, hence zero entropy gap at
    order 2: they are exact maximum-entropy densities (epsilon = 0), yet
    their L1 distance approaches 2 as sigma shrinks while remaining a
    fixed-moment-gap family.
    """
    if any(s <= 0 for s in sigma_grid):
        raise ValueError("sigma values must be positive")
    basis = make_tensor_basis(m, 1)
    rows = []
    for sigma in sigma_grid:
        # narrow peaks need the dense rule; see the doubled-grid check
        order = 128 if sigma >= 0.05 else 512
        row = {
            "sigma": float(sigma),
            "order": order,
            "l1": math.nan,
            "moment_l1": math.nan,
            "eps_p": math.nan,
            "eps_q": math.nan,
            "error": "",
        }
        try:
            p = make_truncated_normal(0.5 - mean_gap / 2.0, sigma, order=order)
            q = make_truncated_normal(0.5 + mean_gap / 2.0, sigma, order=order)
            row["l1"] = l1_distance(p, q)
            row["moment_l1"] = moment_l1(moments(p, basis), moments(q, basis))
            row["eps_p"] = epsilon_gap(p, basis, order=order)
            row["eps_q"] = epsilon_gap(q, basis, order=order)
        except GridResolutionError as exc:
            row["error"] = str(exc)
        rows.append(row)
    by_sigma = {r["sigma"]: r for r in rows}
    widest = by_sigma[max(by_sigma)]
    narrowest = by_sigma[min(by_sigma)]
    max_eps = max(max(r["eps_p"], r["eps_q"]) for r in rows if not r["error"])
    criteria = (
        _criterion(
            "wide_sigma_l1_small",
            widest["l1"] < 0.6,
            f"sigma={widest['sigma']}: L1={widest['l1']:.4f} < 0.6",
        ),
        _criterion(
            "narrow_sigma_l1_near_2",
            narrowest["l1"] >= 1.99,
            f"sigma={narrowest['sigma']}: L1={narrowest['l1']:.6f} >= 1.99",
        ),
        _criterion(
            "zero_entropy_gap",
            max_eps <= 1e-7,
            f"max entropy gap {max_eps:.2e} <= 1e-7",
        ),
        _criterion(
            "l1_monotone_in_sigma",
            all(
                a["l1"] <= b["l1"] + 1e-12
                for a, b in zip(
                    sorted(rows, key=lambda r: -r["sigma"]),
                    sorted(rows, key=lambda r: -r["sigma"])[1:],
                )
            ),
            "L1 nondecreasing as sigma shrinks",
        ),
    )
    return ExperimentRecord(
        name="truncated-normal",
        parameters={"sigma_grid": [float(s) for s in sigma_grid], "mean_gap": mean_gap, "m": m},
        seed=0,
        rows=tuple(rows),
        summary={
            "l1_wide": widest["l1"],
            "l1_narrow": narrowest["l1"],
            "max_entropy_gap": max_eps,
        },
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# Moment-to-L1 bound verified on random admissible density pairs
# ---------------------------------------------------------------------------

# per-coordinate lambda box for random order-3 class members: the cubic
# coefficient is pinned tightly because the third-derivative norm scales as
# 120*sqrt(7) times it, against a threshold of only 5^{-1}
H30_LAMBDA_BOX = np.array([0.30, 0.25, 5.0e-4])
H30_PAIR_PERTURBATION = 1.5e-4
# theorem1_empirical_verification gives up after this many candidates per
# requested admissible pair
THEOREM1_ATTEMPTS_PER_TRIAL = 20


def theorem1_empirical_verification(
    trials: int = 100,
    m: int = 3,
    dim: int = 1,
    seed: int = 0,
) -> ExperimentRecord:
    """Random admissible pairs never violate the moment-to-L1 bound.

    Pairs of class members (verified by the smoothness check, epsilon = 0)
    passing the moment-threshold gate are kept until `trials` admissible
    pairs accumulate; on each the realized L1 distance is compared against
    sqrt(2C)*||dmu||_1 with the uniform constant C = 2 e^{(3m-1)/2}.
    Both sides are computed independently (quadrature vs moments).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if m != len(H30_LAMBDA_BOX):
        raise ValueError(f"got m = {m}, but H30_LAMBDA_BOX is defined for m = 3 only")
    basis = make_tensor_basis(m, dim)
    box = np.tile(H30_LAMBDA_BOX, dim)
    c_val = constant_C_simple(m)
    gate = theorem1_threshold(c_val, m)

    def member(density: ExpFamilyDensity) -> bool:
        report = smoothness_report(density, m)
        return smoothness_membership(report, epsilon=0.0).member is True

    rng = np.random.default_rng(seed)
    rows = []
    attempts = 0
    accepted = 0
    rejected_membership = 0
    rejected_gate = 0
    while accepted < trials and attempts < THEOREM1_ATTEMPTS_PER_TRIAL * trials:
        attempts += 1
        p = ExpFamilyDensity(basis=basis, lam=rng.uniform(-box, box))
        if not member(p):
            rejected_membership += 1
            continue
        delta = rng.uniform(
            -H30_PAIR_PERTURBATION, H30_PAIR_PERTURBATION, size=basis.n_features
        )
        q = ExpFamilyDensity(basis=basis, lam=p.lam + delta)
        if not member(q):
            rejected_membership += 1
            continue
        dist = moment_l1(moments(p, basis), moments(q, basis))
        bound = theorem1_l1_bound(dist, m, 0.0).total
        if bound is None:
            rejected_gate += 1
            continue
        accepted += 1
        realized = l1_distance(p, q)
        rows.append(
            {
                "trial": accepted,
                "moment_l1": dist,
                "l1": realized,
                "bound": bound,
                "slack": bound - realized,
                "violation": realized > bound,
            }
        )
    slacks = np.array([r["slack"] for r in rows]) if rows else np.array([np.inf])
    violations = sum(r["violation"] for r in rows)
    criteria = (
        _criterion(
            "enough_admissible_pairs",
            accepted >= trials,
            f"{accepted}/{trials} admissible pairs in {attempts} attempts",
        ),
        _criterion("zero_violations", violations == 0, f"{violations} violations"),
    )
    return ExperimentRecord(
        name="theorem1-verify",
        parameters={"trials": trials, "m": m, "N": dim, "C": c_val, "gate": gate},
        seed=seed,
        rows=tuple(rows),
        summary={
            "attempts": attempts,
            "accepted": accepted,
            "rejected_membership": rejected_membership,
            "rejected_gate": rejected_gate,
            "violations": int(violations),
            "slack_min": float(np.min(slacks)),
            "slack_median": float(np.median(slacks)),
        },
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# Concentration of the maxent fit at sample moments
# ---------------------------------------------------------------------------

def sample_concentration(
    p: ExpFamilyDensity,
    k_grid: Sequence[int] = (100, 1_000, 10_000, 100_000),
    trials: int = 200,
    delta: float = 0.2,
    seed: int = 0,
) -> ExperimentRecord:
    """KL distance of the sample-moment maxent fit to the population fit.

    For each sample size k: draw, fit the maxent density at the sample
    moments, and evaluate D(p* || p_hat) in closed form.  The lemma bound
    C e^{-c_inf} m/(k delta) must fail on at most a delta fraction of
    trials, and the median distance must decay like 1/k.
    """
    if not isinstance(p, ExpFamilyDensity):
        raise ValueError("concentration experiment needs an exponential-family p")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # the decay slope is fitted through the per-size medians
    if len(set(k_grid)) < 2 or min(k_grid) < 1:
        raise ValueError(
            f"k_grid needs at least two distinct sample sizes >= 1, got {list(k_grid)}"
        )
    basis = p.basis
    m = basis.m
    if basis.dim != 1:
        raise ValueError(f"the concentration bound has no N: p needs N = 1, got N = {basis.dim}")
    report = smoothness_report(p, m)
    consts = improved_constants(m, m, max(report.c_inf, 1e-12), float(np.max(report.c_r)))
    # draw every (k, trial) sample, keep only its moments, and fit them all at once
    sizes = [k for k in k_grid for _ in range(trials)]
    draws = (draw_sample(p, k, seed + SEED_STRIDE * (c + 1)) for c, k in enumerate(sizes))
    rule = gauss_rule(128)  # fit_maxent's default order
    lam, _, _, _, log_z, vals, errors = _fit_rows(
        np.array([sample_moments(s, basis).values for s in draws]), rule
    )
    rows = []
    medians = []
    infeasible_total = 0
    for i, k in enumerate(k_grid):
        bound = consts.C * math.exp(-consts.c_inf) * m / (k * delta)
        dists = []
        for r in range(i * trials, (i + 1) * trials):
            if errors[r] is None:
                q = ExpFamilyDensity._normalized(basis, lam[r], rule, log_z[r, None], vals[r, None])
                dists.append(kl_expfam_closed_form(p, q))
            elif not isinstance(errors[r], InfeasibleMomentsError):
                raise errors[r]
        infeasible = trials - len(dists)
        violations = sum(d > bound for d in dists)
        infeasible_total += infeasible
        med = float(np.median(dists)) if dists else math.nan
        medians.append(med)
        rows.append(
            {
                "k": int(k),
                "trials": trials,
                "infeasible": infeasible,
                "median_kl": med,
                "max_kl": float(np.max(dists)) if dists else math.nan,
                "bound": bound,
                "violation_fraction": violations / trials,
            }
        )
    slope = float(
        np.polyfit(np.log(np.asarray(k_grid, dtype=float)), np.log(medians), 1)[0]
    )
    tol = delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)
    worst_fraction = max(r["violation_fraction"] for r in rows)
    criteria = (
        _criterion(
            "violation_fraction",
            worst_fraction <= tol,
            f"worst fraction {worst_fraction:.3f} <= {tol:.3f}",
        ),
        _criterion(
            "decay_slope",
            abs(slope + 1.0) <= 0.15,
            f"log-log slope {slope:.3f} within -1 +/- 0.15",
        ),
    )
    return ExperimentRecord(
        name="sample-concentration",
        parameters={
            "k_grid": [int(k) for k in k_grid],
            "trials": trials,
            "delta": delta,
            "m": m,
            "C": consts.C,
            "c_inf": consts.c_inf,
        },
        seed=seed,
        rows=tuple(rows),
        summary={
            "slope": slope,
            "infeasible_total": infeasible_total,
            "worst_violation_fraction": worst_fraction,
        },
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# Fifth-order application constants, side by side with their quoted values
# ---------------------------------------------------------------------------

# (key, quoted value, relative tolerance); the sampling term is quoted
# inconsistently at two nearby values, so its band spans both
_SECTION7_CHECKS = (
    ("moment_coefficient", 84.6, 0.5 / 84.6),
    ("sampling_coefficient", 513.0, 2.0 / 513.0),
    ("moment_threshold", 2.3e-5, 0.05),
    ("minimal_k", 6.3e9, 0.02),
    ("vc_term", 2.95e-4, 0.02),
)


def _section7_row(
    quantity: str, computed: float, quoted: float, tolerance: float = math.nan, ok=None
) -> dict:
    """One row of the section-7 table; ok defaults to rel_error <= tolerance."""
    rel = abs(computed - quoted) / abs(quoted)
    return {
        "quantity": quantity,
        "computed": float(computed),
        "quoted": float(quoted),
        "rel_error": float(rel),
        "tolerance": float(tolerance),
        "ok": rel <= tolerance if ok is None else ok,
    }


def section7_repro() -> ExperimentRecord:
    """Recompute the worked fifth-order constants and compare to quotes."""
    vals = section7_values()
    rows = [_section7_row(key, vals[key], quoted, rtol) for key, quoted, rtol in _SECTION7_CHECKS]
    ok_all = all(row["ok"] for row in rows)
    sampling = vals["sampling_coefficient"] * math.sqrt(
        SECTION7["N"] / SECTION7["k"]
    )  # the quoted display evaluates 513*sqrt(N/k)
    sampling_ok = 0.0140 <= sampling <= 0.0150
    rows.append(_section7_row("sampling_term", sampling, 0.0144, ok=sampling_ok))
    # quoted end-to-end CMD coefficient vs the one implied by the printed
    # polynomial coefficients: reported, never asserted
    key = "end_to_end_cmd_coefficient"
    rows.append(_section7_row(key, vals[key], vals[f"quoted_{key}"], ok=True))
    criteria = (
        _criterion("constants_within_tolerance", ok_all, "all quoted constants reproduced"),
        _criterion(
            "sampling_term_band",
            sampling_ok,
            f"sampling term {sampling:.5f} in [0.0140, 0.0150]",
        ),
    )
    return ExperimentRecord(
        name="section7-repro",
        parameters={key: v for key, v in SECTION7.items() if key != "k"},
        seed=0,
        rows=tuple(rows),
        summary={
            "C": vals["constants"]["C"],
            "c5_from_coefficients": vals["c5_from_coefficients"],
            "c5_implied_by_quoted_coefficient": vals["c5_implied_by_quoted_coefficient"],
        },
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# Toy adaptation demo: finite search over representations and thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DemoScenario:
    """Shift-style pair of product densities on the unit square with a
    half-space labeling.

    Representations are coordinatewise power maps x -> x^c on the shifted
    coordinate: smooth, strictly monotone (full-rank Jacobian a.e.), and
    explicitly invertible, so labels transport through g exactly.
    """

    source_mean: float = 0.30
    target_mean: float = 0.55
    sigma: float = 0.08
    nuisance_mean: float = 0.5
    nuisance_sigma: float = 0.2
    label_boundary: float = 0.42
    g_exponents: tuple[float, ...] = (1.0, 0.75, 0.5, 0.35)
    f_thresholds: tuple[float, ...] = (0.2, 0.35, 0.5, 0.65, 0.8)
    k: int = 200
    vc_dimension: int = 3


def _demo_densities(s: DemoScenario) -> tuple[ProductDensity, ProductDensity]:
    p = product_density(
        [
            make_truncated_normal(s.source_mean, s.sigma),
            make_truncated_normal(s.nuisance_mean, s.nuisance_sigma),
        ]
    )
    q = product_density(
        [
            make_truncated_normal(s.target_mean, s.sigma),
            make_truncated_normal(s.nuisance_mean, s.nuisance_sigma),
        ]
    )
    return p, q


def _apply_g(points: np.ndarray, c: float) -> np.ndarray:
    out = points.copy()
    out[:, 0] = out[:, 0] ** c
    return out


def toy_adaptation_demo(
    scenario: Optional[DemoScenario] = None, seed: int = 0
) -> ExperimentRecord:
    """Exhaustive (f, g) search with and without the discrepancy penalty.

    Candidates g map the shifted coordinate of the source sample; f is an
    axis threshold in representation space.  The objective is empirical
    source risk plus weight * CMD between g(source sample) and the target
    sample.  Target risk is evaluated by quadrature with the labeling
    transported through the inverse of g.
    """
    s = scenario or DemoScenario()
    p, q = _demo_densities(s)
    x_p = draw_sample(p, s.k, seed)
    x_q = draw_sample(q, s.k, seed + SEED_STRIDE)
    labels_p = (x_p.points[:, 0] > s.label_boundary).astype(float)

    m = SECTION7["m"]
    basis = make_tensor_basis(m, 2)

    def target_risk(c: float, threshold: float) -> float:
        # change of variables: risk under the pushforward of q equals the
        # x-space risk of x -> f(g(x)) against x -> l(g(x)), where l is the
        # labeling transported through g^{-1}: a -> 1[a^(1/c) > boundary]
        boundary_rep = s.label_boundary**c
        f = Classifier(
            fn=lambda pts: (_apply_g(pts, c)[:, 0] > threshold).astype(float),
            description=f"rep threshold {threshold}",
        )
        lab = Labeling(
            fn=lambda pts: (_apply_g(pts, c)[:, 0] > boundary_rep).astype(float),
            description="transported labeling",
        )
        return risk(f, lab, q, order=native_order(q))

    rows = []
    selections = {}
    for weight in (0.0, 1.0):
        best = None
        for c in s.g_exponents:
            rep_p = _apply_g(x_p.points, c)
            rep_q = _apply_g(x_q.points, c)
            penalty = cmd(Sample(rep_p), Sample(rep_q), m)
            for threshold in s.f_thresholds:
                pred = (rep_p[:, 0] > threshold).astype(float)
                emp = float(np.mean(np.abs(pred - labels_p)))
                objective = emp + weight * penalty
                if best is None or objective < best["objective"] - 1e-15:
                    best = {
                        "weight": weight,
                        "g_exponent": c,
                        "f_threshold": threshold,
                        "empirical_source_risk": emp,
                        "cmd": penalty,
                        "objective": objective,
                    }
        best["target_risk"] = target_risk(best["g_exponent"], best["f_threshold"])
        selections[weight] = best
        rows.append({k: v for k, v in best.items() if k != "objective"})

    chosen = selections[1.0]
    rep_p = _apply_g(x_p.points, chosen["g_exponent"])
    rep_q = _apply_g(x_q.points, chosen["g_exponent"])
    certificate = theorem2_certificate(
        k=s.k,
        d=s.vc_dimension,
        delta=SECTION7["delta"],
        m=m,
        dim=2,
        moment_distance=moment_l1(
            sample_moments(Sample(np.clip(rep_p, 0.0, 1.0)), basis),
            sample_moments(Sample(np.clip(rep_q, 0.0, 1.0)), basis),
        ),
        epsilon=0.0,
        constants=improved_constants(m, SECTION7["r"], SECTION7["c_inf"], SECTION7["c_r"]),
        empirical_source_risk=chosen["empirical_source_risk"],
        lambda_star=0.0,
    )
    bound_holds = (
        None
        if certificate.total is None
        else bool(chosen["target_risk"] <= certificate.total)
    )
    criteria = (
        _criterion(
            "penalized_cmd_no_larger",
            selections[1.0]["cmd"] <= selections[0.0]["cmd"] + 1e-12,
            f"cmd {selections[1.0]['cmd']:.4f} (weight 1) <= "
            f"{selections[0.0]['cmd']:.4f} (weight 0)",
        ),
        _criterion(
            "adapted_target_risk_no_larger",
            selections[1.0]["target_risk"] <= selections[0.0]["target_risk"] + 1e-12,
            f"target risk {selections[1.0]['target_risk']:.4f} (weight 1) <= "
            f"{selections[0.0]['target_risk']:.4f} (weight 0)",
        ),
    )
    return ExperimentRecord(
        name="toy-adaptation",
        parameters={
            "source_mean": s.source_mean,
            "target_mean": s.target_mean,
            "sigma": s.sigma,
            "label_boundary": s.label_boundary,
            "k": s.k,
            "g_exponents": list(s.g_exponents),
            "f_thresholds": list(s.f_thresholds),
            "vc_dimension": s.vc_dimension,
        },
        seed=seed,
        rows=tuple(rows),
        summary={
            "certificate": certificate.to_dict(),
            "certificate_applicable": certificate.applicable,
            "bound_holds": bound_holds,
        },
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# Levy metric against the moment distance along a 1-D sweep
# ---------------------------------------------------------------------------

def levy_relation_probe(
    t_grid: Sequence[float] = (0.0, 0.04, 0.08, 0.12, 0.16, 0.2),
    sigma: float = 0.15,
    m: int = 3,
) -> ExperimentRecord:
    """Both the Levy and the moment distance grow together along a mean
    sweep of truncated normals; only this qualitative co-monotonicity is
    asserted (the relating constants are non-constructive)."""
    basis = make_tensor_basis(m, 1)
    base = make_truncated_normal(0.5, sigma)
    base_cdf = tabulate_cdf(base)
    base_mu = moments(base, basis)
    rows = []
    for t in t_grid:
        shifted = make_truncated_normal(0.5 + t, sigma)
        rows.append(
            {
                "t": float(t),
                "levy": levy_metric(base_cdf, tabulate_cdf(shifted)),
                "moment_l1": moment_l1(base_mu, moments(shifted, basis)),
            }
        )
    levy_vals = [r["levy"] for r in rows]
    mom_vals = [r["moment_l1"] for r in rows]
    criteria = (
        _criterion(
            "zero_at_origin",
            levy_vals[0] <= 2e-6 and mom_vals[0] <= 1e-12,
            f"t=0: levy={levy_vals[0]:.2e}, moment_l1={mom_vals[0]:.2e}",
        ),
        _criterion(
            "strictly_increasing",
            all(a < b for a, b in zip(levy_vals, levy_vals[1:]))
            and all(a < b for a, b in zip(mom_vals, mom_vals[1:])),
            "both metrics strictly increasing in t",
        ),
    )
    return ExperimentRecord(
        name="levy-probe",
        parameters={"t_grid": [float(t) for t in t_grid], "sigma": sigma, "m": m},
        seed=0,
        rows=tuple(rows),
        summary={"levy_max": levy_vals[-1], "moment_l1_max": mom_vals[-1]},
        criteria=criteria,
    )


# ---------------------------------------------------------------------------
# Registry used by the CLI
# ---------------------------------------------------------------------------

def _default_concentration(seed: int, **kwargs) -> ExperimentRecord:
    basis = make_tensor_basis(3, 1)
    p = ExpFamilyDensity(basis=basis, lam=np.array([0.2, -0.1, 3e-4]))
    return sample_concentration(p, seed=seed, **kwargs)


EXPERIMENTS: dict[str, Callable[..., ExperimentRecord]] = {
    "truncated-normal": lambda seed=0, **kw: truncated_normal_counterexample(**kw),
    "theorem1-verify": lambda seed=0, **kw: theorem1_empirical_verification(seed=seed, **kw),
    "sample-concentration": lambda seed=0, **kw: _default_concentration(seed=seed, **kw),
    "section7-repro": lambda seed=0: section7_repro(),
    "toy-adaptation": lambda seed=0, **kw: toy_adaptation_demo(seed=seed, **kw),
    "levy-probe": lambda seed=0, **kw: levy_relation_probe(**kw),
}


def run_experiment(name: str, seed: int = 0, **kwargs) -> ExperimentRecord:
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[name](seed=seed, **kwargs)
