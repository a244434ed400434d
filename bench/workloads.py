"""The benchmark's four workloads.

Each workload owns a fixed pool of ops.  An op's inputs depend only on
its pool key, so the reference results recorded once in reference.json
apply to every run.  The run seed picks a stratified subset of the pool
(the cycle) and its order; the timed pass repeats the cycle.  At normal
size every workload's counts take its whole pool, so that every seed
measures the same ops and the seed sets only their order; smoke mode
takes a subset.

An op is one call, or one short chain of calls, into the public API of
momentadapt.  ``run`` is the timed part.  ``summarize`` and ``check`` run
untimed and untraced: they turn the op's output into plain JSON values
for the reference comparison and test invariants that hold for any
input.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import momentadapt as ma
import momentadapt.cli  # noqa: F401  (not re-exported by the package)

# Tolerances of the acceptance suite: maxent and KL values to 1e-7,
# worst-case gap = total variation to 1e-8; counts and exit codes exact.
TOL = 1e-7
TOL_WORST_CASE = 1e-8


def _rng(salt: int, key: str) -> np.random.Generator:
    return np.random.default_rng([salt, int(hashlib.sha256(key.encode()).hexdigest()[:12], 16)])


def _jsonable(obj):
    """Round-trip through JSON so that results compare as plain values."""
    return json.loads(json.dumps(obj))


def _record_result(rec) -> tuple[dict, str]:
    """An ExperimentRecord as JSON values, plus the digest of its CSV and
    JSON bytes (reruns with the same seed must reproduce them exactly)."""
    csv_text, json_text = rec.to_csv(), rec.to_json()
    digest = hashlib.sha256((csv_text + "\0" + json_text).encode()).hexdigest()
    return {"record": json.loads(json_text), "rows": _jsonable(list(rec.rows))}, digest


def compare(got, ref, tol: float, path: str = "") -> list[str]:
    """Mismatches between a result and its reference.

    Floats agree within tol relative to max(1, |ref|); ints, bools,
    strings and None must be equal; containers must have the same shape.
    """
    if isinstance(ref, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} is not a number (reference {ref!r})"]
        if math.isnan(ref) or math.isinf(ref):
            same = (math.isnan(ref) and math.isnan(got)) or got == ref
            return [] if same else [f"{path}: {got!r} != {ref!r}"]
        if abs(got - ref) <= tol * max(1.0, abs(ref)):
            return []
        return [f"{path}: {got!r} differs from reference {ref!r} by more than {tol:g}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        out = []
        for k in ref:
            out += compare(got[k], ref[k], tol, f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from reference"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare(g, r, tol, f"{path}[{i}]")
        return out
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


class Workload:
    """Pool, cycle selection and warm-up shared by all workloads."""

    name = ""
    unit = ""
    # per-cycle op count of each stratum, normal and smoke sizes
    counts: dict[str, int] = {}
    smoke_counts: dict[str, int] = {}
    warmup_strata: tuple[str, ...] = ()
    # fixed tail percentile, chosen so that a normal run has at least ten
    # ops beyond it and it does not fall between two ops of much different
    # cost (see summary() in worker.py)
    tail_pct = 90.0

    def __init__(self, workdir: Path, smoke: bool = False):
        self.workdir = workdir
        self.smoke = smoke
        self.pool = self.make_pool()

    def make_pool(self) -> list[dict]:
        raise NotImplementedError

    def select(self, rng: np.random.Generator) -> list[dict]:
        """Stratified subset of the pool in seeded order."""
        counts = self.smoke_counts if self.smoke else self.counts
        cycle = []
        for stratum in sorted(counts):
            group = [s for s in self.pool if s["stratum"] == stratum]
            picks = rng.choice(len(group), size=counts[stratum], replace=False)
            cycle += [group[i] for i in sorted(picks)]
        return [cycle[i] for i in rng.permutation(len(cycle))]

    def warmup(self) -> list[dict]:
        """First pool op of each warm-up stratum, the same for every seed."""
        out = []
        for stratum in self.warmup_strata:
            out.append(next(s for s in self.pool if s["stratum"] == stratum))
        return out

    def prepare(self, specs: list[dict]):
        """Build inputs that live outside the ops (files, fixed densities)."""

    def run(self, spec: dict):
        raise NotImplementedError

    def summarize(self, spec: dict, raw) -> tuple[object, float, str | None]:
        """(result as JSON values, units of work, digest of output bytes)."""
        raise NotImplementedError

    def check(self, spec: dict, raw, result) -> list[str]:
        """Invariant violations of one op's output."""
        return []

    def tol(self, spec: dict) -> float:
        return TOL


# ---------------------------------------------------------------------------


class Concentration(Workload):
    """sample_concentration driver calls on the registry density.

    Each call draws samples with k from 1e2 to 1e5 and fits a maxent
    density to every sample: thousands of small dual Newton solves that
    each rebuild the Gauss rule, the feature table and an
    ExpFamilyDensity.
    """

    name = "concentration"
    unit = "maxent fits"
    K_GRID = (100, 1_000, 10_000, 100_000)
    TRIALS = 2
    # The cycle is the whole pool, so that every seed runs the same ops
    # (a seeded subset made p50 and tail depend on the seed), and the pool
    # is small enough for five cycles of about 5 s in a 25 s run.
    counts = {"driver": 24}
    smoke_counts = {"driver": 1}
    warmup_strata = ("driver",)
    # three of 24 ops beyond it; op costs there are as dense as at p50
    tail_pct = 85.0

    def make_pool(self):
        return [{"key": f"driver-{i}", "stratum": "driver", "seed": 1000 + i} for i in range(24)]

    def prepare(self, specs):
        basis = ma.make_tensor_basis(3, 1)
        self.density = ma.ExpFamilyDensity(basis=basis, lam=np.array([0.2, -0.1, 3e-4]))

    def run(self, spec):
        return ma.sample_concentration(
            self.density, k_grid=self.K_GRID, trials=self.TRIALS, seed=spec["seed"]
        )

    def summarize(self, spec, raw):
        result, digest = _record_result(raw)
        return result, len(self.K_GRID) * self.TRIALS, digest

    def check(self, spec, raw, result):
        bad = []
        for row in raw.rows:
            if row["trials"] != self.TRIALS:
                bad.append(f"k={row['k']}: {row['trials']} trials")
            if not row["median_kl"] >= 0.0:
                bad.append(f"k={row['k']}: negative median KL {row['median_kl']!r}")
        return bad


class Theorem1(Workload):
    """theorem1_empirical_verification(trials=1, m=3, dim=1) calls.

    The time goes to screening random candidates with smoothness_report:
    finite differences, the sup-log-density probe and one projection per
    report.
    """

    name = "theorem1"
    unit = "candidates screened"
    # The number of candidates a seed screens varies (1 to 3 here), so the
    # cycle is the whole pool: every seed runs the same mix of op costs.
    counts = {"driver": 48}
    smoke_counts = {"driver": 1}
    warmup_strata = ("driver",)
    # Nine entries screen 2 or 3 candidates and cost 1.3x to 2x the rest;
    # p90 falls among them where neighbouring costs are within 3%.
    tail_pct = 90.0

    def make_pool(self):
        return [{"key": f"driver-{i}", "stratum": "driver", "seed": i} for i in range(48)]

    def run(self, spec):
        return ma.theorem1_empirical_verification(trials=1, m=3, dim=1, seed=spec["seed"])

    def summarize(self, spec, raw):
        result, digest = _record_result(raw)
        return result, raw.summary["attempts"], digest

    def check(self, spec, raw, result):
        bad = []
        if raw.summary["violations"] != 0:
            bad.append(f"{raw.summary['violations']} bound violations")
        for row in raw.rows:
            if not 0.0 <= row["l1"] <= 2.0:
                bad.append(f"L1 {row['l1']!r} outside [0, 2]")
        return bad


# ---------------------------------------------------------------------------


class GridMetrics(Workload):
    """Density pairs on tensor grids and the metric calls on them.

    Families: truncated normals at orders 128 and 512, product densities
    at N=2, exponential-family members at N=1, 2 and 3.  N=3 builds a
    2.1e6-node grid, so only L1 and KL run on it.  Densities are built
    inside the op, which includes the doubled-grid normalization check of
    every GridDensity.
    """

    name = "grid_metrics"
    unit = "metric calls"
    FAMILIES = {
        "tn128": ("l1", "kl", "wcl", "risk", "levy", "mom"),
        "tn512": ("l1", "kl", "wcl", "risk", "levy", "mom"),
        "prod2": ("l1", "kl", "wcl", "risk"),
        "ef1": ("l1", "kl", "wcl", "risk", "levy"),
        "ef2": ("l1", "kl", "wcl", "risk"),
        "ef3": ("l1", "kl"),
    }
    # One pair per family and metric, the same for every seed: with seeded
    # picks among four pairs each, the pairs a cycle drew moved p50 and
    # tail with the seed.
    counts = {f"{fam}-{met}": 1 for fam, mets in FAMILIES.items() for met in mets}
    smoke_counts = {f"tn128-{met}": 1 for met in FAMILIES["tn128"]}
    smoke_counts["ef1-kl"] = 1
    warmup_strata = (
        "tn128-l1", "tn128-kl", "tn128-wcl", "tn128-risk", "tn128-levy",
        "tn128-mom", "ef1-kl", "ef2-l1",
    )
    # four of 27 ops beyond it: the N=3 pairs and the two dearest tn512 ops
    tail_pct = 85.0

    def make_pool(self):
        return [
            self._spec(f"{fam}-{met}-0", f"{fam}-{met}", fam, met)
            for fam, mets in self.FAMILIES.items()
            for met in mets
        ]

    def _spec(self, key, stratum, fam, met):
        rng = _rng(3, key)
        spec = {"key": key, "stratum": stratum, "family": fam, "metric": met}
        if fam in ("tn128", "tn512"):
            lo, hi = (0.1, 0.4) if fam == "tn128" else (0.02, 0.08)
            spec["p"] = [float(rng.uniform(0.2, 0.8)), float(rng.uniform(lo, hi))]
            spec["q"] = [float(rng.uniform(0.2, 0.8)), float(rng.uniform(lo, hi))]
            spec["order"] = 128 if fam == "tn128" else 512
        elif fam == "prod2":
            spec["p"] = [[float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.4))] for _ in range(2)]
            spec["q"] = [[float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.4))] for _ in range(2)]
        else:
            n = int(fam[2])
            spec["dim"] = n
            spec["p"] = rng.uniform(-1.5, 1.5, 3 * n).tolist()
            spec["q"] = rng.uniform(-1.5, 1.5, 3 * n).tolist()
        spec["threshold"] = float(rng.uniform(0.3, 0.7))
        spec["boundary"] = float(rng.uniform(0.3, 0.7))
        spec["m"] = int(rng.integers(1, 4))
        return spec

    def _pair(self, spec):
        fam = spec["family"]
        if fam in ("tn128", "tn512"):
            order = spec["order"]
            return (
                ma.make_truncated_normal(*spec["p"], order=order),
                ma.make_truncated_normal(*spec["q"], order=order),
            )
        if fam == "prod2":
            return tuple(
                ma.product_density([ma.make_truncated_normal(mu, s) for mu, s in spec[side]])
                for side in ("p", "q")
            )
        basis = ma.make_tensor_basis(3, spec["dim"])
        return (
            ma.ExpFamilyDensity(basis=basis, lam=np.array(spec["p"])),
            ma.ExpFamilyDensity(basis=basis, lam=np.array(spec["q"])),
        )

    def run(self, spec):
        p, q = self._pair(spec)
        met = spec["metric"]
        if met == "l1":
            value = ma.l1_distance(p, q)
        elif met == "kl":
            value = ma.kl_divergence(p, q)
        elif met == "wcl":
            f = ma.threshold_classifier(0, spec["threshold"])
            _, value = ma.worst_case_labeling(f, p, q)
        elif met == "risk":
            f = ma.threshold_classifier(0, spec["threshold"])
            b = spec["boundary"]
            lab = ma.Labeling(fn=lambda pts: (pts[:, 0] > b).astype(float))
            value = ma.risk(f, lab, p)
        elif met == "levy":
            value = ma.levy_metric(ma.tabulate_cdf(p), ma.tabulate_cdf(q))
        else:  # mom
            basis = ma.make_tensor_basis(spec["m"], 1)
            mu = ma.moments(p, basis)
            gap = ma.epsilon_gap(p, basis, order=spec["order"])
            value = {"moments": mu.values.tolist(), "gap": gap}
        return value, p, q

    def summarize(self, spec, raw):
        value = raw[0]
        return _jsonable(value if isinstance(value, dict) else float(value)), 1, None

    def check(self, spec, raw, result):
        value, p, q = raw
        met = spec["metric"]
        if met == "l1" and not 0.0 <= value <= 2.0:
            return [f"L1 {value!r} outside [0, 2]"]
        if met == "kl":
            if not value >= 0.0:
                return [f"negative KL {value!r}"]
            if isinstance(p, ma.ExpFamilyDensity):
                closed = ma.kl_expfam_closed_form(p, q)
                if abs(closed - value) > TOL * max(1.0, abs(closed)):
                    return [f"quadrature KL {value!r} != closed form {closed!r}"]
        if met == "wcl":
            tv = ma.total_variation(p, q)
            if abs(value - tv) > TOL_WORST_CASE:
                return [f"worst-case gap {value!r} != total variation {tv!r}"]
        if met in ("risk", "levy") and not 0.0 <= value <= 1.0:
            return [f"{met} {value!r} outside [0, 1]"]
        if met == "mom" and not value["gap"] >= 0.0:
            return [f"negative entropy gap {value['gap']!r}"]
        return []

    def tol(self, spec):
        return TOL_WORST_CASE if spec["metric"] == "wcl" else TOL


# ---------------------------------------------------------------------------


class Cli(Workload):
    """In-process ``momentadapt.cli.main(argv)`` calls over a seeded mix.

    Successful subcommands run next to inputs that must fail: infeasible
    moments (exit 2) and bad specs or flags (exit 1).  stdout and stderr
    are captured; stdout is the checked output, stderr is ignored.
    """

    name = "cli"
    unit = "invocations"
    # Op costs within a stratum differ by up to 3x, so the cycle is the
    # whole pool: every seed runs the same mix of op costs.
    counts = {
        "fit": 9, "fit_infeasible": 3, "bad_input": 6, "distance_l1": 6,
        "distance_kl": 6, "distance_moment": 6, "distance_cmd": 6,
        "distance_levy": 6, "certify_preset": 3, "certify_flags": 6,
        "basis": 9, "exp_section7": 2, "exp_levy": 2,
    }
    smoke_counts = {k: 1 for k in counts}
    warmup_strata = (
        "fit", "fit_infeasible", "bad_input", "distance_l1", "distance_kl",
        "distance_moment", "distance_cmd", "distance_levy", "certify_preset",
        "certify_flags", "basis", "exp_section7",
    )
    # below the two levy-probe ops, among distance ops within 3% of each other
    tail_pct = 95.0

    def make_pool(self):
        pool = []

        def add(stratum, i, argv, expect=0, **extra):
            pool.append({"key": f"{stratum}-{i}", "stratum": stratum, "argv": argv,
                         "expect": expect, **extra})

        for i in range(9):
            rng = _rng(4, f"fit-{i}")
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            add("fit", i, ["fit", f"fit-{i}.csv", "--m", str(m), "--N", str(n)],
                lam=rng.uniform(-1.0, 1.0, m * n).tolist(), m=m, N=n)
        for i in range(3):
            rng = _rng(4, f"fit_infeasible-{i}")
            mu = [float(rng.uniform(1.65, 1.72)), float(rng.uniform(1.85, 1.95))]
            add("fit_infeasible", i, ["fit", f"fit_infeasible-{i}.csv", "--m", "2", "--N", "1"],
                expect=2, moments=mu)
        bad = [
            ["distance", "--p", '{"type":"gauss","mean":0.5}', "--q", '{"type":"uniform","N":1}', "--metric", "l1"],
            ["distance", "--p", '{"type":"truncnorm","mean":0.5', "--q", '{"type":"uniform","N":1}', "--metric", "kl"],
            ["basis", "--m", "31"],
            ["certify", "--k", "1000"],
            ["distance", "--p", '{"type":"truncnorm","mean":0.5,"sigma":0.2}', "--q", '{"type":"truncnorm","mean":0.4,"sigma":0.2}', "--metric", "cmd"],
            ["fit", "bad_input-5.csv", "--m", "2", "--N", "2"],
        ]
        for i, argv in enumerate(bad):
            add("bad_input", i, argv, expect=1, moments=[0.1, 0.2, 0.3])
        for metric, stratum in (("l1", "distance_l1"), ("kl", "distance_kl"),
                                ("moment-l1", "distance_moment"), ("cmd", "distance_cmd"),
                                ("levy", "distance_levy")):
            for i in range(6):
                rng = _rng(4, f"{stratum}-{i}")
                # sampling (cmd) and CDFs (levy) need 1-D or product densities
                dim = 1 if metric in ("cmd", "levy") or i % 2 == 0 else 2
                kinds = ("truncnorm", "expfam", "uniform") if dim == 1 else ("expfam", "uniform")
                argv = ["distance",
                        "--p", self._spec(rng, kinds[i % len(kinds)], dim),
                        "--q", self._spec(rng, kinds[(i + 1) % len(kinds)], dim),
                        "--metric", metric]
                if metric == "moment-l1":
                    argv += ["--m", str(int(rng.integers(2, 6)))]
                if metric == "cmd":
                    argv += ["--seed", str(int(rng.integers(0, 10_000))),
                             "--k", str(int(rng.choice([500, 1000, 2000]))),
                             "--m", str(int(rng.integers(3, 6)))]
                add(stratum, i, argv)
        for i in range(3):
            rng = _rng(4, f"certify_preset-{i}")
            add("certify_preset", i, ["certify", "--preset", "section7",
                                      "--moment-distance", repr(float(rng.uniform(0, 2e-5))),
                                      "--source-risk", repr(float(rng.uniform(0, 0.1)))])
        for i in range(6):
            rng = _rng(4, f"certify_flags-{i}")
            argv = ["certify", "--k", repr(float(10 ** rng.uniform(4, 10))), "--d", "3",
                    "--m", str(int(rng.integers(2, 6))), "--N", str(int(rng.integers(1, 4))),
                    "--moment-distance", repr(float(rng.uniform(0, 1e-3)))]
            if i % 2:
                argv += ["--c-inf", "1.5", "--c-r", "2.0"]
            add("certify_flags", i, argv)
        for i in range(9):
            add("basis", i, ["basis", "--m", str(1 + (i * 7) % 30)])
        for i, fmt in enumerate(("json", "csv")):
            add("exp_section7", i, ["experiment", "section7-repro", "--format", fmt])
            add("exp_levy", i, ["experiment", "levy-probe", "--format", fmt])
        return pool

    @staticmethod
    def _spec(rng, kind: str, dim: int) -> str:
        if kind == "truncnorm":
            obj = {"type": "truncnorm", "mean": float(rng.uniform(0.2, 0.8)),
                   "sigma": float(rng.uniform(0.1, 0.4))}
        elif kind == "expfam":
            obj = {"type": "expfam", "m": 2, "N": dim,
                   "lambda": rng.uniform(-1.0, 1.0, 2 * dim).tolist()}
        else:
            obj = {"type": "uniform", "N": dim}
        return json.dumps(obj)

    def prepare(self, specs):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            if spec["argv"][0] != "fit":
                continue
            if "lam" in spec:
                basis = ma.make_tensor_basis(spec["m"], spec["N"])
                density = ma.ExpFamilyDensity(basis=basis, lam=np.array(spec["lam"]))
                values = ma.moments(density, basis).values.tolist()
            else:
                values = spec["moments"]
            (self.workdir / spec["argv"][1]).write_text(",".join(repr(v) for v in values) + "\n")

    def _argv(self, spec):
        argv = list(spec["argv"])
        if argv[0] == "fit":
            argv[1] = str(self.workdir / argv[1])
        return argv

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ma.cli.main(self._argv(spec))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def summarize(self, spec, raw):
        code, stdout = raw
        try:
            parsed = json.loads(stdout) if stdout.strip() else None
        except json.JSONDecodeError:
            parsed = [[_cell(c) for c in row] for row in csv.reader(io.StringIO(stdout))]
        digest = None
        if spec["argv"][0] == "experiment":
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        return {"exit": code, "stdout": parsed}, 1, digest

    def check(self, spec, raw, result):
        code = raw[0]
        if code != spec["expect"]:
            return [f"exit code {code!r}, expected {spec['expect']}"]
        return []


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


WORKLOADS = {w.name: w for w in (Concentration, Theorem1, GridMetrics, Cli)}
