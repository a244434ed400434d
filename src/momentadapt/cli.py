"""Command-line front end.

Subcommands: fit (maxent from a moment file), certify (bound
certificates), distance (density metrics), experiment (seeded drivers),
basis (Legendre coefficient dump).  Data goes to stdout as JSON (or CSV
where noted); logs go to stderr.  Exit codes: 0 success, 1 usage/parse
error, 2 infeasible moments, 3 iteration limit.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .basis import DegreeError, build_legendre_basis, make_tensor_basis
from .bounds import (
    SECTION7,
    improved_constants,
    section7_values,
    theorem2_certificate,
)
from .densities import (
    DensityError,
    ExpFamilyDensity,
    MomentVector,
    draw_sample,
    make_truncated_normal,
    moments,
    uniform_density,
)
from .experiments import EXPERIMENTS, run_experiment
from .maxent import InfeasibleMomentsError, MaxIterationsError, fit_maxent
from .metrics import (
    cmd,
    kl_divergence,
    l1_distance,
    levy_metric,
    moment_l1,
    tabulate_cdf,
)

log = logging.getLogger("momentadapt")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_MAX_ITER = 3

METRICS = ("l1", "kl", "moment-l1", "cmd", "levy")


class CliError(Exception):
    """Input problem reportable to the user; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_moments(path: str) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read moments file {path}: {exc}") from exc
    values = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for col, tok in enumerate(line.split(","), start=1):
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise CliError(
                    f"{path}:{ln}:{col}: not a number: {tok.strip()!r}"
                ) from exc
    return np.asarray(values)


def _parse_density(spec: str):
    """Density mini-format: inline JSON or @file containing it.

    Supported: {"type":"truncnorm","mean":..,"sigma":..[,"order":..]},
    {"type":"expfam","m":..,"N":..,"lambda":[..]}, {"type":"uniform","N":..}.
    """
    if spec.startswith("@"):
        try:
            spec = Path(spec[1:]).read_text()
        except OSError as exc:
            raise CliError(f"cannot read density spec file: {exc}") from exc
    try:
        obj = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise CliError(f"density spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "type" not in obj:
        raise CliError('density spec must be an object with a "type" key')
    kind = obj["type"]
    try:
        if kind == "truncnorm":
            return make_truncated_normal(
                float(obj["mean"]), float(obj["sigma"]), order=obj.get("order")
            )
        if kind == "expfam":
            basis = make_tensor_basis(int(obj["m"]), int(obj["N"]))
            return ExpFamilyDensity(basis=basis, lam=np.asarray(obj["lambda"], dtype=float))
        if kind == "uniform":
            return uniform_density(int(obj["N"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {kind!r} density spec: {exc}") from exc
    raise CliError(
        f"unknown density type {kind!r}; supported: truncnorm, expfam, uniform"
    )


def _emit(payload: str, out: str | None):
    if out:
        Path(out).write_text(payload + "\n")
        log.info("wrote %s", out)
    else:
        print(payload)


def _cmd_fit(args) -> int:
    values = _read_moments(args.moments)
    basis = make_tensor_basis(args.m, args.N)
    if len(values) != basis.n_features:
        raise CliError(
            f"moments file holds {len(values)} values; m*N = {basis.n_features}"
        )
    try:
        mu = MomentVector(basis=basis, values=values)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    try:
        result = fit_maxent(mu, tol=args.tol)
    except InfeasibleMomentsError as exc:
        log.error("infeasible moments: %s", exc)
        return EXIT_INFEASIBLE
    except MaxIterationsError as exc:
        log.error("no convergence: %s", exc)
        return EXIT_MAX_ITER
    _emit(json.dumps(result.to_dict(), sort_keys=True, allow_nan=False), args.out)
    return EXIT_OK


def _cmd_certify(args) -> int:
    # unset flags take the preset's values; without a preset, delta is 0.2
    defaults = SECTION7 if args.preset == "section7" else {"delta": 0.2}
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    required = {"k": args.k, "d": args.d, "m": args.m, "N": args.N}
    missing = [name for name, val in required.items() if val is None]
    if missing:
        raise CliError(f"missing required flags without --preset: {missing}")
    if (args.c_inf is None) != (args.c_r is None) or (args.r is not None and args.c_r is None):
        raise CliError("--c-inf and --c-r go together, and --r needs both")
    constants = None
    if args.c_inf is not None:
        constants = improved_constants(
            args.m, args.r if args.r is not None else args.m, args.c_inf, args.c_r
        )
    cert = theorem2_certificate(
        k=args.k,
        d=args.d,
        delta=args.delta,
        m=args.m,
        dim=args.N,
        moment_distance=args.moment_distance or 0.0,
        epsilon=args.epsilon or 0.0,
        constants=constants,
        empirical_source_risk=args.source_risk,
        lambda_star=args.lambda_star,
        sharper_sample_condition=args.sharper_sample_condition,
    )
    payload = cert.to_dict()
    # the worked table describes the unmodified preset only
    if args.preset == "section7" and all(getattr(args, k) == v for k, v in SECTION7.items()):
        payload["section7_table"] = {
            k: v for k, v in section7_values().items() if k != "constants"
        }
    _emit(json.dumps(payload, sort_keys=True, allow_nan=False), args.out)
    return EXIT_OK


def _cmd_distance(args) -> int:
    p = _parse_density(args.p)
    q = _parse_density(args.q)
    metric = args.metric
    if metric == "l1":
        value = l1_distance(p, q)
    elif metric == "kl":
        value = kl_divergence(p, q)
    elif metric == "moment-l1":
        basis = make_tensor_basis(args.m, p.dim)
        value = moment_l1(moments(p, basis), moments(q, basis))
    elif metric == "cmd":
        if args.seed is None:
            raise CliError("--seed is required for the sample-based cmd metric")
        xp = draw_sample(p, args.k, args.seed)
        xq = draw_sample(q, args.k, args.seed + 1)
        value = cmd(xp, xq, args.m)
    elif metric == "levy":
        value = levy_metric(tabulate_cdf(p), tabulate_cdf(q))
    else:  # pragma: no cover - argparse choices guard this
        raise CliError(f"unsupported metric {metric!r}; supported: {', '.join(METRICS)}")
    _emit(json.dumps({"metric": metric, "value": value}, sort_keys=True, allow_nan=False), args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    try:
        record = run_experiment(args.name, seed=args.seed, **kwargs)
    except KeyError as exc:
        raise CliError(str(exc.args[0])) from exc
    except TypeError as exc:
        raise CliError(f"bad parameters for {args.name!r}: {exc}") from exc
    if args.out:
        csv_path, json_path = record.write(args.out)
        log.info("wrote %s and %s", csv_path, json_path)
    if args.format == "csv":
        print(record.to_csv(), end="")
    else:
        print(record.to_json())
    for crit in record.criteria:
        log.info("criterion %s: %s (%s)", crit["name"], "pass" if crit["ok"] else "FAIL", crit["detail"])
    return EXIT_OK if record.passed else EXIT_USAGE


def _cmd_basis(args) -> int:
    try:
        basis = build_legendre_basis(args.m)
    except DegreeError as exc:
        raise CliError(str(exc)) from exc
    _emit(basis.to_json(), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="momentadapt", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="info logs on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="maxent density from a moment file")
    p_fit.add_argument("moments", help="CSV/newline file of m*N feature moments")
    p_fit.add_argument("--m", type=int, required=True, help="basis degree")
    p_fit.add_argument("--N", type=int, required=True, help="dimension")
    p_fit.add_argument("--tol", type=float, default=1e-9, help="moment residual tolerance")
    p_fit.add_argument("--out", help="output file (default stdout)")
    p_fit.set_defaults(fn=_cmd_fit)

    p_cert = sub.add_parser("certify", help="evaluate a bound certificate")
    p_cert.add_argument("--preset", choices=["section7"], help="built-in scenario")
    p_cert.add_argument("--k", type=float, help="sample size per domain")
    p_cert.add_argument("--d", type=float, help="VC dimension")
    p_cert.add_argument("--delta", type=float, help="failure probability")
    p_cert.add_argument("--m", type=int, help="moment order")
    p_cert.add_argument("--N", type=int, help="dimension")
    p_cert.add_argument("--r", type=int, help="smoothness order (default m)")
    p_cert.add_argument("--c-inf", type=float, help="log-density sup bound")
    p_cert.add_argument("--c-r", type=float, help="derivative norm bound")
    p_cert.add_argument("--epsilon", type=float, help="entropy gap")
    p_cert.add_argument("--moment-distance", type=float, help="||dmu||_1")
    p_cert.add_argument("--source-risk", type=float, default=0.0)
    p_cert.add_argument("--lambda-star", type=float, default=0.0)
    p_cert.add_argument(
        "--sharper-sample-condition",
        action="store_true",
        help="use the e^{-c_inf} sample-size condition variant",
    )
    p_cert.add_argument("--out", help="output file (default stdout)")
    p_cert.set_defaults(fn=_cmd_certify)

    p_dist = sub.add_parser("distance", help="distance between two densities")
    p_dist.add_argument("--p", required=True, help="density spec (JSON or @file)")
    p_dist.add_argument("--q", required=True, help="density spec (JSON or @file)")
    p_dist.add_argument("--metric", required=True, choices=METRICS)
    p_dist.add_argument("--m", type=int, default=5, help="moment/cmd order")
    p_dist.add_argument("--k", type=int, default=1000, help="cmd sample size")
    p_dist.add_argument("--seed", type=int, help="cmd sampling seed")
    p_dist.add_argument("--out", help="output file (default stdout)")
    p_dist.set_defaults(fn=_cmd_distance)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--trials", type=int, help="trial count where applicable")
    p_exp.add_argument("--out", help="directory for CSV/JSON result files")
    p_exp.add_argument("--format", choices=["json", "csv"], default="json")
    p_exp.set_defaults(fn=_cmd_experiment)

    p_basis = sub.add_parser("basis", help="dump Legendre basis coefficients")
    p_basis.add_argument("--m", type=int, required=True, help="basis degree")
    p_basis.add_argument("--out", help="output file (default stdout)")
    p_basis.set_defaults(fn=_cmd_basis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.fn(args)
    except (CliError, DensityError, DegreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
