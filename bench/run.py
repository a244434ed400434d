"""Benchmark of momentadapt: four seeded workloads, end-to-end metrics and a
traced run with per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload concentration --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # all workloads, one table
    python3 bench/run.py --smoke              # every workload, minimal size
    python3 bench/run.py --write-reference    # re-record bench/reference.json

Each workload runs in fresh interpreters (bench/worker.py) that import
momentadapt from ./src.  Set-up is timed SETUP_SAMPLES times, in separate
interpreters, from process start to just before the first timed op; the
last of them goes on to the timed pass.  The end-to-end times are CPU times
of the worker's main thread, scaled to the reference speed of its
calibration kernel (see worker.py); the report also gives wall times as
measured.  With --trace 1 the worker wraps the library's layers and
reports per-layer counts and self times, as measured, instead.

stdout ends with a report (indented JSON) and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  Metric names
and units are those of BENCHMARK.json.  A correctness failure is reported
in that object; any other error exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MARK = "@@bench"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
REFERENCE_LIMIT_S = 600.0


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], workdir: Path, deadline: float) -> tuple[float | None, dict]:
    """Run one worker; return its set-up time as measured and its messages
    by kind."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(workdir / "tmp")
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--workdir", str(workdir), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, msgs = None, {}
    try:
        for line in proc.stdout:
            if not line.startswith(MARK + " "):
                continue
            kind, _, payload = line[len(MARK) + 1 :].rstrip("\n").partition(" ")
            if kind == "ready":
                ready = time.perf_counter() - t0
            else:
                msgs[kind] = json.loads(payload)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready, msgs


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    """Set-up samples plus one measured pass of one workload."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--smoke"] if smoke else [])
    setups, raw_setups, attempted, failed, failures = [], [], 0, 0, []

    def add_setup(ready, msgs):
        if ready is None or "setup" not in msgs:
            raise BenchError(f"worker for {name} ended before its set-up was timed")
        raw_setups.append(ready)
        setups.append(msgs["setup"]["scaled_s"])

    try:
        for _ in range((1 if smoke else SETUP_SAMPLES) - 1):
            ready, msgs = spawn(base + ["--mode", "setup"], workdir, deadline)
            add_setup(ready, msgs)
            attempted += msgs["result"]["attempted"]
            failed += msgs["result"]["failed"]
            failures += msgs["result"]["failures"]
        ready, msgs = spawn(base + ["--mode", "run"], workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "result" not in msgs:
        raise BenchError(f"worker for {name} ended without a result")
    add_setup(ready, msgs)
    out = msgs["result"]
    out["attempted"] += attempted
    out["failed"] += failed
    out["failures"] = failures + out["failures"]
    out["setup_s_samples"] = setups
    out["setup_s_measured"] = raw_setups
    out["setup_s"] = statistics.median(setups)
    return out


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def missing_targets(spec: dict, out: dict) -> list[str]:
    """Wrap targets that per-layer metrics are named after but the traced
    run did not find, such as a function a later change removed."""
    targets = {
        m["name"].rsplit(".", 1)[0]
        for m in spec["per_layer"]
        if m["name"].endswith((".calls", ".self_s"))
    }
    return sorted(targets - set(out["wrapped"]))


def result_line(spec: dict, out: dict, trace: int) -> dict:
    if trace:
        values = out["metrics"]
        wanted = spec["per_layer"]
    else:
        values = out
        wanted = spec["end_to_end"]
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }


def report(spec, name, seed, seconds, trace, out) -> dict:
    rep = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": dict(out["environment"], git_commit=git_commit(), seed=seed),
        "unit_of_work": out["unit"],
        "cycle_ops": out["cycle_ops"],
        "cycle": out["cycle_keys"],
        "setup_s_samples": out["setup_s_samples"],
        "setup_s_measured": out["setup_s_measured"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "fail_frac": out["failed"] / out["attempted"],
        "failures": out["failures"],
        "peak_rss_mb": out["peak_rss_mb"],
        "load": "closed loop, one client, one thread of its own; BLAS threads as installed",
    }
    if trace:
        m = out["metrics"]
        rep["layers"] = {
            t: {
                "calls": m[f"{t}.calls"],
                "self_s": m[f"{t}.self_s"],
                "total_s": m[f"{t}.total_s"],
                "wait_s": 0.0,
            }
            for t in out["wrapped"]
        }
        rep["wait_s_note"] = "no layer has a queue or a lock, so no work waits for one"
        rep["missing_targets"] = missing_targets(spec, out)
        rep["counter_errors"] = out["counter_errors"]
        rep["trace_overhead"] = {
            "overhead_frac": m["trace.overhead_frac"],
            "by_untraced_traced_pair": out["overhead_by_pair"],
        }
    else:
        rep.update(
            {
                "ops": out["ops"],
                "cycles": out["cycles"],
                "op_seconds": out["op_seconds"],
                "kernel_ms": out["kernel_ms"],
                "measured": out["measured"],
                "op_ms": out["op_ms"],
                "call_ms.tail": {
                    "percentile": out["tail_pct"],
                    "ops": out["ops"],
                    "ops_beyond": out["ops_beyond_tail"],
                },
            }
        )
    return rep


def smoke(spec: dict) -> int:
    """Every workload, untraced and traced, at minimal size: all named
    metrics present and no failed op."""
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.perf_counter()
            out = run_workload(w["name"], seed=1, seconds=1, trace=trace, smoke=True)
            line = result_line(spec, out, trace)
            absent = [k for k, v in line["metrics"].items()
                      if not isinstance(v["value"], (int, float))]
            problems = out["failures"] + [f"metric {k} missing" for k in absent]
            if trace:
                problems += [f"wrap target {t} missing" for t in missing_targets(spec, out)]
            ok = ok and not problems and line["correct"]
            print(f"smoke {w['name']} trace={trace}: {len(line['metrics'])} metrics, "
                  f"{line['attempted']} ops, {line['failed']} failed, "
                  f"{time.perf_counter() - t0:.1f}s" + "".join(f"\n  {p}" for p in problems))
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload untraced, one table row each."""
    lines = {}
    print(f"{'workload':14}{'setup_s':>9}{'units/s':>10}  {'unit':20}{'p50_ms':>9}"
          f"{'tail_ms':>9} {'(pct, ops beyond)':18}{'fail_frac':>10}{'rss_MB':>8}{'ops':>7}")
    for w in spec["workloads"]:
        out = run_workload(w["name"], seed, seconds, 0)
        lines[w["name"]] = result_line(spec, out, 0)
        tail = f"(p{out['tail_pct']:g}, {out['ops_beyond_tail']})"
        print(f"{w['name']:14}{out['setup_s']:9.3f}{out['units_per_s']:10.2f}  {out['unit']:20}"
              f"{out['call_ms.p50']:9.2f}{out['call_ms.tail']:9.2f} {tail:18}"
              f"{out['failed'] / out['attempted']:10.4f}{out['peak_rss_mb']:8.1f}{out['ops']:7d}")
    print(json.dumps(lines))
    return 0


def write_reference(spec: dict) -> int:
    refs = {}
    for w in spec["workloads"]:
        workdir = ROOT / ".bench_work" / f"reference-{os.getpid()}"
        try:
            _, msgs = spawn(["--workload", w["name"], "--seed", "0", "--seconds", "0",
                             "--mode", "reference"], workdir,
                            time.monotonic() + REFERENCE_LIMIT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        refs[w["name"]] = msgs["reference"]
        print(f"{w['name']}: {len(refs[w['name']])} reference results")
    (BENCH / "reference.json").write_text(json.dumps(refs, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "momentadapt" / "__init__.py").is_file():
        print(f"error: no momentadapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.smoke:
            return smoke(spec)
        if args.write_reference:
            return write_reference(spec)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.workload == "all":
            return run_all(spec, args.seed, seconds)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            ap.error(f"--workload must be 'all' or one of {names}")
        out = run_workload(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(spec, args.workload, args.seed, seconds, args.trace, out), indent=1))
    print(json.dumps(result_line(spec, out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
