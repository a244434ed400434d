"""One workload in a fresh interpreter; started by run.py, never directly.

Protocol on stdout: lines starting with ``@@bench`` carry the worker's
messages; anything else is ignored.  ``@@bench ready`` marks the end of
set-up (import, inputs, warm-up), just before the first timed op.
``@@bench result <json>`` carries the measurements.
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import re
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import momentadapt
import workloads
from tracer import Tracer

MARK = "@@bench"
MIN_CYCLES = 3

# How ops are timed.  The benchmark's host is shared, and two things
# disturb wall time there by far more than a 25 s run can average out:
# - the hypervisor takes a CPU away for milliseconds at a time, at times a
#   third of all busy time; and the thread can wait for a CPU;
# - the cost of the same work changes by up to 40% in phases of seconds to
#   minutes, with the load of the other tenants.
# So an op is timed by the CPU time of the calling thread, which leaves out
# the first, and is scaled by a calibration for the second.  A fixed kernel
# of interpreter work (JSON, sorting, a regex, string formatting) and of
# first touches of fresh memory pages, which calls neither the library nor
# BLAS, is timed the same way between ops, and each op's time is reported
# as CPU time x KERNEL_REF_S / (median of the kernel times nearest the op:
# before the previous op, just before it and just after it).  Page faults
# are there because their cost follows the host's load most closely: over
# 150 s of windows of 4 s, op time / kernel time spread by 5% with them,
# against 6.5% for op time alone and 7% to 11% for kernels of tight loops
# or numpy element-wise work.  On a quiet host the thread's CPU time is
# within 2% of wall time, BLAS included (OpenBLAS spins the calling thread
# while its helper threads work).  KERNEL_REF_S is the kernel's median on
# a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) at typical load.  The report
# keeps the wall times as measured.  Work that a change moved to another
# thread or process would not show in CPU time; compare the wall times in
# the report for such a change.
KERNEL_REF_S = 1.8e-3
SETUP_KERNELS = 40
KERNEL_PAGES = 256
_KERNEL_DOC = {"a": list(range(300)), "b": {str(i): [i, i * 0.5, "x" * (i % 7)] for i in range(150)}}
_KERNEL_RE = re.compile(r"(\d+)-(\w+)")


def kernel_time() -> float:
    """CPU time of one run of the calibration kernel."""
    clock = time.thread_time
    t0 = clock()
    json.loads(json.dumps(_KERNEL_DOC))
    pairs = sorted(((i * 7919) % 1000, str(i)) for i in range(500))
    for i in range(200):
        _KERNEL_RE.match(f"{i}-k{i}")
    "".join(f"{a}:{b};" for a, b in pairs[:200])
    with mmap.mmap(-1, KERNEL_PAGES * mmap.PAGESIZE) as buf:
        for offset in range(0, len(buf), mmap.PAGESIZE):
            buf[offset] = 1  # first touch: one page fault per page
    return clock() - t0


def emit(kind: str, payload=None):
    line = f"{MARK} {kind}" if payload is None else f"{MARK} {kind} {json.dumps(payload)}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


class Runner:
    """Runs ops, checks their outputs and keeps the failure tally."""

    def __init__(self, workload, reference: dict, tracer=None):
        self.wl = workload
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def run_ops(self, specs, calibrate: bool = False) -> dict:
        """Time each op; check all outputs afterwards, outside the timing.

        Returns per-op wall and CPU times (inf for a failed op), the units
        of work completed and, with calibrate, the kernel times taken before
        each op and after the last one.
        """
        raws, wall, cpu, kernels = [], [], [], []
        for spec in specs:
            if calibrate:
                kernels.append(kernel_time())
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                raw = self.wl.run(spec)
            except Exception as exc:  # an op failure is counted, not fatal
                raw = exc
            cpu.append(time.thread_time() - c0)
            wall.append(time.perf_counter() - t0)
            raws.append(raw)
        if calibrate:
            kernels.append(kernel_time())
        if self.tracer is not None:
            self.tracer.recording = False
        units = 0.0
        for i, (spec, raw) in enumerate(zip(specs, raws)):
            self.attempted += 1
            problems, op_units = self._check(spec, raw)
            if problems:
                wall[i] = cpu[i] = math.inf
                self.failures.append(f"{spec['key']}: {problems[0]}")
            else:
                units += op_units
        return {"wall": wall, "cpu": cpu, "units": units, "kernels": kernels}

    def _check(self, spec, raw) -> tuple[list[str], float]:
        """Problems with one op's output, and the units of work it did."""
        if isinstance(raw, Exception):
            return [f"raised {type(raw).__name__}: {raw}"], 0.0
        result, units, digest = self.wl.summarize(spec, raw)
        problems = self.wl.check(spec, raw, result)
        ref = self.reference.get(spec["key"])
        if ref is None:
            problems.append("no reference result")
        else:
            problems += workloads.compare(result, ref, self.wl.tol(spec), spec["key"])
        if digest is not None:
            seen = self.digests.setdefault(spec["key"], digest)
            if seen != digest:
                problems.append("output bytes differ from an earlier run of the same op")
        return problems, units


def timed_pass(runner: Runner, cycle, seconds: float, min_cycles: int) -> dict:
    """Repeat the cycle while the next one is expected to end within
    `seconds` of op wall time, and at least `min_cycles` times.

    Returns per-op times in run order: wall times as measured, and CPU
    times scaled to the kernel's reference speed.
    """
    wall, lats, kernels = [], [], []
    units = spent = 0.0
    cycles = 0
    while True:
        r = runner.run_ops(cycle, calibrate=True)
        ck = r["kernels"]
        wall += r["wall"]
        lats += [x * KERNEL_REF_S / statistics.median(ck[max(0, i - 1) : i + 2])
                 for i, x in enumerate(r["cpu"])]
        kernels += ck
        units += r["units"]
        spent += sum(x for x in r["wall"] if x != math.inf)
        cycles += 1
        if cycles >= min_cycles and spent * (1 + 1 / cycles) > seconds:
            break
    return {
        "latencies": lats,
        "wall_latencies": wall,
        "kernels": kernels,
        "units": units,
        "cycles": cycles,
        "op_seconds": spent,
    }


def summary(lats: list[float], n: int, units: float, cycles: int, pct: float) -> dict:
    """End-to-end metrics of a timed pass of `cycles` cycles of n ops.

    Each op's latency is the median of its times over the cycles, which
    drops a stall that hits one repetition but keeps what every repetition
    pays.  p50 and tail are taken over those, each op counted once per
    cycle; throughput is the units of a cycle over the sum of them.
    """
    per_op = sorted(statistics.median(lats[i::n]) for i in range(n))
    tail, beyond = percentile(per_op, pct)
    return {
        "units_per_s": units / cycles / sum(per_op),
        "call_ms.p50": statistics.median(per_op) * 1e3,
        "call_ms.tail": tail * 1e3,
        "ops_beyond_tail": beyond * cycles,
    }


def percentile(sorted_vals: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, math.ceil(len(sorted_vals) * pct / 100))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def trace_pass(runner: Runner, tracer, cycle, seconds: float, min_pairs: int) -> dict:
    """Untraced and traced runs of the same cycle, alternating, while the
    next pair is expected to end within `seconds` of op time.

    Counts come from the first traced cycle and must repeat exactly in
    every later one; self times are medians over the traced cycles, and the
    overhead is the median over pairs of traced / untraced op time - 1.
    """
    snaps, ratios, spent = [], [], 0.0
    while True:
        lats = runner.run_ops(cycle)["wall"]
        untraced = sum(x for x in lats if x != math.inf)
        tracer.install()
        tracer.reset()
        tracer.recording = True
        lats = runner.run_ops(cycle)["wall"]
        traced = sum(x for x in lats if x != math.inf)
        snaps.append(tracer.snapshot())
        tracer.uninstall()
        ratios.append(traced / untraced - 1.0)
        spent += untraced + traced
        if len(snaps) >= min_pairs and spent * (1 + 1 / len(snaps)) > seconds:
            break
    first = snaps[0]
    metrics = {}
    for key, value in first.items():
        if key.endswith("_s"):
            metrics[key] = statistics.median(snap[key] for snap in snaps)
            continue
        metrics[key] = value
        for snap in snaps[1:]:
            if snap.get(key) != value:
                runner.failures.append(f"trace count {key} did not repeat: {value} vs {snap.get(key)}")
                break
    c = first
    fits = c["maxent.fit_ok"] + c["maxent.fit_failed"]
    metrics["maxent.fit_ok_ratio"] = c["maxent.fit_ok"] / fits if fits else 0.0
    att = c["experiments.theorem1.attempts"]
    metrics["experiments.theorem1.accept_ratio"] = (
        c["experiments.theorem1.accepted"] / att if att else 0.0
    )
    metrics["trace.overhead_frac"] = statistics.median(ratios)
    return {
        "metrics": metrics,
        "overhead_by_pair": ratios,
        "counter_errors": tracer.counter_errors,
        "wrapped": tracer.found,
    }


def tally(runner: Runner) -> dict:
    return {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {ln.split()[-1] for ln in maps if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import os
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run", "reference"), default="run")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(momentadapt.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"momentadapt imported from {momentadapt.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload](Path(args.workdir), smoke=args.smoke)
    ref_path = Path(__file__).resolve().parent / "reference.json"

    if args.mode == "reference":
        wl.prepare(wl.pool)
        results = {}
        for spec in wl.pool:
            raw = wl.run(spec)
            result, _, _ = wl.summarize(spec, raw)
            problems = wl.check(spec, raw, result)
            if problems:
                raise SystemExit(f"{spec['key']}: {problems}")
            results[spec["key"]] = result
        emit("reference", results)
        return 0

    reference = json.loads(ref_path.read_text()).get(args.workload, {})
    cycle = wl.select(np.random.default_rng(args.seed))
    warm = wl.warmup()
    wl.prepare(warm + cycle)
    tracer = Tracer() if args.trace else None
    runner = Runner(wl, reference, tracer)
    runner.run_ops(warm)
    setup_cpu = time.thread_time()
    emit("ready")
    kernel = statistics.median(kernel_time() for _ in range(SETUP_KERNELS))
    emit("setup", {"cpu_s": setup_cpu, "scaled_s": setup_cpu * KERNEL_REF_S / kernel})
    if args.mode == "setup":
        emit("result", tally(runner))
        return 0

    out = {
        "cycle_ops": len(cycle),
        "cycle_keys": [s["key"] for s in cycle],
        "unit": wl.unit,
    }
    min_cycles = 2 if args.smoke else MIN_CYCLES
    if args.trace:
        out.update(trace_pass(runner, tracer, cycle, args.seconds, min_cycles))
    else:
        res = timed_pass(runner, cycle, args.seconds, min_cycles)
        n, cycles = len(cycle), res["cycles"]
        measured = summary(res["wall_latencies"], n, res["units"], cycles, wl.tail_pct)
        del measured["ops_beyond_tail"]
        out.update(summary(res["latencies"], n, res["units"], cycles, wl.tail_pct))
        out.update(
            {
                "ops": n * cycles,
                "cycles": cycles,
                "op_seconds": res["op_seconds"],
                "tail_pct": wl.tail_pct,
                "kernel_ms": {
                    "reference": KERNEL_REF_S * 1e3,
                    "median": statistics.median(res["kernels"]) * 1e3,
                    "min": min(res["kernels"]) * 1e3,
                    "max": max(res["kernels"]) * 1e3,
                },
                "op_ms": {
                    s["key"]: [x * 1e3 for x in res["latencies"][i::n]]
                    for i, s in enumerate(cycle)
                },
                "measured": measured,
            }
        )
    out.update(tally(runner))
    out["environment"] = environment()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit("result", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
