#!/usr/bin/env python3
"""Benchmark of the ``metaplectic`` package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  Workloads: ``closed_form``,
``grid_crosscheck``, ``phase_space``, ``cli_cold`` (see README.md).

The seed fixes a list of cases; a run cycles through that list in whole
rounds until the cases have taken ``--seconds`` in total, checks every
result against the benchmark's own references, and prints a summary on
stderr and one JSON object as the last line of stdout.  With ``--trace 1``
it instead runs the case list exactly once with per-layer spans recorded
and reports those.
"""

import os

# BLAS and OpenMP pools are sized when numpy loads, so pin them before any
# import can pull it in.  Children inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("closed_form", "grid_crosscheck", "phase_space", "cli_cold")
SETUP_PROBES = 3
TAIL_MIN_CASES = 40
ERR_FLOOR = 1e-17


def load_package():
    """Import ``metaplectic`` from this checkout's ``src``, or exit 1."""
    sys.path.insert(0, SRC)
    try:
        import metaplectic
    except ImportError as e:
        sys.exit(f"perfbench: cannot import metaplectic from {SRC}: {e}")
    if not os.path.abspath(metaplectic.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: metaplectic was imported from {metaplectic.__file__}, not {SRC}")
    # a sampled state that reaches the grid edge aliases; count it as a
    # failed case rather than a warning on stderr
    warnings.filterwarnings("error", message="state is not negligible")


def make_workdir(workload):
    path = os.path.join(ROOT, ".perfbench_tmp", f"{workload}-{os.getpid()}")
    os.makedirs(path)
    return path


def setup(workload, seed, workdir):
    import numpy as np
    wl = importlib.import_module(workload)
    return wl, wl.make_cases(np.random.default_rng(seed), workdir)


def time_setup(args):
    """Median time from spawning a fresh interpreter to the end of its
    set-up (package import and input generation), over ``SETUP_PROBES``
    processes run one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            sys.exit("perfbench: set-up probe failed")
        times.append(elapsed)
    return statistics.median(times)


class Ledger:
    """Latencies, check errors and failures of the cases of one run."""

    def __init__(self):
        self.latencies = []
        self.errors = []
        self.failed = 0

    def record(self, wl, case, run):
        t0 = time.perf_counter()
        try:
            result = run(case)
        except Exception:
            result = None
            reason = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        if result is not None:
            ck = wl.check(case, result)
            self.errors += ck.errors
            reason = "; ".join(ck.failures)
            if ck.ok:
                return dt, result
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: case {len(self.latencies) - 1} failed: {reason}", file=sys.stderr)
        return dt, result

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy(self):
        return sum(self.latencies)


def measure(wl, cases, seconds):
    """Untraced run: whole rounds of the case list until the cases have
    taken ``seconds``.  Checks run between cases, off the clock."""
    ledger = Ledger()
    peak_child_kb = 0
    while ledger.busy < seconds or ledger.attempted % wl.ROUND:
        _dt, result = ledger.record(wl, cases[ledger.attempted % len(cases)], wl.run)
        if getattr(wl, "CHILDREN", False) and result is not None:
            peak_child_kb = max(peak_child_kb, result["rss_kb"])
    rss_kb = peak_child_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return ledger, rss_kb / 1024


def measure_traced(wl, cases):
    """Traced run: the case list once, so span counts repeat exactly."""
    from spans import Tracer
    tracer = Tracer()
    tracer.install()

    def run(case):
        if hasattr(wl, "run_traced"):
            return wl.run_traced(case, tracer)
        tracer.active = True
        try:
            return wl.run(case)
        finally:
            tracer.active = False

    ledger = Ledger()
    per_command = {}
    for case in cases:
        dt, _ = ledger.record(wl, case, run)
        if "cmd" in case:
            per_command.setdefault(case["cmd"], []).append(dt)
    metrics = tracer.metrics()
    imports = tracer.self_times.get("cli.import", [])
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3 if imports else 0.0, "ms")
    from cli_cold import COMMANDS
    for cmd in COMMANDS:
        vals = per_command.get(cmd, [])
        metrics[f"cli.{cmd}.ms_p50"] = (statistics.median(vals) * 1e3 if vals else 0.0, "ms")
    metrics["traced.cases_per_s"] = (ledger.attempted / ledger.busy, "1/s")
    return ledger, metrics


def tail(latencies):
    """The highest percentile with at least ten cases beyond it, or None
    with fewer than ``TAIL_MIN_CASES`` cases."""
    n = len(latencies)
    if n < TAIL_MIN_CASES:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11] * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    load_package()
    workdir = make_workdir(args.workload)
    try:
        wl, cases = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return
        if args.trace:
            ledger, metrics = measure_traced(wl, cases)
        else:
            ledger, rss_mb = measure(wl, cases, args.seconds)
            worst = max(ledger.errors, default=0.0)
            metrics = {
                "cases_per_s": (ledger.attempted / ledger.busy, "1/s"),
                "case_ms_p50": (statistics.median(ledger.latencies) * 1e3, "ms"),
                "err_digits": (-math.log10(max(worst, ERR_FLOOR)), "digits"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = (time_setup(args), "s")

    print(f"{args.workload} seed={args.seed} trace={args.trace} cases={ledger.attempted} "
          f"failed={ledger.failed} case_time_s={ledger.busy:.2f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if not args.trace or value:
            print(f"  {name:45s} {value:14.6g} {unit}", file=sys.stderr)
    t = tail(ledger.latencies)
    if t is not None and not args.trace:
        print(f"  case_ms_tail (p{t[0]:.1f}, {ledger.attempted} cases){'':11s} {t[1]:14.6g} ms",
              file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
