"""Benchmark of the qpusim simulator.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all

NAME is one of the workloads in benchmarks/WORKLOADS.md, or `all` to run every
workload in turn. Each invocation first runs the oracle check (`validate`) on
the workload's configs and seed, untimed, and requires PASS.

With --trace 0 it repeats fresh-process runs until they have taken S seconds
(at least three runs) and reports the end-to-end metrics: median set-up time,
run time and peak RSS. Every run must produce the same metrics-stream sha256.

With --trace 1 it also runs the tracer self-test, and alternates untraced and
traced runs until they have taken S seconds (at least one pair). It reports
the per-layer metrics of BENCHMARK.json as medians over the traced runs.

Output: one line per metric with its unit, a JSON line with the run context
and details, and, last, a JSON line {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import spawn
from selftest import check_tracer
from workloads import NAMES, ROOT, SCALE, use_checkout_source

MIN_RUNS = 3


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def context(seed: int) -> dict:
    """What makes two result files comparable."""

    def git(*args: str) -> str | None:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(
                ["git", "--no-optional-locks", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if revision else None
    return {
        "git_revision": revision.strip() if revision else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "scale": SCALE,
    }


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def bench(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measures one workload; returns its printable report."""
    modes, minimum = (("run", "traced"), 1) if trace else (("run",), MIN_RUNS)
    by_mode: dict[str, list[dict]] = {mode: [] for mode in modes}
    timed = 0.0

    def measure(until_s: float, rounds: int) -> None:
        nonlocal timed
        while len(by_mode[modes[0]]) < rounds or timed < until_s:
            start = time.perf_counter()
            for mode in modes:
                by_mode[mode].append(spawn(name, seed, SCALE, mode))
            timed += time.perf_counter() - start

    # Host speed drifts over tens of seconds, so the untimed checks sit between
    # the two halves of the measurement, spreading the runs over more of it.
    measure(seconds / 2, 1)
    checks: list[str] = []
    gate = spawn(name, seed, SCALE, "validate")
    if not gate["ok"]:
        checks.append(f"validate failed:\n{gate['report']}")
    if trace:
        checks += check_tracer(seed)
    measure(seconds, minimum)

    metrics: dict[str, float] = {}
    runs = [r for mode in modes for r in by_mode[mode]]
    ok = [r for r in runs if r["error"] is None]
    checks += [f"run failed: {r['error']}" for r in runs if r["error"] is not None]
    shas = sorted({r["metrics_sha256"] for r in ok})
    if len(shas) > 1:
        checks.append(f"metrics streams differ between runs: {shas}")
    if not all(r["scheduled_ops_match"] for r in ok):
        checks.append("issued operations differ from the scheduled count")
    sim = ok[0]["sim"] if ok else {}
    if trace:
        ok_plain = [r for r in by_mode["run"] if r["error"] is None]
        ok_traced = [r for r in by_mode["traced"] if r["error"] is None]
        if ok_plain and ok_traced:
            untraced_s = _median(ok_plain, "run_s")
            layers = [r["layers"] for r in ok_traced]
            metrics = {m: statistics.median(layer[m] for layer in layers) for m in layers[0]}
            metrics.update(sim)
            metrics["simkernel.events_per_s"] = metrics["simkernel.events"] / untraced_s
            metrics["trace.overhead_s"] = _median(ok_traced, "run_s") - untraced_s
    elif ok:
        metrics = {"setup_s": _median(runs, "setup_s"), "run_s": _median(ok, "run_s"), "peak_rss_mb": _median(ok, "peak_rss_mb")}
    return {
        "workload": name,
        "checks": checks,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
        "detail": {
            "validate_s": gate["seconds"],
            "metrics_sha256": shas[0] if len(shas) == 1 else None,
            "sim": sim,
            "runs": [
                {k: r.get(k) for k in ("setup_s", "run_s", "run_host_s", "calibration_s", "peak_rss_mb", "attempted", "failed", "error")}
                for r in runs
            ],
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_checkout_source()
    units = _declared()[args.trace]
    ctx = context(args.seed)

    names = NAMES if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report = bench(name, args.seed, args.seconds, args.trace)
        missing = [m for m in units if m not in report["metrics"]]
        if missing and not report["checks"]:
            report["checks"].append(f"metrics not measured: {missing}")
        print(f"{name}  seed {args.seed}  scale {SCALE}  runs {len(report['detail']['runs'])}")
        for metric, unit in units.items():
            if metric in report["metrics"]:
                print(f"  {metric:<34} {report['metrics'][metric]:>16.6g} {unit}")
        for metric, value in report["detail"]["sim"].items():
            if metric not in units:
                print(f"  {metric:<34} {value:>16.6g}  (modelled)")
        print(f"  ops attempted {report['attempted']}, failed {report['failed']}")
        print(f"  metrics_sha256 {report['detail']['metrics_sha256']}")
        for problem in report["checks"]:
            print(f"  CHECK FAILED: {problem}")
        print(json.dumps({"context": ctx, **report}, sort_keys=True))

        final["correct"] = final["correct"] and not report["checks"]
        final["attempted"] += report["attempted"]
        final["failed"] += report["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            if metric in report["metrics"]:
                final["metrics"][prefix + metric] = {"value": report["metrics"][metric], "unit": unit}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
