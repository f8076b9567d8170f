"""One measured simulator run in a fresh process; prints one JSON line.

    python3 benchmarks/child.py --workload NAME --seed N --scale F --mode MODE

MODE is `run` (untraced), `traced` (with the per-layer tracer installed) or
`validate` (the oracle check, untimed). A fresh process per run keeps
`ru_maxrss`, a high-water mark, specific to that run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, configs, scheduled_ops, use_checkout_source

# Set-up is short and noisy, so an untraced run sets up this many times and
# reports the median. The run uses the first set-up; the others follow once
# the run's state is freed, so they leave the run's peak RSS alone.
SETUP_REPEATS = 5

# The host's speed moves between plateaus about 1.5x apart that last tens of
# seconds, longer than any invocation. A fixed calibration loop, timed right
# before and right after each run, tracks them; `run_s` is the run's host time
# scaled to a host on which the loop takes REFERENCE_S.
REFERENCE_S = 0.150


def calibrate() -> float:
    """Host seconds for a fixed piece of pure-Python work of the kind the
    simulator does (dict updates, a heap, small tuples, a sort). It touches
    no qpusim code, and runs with the cyclic collector off, because a
    collection would traverse the simulation's live objects and so tie the
    loop's time to the run."""
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        counts: dict[str, int] = {}
        heap: list[tuple[float, int]] = []
        for i in range(60_000):
            key = f"k{rng.randrange(5000)}"
            counts[key] = counts.get(key, 0) + i
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 1000:
                heapq.heappop(heap)
        sorted(counts.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def _setup(topology: dict, workload: dict, seed: int, name: str):
    """Everything before the first event: parse, build, schedule."""
    from qpusim import build, config, metrics, workload as wl_mod

    cfg = config.parse_topology(topology)
    spec = config.parse_workload(workload, cfg)
    net = build.build(cfg, seed)
    sink = metrics.MetricsSink(net.kernel, {"seed": str(seed), "scenario": name})
    driver = wl_mod.WorkloadDriver(net, spec, seed)
    end = driver.schedule_all()
    return net, sink, driver, end


def _run(net, sink, end: int) -> None:
    """From the first event until sink.finish() returns, as run_scenario does."""
    from qpusim import runner

    net.kernel.run_until(end)
    runner.drain_to_quiescence(net)
    runner._check_runtime_invariants(net)
    sink.finish()


def _sim_figures(records: list[dict]) -> dict[str, float]:
    """The modelled system's figures, re-derived from the metrics stream."""
    from qpusim.metrics import percentile

    queries = [r for r in records if r.get("type") == "query"]
    latency = sorted(r["latency"] for r in queries)
    staleness = sorted(r["delta"] for r in records if r.get("type") == "staleness")
    return {
        "sim_queries": len(queries),
        "sim_latency_p50_ms": percentile(latency, 0.50) or 0,
        "sim_latency_p97_ms": percentile(latency, 0.97) or 0,
        "sim_staleness_samples": len(staleness),
        "sim_staleness_p50_ms": percentile(staleness, 0.50) or 0,
        "sim_staleness_p99_ms": percentile(staleness, 0.99) or 0,
        "sim_completeness": sum(1 for r in queries if r["complete"]) / len(queries) if queries else 0.0,
    }


def measure(name: str, seed: int, scale: int, traced: bool) -> dict:
    from qpusim.runner import RuntimeInvariantViolation
    from qpusim.simkernel import SimError

    topology, workload = configs(name, scale)
    attempted = scheduled_ops(workload)
    tracer = None
    if traced:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    start = time.perf_counter()
    net, sink, driver, end = _setup(topology, workload, seed, name)
    setup_s = [time.perf_counter() - start]
    result: dict = {"attempted": attempted}
    calibration = calibrate()
    gc.collect()
    start = time.perf_counter()
    try:
        _run(net, sink, end)
    except (RuntimeInvariantViolation, SimError) as exc:
        result.update(setup_s=setup_s[0], failed=attempted, error=f"{type(exc).__name__}: {exc}")
        return result
    result["run_host_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["calibration_s"] = (calibration + calibrate()) / 2
    result["run_s"] = result["run_host_s"] * REFERENCE_S / result["calibration_s"]

    records = sink.records
    answered = sum(1 for r in records if r.get("type") == "query")
    rejected = sum(1 for r in records if r.get("type") == "rejected_write")
    issued = len(driver.journal.queries)
    ndjson = sink.to_ndjson().encode()
    result.update(
        failed=rejected + issued - answered,
        error=None,
        metrics_sha256=hashlib.sha256(ndjson).hexdigest(),
        scheduled_ops_match=driver.journal.writes + driver.journal.deletes + issued == attempted,
        sim=_sim_figures(records),
    )
    if tracer is not None:
        layers = tracer_mod.layer_metrics(tracer, net, sink)
        layers["metrics.ndjson_bytes"] = len(ndjson)
        result["layers"] = layers
        result["run_self_time_s"] = tracer.run_self_time()
    else:
        del net, sink, driver
        for _ in range(SETUP_REPEATS - 1):
            gc.collect()
            start = time.perf_counter()
            _setup(topology, workload, seed, name)
            setup_s.append(time.perf_counter() - start)
    result["setup_s"] = statistics.median(setup_s)
    return result


def validate(name: str, seed: int, scale: int) -> dict:
    from qpusim.runner import validate_scenario

    topology, workload = configs(name, scale)
    start = time.perf_counter()
    report = validate_scenario(topology, workload, seed=seed)
    return {"ok": report.ok, "report": report.describe(), "seconds": time.perf_counter() - start}


def spawn(name: str, seed: int, scale: int, mode: str, timeout: float = 170.0) -> dict:
    """Runs this script in a fresh interpreter, waits for it, and returns the
    JSON it printed. A failed or timed-out child raises RuntimeError."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
    cmd += ["--scale", str(scale), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} run of {name} took longer than {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} run of {name} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "validate"), required=True)
    args = parser.parse_args()
    use_checkout_source()
    if args.mode == "validate":
        out = validate(args.workload, args.seed, args.scale)
    else:
        out = measure(args.workload, args.seed, args.scale, traced=args.mode == "traced")
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
