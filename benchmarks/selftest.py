"""Self-test of the per-layer tracer, on every workload at scale 1.

    python3 benchmarks/selftest.py [--seed N]

It checks that tracing leaves the metrics stream byte-identical, that the
self times of the run's spans sum to no more than the traced run time, and
that each layer is exercised only where the workloads were chosen to
exercise it. Exits non-zero and lists the failures when a check fails.
"""

from __future__ import annotations

import argparse
import sys

from child import spawn
from workloads import NAMES, use_checkout_source


def check_tracer(seed: int) -> list[str]:
    """Returns one message per failed check; empty when all pass."""
    failures: list[str] = []
    layers: dict[str, dict] = {}
    for name in NAMES:
        plain = spawn(name, seed, 1, "run")
        traced = spawn(name, seed, 1, "traced")
        if plain["error"] or traced["error"]:
            failures.append(f"{name}: run failed: {plain['error'] or traced['error']}")
            continue
        if plain["metrics_sha256"] != traced["metrics_sha256"]:
            failures.append(f"{name}: tracing changed the metrics stream")
        if traced["run_self_time_s"] > traced["run_host_s"]:
            failures.append(
                f"{name}: span self times {traced['run_self_time_s']:.4f} s exceed the run's {traced['run_host_s']:.4f} s"
            )
        layers[name] = traced["layers"]

    def split(metric: str, only: str) -> None:
        for name, values in layers.items():
            if (values[metric] > 0) != (name == only):
                failures.append(f"{name}: {metric} = {values[metric]}, expected non-zero only on {only}")

    # Full-replica scans happen only behind the cdn federation, and only the
    # adaptive-skew topology runs the split/merge controller.
    split("store.scan_calls", "cdn-4x")
    split("adapt.control_step_s", "adaptive-skew-4x")
    # The replica-mode cache path runs on the client-cache topology and is
    # bypassed on cdn, whose caches are response caches.
    if "cdn-4x" in layers and layers["cdn-4x"]["qpunet.replica_rows_examined"] != 0:
        failures.append("cdn-4x: replica-mode cache rows examined, expected none")
    if "client-cache-4x" in layers and layers["client-cache-4x"]["qpunet.replica_rows_examined"] == 0:
        failures.append("client-cache-4x: no replica-mode cache rows examined")
    return failures


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    use_checkout_source()
    problems = check_tracer(parser.parse_args().seed)
    print("\n".join(problems) or "tracer self-test: PASS")
    sys.exit(1 if problems else 0)
