"""The benchmark's workloads: bundled qpusim scenarios scaled up, plus a
write-heavy variant of the client-cache topology.

Every workload is a (topology, workload) pair of plain config documents. The
benchmark's seed is passed to the simulator separately; the configs themselves
do not depend on it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Phase durations and key spaces are multiplied by this factor.
SCALE = 4

NAMES = ("cdn-4x", "client-cache-4x", "adaptive-skew-4x", "ingest")


def use_checkout_source() -> None:
    """Imports qpusim from this checkout's src/ and nowhere else; exits with a
    non-zero code, printing only to stderr, when the source is absent."""
    if not (SRC / "qpusim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qpusim source at {SRC}; run it from a full checkout")
    sys.path.insert(0, str(SRC))
    import qpusim

    if Path(qpusim.__file__).resolve().parent != SRC / "qpusim":
        raise SystemExit(f"benchmark: imported qpusim from {qpusim.__file__}, not from {SRC}")


def _scaled(scenario_name: str, scale: int) -> tuple[dict, dict]:
    from qpusim.scenarios import scenario

    topology, workload = scenario(scenario_name)
    for phase in workload["phases"]:
        phase["duration"] *= scale
        phase["key_space"] *= scale
    return topology, workload


def _ingest(scale: int) -> tuple[dict, dict]:
    """The client-cache topology under a write stream: a sequential seeding
    phase, then churn with 25% deletes and a trickle of queries. At scale 4:
    2,000 keys seeded in 5 s, then 20 s of churn, 400 writes/s throughout and
    2 queries/s at the replica caches."""
    from qpusim.scenarios import scenario

    topology, base = scenario("client-cache")
    churn = base["phases"][1]
    key_space = 500 * scale
    workload = {
        "phases": [
            {
                "duration": 1250 * scale,
                "write_rate": 400.0,
                "key_space": key_space,
                "key_mode": "sequential",
                "attributes": churn["attributes"],
                "write_origin": churn["write_origin"],
            },
            {
                "duration": 5000 * scale,
                "write_rate": 400.0,
                "query_rate": 2.0,
                "delete_fraction": 0.25,
                "key_space": key_space,
                "attributes": churn["attributes"],
                "query_shapes": churn["query_shapes"],
                "write_origin": churn["write_origin"],
                "query_origin": churn["query_origin"],
            },
        ]
    }
    return topology, workload


def configs(name: str, scale: int = SCALE) -> tuple[dict, dict]:
    """The (topology, workload) documents of a named workload at a scale."""
    if name == "ingest":
        return _ingest(scale)
    if name not in NAMES:
        raise KeyError(f"unknown workload {name!r}; have {', '.join(NAMES)}")
    return _scaled(name.removesuffix("-4x"), scale)


def scheduled_ops(workload: dict) -> int:
    """Writes, deletes and queries the workload schedules: each phase issues
    round(duration * rate / 1000) operations of each stream."""
    return sum(
        int(round(p["duration"] * p.get(rate, 0.0) / 1000.0))
        for p in workload["phases"]
        for rate in ("write_rate", "query_rate")
    )
