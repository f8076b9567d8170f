"""Append-only metrics stream (newline-delimited JSON) and the summary block
recomputed from the raw records."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .simkernel import Kernel

SCHEMA_VERSION = 1


class MetricsSink:
    """The run's one event log. Attaching a sink to a kernel makes it the
    destination of everything the kernel's probes emit: queries, cache
    lookups, loads, staleness samples, control actions and type-2 audit
    findings. Each record is stamped with the virtual time at emission, and
    every reported figure is derived from `records`. Serialization is
    canonical so identical runs are byte-identical."""

    def __init__(self, kernel: Kernel, meta: dict[str, Any] | None = None) -> None:
        self._kernel = kernel
        self.records: list[dict[str, Any]] = []
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header.update(meta or {})
        self.records.append(header)
        kernel.probes.metrics = self

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append({"t": self._kernel.now, **record})

    def finish(self) -> dict[str, Any]:
        summary = summarize(self.records)
        self.records.append({"type": "summary", **summary})
        return summary

    def to_ndjson(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in self.records) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_ndjson())


def percentile(sorted_samples: list, fraction: float):
    """Nearest-rank percentile over a pre-sorted sample list."""
    if not sorted_samples:
        return None
    rank = max(1, -(-len(sorted_samples) * fraction // 1))  # ceil
    return sorted_samples[int(rank) - 1]


def summarize(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregates recomputable from the raw stream; tests re-derive these."""
    latencies = sorted(r["latency"] for r in records if r.get("type") == "query")
    staleness = sorted(r["delta"] for r in records if r.get("type") == "staleness")
    queries = [r for r in records if r.get("type") == "query"]
    complete = sum(1 for r in queries if r["complete"])
    cache = [r for r in records if r.get("type") == "cache"]
    return {
        "queries": len(queries),
        "latency_p50": percentile(latencies, 0.50),
        "latency_p99": percentile(latencies, 0.99),
        "completeness_rate": (complete / len(queries)) if queries else None,
        "staleness_samples": len(staleness),
        "staleness_median": percentile(staleness, 0.50),
        "cache_hits": sum(1 for r in cache if r["hit"]),
        "cache_misses": sum(1 for r in cache if not r["hit"]),
        "control_actions": sum(
            1 for r in records if r.get("type") == "control" and r.get("action") in ("split", "merge", "rebind")
        ),
    }


def parse_ndjson(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line]
