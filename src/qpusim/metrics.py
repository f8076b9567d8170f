"""Append-only metrics stream (newline-delimited JSON) and the summary block,
accumulated as records are emitted and recomputable from the raw records."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from .simkernel import Kernel

SCHEMA_VERSION = 1


_STALENESS = ("t", "type", "qpu", "delta")  # the keys of a staleness record


def _as_dict(row: tuple) -> dict[str, Any]:
    return dict(zip(row[0], row[1:]))


class MetricsSink:
    """The run's one event log. Attaching a sink to a kernel makes it the
    destination of everything the kernel's probes emit: queries, cache
    lookups, loads, staleness samples, control actions and type-2 audit
    findings. Each record is stamped with the virtual time at emission, and
    every reported figure is derived from `records`. Serialization is
    canonical so identical runs are byte-identical.

    A record is kept as one row `(keys, *values)`, its `keys` tuple shared by
    every record of the same shape; `records`, `to_ndjson` and
    `type2_records` build the dicts only when they are read. The rows of the
    `type2` records are also kept aside, for `Probes.type2_violations`, and
    each record is added to the summary as it is emitted, so `finish` reads
    no record again; `summarize` re-derives the same figures from a log.
    Staleness samples, one per index apply, have their own writer
    (`staleness`), which appends the row without building a dict."""

    def __init__(self, kernel: Kernel, meta: dict[str, Any] | None = None) -> None:
        self._kernel = kernel
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._rows: list[tuple] = []
        self._type2: list[tuple] = []
        self._summary = Summary()  # of the emitted records
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header.update(meta or {})
        self._append(header)
        kernel.probes.metrics = self

    def _append(self, record: dict[str, Any]) -> None:
        keys = tuple(record)
        self._rows.append((self._shapes.setdefault(keys, keys), *record.values()))

    def emit(self, record: dict[str, Any]) -> None:
        keys = ("t", *record)
        row = (self._shapes.setdefault(keys, keys), self._kernel.now, *record.values())
        self._rows.append(row)
        kind = record.get("type")
        self._summary.add(kind, record)
        if kind == "type2":
            self._type2.append(row)

    def staleness(self, qpu: str, delta: int) -> None:
        """Emits the record {"type": "staleness", "qpu": qpu, "delta": delta}:
        the time from a replica's apply of an op to `qpu`'s."""
        self._rows.append((_STALENESS, self._kernel.now, "staleness", qpu, delta))
        self._summary.staleness.append(delta)

    @property
    def records(self) -> list[dict[str, Any]]:
        """Every record as a dict, in emission order; built at each read."""
        return list(map(_as_dict, self._rows))

    def type2_records(self) -> list[dict[str, Any]]:
        return list(map(_as_dict, self._type2))

    def finish(self) -> dict[str, Any]:
        summary = self._summary.figures()
        self._append({"type": "summary", **summary})
        return summary

    def to_ndjson(self) -> str:
        dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        return "\n".join(dumps(_as_dict(row)) for row in self._rows) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_ndjson())


def percentile(sorted_samples: list, fraction: float):
    """Nearest-rank percentile over a pre-sorted sample list."""
    if not sorted_samples:
        return None
    rank = max(1, -(-len(sorted_samples) * fraction // 1))  # ceil
    return sorted_samples[int(rank) - 1]


class Summary:
    """The summary's figures, accumulated one record at a time."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.staleness: list = []
        self.complete = self.hits = self.misses = self.control = 0

    def add(self, kind: Any, record: dict[str, Any]) -> None:
        """Counts a record whose "type" is `kind`."""
        if kind == "query":
            self.latencies.append(record["latency"])
            if record["complete"]:
                self.complete += 1
        elif kind == "staleness":
            self.staleness.append(record["delta"])
        elif kind == "cache":
            if record["hit"]:
                self.hits += 1
            else:
                self.misses += 1
        elif kind == "control" and record.get("action") in ("split", "merge", "rebind"):
            self.control += 1

    def figures(self) -> dict[str, Any]:
        latencies, staleness = self.latencies, self.staleness
        latencies.sort()  # in place: a sorted copy would hold every sample twice
        staleness.sort()
        queries = len(latencies)
        return {
            "queries": queries,
            "latency_p50": percentile(latencies, 0.50),
            "latency_p99": percentile(latencies, 0.99),
            "completeness_rate": (self.complete / queries) if queries else None,
            "staleness_samples": len(staleness),
            "staleness_median": percentile(staleness, 0.50),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "control_actions": self.control,
        }


def summarize(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Aggregates recomputable from the raw stream, read in one pass; tests
    re-derive these."""
    summary = Summary()
    for r in records:
        summary.add(r.get("type"), r)
    return summary.figures()


def parse_ndjson(text: str) -> list[dict[str, Any]]:
    return [json.loads(line) for line in text.splitlines() if line]
