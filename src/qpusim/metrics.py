"""Append-only metrics stream (newline-delimited JSON) and the summary block,
accumulated as records are emitted and recomputable from the raw records."""

from __future__ import annotations

import json
from array import array
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Iterator

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
    every record of the same shape. Staleness samples, one per index apply
    and nearly every record of a write-heavy run, have their own writer
    (`staleness`), which builds no row: it appends the sample's time, unit
    id and delta to three columns, two `array("q")`s and a list of the
    units' shared id strings, about 24 bytes a sample. Between two rows,
    `_rows` holds the count of samples taken before the second one when
    that count has grown. `records`, `to_ndjson`, `write` and
    `type2_records` build the dicts only when they are read, every record in
    emission order with its keys in the order they were emitted. The rows
    of the `type2` records are also kept aside, for
    `Probes.type2_violations`, and each record is added to the summary as it
    is emitted, so `finish` reads no record again; `summarize` re-derives
    the same figures from a log. The delta column is the summary's own
    `Summary.staleness`."""

    def __init__(self, kernel: Kernel, meta: dict[str, Any] | None = None) -> None:
        self._kernel = kernel
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self._rows: list[tuple | int] = []
        self._type2: list[tuple] = []
        self._summary = Summary()  # of the emitted records
        self._sample_t = array("q")
        self._sample_qpu: list[str] = []
        self._sample_delta = self._summary.staleness
        self._counted = 0  # the samples taken before the last row
        header = {"type": "meta", "schema": SCHEMA_VERSION}
        header.update(meta or {})
        self._append(header)
        kernel.probes.metrics = self

    def _keep(self, row: tuple) -> None:
        """Appends `row` after the staleness samples taken since the last one."""
        taken = len(self._sample_t)
        if taken != self._counted:
            self._rows.append(taken)
            self._counted = taken
        self._rows.append(row)

    def _append(self, record: dict[str, Any]) -> None:
        keys = tuple(record)
        self._keep((self._shapes.setdefault(keys, keys), *record.values()))

    def emit(self, record: dict[str, Any]) -> None:
        keys = ("t", *record)
        row = (self._shapes.setdefault(keys, keys), self._kernel.now, *record.values())
        self._keep(row)
        kind = record.get("type")
        self._summary.add(kind, record)
        if kind == "type2":
            self._type2.append(row)

    def staleness(self, qpu: str, delta: int) -> None:
        """Emits the record {"type": "staleness", "qpu": qpu, "delta": delta}:
        the time from a replica's apply of an op to `qpu`'s."""
        self._sample_t.append(self._kernel.now)
        self._sample_qpu.append(qpu)
        self._sample_delta.append(delta)

    def _every_row(self) -> Iterator[tuple]:
        """Every record's row in emission order, a staleness sample's built
        from the columns."""
        t, qpu, delta = self._sample_t, self._sample_qpu, self._sample_delta
        start = 0
        for row in chain(self._rows, (len(t),)):
            if row.__class__ is int:
                for i in range(start, row):
                    yield _STALENESS, t[i], "staleness", qpu[i], delta[i]
                start = row
            else:
                yield row

    @property
    def records(self) -> list[dict[str, Any]]:
        """Every record as a dict, in emission order; built at each read."""
        return list(map(_as_dict, self._every_row()))

    def type2_records(self) -> list[dict[str, Any]]:
        return list(map(_as_dict, self._type2))

    def finish(self) -> dict[str, Any]:
        summary = self._summary.figures()
        self._append({"type": "summary", **summary})
        return summary

    def _lines(self) -> Iterator[str]:
        dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        for row in self._every_row():
            yield dumps(_as_dict(row)) + "\n"

    def to_ndjson(self) -> str:
        return "".join(self._lines())

    def write(self, path: str | Path) -> None:
        """Writes `to_ndjson()` to `path`, one line at a time."""
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(self._lines())


def _rank(count: int, fraction: float) -> int:
    """The nearest rank, from 1, of the `fraction` percentile of `count` samples."""
    return int(max(1, -(-count * fraction // 1)))  # ceil


def percentile(sorted_samples: list, fraction: float):
    """Nearest-rank percentile over a pre-sorted sample list."""
    if not sorted_samples:
        return None
    return sorted_samples[_rank(len(sorted_samples), fraction) - 1]


def _counted_percentile(samples: Iterable, fraction: float):
    """`percentile(sorted(samples), fraction)`, found by counting each
    distinct value rather than sorting a copy of the samples."""
    counts = Counter(samples)
    rank = _rank(counts.total(), fraction)
    for value, count in sorted(counts.items()):
        rank -= count
        if rank <= 0:
            return value
    return None  # no samples


class Summary:
    """The summary's figures, accumulated one record at a time. Staleness
    deltas are kept once, in the `array("q")` column `staleness`, which a
    sink appends its samples' deltas to; `figures` counts its values rather
    than sorting a copy."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.staleness = array("q")
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
        queries = len(latencies)
        return {
            "queries": queries,
            "latency_p50": percentile(latencies, 0.50),
            "latency_p99": percentile(latencies, 0.99),
            "completeness_rate": (self.complete / queries) if queries else None,
            "staleness_samples": len(staleness),
            "staleness_median": _counted_percentile(staleness, 0.50),
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
