"""Seeded workload generation: phase-structured write/query streams drawn up
front into compact columns, fed to the kernel as a time column and a source
that builds each event's message when its time comes, issued through
per-origin client actors, and journalled for the oracle replay in validation
mode."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import itemgetter
from random import Random
from typing import Any, Iterator, NamedTuple

from .build import Network
from .config import DistSpec, PhaseSpec, WorkloadSpec
from .core import Kind, Predicate, Query, RawValue
from .qpunet import QueryMsg, ResponseMsg
from .simkernel import Actor, Kernel
from .store import ClientDelete, ClientWrite


class Sampler:
    """Draws attribute values from a phase's configured distribution, which
    check-config has checked against the attribute's kind."""

    def __init__(self, kind: Kind, spec: DistSpec, rng: Random) -> None:
        self.kind = kind
        self.spec = spec
        self.rng = rng
        if spec.dist == "zipf":
            weights = [1.0 / (rank**spec.s) for rank in range(1, spec.n + 1)]
            total = sum(weights)
            acc, cum = 0.0, []
            for w in weights:
                acc += w / total
                cum.append(acc)
            self._zipf_cdf = cum

    def domain_width(self) -> float:
        if self.spec.dist == "uniform":
            return float(self.spec.hi) - float(self.spec.lo)
        if self.spec.dist == "zipf":
            return float(self.spec.n)
        return 0.0  # choice distributions query as points

    def sample(self) -> RawValue:
        s = self.spec
        if s.dist == "uniform":
            if self.kind is Kind.INT:
                return self.rng.randrange(s.lo, s.hi)
            return self.rng.uniform(s.lo, s.hi)
        if s.dist == "zipf":
            return s.lo + bisect_left(self._zipf_cdf, self.rng.random())
        return self.rng.choice(s.values)


class IssueQuery(NamedTuple):
    query: Query


class Heartbeat(NamedTuple):
    pass


@dataclass
class Journal:
    """Everything the validation replay needs: each issued query with its
    origin, plus simple counters."""

    queries: list[tuple[Query, str]] = field(default_factory=list)
    writes: int = 0
    deletes: int = 0
    written_keys: set[str] = field(default_factory=set)


class Pulse(Actor):
    """Emits the periodic heartbeat record; every run has one regardless of
    traffic, so an empty workload still produces a well-formed metrics file."""

    actor_id = "wl-pulse"

    def on_message(self, k: Kernel, msg: Any) -> None:
        k.probes.emit({"type": "heartbeat"})


class QueryIssuer(Actor):
    """Client access point co-located with one entry QPU; measures the round
    trip through the network from that point."""

    def __init__(self, issuer_id: str, target_qpu: str, journal: Journal) -> None:
        self.actor_id = issuer_id
        self.target = target_qpu
        self.journal = journal
        self._n = 0
        self._issued_at: dict[str, int] = {}

    def sends_to(self) -> tuple[str]:
        return (self.target,)

    def on_message(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, IssueQuery):
            self._n += 1
            qid = f"{self.actor_id}-{self._n}"
            self._issued_at[qid] = k.now
            self.journal.queries.append((msg.query, self.target))
            k.send(self.actor_id, self.target, QueryMsg(qid, msg.query, self.actor_id))
        elif isinstance(msg, ResponseMsg):
            issued = self._issued_at.pop(msg.qid, None)
            if issued is None:
                return
            k.probes.emit(
                {
                    "type": "query",
                    "origin": self.target,
                    "latency": k.now - issued,
                    "results": len(msg.entries),
                    "complete": msg.complete,
                }
            )
        else:
            raise TypeError(f"issuer {self.actor_id} got {type(msg).__name__}")


def _op_times(start: int, duration: int, rate: float) -> Iterator[int]:
    """Evenly spaced op times; the count is exactly duration*rate/1000."""
    n = int(round(duration * rate / 1000.0))
    return (start + int(round(i * 1000.0 / rate)) for i in range(n))


class _Writes:
    """One phase's drawn writes as columns, a few machine words per write:
    the index of its key in the driver's key names, the index of its DC in
    the phase's write-origin DCs, whether it deletes, and, for a write that
    stores, its drawn values, one reference each, in `names` order."""

    def __init__(self, dc_ids: list[str], names: tuple[str, ...]) -> None:
        self.dc_ids = tuple(dc_ids)
        self.names = names
        self.keys = array("I")
        self.dcs = array("H")
        self.deletes = bytearray()
        self.values: list[RawValue] = []

    def events(self, key_names: list[str], marked: list[tuple[int, str | None, Any]]) -> Iterator[tuple[str, Any]]:
        """Yields the phase's (target, msg) in delivery order: each (n,
        target, msg) of `marked` yields the next n writes, then msg unless
        target is None. A write's (DC, ClientWrite or ClientDelete) and its
        attrs dict, whose keys are in `names` order, are built as it is
        yielded."""
        ops = zip(self.keys, self.dcs, self.deletes)
        names, dc_ids = self.names, self.dc_ids
        rows = zip(*[iter(self.values)] * len(names)) if names else repeat(())
        new = tuple.__new__  # the namedtuples' own __new__ is a Python-level call
        for before, target, msg in marked:
            for key, dc, deleted in islice(ops, before):
                if deleted:
                    yield dc_ids[dc], new(ClientDelete, (key_names[key],))
                else:
                    yield dc_ids[dc], new(ClientWrite, (key_names[key], dict(zip(names, next(rows)))))
            if target is not None:
                yield target, msg


class WorkloadDriver:
    """Draws every phase's writes, queries and heartbeats up front and feeds
    them to the kernel (`Kernel.feed`), so a finished workload leaves no
    self-rescheduling events behind. Before delivery the kernel holds one
    int per event, its time. A write is held as a few machine words in its
    phase's columns (key index, DC index, delete flag and one reference per
    drawn value), and its ClientWrite or ClientDelete is built only when the
    kernel pulls it; the few queries and heartbeats are held as built."""

    def __init__(self, net: Network, spec: WorkloadSpec, seed: int | str) -> None:
        self.net = net
        self.spec = spec
        self.journal = Journal()
        self.issuers: dict[str, QueryIssuer] = {}
        self._keys: list[str] = []  # key n's name "k<n>", built once and shared by every write
        k = net.kernel
        effective = spec.seed if spec.seed is not None else seed
        self._write_rng = Random(f"{effective}|workload|writes")
        self._query_rng = Random(f"{effective}|workload|queries")
        origins = sorted({origin for p in spec.phases for origin in p.query_origin})
        for origin in origins:
            issuer = QueryIssuer(f"wl@{origin}", origin, self.journal)
            k.register(issuer, k.host_of(origin))
            self.issuers[origin] = issuer
        self.pulse = Pulse()
        k.register(self.pulse, k.nodes()[0])

    def schedule_all(self) -> int:
        """Feeds the kernel every phase's events and returns the virtual end
        time of the last phase. All draws are made here, phase by phase:
        each phase's writes, then its queries, then its heartbeats. The
        events are delivered in the order one stable sort by time of them
        all, drawn in that order, gives: at one time, writes before queries
        before heartbeats, and an earlier phase's events (whose last op time
        can equal the next phase's start) before a later one's."""
        times = array("q")
        sources = []
        start = 0
        for phase in self.spec.phases:
            sources.append(self._draw_phase(times, phase, start))
            start += phase.duration
        self.net.kernel.feed(times, chain.from_iterable(sources))
        return start

    # -- one phase -----------------------------------------------------------

    def _draw_phase(self, times: array, phase: PhaseSpec, start: int) -> Iterator[tuple[str, Any]]:
        """Draws the phase, appends its events' times to `times` in delivery
        order, and returns the source of its (target, msg) in that order."""
        schema = self.net.schema
        dists = sorted(phase.attributes.items())
        names = tuple(name for name, _ in dists)
        samplers = [Sampler(schema[name], dist, self._write_rng) for name, dist in dists]
        qsamplers = {name: Sampler(schema[name], dist, self._query_rng) for name, dist in dists}
        writes = _Writes(phase.write_origin.dcs, names)
        write_times = array("q")
        if phase.write_rate > 0:
            write_times.extend(_op_times(start, phase.duration, phase.write_rate))
            self._draw_writes(writes, phase, samplers, len(write_times))
        others: list[tuple[int, str, Any]] = []
        if phase.query_rate > 0:
            origins = phase.query_origin
            for i, t in enumerate(_op_times(start, phase.duration, phase.query_rate)):
                origin = origins[i % len(origins)]
                query = self._make_query(phase, qsamplers)
                others.append((t, self.issuers[origin].actor_id, IssueQuery(query)))
        others.extend((t, Pulse.actor_id, Heartbeat()) for t in range(start, start + phase.duration, 1000))
        others.sort(key=itemgetter(0))  # stable: a query before a heartbeat at one time
        # each query and heartbeat marked with the number of writes between
        # it and the one before, which are the writes at or before its time
        marked: list[tuple[int, str | None, Any]] = []
        done = 0
        for t, target, msg in others:
            cut = bisect_right(write_times, t, done)
            times.extend(write_times[done:cut])
            times.append(t)
            marked.append((cut - done, target, msg))
            done = cut
        times.extend(write_times[done:])
        marked.append((len(write_times) - done, None, None))
        return writes.events(self._keys, marked)

    def _draw_writes(self, writes: _Writes, phase: PhaseSpec, samplers: list[Sampler], count: int) -> None:
        """Draws the phase's `count` writes in order: each one's key, then
        whether it deletes (only a key written before can be deleted), then,
        unless it deletes, its values in attribute-name order."""
        rng, journal = self._write_rng, self.journal
        written = journal.written_keys
        keys = self._keys
        keys.extend(f"k{n}" for n in range(len(keys), phase.key_space))
        key_space, sequential = phase.key_space, phase.key_mode == "sequential"
        for i in range(count):
            index = i % key_space if sequential else rng.randrange(key_space)
            key = keys[index]
            if rng.random() < phase.delete_fraction and key in written:
                journal.deletes += 1
                row = None
            else:
                row = [s.sample() for s in samplers]
                writes.values += row
                journal.writes += 1
                written.add(key)
            writes.keys.append(index)
            writes.dcs.append(self._route_write(phase, writes.names, row, i))
            writes.deletes.append(row is None)

    def _route_write(self, phase: PhaseSpec, names: tuple[str, ...], row: list | None, i: int) -> int:
        """Index in the phase's write-origin DCs of the DC that takes write
        i, whose drawn values are row in the order of names, None for a
        delete."""
        dcs, mode = phase.write_origin.dcs, phase.write_origin.mode
        if mode == "fixed":
            return 0
        if mode == "by_placement" and row is not None:
            attrs = dict(zip(names, row))
            for j, dc in enumerate(dcs):
                placement = self.net.replicas[dc].placement
                if placement is None or placement.contains(attrs):
                    return j
        return i % len(dcs)

    def _make_query(self, phase: PhaseSpec, samplers) -> Query:
        shapes = phase.query_shapes
        weights = [s.weight for s in shapes]
        shape = self._query_rng.choices(shapes, weights=weights)[0]
        preds = []
        for name in shape.attrs:
            sampler = samplers[name]
            center = sampler.sample()
            width = sampler.domain_width() * shape.selectivity
            if width <= 0 or sampler.kind is Kind.TEXT:
                preds.append(Predicate(name, center, center))
            elif sampler.kind is Kind.INT:
                half = int(width // 2)
                preds.append(Predicate(name, center - half, center + max(half, 0)))
            else:
                preds.append(Predicate(name, center - width / 2, center + width / 2))
        return Query.of(preds, phase.limit)
