"""Seeded workload generation: phase-structured write/query streams built up
front as one time-ordered list that the kernel is fed and drains as it runs,
issued through per-origin client actors, and journalled for the oracle replay
in validation mode."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from random import Random
from typing import Any, NamedTuple

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


def _op_times(start: int, duration: int, rate: float) -> list[int]:
    """Evenly spaced op times; the count is exactly duration*rate/1000."""
    n = int(round(duration * rate / 1000.0))
    return [start + int(round(i * 1000.0 / rate)) for i in range(n)]


class WorkloadDriver:
    """Builds every phase's writes, queries and heartbeats up front and
    feeds them to the kernel (`Kernel.feed`) as one list, so a finished
    workload leaves no self-rescheduling events behind, and each event is
    freed once it is delivered."""

    def __init__(self, net: Network, spec: WorkloadSpec, seed: int | str) -> None:
        self.net = net
        self.spec = spec
        self.journal = Journal()
        self.issuers: dict[str, QueryIssuer] = {}
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
        time of the last phase. The events are drawn phase by phase, each
        phase's writes, then its queries, then its heartbeats, and sorted
        once by time; the sort is stable, so events at one time keep the
        order they were drawn in."""
        events: list[tuple[int, str, Any]] = []
        start = 0
        for phase in self.spec.phases:
            self._draw_phase(events, phase, start)
            start += phase.duration
        events.sort(key=itemgetter(0))
        self.net.kernel.feed(events)
        return start

    # -- one phase -----------------------------------------------------------

    def _draw_phase(self, events: list, phase: PhaseSpec, start: int) -> None:
        schema = self.net.schema
        samplers = {
            name: Sampler(schema[name], dist, self._write_rng)
            for name, dist in sorted(phase.attributes.items())
        }
        qsamplers = {
            name: Sampler(schema[name], dist, self._query_rng)
            for name, dist in sorted(phase.attributes.items())
        }
        if phase.write_rate > 0:
            for i, t in enumerate(_op_times(start, phase.duration, phase.write_rate)):
                events.append(self._make_write(phase, samplers, t, i))
        if phase.query_rate > 0:
            origins = phase.query_origin
            for i, t in enumerate(_op_times(start, phase.duration, phase.query_rate)):
                origin = origins[i % len(origins)]
                query = self._make_query(phase, qsamplers)
                events.append((t, self.issuers[origin].actor_id, IssueQuery(query)))
        events.extend((t, Pulse.actor_id, Heartbeat()) for t in range(start, start + phase.duration, 1000))

    def _pick_key(self, phase: PhaseSpec, i: int) -> str:
        if phase.key_mode == "sequential":
            return f"k{i % phase.key_space}"
        return f"k{self._write_rng.randrange(phase.key_space)}"

    def _make_write(self, phase: PhaseSpec, samplers, t: int, i: int) -> tuple[int, str, Any]:
        key = self._pick_key(phase, i)
        is_delete = (
            self._write_rng.random() < phase.delete_fraction and key in self.journal.written_keys
        )
        if is_delete:
            self.journal.deletes += 1
            return t, self._route_write(phase, None, i), ClientDelete(key)
        attrs = {name: s.sample() for name, s in samplers.items()}
        self.journal.writes += 1
        self.journal.written_keys.add(key)
        return t, self._route_write(phase, attrs, i), ClientWrite(key, attrs)

    def _route_write(self, phase: PhaseSpec, attrs, i: int) -> str:
        dcs, mode = phase.write_origin.dcs, phase.write_origin.mode
        if mode == "fixed":
            return dcs[0]
        if mode == "by_placement" and attrs is not None:
            for dc in dcs:
                placement = self.net.replicas[dc].placement
                if placement is None or placement.contains(attrs):
                    return dc
        return dcs[i % len(dcs)]

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
