"""QPU runtime: the common query interface, neighbour connections, recursive
query decomposition, and the scan, federation and cache unit classes."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable

from .core import (
    HyperRegion,
    Query,
    Version,
    canonical_query,
    query_matcher,
    query_to_region,
    region_to_query,
)
from .simkernel import Actor, Kernel, Tick
from .store import DcReplica

# A result row: (key, attribute snapshot, version at snapshot time).
Entry = tuple[str, dict, Version]


@dataclass(frozen=True)
class QueryMsg:
    qid: str
    query: Query
    reply_to: str


@dataclass(frozen=True)
class ResponseMsg:
    qid: str
    entries: tuple[Entry, ...]
    complete: bool
    missing: tuple[HyperRegion, ...] = ()
    source_chain: tuple[str, ...] = ()


@dataclass(frozen=True)
class SnapshotRequest:
    """Pull request for an index snapshot (cache replicas, merge absorption)."""

    since: int
    reply_to: str


@dataclass(frozen=True)
class IndexSnapshot:
    """Index state on the wire: region bounds, registry rows as
    (key, attrs, version) with attrs=None marking an index-local tombstone,
    and per-source high-water marks."""

    region: HyperRegion
    entries: tuple[tuple[str, dict | None, Version], ...]
    highwater: dict


@dataclass(frozen=True)
class QueryTimeout:
    qid: str


@dataclass(frozen=True)
class Connection:
    """What a QPU knows about one neighbour: where it is and what region of
    the space it advertises answering for."""

    to: str
    coverage: HyperRegion


@dataclass
class QueryResponse:
    entries: list[Entry]
    complete: bool
    missing: list[HyperRegion] = field(default_factory=list)
    source_chain: list[str] = field(default_factory=list)

    def keys(self) -> set[str]:
        return {e[0] for e in self.entries}


def decompose(
    region: HyperRegion, connections: Iterable[Connection]
) -> tuple[list[tuple[Connection, HyperRegion]], list[HyperRegion]]:
    """Greedy cover of a query region by neighbour coverages, in connection
    priority order. Emitted sub-regions are pairwise disjoint and their union
    is region ∩ (covered space); the second return value is the uncovered rest.
    """
    remaining = [region]
    plan: list[tuple[Connection, HyperRegion]] = []
    for conn in connections:
        if not remaining:
            break
        next_remaining: list[HyperRegion] = []
        for piece in remaining:
            clipped = piece.clip(conn.coverage)
            if clipped is None:
                next_remaining.append(piece)
            else:
                plan.append((conn, clipped))
                next_remaining.extend(piece.subtract(conn.coverage))
        remaining = next_remaining
    return plan, remaining


def dedupe_entries(entries: Iterable[Entry]) -> list[Entry]:
    """Collapse duplicate keys keeping the greatest version; key-sorted output."""
    best: dict[str, Entry] = {}
    for e in entries:
        cur = best.get(e[0])
        if cur is None or cur[2] < e[2]:
            best[e[0]] = e
    return [best[k] for k in sorted(best)]


def recheck(entries: Iterable[Entry], q: Query, replica: DcReplica) -> list[Entry]:
    """Re-validate candidates against the replica's current objects; survivors
    carry the store's current attributes and version."""
    matches = query_matcher(q)
    out: list[Entry] = []
    for key, _attrs, _ver in entries:
        obj = replica.get(key)
        if obj is not None and matches(obj.attrs):
            out.append((key, dict(obj.attrs), obj.version))
    return out


def audit_response(
    k: Kernel, qpu_id: str, qid: str, q: Query, entries: list[Entry], complete: bool, replica: DcReplica | None
) -> None:
    """Records, for every response, which returned keys fail the query against
    the recheck replica at this instant. The detector is independent of the
    recheck filter so disabling recheck makes stale results visible here."""
    violations: list[str] = []
    if replica is not None:
        matches = query_matcher(q)
        for key, _attrs, _ver in entries:
            obj = replica.get(key)
            if obj is None or not matches(obj.attrs):
                violations.append(key)
    k.probes.record_audit(
        {
            "t": k.now,
            "qpu": qpu_id,
            "qid": qid,
            "complete": complete,
            "entries": len(entries),
            "violations": tuple(violations),
        }
    )


@dataclass
class _Pending:
    qid: str
    reply_to: str
    query: Query
    outstanding: dict[str, HyperRegion]
    entries: list[Entry]
    complete: bool = True
    missing: list[HyperRegion] = field(default_factory=list)
    chain: list[str] = field(default_factory=list)


class QpuBase(Actor):
    """Shared machinery: sub-query fan-out, joining, dedupe/recheck/finalize.

    Each QPU routes using only its own connection list; the per-query pending
    set joins concurrent sub-responses.
    """

    recheck_on_finalize = True

    def __init__(
        self,
        qpu_id: str,
        indexed_attrs: Iterable[str],
        *,
        recheck_replica: DcReplica | None = None,
        recheck_enabled: bool = True,
        timeout: int | None = None,
    ) -> None:
        self.actor_id = qpu_id
        self.qpu_id = qpu_id
        self.indexed_attrs = tuple(sorted(indexed_attrs))
        self.connections: list[Connection] = []
        self.recheck_replica = recheck_replica
        self.recheck_enabled = recheck_enabled
        self.timeout = timeout
        self._pending: dict[str, _Pending] = {}
        self._sub_parent: dict[str, str] = {}
        self._qid_counter = 0

    def connect(self, conn: Connection) -> None:
        self.connections.append(conn)

    # -- message dispatch --------------------------------------------------

    def on_message(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, QueryMsg):
            self.handle_query(k, msg)
        elif isinstance(msg, ResponseMsg):
            self._on_sub_response(k, msg)
        elif isinstance(msg, QueryTimeout):
            self._on_timeout(k, msg.qid)
        else:
            self.handle_other(k, msg)

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        raise NotImplementedError

    def handle_other(self, k: Kernel, msg: Any) -> None:
        raise TypeError(f"{self.qpu_id} got unexpected {type(msg).__name__}")

    # -- fan-out / join ------------------------------------------------------

    def _next_qid(self) -> str:
        self._qid_counter += 1
        return f"{self.qpu_id}#{self._qid_counter}"

    def fan_out(
        self,
        k: Kernel,
        m: QueryMsg,
        plan: list[tuple[Connection, HyperRegion]],
        *,
        local_entries: list[Entry] | None = None,
        missing: list[HyperRegion] | None = None,
        forward_whole: bool = False,
    ) -> None:
        """Sends one sub-query per plan element and parks the join state.
        With forward_whole the original query is passed through unmodified
        (scan fallback); otherwise each sub-region converts back to predicates."""
        pend = _Pending(
            qid=m.qid,
            reply_to=m.reply_to,
            query=m.query,
            outstanding={},
            entries=list(local_entries or []),
            missing=list(missing or []),
        )
        for conn, piece in plan:
            sub_qid = self._next_qid()
            sub_query = m.query if forward_whole else region_to_query(piece, limit=None)
            pend.outstanding[sub_qid] = piece
            self._sub_parent[sub_qid] = m.qid
            k.send(self.qpu_id, conn.to, QueryMsg(sub_qid, sub_query, self.qpu_id))
        if not pend.outstanding:
            self._finish(k, pend)
            return
        self._pending[m.qid] = pend
        if self.timeout is not None:
            k.schedule_in(self.timeout, self.qpu_id, QueryTimeout(m.qid))

    def _on_sub_response(self, k: Kernel, r: ResponseMsg) -> None:
        parent_qid = self._sub_parent.pop(r.qid, None)
        if parent_qid is None:
            return  # late response after timeout
        pend = self._pending.get(parent_qid)
        if pend is None:
            return
        pend.outstanding.pop(r.qid, None)
        pend.entries.extend(r.entries)
        pend.complete = pend.complete and r.complete
        pend.missing.extend(r.missing)
        for s in r.source_chain:
            if s not in pend.chain:
                pend.chain.append(s)
        if not pend.outstanding:
            del self._pending[parent_qid]
            self._finish(k, pend)

    def _on_timeout(self, k: Kernel, qid: str) -> None:
        pend = self._pending.pop(qid, None)
        if pend is None:
            return
        for sub_qid, piece in pend.outstanding.items():
            self._sub_parent.pop(sub_qid, None)
            pend.missing.append(piece)
        pend.complete = False
        self._finish(k, pend)

    # -- finalize --------------------------------------------------------------

    def _finish(self, k: Kernel, pend: _Pending) -> None:
        entries = dedupe_entries(pend.entries)
        if self.recheck_on_finalize and self.recheck_enabled and self.recheck_replica is not None:
            entries = recheck(entries, pend.query, self.recheck_replica)
        complete = pend.complete and not pend.missing
        if pend.query.limit is not None:
            entries = entries[: pend.query.limit]
        audit_response(k, self.qpu_id, pend.qid, pend.query, entries, complete, self.recheck_replica)
        chain = pend.chain + [self.qpu_id]
        self.respond(k, pend, entries, complete, chain)

    def respond(self, k: Kernel, pend: _Pending, entries: list[Entry], complete: bool, chain: list[str]) -> None:
        k.send(
            self.qpu_id,
            pend.reply_to,
            ResponseMsg(pend.qid, tuple(entries), complete, tuple(pend.missing), tuple(chain)),
        )

    def answer(
        self,
        k: Kernel,
        m: QueryMsg,
        entries: list[Entry],
        *,
        complete: bool = True,
        missing: list[HyperRegion] | None = None,
    ) -> None:
        """Finalize a locally handled query; this is the point that counts
        toward the QPU's query load window."""
        k.probes.record_load(self.qpu_id, query_to_region(m.query, self.indexed_attrs), k.now)
        pend = _Pending(m.qid, m.reply_to, m.query, {}, list(entries), complete, list(missing or []))
        self._finish(k, pend)

    def scan_fallback_connection(self) -> Connection | None:
        """First neighbour advertising the full space; where queries touching
        non-indexed attributes are sent whole."""
        full = HyperRegion.full(self.indexed_attrs)
        for conn in self.connections:
            if conn.coverage.covers(full):
                return conn
        return None


class DsQpu(QpuBase):
    """Scans its single data centre's replica. Scan output is authoritative at
    that replica, so no recheck pass is applied."""

    recheck_on_finalize = False

    def __init__(self, qpu_id: str, indexed_attrs: Iterable[str], replica: DcReplica, **kw) -> None:
        super().__init__(qpu_id, indexed_attrs, recheck_replica=replica, **kw)
        self.replica = replica

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        entries = [(o.key, dict(o.attrs), o.version) for o in self.replica.scan(m.query)]
        self.answer(k, m, entries)


class FederationQpu(QpuBase):
    """Forwards a query to the neighbours whose coverage intersects it and
    combines the responses; anything uncovered is reported missing."""

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        region = query_to_region(m.query, self.indexed_attrs)
        if region is None:
            fallback = self.scan_fallback_connection()
            if fallback is None:
                k.probes.emit({"type": "unindexable", "qpu": self.qpu_id, "qid": m.qid})
                self.answer(k, m, [], complete=False)
                return
            self.fan_out(k, m, [(fallback, HyperRegion.full(self.indexed_attrs))], forward_whole=True)
            return
        plan, leftover = decompose(region, self.connections)
        self.fan_out(k, m, plan, missing=leftover)


class CacheQpu(QpuBase):
    """Response cache (LRU + TTL over canonical queries) or, in replica mode,
    a passive index copy refreshed by periodic pulls from its upstream."""

    def __init__(
        self,
        qpu_id: str,
        indexed_attrs: Iterable[str],
        *,
        mode: str = "response",
        capacity: int = 128,
        ttl: int = 10_000,
        pull_interval: int | None = None,
        **kw,
    ) -> None:
        super().__init__(qpu_id, indexed_attrs, **kw)
        if mode not in ("response", "replica"):
            raise ValueError(f"unknown cache mode {mode!r}")
        self.mode = mode
        self.capacity = capacity
        self.ttl = ttl
        self.pull_interval = pull_interval
        self.active = True
        self.hits = 0
        self.misses = 0
        self.forwarded = 0
        self._cache: OrderedDict[tuple, tuple[int, QueryResponse]] = OrderedDict()
        self._fills: dict[str, tuple] = {}
        self._snapshot: IndexSnapshot | None = None
        self.pulls = 0

    # -- shared -------------------------------------------------------------

    def _downstream(self) -> Connection:
        if len(self.connections) != 1:
            raise RuntimeError(f"cache {self.qpu_id} needs exactly one downstream connection")
        return self.connections[0]

    def on_start(self, k: Kernel) -> None:
        if self.mode == "replica" and self.pull_interval is not None:
            k.schedule_in(self.pull_interval, self.qpu_id, Tick("pull"))

    def handle_other(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, Tick) and msg.label == "pull":
            if self.active:
                self.pull_now(k)
                k.schedule_in(self.pull_interval, self.qpu_id, Tick("pull"))
        elif isinstance(msg, IndexSnapshot):
            self._install(k, msg)
        else:
            super().handle_other(k, msg)

    def stop(self) -> None:
        self.active = False

    # -- response-cache mode ---------------------------------------------------

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        if self.mode == "replica":
            self._replica_query(k, m)
            return
        ck = canonical_query(m.query)
        hit = self._cache.get(ck)
        if hit is not None and k.now - hit[0] < self.ttl:
            self._cache.move_to_end(ck)
            self.hits += 1
            k.probes.emit({"type": "cache", "qpu": self.qpu_id, "hit": True})
            cached = hit[1]
            self.answer(k, m, list(cached.entries), complete=cached.complete, missing=list(cached.missing))
            return
        if hit is not None:
            del self._cache[ck]  # expired
        self.misses += 1
        self.forwarded += 1
        k.probes.emit({"type": "cache", "qpu": self.qpu_id, "hit": False})
        conn = self._downstream()
        sub_qid = self._next_qid()
        self._fills[sub_qid] = ck
        pend = _Pending(m.qid, m.reply_to, m.query, {sub_qid: conn.coverage}, [])
        self._sub_parent[sub_qid] = m.qid
        self._pending[m.qid] = pend
        k.send(self.qpu_id, conn.to, QueryMsg(sub_qid, m.query, self.qpu_id))
        if self.timeout is not None:
            k.schedule_in(self.timeout, self.qpu_id, QueryTimeout(m.qid))

    def _on_sub_response(self, k: Kernel, r: ResponseMsg) -> None:
        ck = self._fills.pop(r.qid, None)
        if ck is not None and r.complete:
            self._store(k, ck, QueryResponse(list(r.entries), r.complete, list(r.missing)))
        super()._on_sub_response(k, r)

    def _store(self, k: Kernel, ck: tuple, resp: QueryResponse) -> None:
        self._cache[ck] = (k.now, resp)
        self._cache.move_to_end(ck)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        k.probes.progress_tick()

    # -- replica mode ------------------------------------------------------------

    def pull_now(self, k: Kernel) -> None:
        self.pulls += 1
        since = len(self._snapshot.entries) if self._snapshot else 0
        k.send(self.qpu_id, self._downstream().to, SnapshotRequest(since, self.qpu_id))

    def _install(self, k: Kernel, snap: IndexSnapshot) -> None:
        if self._snapshot is None or self._snapshot.entries != snap.entries:
            k.probes.progress_tick()
        self._snapshot = snap

    def _replica_query(self, k: Kernel, m: QueryMsg) -> None:
        if self._snapshot is None:
            self.answer(k, m, [], complete=False)
            return
        matches = query_matcher(m.query)
        entries: list[Entry] = []
        for key, attrs, version in self._snapshot.entries:
            if attrs is not None and matches(attrs):
                entries.append((key, dict(attrs), version))
        self.answer(k, m, entries)

    def snapshot_keys(self) -> set[str]:
        if self._snapshot is None:
            return set()
        return {key for key, attrs, _v in self._snapshot.entries if attrs is not None}
