"""QPU runtime: the common query interface, neighbour connections, recursive
query decomposition, and the scan, federation and cache unit classes."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

from .core import HyperRegion, Query, query_is_empty, query_to_region
from .simkernel import Actor, Kernel, Tick
from .store import DcReplica, Entry, IndexSnapshot, PostingIndex


class QueryMsg(NamedTuple):
    """A query on the wire. A client sends a Query; the unit it is issued
    to rewrites it once as its region, with the query's `limit`
    (QpuBase.on_message), and every hop from there on reads only that
    form. A sub-query is the HyperRegion piece a unit's decompose carved
    for that neighbour, with no limit. Every region config parses spans
    the whole schema, so a region's attributes always equal the
    receiver's indexed_attrs. `sub` marks a query a unit sent
    (QpuBase.fan_out, the only sender that sets it), whose answer is
    joined by that unit rather than read by a client."""

    qid: str
    query: Query | HyperRegion
    reply_to: str
    sub: bool = False
    limit: int | None = None


class ResponseMsg(NamedTuple):
    """The answer to one QueryMsg: key-sorted rows with unique keys, the
    regions of the query's space that no unit answered for, and the units
    the answer passed through. An answer is complete exactly when nothing
    is missing; incompleteness always names what is absent."""

    qid: str
    entries: tuple[Entry, ...]
    missing: tuple[HyperRegion, ...] = ()
    source_chain: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing


class SnapshotRequest(NamedTuple):
    """Pull request from a replica cache: `since` is the index sequence
    number of the last reply it installed (0 before the first)."""

    since: int
    reply_to: str


class QueryTimeout(NamedTuple):
    qid: str


@dataclass(frozen=True)
class Connection:
    """What a QPU knows about one neighbour: where it is and what region of
    the space it advertises answering for."""

    to: str
    coverage: HyperRegion


def decompose(
    region: HyperRegion, connections: Iterable[Connection]
) -> tuple[list[tuple[Connection, HyperRegion]], list[HyperRegion]]:
    """Greedy cover of a query region by neighbour coverages, in connection
    priority order. Emitted sub-regions are pairwise disjoint and their union
    is region ∩ (covered space); the second return value is the uncovered rest.
    Each piece is clipped against a coverage once: the rest is carved from
    that clip. A region no connection touches comes back as the only
    leftover, the same object.
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
                next_remaining.extend(piece.subtract(conn.coverage, clipped))
        remaining = next_remaining
    return plan, remaining


def dedupe_entries(parts: list[Sequence[Entry]]) -> Sequence[Entry]:
    """Joins parts that are each key-sorted with unique keys into one such
    sequence, keeping the greatest version of a key found in several parts
    (the first of equal ones). A single part is returned as it is. Several
    are joined by one sort by key, which merges their runs; only a key in
    two parts (one that moved between pieces: 1 of 225 joins on cdn-4x)
    needs a dict. On cdn-4x that took the joins' 61,475 rows from 16.0 ms
    as a dict of every row to 11.7 ms (2-vCPU VM, Python 3.11)."""
    if len(parts) == 1:
        return parts[0]
    rows = sorted(chain.from_iterable(parts), key=itemgetter(0))
    if len(set(map(itemgetter(0), rows))) == len(rows):
        return rows
    best: dict[str, Entry] = {}
    for e in rows:  # in key order, so best's order is key order
        cur = best.get(e[0])
        if cur is None or cur[2] < e[2]:
            best[e[0]] = e
    return list(best.values())


def recheck(entries: Sequence[Entry], region: HyperRegion, replica: DcReplica) -> list[Entry]:
    """Re-validates candidates against the replica's current objects; a row
    survives carrying the store's current attrs and version. Only the unit
    that answers a client query runs it, once, on the joined rows
    (QpuBase._finish), with the query's region.

    Every candidate matched, with the attrs it carries, a region inside
    `region`: a decompose piece, or an equal region on a response-cache
    hit. A Version names one write, so when the replica holds the key at
    the row's version it holds the same attrs, and the row is kept as it
    is without matching. Only rows whose version differs are matched
    (HyperRegion.contains), and a match is replaced by the replica's
    StoredObject; absent keys drop.
    Values and bounds compare raw: the schema gives each attribute one
    kind, checked where values enter, so a row and the region agree on it."""
    matches = region.contains
    objects = replica.objects
    out: list[Entry] = []
    for entry in entries:
        obj = objects.get(entry[0])
        if obj is None:
            continue
        version = obj.version
        ver = entry[2]
        if version is ver or version == ver:
            out.append(entry)
        elif matches(obj.attrs):
            out.append(obj)
    return out


def audit_response(
    k: Kernel,
    qpu_id: str,
    qid: str,
    region: HyperRegion,
    entries: Sequence[Entry],
    complete: bool,
    replica: DcReplica | None,
) -> None:
    """Emits a `type2` record naming the returned keys that lie outside the
    query's region at `replica` at this instant, when there are any. The
    detector is independent of the recheck filter so disabling recheck
    makes stale results visible here. It audits a client's answer only, at
    the unit that gives it: the type-2 contract is about that answer.
    Callers pass no replica for a sub-query's answer, and when recheck just
    ran against it: those entries match it at this instant by
    construction."""
    if replica is None:
        return
    matches = region.contains
    violations = []
    for key, _attrs, _ver in entries:
        obj = replica.get(key)
        if obj is None or not matches(obj.attrs):
            violations.append(key)
    if violations:
        k.probes.emit(
            {
                "type": "type2",
                "qpu": qpu_id,
                "qid": qid,
                "complete": complete,
                "entries": len(entries),
                "violations": violations,
            }
        )


@dataclass
class _Pending:
    """Join state of one query, the region QueryMsg `msg`. `parts` holds the
    row sequences collected so far, each key-sorted with unique keys
    (sub-responses, lookups, scans)."""

    msg: QueryMsg
    outstanding: dict[str, HyperRegion]
    parts: list[Sequence[Entry]]
    missing: list[HyperRegion] = field(default_factory=list)
    chain: list[str] = field(default_factory=list)


class QpuBase(Actor):
    """The query interface every unit implements, and its one query path.

    `on_message` rewrites a client's Query once, as a QueryMsg of its
    region of the indexed space that carries its limit; a sub-query is a
    region already. A query that some predicate makes empty, or that names
    an attribute outside `indexed_attrs`, matches nothing and is answered
    complete and empty at once: in every network `build` wires,
    `indexed_attrs` is the whole schema, and no object holds an attribute
    outside it (check_attrs). `handle_query` decomposes the region over
    this unit's own connection list, the leftover goes to `answer_locally`,
    and `fan_out` sends the sub-queries and joins their answers with the
    local rows. A unit that answers without a sub-query records a load
    sample there.
    `_finish` dedupes, rechecks, applies the limit, audits and responds;
    an answer is incomplete exactly when it names a missing region. Only a
    client query's answer is rechecked and audited, at the unit the client
    issued it to, against that unit's recheck replica: the type-2 contract
    is about the client's answer. A sub-query is answered with its rows as
    joined, so a response cache stores a fill un-rechecked, and a hit is
    rechecked when the cache answers a client. Every configured unit but a
    scan has a recheck replica, since any of them can be an entry; a
    split's children, which answer only their parent, have none.

    `answer_locally` looks the leftover up in the unit's `index`: an index
    or merge unit's own, fed by updates, or a replica cache's, fed by pull
    replies that are deltas only (no pulled index is ever replaced:
    `check-config` rejects a replica cache that pulls from an adaptive
    root, and only adaptive trees split). Other units hold none.

    A client query becomes a region once, at the unit it is issued to,
    and from there on every hop reads only regions: `decompose`,
    `answer_locally`, whose index lookups take the region or its pieces,
    `fan_out`, whose load sample it is, and `_finish`, whose recheck and
    audit match rows against it. Each piece `fan_out` sends is the
    sub-query itself, so the hops below read the same region objects.
    """

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
        self.index: PostingIndex | None = None  # what answer_locally looks up; None: the unit holds none
        self._pending: dict[str, _Pending] = {}
        self._sub_parent: dict[str, str] = {}
        self._qid_counter = 0

    def connect(self, conn: Connection) -> None:
        self.connections.append(conn)

    def sends_to(self) -> list[str]:
        return [c.to for c in self.connections]

    # -- message dispatch --------------------------------------------------

    def on_message(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, QueryMsg):
            q = msg.query
            if type(q) is Query:
                region = None if query_is_empty(q) else query_to_region(q, self.indexed_attrs)
                if region is None:
                    # matches nothing anywhere: a complete empty answer, with
                    # no region to route, record load for or look up
                    k.send(self.qpu_id, msg.reply_to, ResponseMsg(msg.qid, (), (), (self.qpu_id,)))
                    return
                msg = QueryMsg(msg.qid, region, msg.reply_to, limit=q.limit)
            self.handle_query(k, msg)
        elif isinstance(msg, ResponseMsg):
            self._on_sub_response(k, msg)
        elif isinstance(msg, QueryTimeout):
            self._on_timeout(k, msg.qid)
        else:
            self.handle_other(k, msg)

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        plan, leftover = decompose(m.query, self.connections)
        local, missing = self.answer_locally(k, m, leftover)
        self.fan_out(k, m, plan, local_parts=local, missing=missing)

    def answer_locally(
        self, k: Kernel, m: QueryMsg, leftover: list[HyperRegion]
    ) -> tuple[list[Sequence[Entry]], list[HyperRegion]]:
        """Rows this unit holds itself for the leftover of the query region
        that no connection covers, and what of it stays missing. Each piece
        is looked up in the unit's own index, one key-sorted part per
        piece; what of a piece lies outside the index's region is missing,
        carved from the clip its lookup returns. A unit without an index
        answers none of it. When the leftover is the whole query region (a
        leaf, a replica cache, or no connection covers any of it, and
        decompose hands back the region itself), a query region that misses
        the index's region is recorded as `out_of_region`."""
        index = self.index
        if index is None:
            return [], leftover
        whole = len(leftover) == 1 and leftover[0] is m.query
        local: list[Sequence[Entry]] = []
        missing: list[HyperRegion] = []
        for piece in leftover:
            found, inside = index.lookup(piece)
            if inside is None:
                if whole:
                    k.probes.emit({"type": "out_of_region", "qpu": self.qpu_id, "qid": m.qid})
                missing.append(piece)
                continue
            if found:
                local.append(found)
            missing.extend(piece.subtract(index.region, inside))
        return local, missing

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
        local_parts: list[Sequence[Entry]] | None = None,
        missing: list[HyperRegion] | None = None,
    ) -> _Pending | None:
        """Sends one sub-query per plan element and parks the join state,
        which it returns; with an empty plan the query is answered at once
        from local_parts, its region is this unit's load sample, and None
        is returned. Each sub-query is the plan's piece, the HyperRegion
        itself. No sub-query carries the limit: the rows recheck drops
        could hide others past it, so _finish applies it once, after
        recheck. The join state takes over the local_parts and missing
        lists; callers pass lists of their own."""
        pend = _Pending(m, {}, local_parts or [], missing or [])
        if not plan:
            if k.probes.load_hook is not None:
                k.probes.load_hook(self.qpu_id, m.query, k.now)
            self._finish(k, pend)
            return None
        for conn, piece in plan:
            sub_qid = self._next_qid()
            pend.outstanding[sub_qid] = piece
            self._sub_parent[sub_qid] = m.qid
            k.send(self.qpu_id, conn.to, QueryMsg(sub_qid, piece, self.qpu_id, True))
        self._pending[m.qid] = pend
        if self.timeout is not None:
            k.schedule_in(self.timeout, self.qpu_id, QueryTimeout(m.qid))
        return pend

    def _on_sub_response(self, k: Kernel, r: ResponseMsg) -> None:
        parent_qid = self._sub_parent.pop(r.qid, None)
        if parent_qid is None:
            return  # late response after timeout
        pend = self._pending[parent_qid]  # a timeout drops it with its sub-queries
        pend.outstanding.pop(r.qid, None)
        if r.entries:
            pend.parts.append(r.entries)
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
        self._finish(k, pend)

    # -- finalize --------------------------------------------------------------

    def _finish(self, k: Kernel, pend: _Pending) -> None:
        """Joins the parts and responds; a client query's answer is
        rechecked, or audited when recheck is disabled, and a sub-query's
        is neither."""
        m = pend.msg
        entries = dedupe_entries(pend.parts)
        replica = None if m.sub else self.recheck_replica
        if replica is not None and self.recheck_enabled:
            entries = recheck(entries, m.query, replica)
            replica = None
        if m.limit is not None:
            entries = entries[: m.limit]
        audit_response(k, self.qpu_id, m.qid, m.query, entries, not pend.missing, replica)
        pend.chain.append(self.qpu_id)
        k.send(self.qpu_id, m.reply_to, ResponseMsg(m.qid, tuple(entries), tuple(pend.missing), tuple(pend.chain)))


class DsQpu(QpuBase):
    """Scans its single data centre's replica. Scan output is authoritative at
    that replica, so it has no recheck replica: its answers are neither
    rechecked nor audited, since either would test the scan against the
    replica it was just read from. Its rows are the replica's StoredObjects
    themselves, scanned by the query's region. An edge replica holds only
    its placement, so on one the part of the region outside the placement
    is missing; a full replica's scan does no other region work."""

    def __init__(self, qpu_id: str, indexed_attrs: Iterable[str], replica: DcReplica, **kw) -> None:
        super().__init__(qpu_id, indexed_attrs, **kw)
        self.replica = replica

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        region, replica = m.query, self.replica
        missing = [] if replica.placement is None else region.subtract(replica.placement)
        self.fan_out(k, m, [], local_parts=[replica.scan(region)], missing=missing)


class FederationQpu(QpuBase):
    """Forwards a query to the neighbours whose coverage intersects it and
    combines the responses; anything uncovered is reported missing."""


class CacheQpu(QpuBase):
    """Response cache (LRU + TTL, keyed by the query's region sides and
    limit, so every spelling of one query shares an entry) in front of its
    one connection, or, when it names `pull_from`, a replica cache: a
    passive copy of that index or merge unit's index, refreshed every
    `pull_interval` ms, with no connections.

    A replica cache answers through QpuBase's query path, from its own
    `index` (`QpuBase.answer_locally`), made at the first pull reply. Each
    pull sends the `seq` of the last installed reply, and the upstream
    answers with a delta of the rows changed since, which is replayed into
    the index. Replies are deltas only: no pulled index is ever replaced,
    since `check-config` rejects a replica cache that pulls from an
    adaptive root, and only adaptive trees split. `mode` names which of the two the cache
    is."""

    def __init__(
        self,
        qpu_id: str,
        indexed_attrs: Iterable[str],
        *,
        pull_from: str | None = None,
        capacity: int = 128,
        ttl: int = 10_000,
        pull_interval: int | None = None,
        **kw,
    ) -> None:
        super().__init__(qpu_id, indexed_attrs, **kw)
        self.pull_from = pull_from
        self.mode = "response" if pull_from is None else "replica"
        self.capacity = capacity
        self.ttl = ttl
        self.pull_interval = pull_interval
        self.hits = 0
        self.misses = 0
        self._cache: OrderedDict[tuple, tuple[int, ResponseMsg]] = OrderedDict()
        self._fills: dict[str, tuple] = {}
        self._snapshot: IndexSnapshot | None = None  # last installed pull reply

    # -- shared -------------------------------------------------------------

    def sends_to(self) -> list[str]:
        source = [] if self.pull_from is None else [self.pull_from]
        return super().sends_to() + source

    def on_start(self, k: Kernel) -> None:
        if self.pull_from is not None and self.pull_interval is not None:
            k.every(self.pull_interval, self.qpu_id, "pull")

    def handle_other(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, Tick):
            self.pull_now(k)
        elif isinstance(msg, IndexSnapshot):
            self._install(k, msg)
        else:
            super().handle_other(k, msg)

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        if self.pull_from is not None:
            super().handle_query(k, m)
            return
        ck = (m.query.sides, m.limit)
        hit = self._cache.get(ck)
        if hit is not None and k.now - hit[0] < self.ttl:
            self._cache.move_to_end(ck)
            self.hits += 1
            k.probes.emit({"type": "cache", "qpu": self.qpu_id, "hit": True})
            # only complete fills are stored, so a hit is complete
            self.fan_out(k, m, [], local_parts=[hit[1].entries])
            return
        if hit is not None:
            del self._cache[ck]  # expired
        self.misses += 1
        k.probes.emit({"type": "cache", "qpu": self.qpu_id, "hit": False})
        # the fill is the query's region, sent unlimited; a hit or the fill is cut in _finish
        pend = self.fan_out(k, m, [(self.connections[0], m.query)])
        self._fills[next(iter(pend.outstanding))] = ck

    def _on_sub_response(self, k: Kernel, r: ResponseMsg) -> None:
        ck = self._fills.pop(r.qid, None)
        if ck is not None and r.complete:
            self._store(k, ck, r)
        super()._on_sub_response(k, r)

    def _store(self, k: Kernel, ck: tuple, resp: ResponseMsg) -> None:
        self._cache[ck] = (k.now, resp)
        self._cache.move_to_end(ck)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        k.probes.progress += 1

    # -- replica cache -----------------------------------------------------------

    def pull_now(self, k: Kernel) -> None:
        since = self._snapshot.seq if self._snapshot else 0
        k.send(self.qpu_id, self.pull_from, SnapshotRequest(since, self.qpu_id))

    def _install(self, k: Kernel, snap: IndexSnapshot) -> None:
        """Merges a pull reply into the index, made at the first reply; it
        counts as progress on the first reply or when the cached rows changed."""
        index = self.index
        first = index is None
        if first:
            index = self.index = PostingIndex(snap.region)
        if index.absorb_rows(snap.entries) or first:
            k.probes.progress += 1
        self._snapshot = snap
