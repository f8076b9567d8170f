"""Hyperspace-partitioned secondary indexes: per-region posting indexes, the
filter units that stream store writes to them, merge units that build a global
index from many ingest points, and the split/merge handoff protocol."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from .core import (
    AttrValue,
    HyperRegion,
    Query,
    Version,
    query_bounds,
    query_to_region,
    region_to_query,
)
from .qpunet import (
    Connection,
    Entry,
    IndexSnapshot,
    QpuBase,
    QueryMsg,
    SnapshotRequest,
    decompose,
)
from .simkernel import Actor, Kernel, Tick
from .store import DELETE, DcReplica, LogEntry, PostingSets, PUT, WriteOp


@dataclass(frozen=True)
class StampedOp:
    """A write op plus the virtual time its feeding replica applied it; the
    stamp rides along so staleness is measured end to end."""

    op: WriteOp
    applied_at: int


@dataclass(frozen=True)
class IndexUpdate:
    """A batch of ops from one ingest source, sequence-numbered per stream so
    receivers can hold out-of-order batches until gaps fill."""

    source: str
    seq: int
    ops: tuple[StampedOp, ...]


# control-plane messages for adaptive re-partitioning
@dataclass(frozen=True)
class SplitCmd:
    parent: str
    plane: tuple[str, AttrValue]


@dataclass(frozen=True)
class Handoff:
    snapshot: IndexSnapshot
    parent: str


@dataclass(frozen=True)
class HandoffAck:
    child: str


@dataclass(frozen=True)
class MergeCmd:
    children: tuple[str, ...]


@dataclass(frozen=True)
class Retire:
    child: str


@dataclass(frozen=True)
class ControlDone:
    qpu: str
    action: str
    children: tuple[tuple[str, HyperRegion], ...] = ()


class PostingIndex(PostingSets):
    """Per-attribute posting sets plus a key registry for one region.

    The registry is authoritative; posting sets are a derived acceleration
    structure and must always be rebuildable from it. Index-local tombstones
    keep late stale ops from resurrecting removed keys, which makes the state
    a pure function of the set of ops applied.

    Every effective apply bumps `seq`. Once the index has answered a pull,
    it also moves the applied key to the end of an insertion-ordered
    key -> seq map, so the keys changed after any sequence number are a
    suffix of that map; indexes nobody pulls from keep no map. Registry rows
    hold the op's own attrs dict; nothing mutates one in place, so rows and
    replies share them.
    """

    def __init__(self, region: HyperRegion) -> None:
        super().__init__(region.attrs)
        self.region = region
        self.registry: dict[str, tuple[dict, Version]] = {}
        self.tombstones: dict[str, Version] = {}
        self.highwater: dict[str, int] = {}
        self.seq = 0
        self.floor = 0  # seq of the last clear(); older requesters need a full reply
        self._changed: dict[str, int] | None = None  # built by the first changes_since

    # -- mutation -----------------------------------------------------------

    def _current_version(self, key: str) -> Version:
        entry = self.registry.get(key)
        reg_v = entry[1] if entry else Version(0, "")
        tomb_v = self.tombstones.get(key, Version(0, ""))
        return max(reg_v, tomb_v)

    def apply(self, op: WriteOp) -> bool:
        """Idempotent last-writer-wins apply. Removal uses the previous registry
        snapshot, never the op's old coordinates, so delivery order cannot
        desynchronise postings from the registry."""
        current = self._current_version(op.key)
        if op.version < current:
            return False
        if op.version == current:
            # One op can surface twice when region-disjoint indexes are
            # combined: as a removal tombstone where the key left and as an
            # entry where it landed. The entry is strictly more informative,
            # so an in-region put upgrades a tombstone of the same version;
            # everything else at an equal version is a duplicate.
            lands_here = (
                op.kind == PUT and op.new_attrs is not None and self.region.contains(op.new_attrs)
            )
            if not (lands_here and op.key in self.tombstones):
                return False
        prev = self.registry.get(op.key)
        if prev is not None:
            self.unpost(op.key, prev[0])
        if op.kind == PUT and op.new_attrs is not None and self.region.contains(op.new_attrs):
            self.registry[op.key] = (op.new_attrs, op.version)
            self.tombstones.pop(op.key, None)
            self.post(op.key, op.new_attrs)
        else:
            self.registry.pop(op.key, None)
            self.tombstones[op.key] = op.version
        self.seq += 1
        if self._changed is not None:
            self._changed.pop(op.key, None)
            self._changed[op.key] = self.seq
        return True

    # -- lookup ---------------------------------------------------------------

    def lookup(self, q: Query) -> tuple[list[Entry], bool]:
        """The registry rows matching q, in key order, from keys_in over the
        query's own bounds. The result is exact without a per-row filter:
        every registry row lies in this index's region. Returns (entries,
        in_region); in_region is False when the query region misses this
        index's region entirely."""
        region = query_to_region(q, self.attrs)
        if region is None:
            raise ValueError("query constrains attributes outside the indexed dimensions")
        if region.clip(self.region) is None:
            return [], False
        registry = self.registry
        out: list[Entry] = []
        for key in sorted(self.keys_in(query_bounds(q))):
            attrs, version = registry[key]
            out.append((key, dict(attrs), version))
        return out, True

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> IndexSnapshot:
        rows: list[tuple[str, dict | None, Version]] = []
        for key in sorted(self.registry):
            attrs, version = self.registry[key]
            rows.append((key, dict(attrs), version))
        for key in sorted(self.tombstones):
            rows.append((key, None, self.tombstones[key]))
        return IndexSnapshot(self.region, tuple(rows), dict(self.highwater), self.seq)

    def changes_since(self, since: int) -> IndexSnapshot:
        """Pull reply for a requester that holds this index's state as of
        sequence `since`: the current rows of the keys changed after it,
        newest first, with tombstones as attrs=None. Costs O(changed keys).
        A `since` below the floor predates the last clear(), whose removals
        left no tombstones, so the reply then carries every row and is
        marked full: the requester replaces what it holds."""
        registry, tombstones = self.registry, self.tombstones
        if self._changed is None:
            # every key present counts as changed at the current seq
            self._changed = dict.fromkeys([*registry, *tombstones], self.seq)
        full = since < self.floor
        rows: list[tuple[str, dict | None, Version]] = []
        for key, seq in reversed(self._changed.items()):
            if seq <= since and not full:
                break
            entry = registry.get(key)
            rows.append((key, entry[0], entry[1]) if entry else (key, None, tombstones[key]))
        return IndexSnapshot(self.region, tuple(rows), dict(self.highwater), self.seq, full)

    def absorb_rows(self, rows: Iterable[tuple[str, dict | None, Version]]) -> int:
        """Merges snapshot rows by replaying them as ops; LWW makes the result
        independent of row order. Returns how many rows changed the index."""
        changed = 0
        for key, attrs, version in sorted(rows, key=lambda r: (r[0], r[2])):
            kind = PUT if attrs is not None else DELETE
            changed += self.apply(WriteOp(key, kind, attrs, None, version, ""))
        return changed

    def clear(self) -> None:
        self.registry.clear()
        self.tombstones.clear()
        self.postings = {a: {} for a in self.attrs}
        self.sorted_values = {a: [] for a in self.attrs}
        if self._changed is not None:
            self._changed.clear()
        self.seq += 1
        self.floor = self.seq

    def rebuilt_postings(self) -> dict[str, dict[AttrValue, set[str]]]:
        """Posting maps recomputed from the registry alone (coherence oracle)."""
        fresh: dict[str, dict[AttrValue, set[str]]] = {a: {} for a in self.attrs}
        for key, (attrs, _v) in self.registry.items():
            for a in self.attrs:
                v = attrs.get(a)
                if v is not None:
                    fresh[a].setdefault(v, set()).add(key)
        return fresh

    def distinct_values(self, attr: str) -> list[AttrValue]:
        return list(self.sorted_values[attr])

    def registry_bytes(self) -> bytes:
        """Canonical serialization of the registry for convergence comparison."""
        rows = []
        for key in sorted(self.registry):
            attrs, version = self.registry[key]
            rows.append(
                [
                    key,
                    sorted((a, v.kind.value, v.value) for a, v in attrs.items()),
                    [version.ts, version.origin],
                ]
            )
        return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()


def filter_targets(op: WriteOp, targets: Iterable[tuple[str, HyperRegion]]) -> list[str]:
    """A target must see the op if either the new or the old coordinates fall
    in its region; the old-coordinate owner needs it to retire stale entries."""
    hit = []
    for qpu_id, region in targets:
        if (op.new_attrs is not None and region.contains(op.new_attrs)) or (
            op.old_attrs is not None and region.contains(op.old_attrs)
        ):
            hit.append(qpu_id)
    return hit


class FilterQpu(Actor):
    """Subscribes to one DC's update log and streams ops to the indexing QPUs
    whose regions they touch. Throughput is shaped by a flush interval and a
    per-flush batch cap; interval 0 forwards immediately."""

    def __init__(
        self,
        qpu_id: str,
        replica: DcReplica,
        targets: list[tuple[str, HyperRegion]],
        *,
        batch_interval: int = 0,
        batch_size: int | None = None,
    ) -> None:
        self.actor_id = qpu_id
        self.qpu_id = qpu_id
        self.replica = replica
        self.targets = list(targets)
        self.batch_interval = batch_interval
        self.batch_size = batch_size
        self.active = True
        self._queue: deque[LogEntry] = deque()
        self._seq: dict[str, int] = {}

    def on_start(self, k: Kernel) -> None:
        self.replica.subscribe(k, self.qpu_id, 0)
        if self.batch_interval > 0:
            k.schedule_in(self.batch_interval, self.qpu_id, Tick("flush"))

    def on_message(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, LogEntry):
            if self.batch_interval > 0:
                self._queue.append(msg)
            else:
                self._forward(k, [msg])
        elif isinstance(msg, Tick) and msg.label == "flush":
            self.flush(k)
            if self.active:
                k.schedule_in(self.batch_interval, self.qpu_id, Tick("flush"))
        else:
            raise TypeError(f"filter {self.qpu_id} got {type(msg).__name__}")

    def flush(self, k: Kernel) -> None:
        n = len(self._queue) if self.batch_size is None else min(self.batch_size, len(self._queue))
        if n:
            self._forward(k, [self._queue.popleft() for _ in range(n)])

    def drain(self, k: Kernel) -> None:
        """Forwards everything still queued; used when a run winds down."""
        if self._queue:
            self._forward(k, list(self._queue))
            self._queue.clear()

    def stop(self) -> None:
        self.active = False

    def backlog(self) -> int:
        return len(self._queue)

    def _forward(self, k: Kernel, entries: list[LogEntry]) -> None:
        per_target: dict[str, list[StampedOp]] = {}
        for entry in entries:
            for target in filter_targets(entry.op, self.targets):
                per_target.setdefault(target, []).append(StampedOp(entry.op, entry.applied_at))
        for target in sorted(per_target):
            seq = self._seq.get(target, 0) + 1
            self._seq[target] = seq
            k.send(self.qpu_id, target, IndexUpdate(self.qpu_id, seq, tuple(per_target[target])))


class IndexQpu(QpuBase):
    """Owns the posting index for one region of the hyperspace.

    A leaf applies the update stream and answers queries from its index. After
    a split it turns into an interior router: updates are forwarded to the
    child owning the touched coordinates and queries are decomposed over the
    children. During a handoff the retained index keeps answering, so
    re-partitioning never leaves a coverage gap.
    """

    LEAF = "leaf"
    HANDOFF = "handoff"
    INTERNAL = "internal"
    MERGING = "merging"
    RETIRED = "retired"

    def __init__(
        self,
        qpu_id: str,
        region: HyperRegion,
        *,
        push_to: str | None = None,
        parent: str | None = None,
        controller: str | None = None,
        **kw,
    ) -> None:
        super().__init__(qpu_id, region.attrs, **kw)
        self.index = PostingIndex(region)
        self.push_to = push_to
        self.parent = parent
        self.controller = controller
        self.mode = self.LEAF
        self._expected: dict[str, int] = {}
        self._reorder: dict[str, dict[int, IndexUpdate]] = {}
        self._out_seq: dict[str, int] = {}
        self._buffered_updates: list[IndexUpdate] = []
        self._buffered_queries: list[QueryMsg] = []
        self._pending_children: list[tuple[str, HyperRegion]] = []
        self._handoff_waiting: set[str] = set()
        self._merge_waiting: int = 0
        self._split_count = 0

    @property
    def region(self) -> HyperRegion:
        return self.index.region

    # -- queries ------------------------------------------------------------

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        if self.mode == self.MERGING:
            self._buffered_queries.append(m)
            return
        region = query_to_region(m.query, self.indexed_attrs)
        if region is None:
            k.probes.emit({"type": "unindexable", "qpu": self.qpu_id, "qid": m.qid})
            self.answer(k, m, [], complete=False)
            return
        if self.connections:
            # children own their delegated sub-regions; the remainder is
            # answered from this QPU's own index
            plan, leftover = decompose(region, self.connections)
            local, missing = self._answer_leftover(leftover)
            if plan:
                self.fan_out(k, m, plan, local_entries=local, missing=missing)
            else:
                self.answer(k, m, local, complete=not missing, missing=missing)
            return
        entries, in_region = self.index.lookup(m.query)
        if not in_region:
            k.probes.emit({"type": "out_of_region", "qpu": self.qpu_id, "qid": m.qid})
        missing = [piece for piece in region.subtract(self.region)]
        self.answer(k, m, entries, complete=not missing, missing=missing)

    def _answer_leftover(self, leftover: list[HyperRegion]) -> tuple[list[Entry], list[HyperRegion]]:
        local: list[Entry] = []
        missing: list[HyperRegion] = []
        for piece in leftover:
            inside = piece.clip(self.region)
            if inside is not None:
                found, _ = self.index.lookup(region_to_query(inside))
                local.extend(found)
            missing.extend(piece.subtract(self.region))
        return local, missing

    # -- update stream --------------------------------------------------------

    def handle_other(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, IndexUpdate):
            self.handle_update(k, msg)
        elif isinstance(msg, SnapshotRequest):
            k.send(self.qpu_id, msg.reply_to, self.index.changes_since(msg.since))
        elif isinstance(msg, SplitCmd):
            self._start_split(k, msg)
        elif isinstance(msg, Handoff):
            self._load_handoff(k, msg)
        elif isinstance(msg, HandoffAck):
            self._handoff_acked(k, msg.child)
        elif isinstance(msg, MergeCmd):
            self._start_merge(k, msg)
        elif isinstance(msg, Retire):
            self._retire(k)
        elif isinstance(msg, IndexSnapshot):
            self._absorb_child(k, msg)
        else:
            super().handle_other(k, msg)

    def handle_update(self, k: Kernel, u: IndexUpdate) -> None:
        if self.mode in (self.HANDOFF, self.MERGING):
            self._buffered_updates.append(u)
            return
        expected = self._expected.get(u.source, 0) + 1
        if u.seq < expected:
            return  # duplicate delivery
        if u.seq > expected:
            self._reorder.setdefault(u.source, {})[u.seq] = u
            return
        self._ingest(k, u)
        held = self._reorder.get(u.source, {})
        nxt = u.seq + 1
        while nxt in held:
            self._ingest(k, held.pop(nxt))
            nxt += 1

    def _ingest(self, k: Kernel, u: IndexUpdate) -> None:
        self._expected[u.source] = u.seq
        self.index.highwater[u.source] = u.seq
        if self.mode == self.RETIRED:
            if self.parent is not None:
                self._restamp(k, self.parent, list(u.ops))
            return
        if self.mode == self.INTERNAL:
            self._route_down(k, u.ops)
            return
        pushed: list[StampedOp] = []
        for stamped in u.ops:
            if self.index.apply(stamped.op):
                k.probes.progress_tick()
                k.probes.record_staleness(self.qpu_id, k.now - stamped.applied_at)
                pushed.append(stamped)
        if pushed and self.push_to is not None:
            self._restamp(k, self.push_to, pushed)

    def _restamp(self, k: Kernel, target: str, ops: list[StampedOp]) -> None:
        seq = self._out_seq.get(target, 0) + 1
        self._out_seq[target] = seq
        k.send(self.qpu_id, target, IndexUpdate(self.qpu_id, seq, tuple(ops)))

    def _route_down(self, k: Kernel, ops: Iterable[StampedOp]) -> None:
        per_child: dict[str, list[StampedOp]] = {}
        targets = [(c.to, c.coverage) for c in self.connections]
        for stamped in ops:
            for child in filter_targets(stamped.op, targets):
                per_child.setdefault(child, []).append(stamped)
        for child in sorted(per_child):
            self._restamp(k, child, per_child[child])

    # -- split ---------------------------------------------------------------------

    def _start_split(self, k: Kernel, cmd: SplitCmd) -> None:
        if self.mode != self.LEAF:
            raise RuntimeError(f"{self.qpu_id}: split requested while {self.mode}")
        dim, plane = cmd.plane
        low, high = self.region.split(dim, plane)
        self._split_count += 1
        self.mode = self.HANDOFF
        self._handoff_waiting = set()
        self._pending_children = []
        node = k.host_of(self.qpu_id)
        all_rows = self.index.snapshot().entries
        for tag, child_region in (("a", low), ("b", high)):
            child_id = f"{self.qpu_id}.s{self._split_count}{tag}"
            child = IndexQpu(
                child_id,
                child_region,
                push_to=self.push_to,
                parent=self.qpu_id,
                controller=self.controller,
                recheck_replica=self.recheck_replica,
                recheck_enabled=self.recheck_enabled,
                timeout=self.timeout,
            )
            k.register(child, node)
            self._handoff_waiting.add(child_id)
            self._pending_children.append((child_id, child_region))
            rows = [row for row in all_rows if row[1] is None or child_region.contains(row[1])]
            snap = IndexSnapshot(child_region, tuple(rows), dict(self.index.highwater))
            k.send(self.qpu_id, child_id, Handoff(snap, self.qpu_id))

    def _load_handoff(self, k: Kernel, h: Handoff) -> None:
        self.index.absorb_rows(h.snapshot.entries)
        self.index.highwater.update(h.snapshot.highwater)
        k.send(self.qpu_id, h.parent, HandoffAck(self.qpu_id))

    def _handoff_acked(self, k: Kernel, child_id: str) -> None:
        self._handoff_waiting.discard(child_id)
        if self._handoff_waiting:
            return
        self.connections = [Connection(cid, region) for cid, region in self._pending_children]
        self.mode = self.INTERNAL
        self.index.clear()
        buffered, self._buffered_updates = self._buffered_updates, []
        for u in buffered:
            self.handle_update(k, u)
        if self.controller is not None:
            k.send(
                self.qpu_id,
                self.controller,
                ControlDone(self.qpu_id, "split", tuple(self._pending_children)),
            )

    # -- merge -----------------------------------------------------------------------

    def _start_merge(self, k: Kernel, cmd: MergeCmd) -> None:
        if self.mode != self.INTERNAL:
            raise RuntimeError(f"{self.qpu_id}: merge requested while {self.mode}")
        self.mode = self.MERGING
        self._merge_waiting = len(cmd.children)
        for child in cmd.children:
            k.send(self.qpu_id, child, Retire(child))

    def _retire(self, k: Kernel) -> None:
        self.mode = self.RETIRED
        if self.parent is not None:
            k.send(self.qpu_id, self.parent, self.index.snapshot())

    def _absorb_child(self, k: Kernel, snap: IndexSnapshot) -> None:
        if self.mode != self.MERGING:
            return
        self.index.absorb_rows(snap.entries)
        for source, seq in snap.highwater.items():
            self.index.highwater[source] = max(self.index.highwater.get(source, 0), seq)
        self._merge_waiting -= 1
        if self._merge_waiting > 0:
            return
        self.connections = []
        self.mode = self.LEAF
        buffered, self._buffered_updates = self._buffered_updates, []
        for u in buffered:
            self.handle_update(k, u)
        queries, self._buffered_queries = self._buffered_queries, []
        for m in queries:
            self.handle_query(k, m)
        if self.controller is not None:
            k.send(self.qpu_id, self.controller, ControlDone(self.qpu_id, "merge"))


class MergeQpu(IndexQpu):
    """Builds one convergent index from several ingest streams (client or
    per-DC indexes pushing their deltas). Conflicts resolve last-writer-wins;
    out-of-order batches wait in the per-source reorder buffer."""
