"""Simulated geo-replicated key-value store: one replica per data centre,
asynchronous last-writer-wins replication, and per-DC ordered update logs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    AttrMap,
    HyperRegion,
    IngestError,
    Kind,
    Query,
    StoredObject,
    Version,
    check_attrs,
    query_matcher,
)
from .simkernel import Actor, Kernel, SimError

PUT = "put"
DELETE = "delete"


@dataclass(frozen=True)
class WriteOp:
    """A versioned put/delete carrying the old and new attribute coordinates,
    so index maintenance never needs a read-back."""

    key: str
    kind: str
    new_attrs: dict | None
    old_attrs: dict | None
    version: Version
    origin_dc: str


@dataclass(frozen=True)
class LogEntry:
    seq: int
    op: WriteOp
    applied_at: int


# client / replication messages
@dataclass(frozen=True)
class ClientWrite:
    key: str
    attrs: dict


@dataclass(frozen=True)
class ClientDelete:
    key: str


@dataclass(frozen=True)
class Replicate:
    op: WriteOp


class DcReplica(Actor):
    """One data centre's replica.

    Full replicas hold every object; edge replicas hold the subset whose
    coordinates fall inside their placement region. Conflicts resolve
    last-writer-wins on (ts, origin). Applied operations are appended to the
    local log with old_attrs rewritten to the locally overwritten coordinates,
    which is what the local filter needs to retire stale index entries.
    """

    def __init__(
        self,
        dc_id: str,
        schema: Mapping[str, Kind],
        *,
        full_replica: bool = True,
        placement: HyperRegion | None = None,
        peers: tuple[str, ...] = (),
    ) -> None:
        self.actor_id = dc_id
        self.dc_id = dc_id
        self.schema = dict(schema)
        self.full_replica = full_replica
        self.placement = placement
        self.peers = tuple(peers)
        self.objects: dict[str, StoredObject] = {}
        self.tombstones: dict[str, Version] = {}
        self.log: list[LogEntry] = []
        self.clock = 0
        self._subscribers: list[str] = []

    # -- message plane ------------------------------------------------------

    def on_message(self, k: Kernel, msg) -> None:
        if isinstance(msg, ClientWrite):
            try:
                self.put(k, msg.key, msg.attrs)
            except IngestError as exc:
                k.probes.emit({"type": "rejected_write", "dc": self.dc_id, "key": msg.key, "reason": str(exc)})
        elif isinstance(msg, ClientDelete):
            self.delete(k, msg.key)
        elif isinstance(msg, Replicate):
            self.apply_replicated(k, msg.op)
        else:
            raise TypeError(f"replica {self.dc_id} got {type(msg).__name__}")

    # -- local write path ----------------------------------------------------

    def put(self, k: Kernel, key: str, attrs: AttrMap) -> Version:
        if not key:
            raise IngestError("object keys must be non-empty")
        check_attrs(self.schema, attrs)
        self.clock += 1
        version = Version(self.clock, self.dc_id)
        old = self.objects.get(key)
        op = WriteOp(key, PUT, dict(attrs), dict(old.attrs) if old else None, version, self.dc_id)
        self._apply_state(key, op)
        self._append(k, op)
        self._replicate(k, op)
        return version

    def delete(self, k: Kernel, key: str) -> Version:
        self.clock += 1
        version = Version(self.clock, self.dc_id)
        old = self.objects.get(key)
        op = WriteOp(key, DELETE, None, dict(old.attrs) if old else None, version, self.dc_id)
        self._apply_state(key, op)
        self._append(k, op)
        self._replicate(k, op)
        return version

    # -- replication ----------------------------------------------------------

    def apply_replicated(self, k: Kernel, op: WriteOp) -> bool:
        """Last-writer-wins; duplicates and dominated versions are ignored."""
        if op.version <= self._current_version(op.key):
            return False
        self.clock = max(self.clock, op.version.ts)
        old = self.objects.get(op.key)
        local_op = WriteOp(op.key, op.kind, op.new_attrs, dict(old.attrs) if old else None, op.version, op.origin_dc)
        self._apply_state(op.key, local_op)
        self._append(k, local_op)
        return True

    def _current_version(self, key: str) -> Version:
        obj = self.objects.get(key)
        if obj is not None:
            return obj.version
        return self.tombstones.get(key, Version(0, ""))

    def _placed(self, attrs: AttrMap | None) -> bool:
        if self.placement is None:
            return True
        return attrs is not None and self.placement.contains(attrs)

    def _apply_state(self, key: str, op: WriteOp) -> None:
        if op.kind == PUT and self._placed(op.new_attrs):
            self.objects[key] = StoredObject(key, dict(op.new_attrs or {}), op.version)
            self.tombstones.pop(key, None)
        else:
            self.objects.pop(key, None)
            self.tombstones[key] = op.version

    def _append(self, k: Kernel, op: WriteOp) -> None:
        entry = LogEntry(len(self.log), op, k.now)
        self.log.append(entry)
        k.probes.progress_tick()
        for sub in self._subscribers:
            k.send(self.dc_id, sub, entry)

    def _replicate(self, k: Kernel, op: WriteOp) -> None:
        for peer in self.peers:
            k.send(self.dc_id, peer, Replicate(op))

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> StoredObject | None:
        return self.objects.get(key)

    def scan(self, q: Query) -> list[StoredObject]:
        """Matching objects in key order; only the matches are sorted."""
        matches = query_matcher(q)
        objects = self.objects
        return [objects[key] for key in sorted(key for key, o in objects.items() if matches(o.attrs))]

    def state_fingerprint(self) -> tuple:
        """(objects, tombstones) content; equal fingerprints mean converged replicas."""
        objs = tuple(
            (key, tuple(sorted((a, v.kind.value, v.value) for a, v in o.attrs.items())), o.version)
            for key, o in sorted(self.objects.items())
        )
        tombs = tuple(sorted(self.tombstones.items()))
        return objs, tombs

    # -- log feed ----------------------------------------------------------------

    def subscribe(self, k: Kernel, subscriber_id: str, from_seq: int = 0) -> None:
        """Delivers log entries from from_seq onward, then every future entry,
        in log order over the subscriber's link."""
        if from_seq > len(self.log):
            raise SimError(f"subscribe from_seq {from_seq} beyond log length {len(self.log)}")
        for entry in self.log[from_seq:]:
            k.send(self.dc_id, subscriber_id, entry)
        self._subscribers.append(subscriber_id)
