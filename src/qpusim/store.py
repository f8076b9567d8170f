"""Simulated geo-replicated key-value store: one replica per data centre,
asynchronous last-writer-wins replication, and per-DC ordered update logs."""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Mapping, NamedTuple

from .core import (
    ZERO_VERSION,
    AttrMap,
    AttrValue,
    HyperRegion,
    IngestError,
    Kind,
    KindMismatch,
    Query,
    RawValue,
    StoredObject,
    Version,
    check_attrs,
    query_bounds,
)
from .simkernel import Actor, Kernel, SimError

PUT = "put"
DELETE = "delete"


# The records below, and the messages and stored objects of the other
# modules (core.StoredObject, indexing, qpunet, workload), are built once per
# write, log append, hop or query, and the replica logs keep them for the whole
# run. So they are immutable NamedTuples, not frozen dataclasses: cheaper to
# build and smaller to keep. A NamedTuple equals any plain tuple of the same
# fields, records of two classes alike, so messages are dispatched by
# isinstance and never compared by value.


class WriteOp(NamedTuple):
    """A versioned put/delete carrying the old and new attribute coordinates,
    so index maintenance never needs a read-back. Both are shared attrs
    dicts (see StoredObject): `new_attrs` becomes the stored object's attrs,
    and `old_attrs` is the overwritten object's."""

    key: str
    kind: str
    new_attrs: dict | None
    old_attrs: dict | None
    version: Version
    origin_dc: str


class LogEntry(NamedTuple):
    seq: int
    op: WriteOp
    applied_at: int


# client / replication messages
class ClientWrite(NamedTuple):
    key: str
    attrs: dict


class ClientDelete(NamedTuple):
    key: str


class Replicate(NamedTuple):
    op: WriteOp


class PostingSets:
    """Per-attribute posting sets: for each attribute, raw value -> keys
    holding it, and the attribute's distinct raw values in sorted order. Keys
    are posted and unposted with the attrs dict they are stored under; a key
    lacking an attribute is in none of its sets.

    Sets are keyed by `AttrValue.value`, so the write path hashes and compares
    plain ints, floats and strs. `kinds` records each attribute's kind once,
    from the first value posted; a value of another kind raises KindMismatch,
    so int 1 and float 1.0, equal and equally hashed as raw values, never
    share a set."""

    def __init__(self, attrs: Iterable[str]) -> None:
        self.attrs = tuple(attrs)
        self.postings: dict[str, dict[RawValue, set[str]]] = {a: {} for a in self.attrs}
        self.sorted_values: dict[str, list[RawValue]] = {a: [] for a in self.attrs}
        self.kinds: dict[str, Kind] = {}

    def post(self, key: str, attrs: AttrMap) -> None:
        kinds = self.kinds
        for a in self.attrs:
            v = attrs.get(a)
            if v is None:
                continue
            kind = kinds.setdefault(a, v.kind)
            if v.kind is not kind:
                raise KindMismatch(f"attribute {a!r}: posting sets hold {kind.value}, value is {v.kind.value}")
            raw = v.value
            bucket = self.postings[a].get(raw)
            if bucket is None:
                bucket = self.postings[a][raw] = set()
                insort(self.sorted_values[a], raw)
            bucket.add(key)

    def unpost(self, key: str, attrs: AttrMap) -> None:
        for a in self.attrs:
            v = attrs.get(a)
            if v is None:
                continue
            raw = v.value
            bucket = self.postings[a].get(raw)
            if bucket is None:
                continue
            bucket.discard(key)
            if not bucket:
                del self.postings[a][raw]
                vals = self.sorted_values[a]
                vals.pop(bisect_left(vals, raw))

    def keys_in(self, bounds: Iterable[tuple[str, AttrValue | None, AttrValue | None]]) -> set[str]:
        """Keys whose value of every bounded attribute lies in its closed-open
        range [lo, hi), None being unbounded; no bounds match nothing.
        Checks every bound's kind against its attribute's first, where the
        attribute holds values: a bound of another kind raises KindMismatch.
        Then bisects the raw bounds, takes the union of the posting sets in
        each range and intersects the unions, fewest distinct values first,
        stopping once the result is empty. An attribute without posting sets,
        or an empty range, matches nothing."""
        spans = []
        for attr, lo, hi in bounds:
            vals = self.sorted_values.get(attr, [])
            if vals:
                kind = self.kinds[attr]
                for bound in (lo, hi):
                    if bound is not None and bound.kind is not kind:
                        raise KindMismatch(f"attribute {attr!r}: posting sets hold {kind.value}, bound is {bound.kind.value}")
            i = 0 if lo is None else bisect_left(vals, lo.value)
            j = len(vals) if hi is None else bisect_left(vals, hi.value)
            spans.append((j - i, attr, i, j))
        spans.sort()
        keys: set[str] | None = None
        for width, attr, i, j in spans:
            if width <= 0:
                return set()
            postings = self.postings[attr]
            union = set().union(*[postings[v] for v in self.sorted_values[attr][i:j]])
            keys = union if keys is None else keys & union
            if not keys:
                break
        return keys or set()


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
        self._postings: PostingSets | None = None  # built by the first scan

    # -- message plane ------------------------------------------------------

    def on_message(self, k: Kernel, msg) -> None:
        if isinstance(msg, Replicate):  # most of a replica's messages
            self.apply_replicated(k, msg.op)
        elif isinstance(msg, ClientWrite):
            try:
                self.put(k, msg.key, msg.attrs)
            except IngestError as exc:
                k.probes.emit({"type": "rejected_write", "dc": self.dc_id, "key": msg.key, "reason": str(exc)})
        elif isinstance(msg, ClientDelete):
            self.delete(k, msg.key)
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
        # the one copy of a client's attrs: from here on the dict is shared
        op = WriteOp(key, PUT, dict(attrs), old.attrs if old else None, version, self.dc_id)
        self._apply_state(key, op)
        self._append(k, op)
        self._replicate(k, op)
        return version

    def delete(self, k: Kernel, key: str) -> Version:
        self.clock += 1
        version = Version(self.clock, self.dc_id)
        old = self.objects.get(key)
        op = WriteOp(key, DELETE, None, old.attrs if old else None, version, self.dc_id)
        self._apply_state(key, op)
        self._append(k, op)
        self._replicate(k, op)
        return version

    # -- replication ----------------------------------------------------------

    def apply_replicated(self, k: Kernel, op: WriteOp) -> bool:
        """Last-writer-wins; duplicates and dominated versions are ignored.
        The logged op carries the locally overwritten attrs. Attrs dicts are
        shared, never copied, so where this replica held the key at the same
        write as the origin (or neither held it) they are the op's own
        `old_attrs`, and the received op is logged as it is."""
        if op.version <= self._current_version(op.key):
            return False
        self.clock = max(self.clock, op.version.ts)
        old = self.objects.get(op.key)
        old_attrs = old.attrs if old else None
        local_op = op
        if old_attrs is not op.old_attrs:
            local_op = WriteOp(op.key, op.kind, op.new_attrs, old_attrs, op.version, op.origin_dc)
        self._apply_state(op.key, local_op)
        self._append(k, local_op)
        return True

    def _current_version(self, key: str) -> Version:
        obj = self.objects.get(key)
        if obj is not None:
            return obj.version
        return self.tombstones.get(key, ZERO_VERSION)

    def _placed(self, attrs: AttrMap | None) -> bool:
        if self.placement is None:
            return True
        return attrs is not None and self.placement.contains(attrs)

    def _apply_state(self, key: str, op: WriteOp) -> None:
        postings = self._postings
        if postings is not None and key in self.objects:
            postings.unpost(key, self.objects[key].attrs)
        if op.kind == PUT and self._placed(op.new_attrs):
            obj = self.objects[key] = StoredObject(key, op.new_attrs or {}, op.version)
            self.tombstones.pop(key, None)
            if postings is not None:
                postings.post(key, obj.attrs)
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
        msg = Replicate(op)  # one immutable message serves every peer
        for peer in self.peers:
            k.send(self.dc_id, peer, msg)

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> StoredObject | None:
        return self.objects.get(key)

    def scan(self, q: Query) -> list[StoredObject]:
        """Matching objects in key order, found with PostingSets.keys_in and
        never by visiting every object. The posting sets are built from
        `objects` at the first scan and kept current by every later write,
        so a replica that is never scanned keeps none. A predicate on an
        attribute outside the schema, or one no value satisfies, matches
        nothing."""
        postings = self._postings
        if postings is None:
            postings = self._postings = PostingSets(self.schema)
            for key, obj in self.objects.items():
                postings.post(key, obj.attrs)
        objects = self.objects
        return [objects[key] for key in sorted(postings.keys_in(query_bounds(q)))]

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
