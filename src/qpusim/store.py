"""Simulated geo-replicated key-value store: one replica per data centre,
asynchronous last-writer-wins replication, and per-DC ordered update feeds."""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterable, Mapping, NamedTuple

from .core import (
    ZERO_VERSION,
    AttrMap,
    HyperRegion,
    IngestError,
    Kind,
    Query,
    RawValue,
    StoredObject,
    Version,
    check_attrs,
    query_bounds,
)
from .simkernel import Actor, Kernel, SimError


# The records below, and the messages and stored objects of the other
# modules (core.StoredObject, indexing, qpunet, workload), are built once per
# write, log append, hop or query, and passed on as they are: a peer receives
# the origin's WriteOp, and an index the LogEntry its filter was sent. Many
# are held while in flight or stored, so they are immutable NamedTuples, not
# frozen dataclasses: cheaper to build and smaller to keep. A NamedTuple
# equals any plain tuple of the same fields, records of two classes alike, so
# messages are dispatched by isinstance and never compared by value.


class WriteOp(NamedTuple):
    """A versioned write carrying the old and new attribute coordinates, so
    index maintenance never needs a read-back; a delete has `new_attrs`
    None. Both are shared attrs dicts (see StoredObject): `new_attrs`
    becomes the stored object's attrs, and `old_attrs` is the overwritten
    object's. The op is also the replication message: peers receive it
    as it is."""

    key: str
    new_attrs: dict | None
    old_attrs: dict | None
    version: Version


class LogEntry(NamedTuple):
    """One op sent from a replica's update feed, stamped with the virtual
    time the replica applied it so staleness is measured end to end. A
    filter routes the entries as they are, and an index pushes on those
    it applied. `seq` is the op's position in the replica's log;
    state-transfer entries carry the position the subscriber asked for
    (see DcReplica.subscribe)."""

    seq: int
    op: WriteOp
    applied_at: int


# client / replication messages
class ClientWrite(NamedTuple):
    key: str
    attrs: dict


class ClientDelete(NamedTuple):
    key: str


class PostingSets:
    """Per-attribute posting sets: for each attribute, raw value -> keys
    holding it, and the attribute's distinct raw values in sorted order. Keys
    are posted and unposted with the attrs dict they are stored under; a key
    lacking an attribute is in none of its sets.

    Values are the stored raw ints, floats and strs, of the one kind the
    schema gives each attribute (check_attrs enforces it where they enter),
    so each attribute's values order totally and int 1 and float 1.0, equal
    and equally hashed, never meet in one attribute's sets."""

    def __init__(self, attrs: Iterable[str]) -> None:
        self.attrs = tuple(attrs)
        self.postings: dict[str, dict[RawValue, set[str]]] = {a: {} for a in self.attrs}
        self.sorted_values: dict[str, list[RawValue]] = {a: [] for a in self.attrs}

    def post(self, key: str, attrs: AttrMap) -> None:
        for a in self.attrs:
            raw = attrs.get(a)
            if raw is None:
                continue
            bucket = self.postings[a].get(raw)
            if bucket is None:
                bucket = self.postings[a][raw] = set()
                insort(self.sorted_values[a], raw)
            bucket.add(key)

    def unpost(self, key: str, attrs: AttrMap) -> None:
        for a in self.attrs:
            raw = attrs.get(a)
            if raw is None:
                continue
            bucket = self.postings[a].get(raw)
            if bucket is None:
                continue
            bucket.discard(key)
            if not bucket:
                del self.postings[a][raw]
                vals = self.sorted_values[a]
                vals.pop(bisect_left(vals, raw))

    def keys_in(self, bounds: Iterable[tuple[str, RawValue | None, RawValue | None]]) -> set[str]:
        """Keys whose value of every bounded attribute lies in its closed-open
        range [lo, hi), None being unbounded; no bounds match nothing.
        Bisects the bounds, takes the union of the posting sets in each range
        and intersects the unions, fewest distinct values first, stopping
        once the result is empty. An attribute without posting sets, or an
        empty range, matches nothing."""
        spans = []
        for attr, lo, hi in bounds:
            vals = self.sorted_values.get(attr, [])
            i = 0 if lo is None else bisect_left(vals, lo)
            j = len(vals) if hi is None else bisect_left(vals, hi)
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

    A replica without a placement region holds every object (a full
    replica); one with a placement (an edge replica) holds the subset whose
    coordinates fall inside it. Conflicts resolve
    last-writer-wins on (ts, origin). Each applied operation takes the next
    log position and is sent to every current subscriber, with old_attrs
    rewritten to the locally overwritten coordinates, which is what the local
    filter needs to retire stale index entries. The log is a stream, not a
    store: an entry is kept nowhere once it is sent, and a subscriber that
    asks for earlier positions gets a state transfer (see subscribe).
    """

    def __init__(
        self,
        dc_id: str,
        schema: Mapping[str, Kind],
        *,
        placement: HyperRegion | None = None,
        peers: tuple[str, ...] = (),
    ) -> None:
        self.actor_id = dc_id
        self.dc_id = dc_id
        self.schema = dict(schema)
        self.placement = placement
        self.peers = tuple(peers)
        self.objects: dict[str, StoredObject] = {}
        self.tombstones: dict[str, Version] = {}
        self.position = 0  # log position of the next applied op
        self.clock = 0
        self._subscribers: list[str] = []
        self._postings: PostingSets | None = None  # built by the first scan

    # -- message plane ------------------------------------------------------

    def sends_to(self) -> tuple[str, ...]:
        return (*self.peers, *self._subscribers)

    def on_message(self, k: Kernel, msg) -> None:
        if isinstance(msg, WriteOp):  # most of a replica's messages
            self.apply_replicated(k, msg)
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
        # the one copy of a client's attrs: from here on the dict is shared
        return self._write(k, key, dict(attrs))

    def delete(self, k: Kernel, key: str) -> Version:
        return self._write(k, key, None)

    def _write(self, k: Kernel, key: str, new_attrs: dict | None) -> Version:
        """Applies a local write; its one op goes to the log and to every peer."""
        self.clock += 1
        version = Version(self.clock, self.dc_id)
        old = self.objects.get(key)
        op = WriteOp(key, new_attrs, old.attrs if old else None, version)
        self._apply_state(key, op, old)
        self._append(k, op)
        for peer in self.peers:
            k.send(self.dc_id, peer, op)
        return version

    # -- replication ----------------------------------------------------------

    def apply_replicated(self, k: Kernel, op: WriteOp) -> bool:
        """Last-writer-wins; duplicates and dominated versions are ignored.
        The appended op carries the locally overwritten attrs. Attrs dicts
        are shared, never copied, so where this replica held the key at the
        same write as the origin (or neither held it) they are the op's own
        `old_attrs`, and the received op is appended as it is."""
        key, version = op.key, op.version
        old = self.objects.get(key)
        if version <= (old.version if old is not None else self.tombstones.get(key, ZERO_VERSION)):
            return False
        old_attrs = old.attrs if old is not None else None
        if version.ts > self.clock:
            self.clock = version.ts
        if old_attrs is not op.old_attrs:
            op = WriteOp(key, op.new_attrs, old_attrs, version)
        self._apply_state(key, op, old)
        self._append(k, op)
        return True

    def _apply_state(self, key: str, op: WriteOp, old: StoredObject | None) -> None:
        """Stores the op's object, or its tombstone, in place of `old`."""
        postings = self._postings
        if postings is not None and old is not None:
            postings.unpost(key, old.attrs)
        new, placement = op.new_attrs, self.placement
        if new is not None and (placement is None or placement.contains(new)):
            obj = self.objects[key] = StoredObject(key, new, op.version)
            self.tombstones.pop(key, None)
            if postings is not None:
                postings.post(key, obj.attrs)
        else:
            self.objects.pop(key, None)
            self.tombstones[key] = op.version

    def _append(self, k: Kernel, op: WriteOp) -> None:
        entry = LogEntry(self.position, op, k.now)
        k.probes.progress += 1
        for sub in self._subscribers:
            k.send(self.dc_id, sub, entry)
        self.position += 1

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> StoredObject | None:
        return self.objects.get(key)

    def scan(self, q: Query | HyperRegion) -> list[StoredObject]:
        """Matching objects in key order, found with PostingSets.keys_in and
        never by visiting every object. A region's bounds are its bounded
        sides (core.query_bounds). The posting sets are built from
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
            (key, tuple(sorted(o.attrs.items())), o.version)
            for key, o in sorted(self.objects.items())
        )
        tombs = tuple(sorted(self.tombstones.items()))
        return objs, tombs

    # -- log feed ----------------------------------------------------------------

    def subscribe(self, k: Kernel, subscriber_id: str, from_seq: int = 0) -> None:
        """Sends the subscriber every entry appended from now on, in log
        order over its link. No entry is kept once it is sent, so a
        subscriber asking from an earlier position (from_seq < position)
        first gets the replica's current state as entries (Bayou's state
        transfer): each object a put and each tombstone a delete, in key
        order, at its stored version, with old_attrs=None, every one with
        seq=from_seq and applied_at=k.now. Last-writer-wins makes an index
        fed this state and then the suffix equal to one fed the whole log:
        per key, both see the replica's latest version last applied. On an
        edge replica a key outside the placement is a tombstone, so that
        holds for indexes whose region lies inside the placement.

        State ops carry no old_attrs, so they are complete only for a
        subscriber that holds nothing yet; one holding older state could not
        retire its entries of keys that moved. from_seq == position sends
        nothing at once; beyond it is an error."""
        if from_seq > self.position:
            raise SimError(f"subscribe from_seq {from_seq} beyond log length {self.position}")
        if from_seq < self.position:
            objects, tombstones = self.objects, self.tombstones
            for key in sorted([*objects, *tombstones]):
                obj = objects.get(key)
                op = WriteOp(key, obj.attrs, None, obj.version) if obj else WriteOp(key, None, None, tombstones[key])
                k.send(self.dc_id, subscriber_id, LogEntry(from_seq, op, k.now))
        self._subscribers.append(subscriber_id)
