"""Simulated geo-replicated key-value store: one replica per data centre,
asynchronous last-writer-wins replication and per-DC ordered update feeds,
over the one row store every replica and index holds (PostingIndex)."""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .core import (
    ZERO_VERSION,
    AttrMap,
    HyperRegion,
    IngestError,
    Kind,
    RawValue,
    StoredObject,
    Version,
    check_attrs,
)
from .simkernel import Actor, Kernel, SimError


# A row of a PostingIndex and a result row: (key, attrs, version), built once
# where its write is applied, a StoredObject in a replica's index and a plain
# tuple in any other. Neither it nor its attrs dict is ever mutated (see
# core.StoredObject), so units pass rows on as they are, and no hop rebuilds
# or copies one.
Entry = tuple[str, dict, Version]


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
    """One op sent from a replica's update feed, an op that stored an
    object there or removed a held one, stamped with the virtual time the
    replica applied it so staleness is measured end to end. A filter routes
    the entries as they are, and an index pushes on those it applied. `seq`
    is the op's position in the replica's log;
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


class IndexSnapshot(NamedTuple):
    """A PostingIndex's state on the wire: its region, and rows as (key,
    attrs, version): the registry rows themselves, and a row built for each
    tombstone, with attrs=None. `seq` is the index's change sequence when it
    was taken. A retiring child sends its parent a snapshot of every row. A
    reply to a pull is always a delta: the rows of the keys changed after
    the request's `since`, which the receiver merges into what it holds. No
    pulled index is ever replaced, since only an adaptive tree splits and
    `check-config` rejects a replica cache that pulls from an adaptive
    root. Stream positions do not travel: each index tracks its own."""

    region: HyperRegion
    entries: tuple[tuple[str, dict | None, Version], ...]
    seq: int = 0


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
            bucket = self.postings[a][raw]
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


class PostingIndex:
    """The last-writer-wins row store of one region (an LWW-element map): a
    registry of key -> row, a tombstone for each removed key, and
    per-attribute posting sets. Every holder of rows keeps its state in
    one: a replica (DcReplica.index), an index or merge unit, a replica
    cache.

    `put` is the one writer of rows, tombstones and posting sets; a key is
    in the registry or in tombstones, never in both. Each owner keeps its
    own last-writer-wins rule and row type: a replica StoredObjects
    (DcReplica.apply_replicated), an index plain tuples (`apply`).
    Tombstones keep late stale ops from resurrecting removed keys, which
    makes the state a pure function of the set of ops applied.

    The registry is authoritative; posting sets are a derived acceleration
    structure and must always be rebuildable from it. They are built from
    the registry at the first call of `posting_sets` (a lookup that narrows
    by a side, or a replica's scan) and kept current by every later put, so
    a holder nobody narrows keeps none.

    Every put bumps `seq`. Once the index has answered a pull, it also
    moves the key to the end of an insertion-ordered key -> seq map, so the
    keys changed after any sequence number are a suffix of that map;
    indexes nobody pulls from keep no map. So pull replies are deltas only:
    no key leaves the index without a tombstone, and a split gives its unit
    a new index rather than emptying this one (a pulled index never splits:
    `check-config` rejects a replica cache that pulls from an adaptive
    root).

    Rows hold the op's own attrs dict, the one the replicas store (see
    core.StoredObject). Nothing mutates a row or its dict, so `lookup`,
    `snapshot` and `changes_since` return the registry rows themselves and
    build rows only for tombstones.
    """

    def __init__(self, region: HyperRegion) -> None:
        self.region = region
        self.registry: dict[str, Entry] = {}
        self.tombstones: dict[str, Version] = {}
        self.seq = 0
        self._changed: dict[str, int] | None = None  # built by the first changes_since
        self._sets: PostingSets | None = None  # built by the first posting_sets

    # -- mutation -----------------------------------------------------------

    def put(self, key: str, prev: Entry | None, row: Entry | None, version: Version) -> None:
        """Stores `row` under `key`, or a tombstone at `version` when row is
        None, in place of `prev`, the key's registry row or None. The caller
        has already decided by its last-writer-wins rule that the op lands."""
        sets = self._sets
        if sets is not None and prev is not None:
            sets.unpost(key, prev[1])
        if row is not None:
            self.registry[key] = row
            self.tombstones.pop(key, None)
            if sets is not None:
                sets.post(key, row[1])
        else:
            if prev is not None:
                del self.registry[key]
            self.tombstones[key] = version
        self.seq += 1
        if self._changed is not None:
            self._changed.pop(key, None)
            self._changed[key] = self.seq

    def apply(self, op: WriteOp, row: Entry | None = None) -> bool:
        """An index's idempotent last-writer-wins apply. Removal uses the
        registry row, never the op's old coordinates, so delivery order
        cannot desynchronise postings from the registry. The op is read by
        position, so absorb_rows passes a plain (key, attrs, None, version)
        tuple, with the row it holds already, which is stored as it is."""
        key, new, _old, version = op
        prev = self.registry.get(key)
        current = prev[2] if prev is not None else self.tombstones.get(key, ZERO_VERSION)
        if version < current:
            return False
        lands_here = new is not None and self.region.contains(new)
        # One op can surface twice when region-disjoint indexes are combined:
        # as a removal tombstone where the key left and as an entry where it
        # landed. The entry is strictly more informative, so an in-region put
        # upgrades a tombstone of the same version; everything else at an
        # equal version is a duplicate.
        if version == current and not (lands_here and key in self.tombstones):
            return False
        self.put(key, prev, (row or (key, new, version)) if lands_here else None, version)
        return True

    # -- lookup ---------------------------------------------------------------

    def posting_sets(self) -> PostingSets:
        """The posting sets, built from the registry at the first call."""
        sets = self._sets
        if sets is None:
            sets = self._sets = PostingSets(self.region.attrs)
            for key, attrs, _v in self.registry.values():
                sets.post(key, attrs)
        return sets

    def lookup(self, region: HyperRegion) -> tuple[list[Entry], HyperRegion | None]:
        """The registry rows inside `region`, in key order, and
        region.clip(self.region): None when the region misses this index's
        region entirely, and then there are no rows.

        The region is the one the caller holds (its query's region, or a
        piece of it), so a hop maps its query to a region once and clips
        it against this index once; the caller carves what lies outside
        from the returned clip (HyperRegion.subtract). The rows come from
        keys_in, exact without a per-row filter: every registry row lies in
        this index's region, so only the clip's sides that cut it narrow,
        not its own bounds, which a piece clipped to its coverage carries.
        A region with sides that cut nothing covers it and gets every row;
        one without sides, which no query maps to, matches no row."""
        inside = region.clip(self.region)
        if inside is None:
            return [], None
        registry = self.registry
        sides, own = region.sides, self.region.sides
        if own and sides:
            sides = [side for side in inside.sides if side not in own]
            if not sides:
                return [registry[key] for key in sorted(registry)], inside
        return [registry[key] for key in sorted(self.posting_sets().keys_in(sides))], inside

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self) -> IndexSnapshot:
        registry, tombstones = self.registry, self.tombstones
        rows: list[tuple[str, dict | None, Version]] = [registry[key] for key in sorted(registry)]
        rows.extend((key, None, tombstones[key]) for key in sorted(tombstones))
        return IndexSnapshot(self.region, tuple(rows), self.seq)

    def changes_since(self, since: int) -> IndexSnapshot:
        """Pull reply for a requester that holds this index's state as of
        sequence `since`: the current rows of the keys changed after it,
        newest first, with tombstones as attrs=None. Costs O(changed keys).
        The reply is always a delta: nothing removes a key without leaving
        a tombstone, and an index that is pulled from is never replaced
        (`check-config` rejects a replica cache that pulls from an adaptive
        root, and only adaptive trees split)."""
        registry, tombstones = self.registry, self.tombstones
        if self._changed is None:
            # every key present counts as changed at the current seq
            self._changed = {key: self.seq for key in [*registry, *tombstones]}
        rows: list[tuple[str, dict | None, Version]] = []
        for key, seq in reversed(self._changed.items()):
            if seq <= since:
                break
            rows.append(registry.get(key) or (key, None, tombstones[key]))
        return IndexSnapshot(self.region, tuple(rows), self.seq)

    def absorb_rows(self, rows: Iterable[tuple[str, dict | None, Version]]) -> int:
        """Merges snapshot rows by replaying them as ops; LWW makes the result
        independent of row order. Returns how many rows changed the index."""
        changed = 0
        for row in sorted(rows, key=itemgetter(0, 2)):
            key, attrs, version = row
            changed += self.apply((key, attrs, None, version), row)
        return changed


class DcReplica(Actor):
    """One data centre's replica.

    A replica without a placement region holds every object (a full
    replica); one with a placement (an edge replica) holds the subset whose
    coordinates fall inside it. Conflicts resolve last-writer-wins on
    (ts, origin). Its state is `index`, a PostingIndex over the placement
    or the full space, holding StoredObjects: `objects` is that index's
    registry, and the index keeps the tombstones and the posting sets a
    scan reads. The replica decides what lands (apply_replicated) and
    stores it with PostingIndex.put, never PostingIndex.apply, whose rule
    is an index's.

    The log is the change stream of the replica's objects: an applied op
    that stores an object or removes a held one takes the next log position
    and is sent to every current subscriber, with old_attrs rewritten to the
    locally overwritten coordinates, which is what the local filter needs to
    retire stale index entries. An op that only moves a tombstone (a delete
    of a key the replica does not hold, or on an edge replica an op outside
    the placement for such a key) is applied but not logged. Every applied
    op counts as progress, logged or not. The log is a stream, not a store:
    an entry is kept nowhere once it is sent, and a subscriber that asks for
    earlier positions gets a state transfer (see subscribe).
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
        self.index = PostingIndex(placement or HyperRegion.full(schema))
        self.objects: dict[str, StoredObject] = self.index.registry
        self.position = 0  # log position of the next logged op
        self.clock = 0
        self._subscribers: list[str] = []

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
        """Applies a local write; its one op goes to every peer, and to the
        log when it changes the replica's objects."""
        self.clock += 1
        version = Version(self.clock, self.dc_id)
        old = self.objects.get(key)
        op = WriteOp(key, new_attrs, old.attrs if old else None, version)
        self._apply(k, op, old)
        for peer in self.peers:
            k.send(self.dc_id, peer, op)
        return version

    # -- replication ----------------------------------------------------------

    def apply_replicated(self, k: Kernel, op: WriteOp) -> bool:
        """Last-writer-wins; duplicates and dominated versions are ignored."""
        key, version = op.key, op.version
        old = self.objects.get(key)
        if version <= (old.version if old is not None else self.index.tombstones.get(key, ZERO_VERSION)):
            return False
        if version.ts > self.clock:
            self.clock = version.ts
        self._apply(k, op, old)
        return True

    def _apply(self, k: Kernel, op: WriteOp, old: StoredObject | None) -> None:
        """Stores the op's object, or its tombstone, in place of `old` with
        PostingIndex.put, and counts the op as progress. Only an op that stores an object or
        removes a held one is logged (see DcReplica), with the locally
        overwritten attrs. Attrs dicts are shared, never copied, so where
        this replica held the key at the same write as the origin (or
        neither held it) they are the op's own `old_attrs`, and the op is
        logged as it is. A LogEntry is built only when there are
        subscribers."""
        k.probes.progress += 1
        key, new, version = op.key, op.new_attrs, op.version
        placement = self.placement
        stored = new is not None and (placement is None or placement.contains(new))
        self.index.put(key, old, StoredObject(key, new, version) if stored else None, version)
        if old is None and not stored:
            return
        old_attrs = old.attrs if old is not None else None
        if old_attrs is not op.old_attrs:
            op = WriteOp(key, new, old_attrs, version)
        if self._subscribers:
            entry = LogEntry(self.position, op, k.now)
            for sub in self._subscribers:
                k.send(self.dc_id, sub, entry)
        self.position += 1

    # -- reads -----------------------------------------------------------------

    def get(self, key: str) -> StoredObject | None:
        return self.objects.get(key)

    def scan(self, region: HyperRegion) -> list[StoredObject]:
        """The objects inside the region, in key order, found with
        PostingSets.keys_in on the region's bounded sides
        (HyperRegion.sides) and never by visiting every object. The index's
        posting sets are built at the first scan, so a replica that is
        never scanned keeps none."""
        objects = self.objects
        return [objects[key] for key in sorted(self.index.posting_sets().keys_in(region.sides))]

    def state_fingerprint(self) -> tuple:
        """(objects, tombstones) content; equal fingerprints mean converged replicas."""
        objs = tuple(
            (key, tuple(sorted(o.attrs.items())), o.version)
            for key, o in sorted(self.objects.items())
        )
        tombs = tuple(sorted(self.index.tombstones.items()))
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
        fed this state and then the suffix hold the same registry as one fed
        the whole log: per key, both see the replica's latest logged version
        last applied. Its tombstones may be more or later, since the state
        carries the replica's tombstones and the log only removals of held
        keys. On an edge replica a key outside the placement is a tombstone,
        so that holds for indexes whose region lies inside the placement.

        State ops carry no old_attrs, so they are complete only for a
        subscriber that holds nothing yet; one holding older state could not
        retire its entries of keys that moved. from_seq == position sends
        nothing at once; beyond it is an error."""
        if from_seq > self.position:
            raise SimError(f"subscribe from_seq {from_seq} beyond log length {self.position}")
        if from_seq < self.position:
            objects, tombstones = self.objects, self.index.tombstones
            for key in sorted([*objects, *tombstones]):
                obj = objects.get(key)
                op = WriteOp(key, obj.attrs, None, obj.version) if obj else WriteOp(key, None, None, tombstones[key])
                k.send(self.dc_id, subscriber_id, LogEntry(from_seq, op, k.now))
        self._subscribers.append(subscriber_id)
