"""Hyperspace-partitioned secondary indexes: the index units that each hold
one region's rows in a store.PostingIndex, the filter units that stream store
writes to them, merge units that build a global index from many ingest
points, and the split and merge of an index unit."""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

from .core import HyperRegion, RawValue
from .qpunet import Connection, QpuBase, QueryMsg, SnapshotRequest
from .simkernel import Actor, Kernel, Tick
from .store import DcReplica, IndexSnapshot, LogEntry, PostingIndex


class IndexUpdate(NamedTuple):
    """A batch of the LogEntry objects a replica sent its filter, passed on
    as they are by the filter, by routing units and by push_to. The kernel
    delivers each sender's batches to a unit in the order they were sent."""

    entries: tuple[LogEntry, ...]


# control-plane messages for adaptive re-partitioning; a command names the
# unit it is sent to
class SplitCmd(NamedTuple):
    parent: str
    dim: str
    plane: RawValue


class MergeCmd(NamedTuple):
    parent: str
    children: tuple[str, ...]


class Retire(NamedTuple):
    pass


class ControlDone(NamedTuple):
    """A command's completion; the controller knows which command it was."""

    qpu: str


def route(k: Kernel, source: str, entries: Sequence[LogEntry], targets: Iterable[tuple[str, HyperRegion]]) -> None:
    """Sends each target, in the order given, one IndexUpdate from `source`
    of the entries whose ops touch its region; targets no op touches get
    none. An op touches a region if its new or its old coordinates fall in
    it: the old-coordinate owner needs it to retire stale entries."""
    for target, region in targets:
        contains = region.contains
        hit = []
        for entry in entries:
            op = entry.op
            new, old = op.new_attrs, op.old_attrs
            if (new is not None and contains(new)) or (old is not None and contains(old)):
                hit.append(entry)
        if hit:
            k.send(source, target, IndexUpdate(tuple(hit)))


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
        self._queue: deque[LogEntry] = deque()

    def sends_to(self) -> list[str]:
        return [qpu_id for qpu_id, _region in self.targets]

    def on_start(self, k: Kernel) -> None:
        self.targets.sort(key=itemgetter(0))  # route sends in target-id order
        self.replica.subscribe(k, self.qpu_id, 0)
        if self.batch_interval > 0:
            k.every(self.batch_interval, self.qpu_id, "flush")

    def on_message(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, LogEntry):
            if self.batch_interval > 0:
                self._queue.append(msg)
            else:
                route(k, self.qpu_id, (msg,), self.targets)
        elif isinstance(msg, Tick):
            self.flush(k)
        else:
            raise TypeError(f"filter {self.qpu_id} got {type(msg).__name__}")

    def flush(self, k: Kernel) -> None:
        n = len(self._queue) if self.batch_size is None else min(self.batch_size, len(self._queue))
        if n:
            route(k, self.qpu_id, [self._queue.popleft() for _ in range(n)], self.targets)

    def drain(self, k: Kernel) -> None:
        """Forwards everything still queued; used when a run winds down."""
        if self._queue:
            route(k, self.qpu_id, self._queue, self.targets)
            self._queue.clear()



class IndexQpu(QpuBase):
    """Owns the posting index for one region of the hyperspace.

    A leaf applies the update stream and answers queries from its index. A
    split turns it into an interior router: updates go down to the child
    owning the touched coordinates, and queries take QpuBase's path over
    the children's connections. Whatever of a query no child covers is
    looked up in this unit's own index (`QpuBase.answer_locally`), and the
    part outside its region is missing. A split builds its children already
    holding their rows, on this unit's node, and routes to them at once.
    They answer only this unit's sub-queries, so they get no recheck
    replica (see QpuBase). The split leaves this unit a new, empty index,
    which a merge fills again. A merge applies updates as they arrive, since
    absorbing the children's rows is last-writer-wins in any order; queries
    wait for every child's snapshot, and the unit then unregisters the
    children.

    The units are the one record of an index tree's shape. While a unit is
    INTERNAL or MERGING, its connections are exactly its split children
    (`check-config` gives an adaptive root no configured connections); in
    every other mode it is a leaf of its tree.
    """

    LEAF = "leaf"
    INTERNAL = "internal"
    MERGING = "merging"

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
        self._buffered_queries: list[QueryMsg] = []
        self._waiting = 0  # merge snapshots still to come
        self._split_count = 0

    @property
    def region(self) -> HyperRegion:
        return self.index.region

    def split_children(self) -> list[str]:
        """This unit's children in its index tree: its connections while it
        is INTERNAL or MERGING, none while it is a leaf."""
        if self.mode in (self.INTERNAL, self.MERGING):
            return [c.to for c in self.connections]
        return []

    def sends_to(self) -> list[str]:
        # connections include split children; the parent gets a retiring
        # child's snapshot. ControlDone replies to the controller's command.
        extra = (self.push_to, self.parent)
        return [*super().sends_to(), *(a for a in extra if a is not None)]

    # -- queries ------------------------------------------------------------

    def handle_query(self, k: Kernel, m: QueryMsg) -> None:
        if self.mode == self.MERGING:
            self._buffered_queries.append(m)
        else:
            super().handle_query(k, m)

    # -- update stream --------------------------------------------------------

    def handle_other(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, IndexUpdate):
            self.handle_update(k, msg)
        elif isinstance(msg, SnapshotRequest):
            k.send(self.qpu_id, msg.reply_to, self.index.changes_since(msg.since))
        elif isinstance(msg, SplitCmd):
            self._start_split(k, msg)
        elif isinstance(msg, MergeCmd):
            self._start_merge(k, msg)
        elif isinstance(msg, Retire):
            # a leaf's last message: the parent sent it everything before this
            k.send(self.qpu_id, self.parent, self.index.snapshot())
        elif isinstance(msg, IndexSnapshot):
            self._absorb_child(k, msg)
        else:
            super().handle_other(k, msg)

    def handle_update(self, k: Kernel, u: IndexUpdate) -> None:
        """Routes a batch to the children, or applies it to this unit's index."""
        if self.mode == self.INTERNAL:
            # the children connect in id order: "<id>.s<n>a" before "<id>.s<n>b"
            route(k, self.qpu_id, u.entries, [(c.to, c.coverage) for c in self.connections])
            return
        apply, probes, sink, qpu_id, now = self.index.apply, k.probes, k.probes.metrics, self.qpu_id, k.now
        staleness = None if sink is None else sink.staleness
        pushed: list[LogEntry] = []
        for entry in u.entries:
            if apply(entry.op):
                probes.progress += 1
                if staleness is not None:
                    staleness(qpu_id, now - entry.applied_at)
                pushed.append(entry)
        if pushed and self.push_to is not None:
            k.send(self.qpu_id, self.push_to, IndexUpdate(tuple(pushed)))

    # -- split ---------------------------------------------------------------------

    def _start_split(self, k: Kernel, cmd: SplitCmd) -> None:
        if self.mode != self.LEAF:
            raise RuntimeError(f"{self.qpu_id}: split requested while {self.mode}")
        low, high = self.region.split(cmd.dim, cmd.plane)
        self._split_count += 1
        all_rows = self.index.snapshot().entries
        self.connections = []
        for tag, child_region in (("a", low), ("b", high)):
            child_id = f"{self.qpu_id}.s{self._split_count}{tag}"
            child = IndexQpu(
                child_id,
                child_region,
                push_to=self.push_to,
                parent=self.qpu_id,
                controller=self.controller,
                timeout=self.timeout,
            )
            child.index.absorb_rows(row for row in all_rows if row[1] is None or child_region.contains(row[1]))
            k.register(child, k.host_of(self.qpu_id))
            self.connect(Connection(child_id, child_region))
        self.index = PostingIndex(self.region)
        self.mode = self.INTERNAL
        if self.controller is not None:
            k.send(self.qpu_id, self.controller, ControlDone(self.qpu_id))

    # -- merge -----------------------------------------------------------------------

    def _start_merge(self, k: Kernel, cmd: MergeCmd) -> None:
        if self.mode != self.INTERNAL:
            raise RuntimeError(f"{self.qpu_id}: merge requested while {self.mode}")
        self.mode = self.MERGING
        self._waiting = len(cmd.children)
        for child in cmd.children:
            k.send(self.qpu_id, child, Retire())

    def _absorb_child(self, k: Kernel, snap: IndexSnapshot) -> None:
        """Absorbs a retiring child's rows; the last snapshot ends the merge."""
        self.index.absorb_rows(snap.entries)
        self._waiting -= 1
        if self._waiting:
            return
        for child in self.connections:
            k.unregister(child.to)  # registered by this unit's split
        self.connections = []
        self.mode = self.LEAF
        queries, self._buffered_queries = self._buffered_queries, []
        for m in queries:
            self.handle_query(k, m)
        if self.controller is not None:
            k.send(self.qpu_id, self.controller, ControlDone(self.qpu_id))


class MergeQpu(IndexQpu):
    """Builds one convergent index from several ingest streams (client or
    per-DC indexes pushing their deltas). Conflicts resolve last-writer-wins,
    so the streams may interleave in any order.

    It adds nothing to IndexQpu. The class stays so that merge units are
    their own class: the benchmark's per-layer tracer reports the `merge`
    QPU class by this name."""
