"""Load-driven re-partitioning: windowed query-load tracking per QPU, split of
hot leaf regions, merge of cold sibling regions, and greedy QPU placement."""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping

from .core import HyperRegion, Interval, RawValue
from .indexing import ControlDone, IndexQpu, MergeCmd, SplitCmd
from .simkernel import Actor, Kernel, Tick


def interval_midpoint(iv: Interval) -> RawValue | None:
    """Midpoint of a fully bounded interval, of the bounds' type; text
    intervals fall back to the lower bound since strings cannot be averaged."""
    lo, hi = iv.lo, iv.hi
    if lo is None or hi is None:
        return None
    if type(lo) is int:
        return (lo + hi) // 2  # type: ignore[operator]
    if type(lo) is float:
        return (lo + hi) / 2  # type: ignore[operator]
    return lo


@dataclass
class _Bucket:
    count: int = 0
    samples: dict[str, list[RawValue]] = field(default_factory=dict)


class LoadWindow:
    """Ring of per-bucket query counts plus, per dimension, the queried-region
    midpoints observed in that bucket. Buckets rotate with virtual time."""

    def __init__(self, window_buckets: int, bucket_ms: int) -> None:
        if window_buckets < 1 or bucket_ms < 1:
            raise ValueError("window needs at least one bucket of positive length")
        self.window_buckets = window_buckets
        self.bucket_ms = bucket_ms
        self._buckets: dict[int, _Bucket] = {}

    def _prune(self, now: int) -> None:
        floor = now // self.bucket_ms - self.window_buckets + 1
        for idx in [i for i in self._buckets if i < floor]:
            del self._buckets[idx]

    def record(self, now: int, region: HyperRegion) -> None:
        self._prune(now)
        idx = now // self.bucket_ms
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._buckets[idx] = _Bucket()
        bucket.count += 1
        for name, iv in region:
            mid = interval_midpoint(iv)
            if mid is not None:
                bucket.samples.setdefault(name, []).append(mid)

    def load(self, now: int) -> int:
        self._prune(now)
        return sum(b.count for b in self._buckets.values())

    def samples(self, now: int, attr: str) -> list[RawValue]:
        self._prune(now)
        out: list[RawValue] = []
        for idx in sorted(self._buckets):
            out.extend(self._buckets[idx].samples.get(attr, ()))
        return out


class LoadTracker:
    """Per-QPU load windows; installed as the kernel's load hook."""

    def __init__(self, window_buckets: int, bucket_ms: int) -> None:
        self.window_buckets = window_buckets
        self.bucket_ms = bucket_ms
        self.windows: dict[str, LoadWindow] = {}

    def record(self, qpu_id: str, region: HyperRegion, now: int) -> None:
        window = self.windows.get(qpu_id)
        if window is None:
            window = self.windows[qpu_id] = LoadWindow(self.window_buckets, self.bucket_ms)
        window.record(now, region)

    def load(self, qpu_id: str, now: int) -> int:
        window = self.windows.get(qpu_id)
        return 0 if window is None else window.load(now)

    def samples(self, qpu_id: str, now: int, attr: str) -> list[RawValue]:
        window = self.windows.get(qpu_id)
        return [] if window is None else window.samples(now, attr)


def choose_split(
    leaf: IndexQpu, load: int, samples_by_dim: dict[str, list[RawValue]], t_split: int
) -> SplitCmd | None:
    """Split decision for one leaf: gate on windowed load, pick the dimension
    with the widest queried-point spread (distinct sample count; tie-break by
    name), and cut at the sample median snapped to an indexed value boundary.
    Planes keep at least one distinct value on each side, so both children can
    own objects."""
    if load < t_split or leaf.mode != IndexQpu.LEAF:
        return None
    divisible: list[tuple[int, str]] = []
    values_by_dim = leaf.index.posting_sets().sorted_values
    for dim in leaf.indexed_attrs:
        values = values_by_dim[dim]
        if len(values) >= 2:
            spread = len(set(samples_by_dim.get(dim, ())))
            divisible.append((-spread, dim))
    if not divisible:
        return None
    _, dim = min(divisible)
    eligible = values_by_dim[dim][1:]
    samples = sorted(samples_by_dim.get(dim, ()))
    if samples:
        target = samples[len(samples) // 2]
    else:
        target = interval_midpoint(leaf.region.interval(dim))
    if target is None:
        plane = eligible[len(eligible) // 2]
    else:
        idx = bisect_left(eligible, target)
        plane = eligible[idx] if idx < len(eligible) else eligible[-1]
    return SplitCmd(leaf.qpu_id, dim, plane)


def rebalance_placement(
    loads: dict[str, float],
    capacities: dict[str, float],
    *,
    hosts: Mapping[str, str] = MappingProxyType({}),
    peers: Mapping[str, Iterable[str]] = MappingProxyType({}),
    linked: Callable[[str, str], bool] = operator.eq,
) -> tuple[dict[str, str], bool]:
    """Greedy bin-pack: heaviest QPU first onto the node with the most
    remaining capacity. A QPU's candidates are only the nodes linked to the
    node of every actor it exchanges messages with (`peers`): the peer's new
    node if it was placed earlier in this pass, else its host (`hosts`). A
    QPU with no candidate stays on its host. Returns (assignment,
    over_capacity)."""
    remaining = dict(capacities)
    assignment: dict[str, str] = {}
    for qpu in sorted(loads, key=lambda q: (-loads[q], q)):
        peer_nodes = {assignment.get(a, hosts[a]) for a in peers.get(qpu, ())}
        nodes = [n for n in sorted(remaining) if all(linked(n, p) for p in peer_nodes)]
        node = max(nodes, key=lambda n: remaining[n]) if nodes else hosts[qpu]
        assignment[qpu] = node
        remaining[node] -= loads[qpu]
    over = any(r < 0 for r in remaining.values())
    return assignment, over


class AdaptiveController(Actor):
    """Sequential control loop over the index trees it manages.

    Each period it inspects leaf load windows and issues at most one split or
    merge per tree, waiting for the owner QPU to acknowledge completion before
    planning the next action. It never mutates QPU state directly, and it
    keeps no copy of a tree: it walks each one from its root through the
    units' split children (`IndexQpu.split_children`), on the kernel it runs
    on.
    """

    def __init__(
        self,
        controller_id: str,
        kernel: Kernel,
        tracker: LoadTracker,
        roots: list[str],
        *,
        t_split: int = 100,
        t_merge: int = 20,
        period_ms: int = 1000,
        rebalance: bool = False,
        capacities: dict[str, float] | None = None,
    ) -> None:
        self.actor_id = controller_id
        self.kernel = kernel
        self.tracker = tracker
        self.roots = sorted(roots)
        self.t_split = t_split
        self.t_merge = t_merge
        self.period_ms = period_ms
        self.rebalance = rebalance
        self.capacities = capacities or {}
        self.in_flight: dict[str, SplitCmd | MergeCmd] = {}

    def on_start(self, k: Kernel) -> None:
        k.every(self.period_ms, self.actor_id, "control")

    def units(self, root_id: str) -> Iterator[IndexQpu]:
        """Every unit of one index tree, depth first, children in split order."""
        unit: IndexQpu = self.kernel.actor(root_id)  # type: ignore[assignment]
        yield unit
        for child in unit.split_children():
            yield from self.units(child)

    def leaves(self, root_id: str) -> list[IndexQpu]:
        return [u for u in self.units(root_id) if not u.split_children()]

    def sends_to(self) -> list[str]:
        return [u.qpu_id for root_id in self.roots for u in self.units(root_id)]

    def on_message(self, k: Kernel, msg: Any) -> None:
        if isinstance(msg, Tick):
            self.control_step(k)
        elif isinstance(msg, ControlDone):
            self._done(k, msg)
        else:
            raise TypeError(f"controller got {type(msg).__name__}")

    # -- planning -------------------------------------------------------------

    def control_step(self, k: Kernel) -> None:
        for root_id in self.roots:
            if root_id in self.in_flight:
                continue
            loads = {leaf.qpu_id: self.tracker.load(leaf.qpu_id, k.now) for leaf in self.leaves(root_id)}
            for qpu_id, load in loads.items():
                k.probes.emit({"type": "load", "qpu": qpu_id, "window": load})
            cmd = self._plan_split(k, loads) or self._plan_merge(root_id, loads)
            if cmd is None:
                continue
            self.in_flight[root_id] = cmd
            if isinstance(cmd, SplitCmd):
                k.probes.record_control(
                    {"action": "split_requested", "qpu": cmd.parent, "dim": cmd.dim, "plane": cmd.plane}
                )
            else:
                k.probes.record_control({"action": "merge_requested", "qpu": cmd.parent})
            k.send(self.actor_id, cmd.parent, cmd)
        if self.rebalance:
            self._rebalance(k)

    def _plan_split(self, k: Kernel, loads: dict[str, int]) -> SplitCmd | None:
        """A split of the hottest leaf at or above t_split that can be split."""
        for neg_load, qpu_id in sorted((-load, q) for q, load in loads.items() if load >= self.t_split):
            leaf: IndexQpu = k.actor(qpu_id)  # type: ignore[assignment]
            samples = {dim: self.tracker.samples(qpu_id, k.now, dim) for dim in leaf.indexed_attrs}
            cmd = choose_split(leaf, -neg_load, samples, self.t_split)
            if cmd is not None:
                return cmd
            k.probes.emit({"type": "control_skipped", "qpu": qpu_id, "reason": "indivisible"})
        return None

    def _plan_merge(self, root_id: str, loads: dict[str, int]) -> MergeCmd | None:
        """A merge of the first unit, by id, whose children are all leaves at
        or below t_merge. No command is in flight in the tree, so every
        interior unit is INTERNAL."""
        for unit in sorted(self.units(root_id), key=lambda u: u.qpu_id):
            children = unit.split_children()
            if children and all(c in loads and loads[c] <= self.t_merge for c in children):
                return MergeCmd(unit.qpu_id, tuple(children))
        return None

    def _done(self, k: Kernel, msg: ControlDone) -> None:
        """Records a completed command and frees its tree. A split's children
        are read from the unit, a merge's retired children from the command,
        and their load windows are dropped. A ControlDone answering no
        command of this controller's (a unit driven by hand) frees nothing
        and is not recorded."""
        root_id = next((r for r, cmd in self.in_flight.items() if cmd.parent == msg.qpu), None)
        if root_id is None:
            return
        cmd = self.in_flight.pop(root_id)
        if isinstance(cmd, SplitCmd):
            children = k.actor(msg.qpu).split_children()  # type: ignore[attr-defined]
            k.probes.record_control({"action": "split", "qpu": msg.qpu, "children": children})
        else:
            for child in cmd.children:
                self.tracker.windows.pop(child, None)
            k.probes.record_control({"action": "merge", "qpu": msg.qpu, "retired": list(cmd.children)})

    # -- placement ---------------------------------------------------------------

    def _rebalance(self, k: Kernel) -> None:
        qpus = sorted({leaf.qpu_id for root_id in self.roots for leaf in self.leaves(root_id)})
        if not qpus or not self.capacities:
            return
        loads = {q: float(self.tracker.load(q, k.now)) for q in qpus}
        peers: dict[str, set[str]] = {q: set() for q in qpus}
        for actor in k.actors():
            sends = set(actor.sends_to())
            if actor.actor_id in peers:
                peers[actor.actor_id] |= sends
            for q in sends & peers.keys():
                peers[q].add(actor.actor_id)
        for q in qpus:
            peers[q].discard(q)
        hosts = {a: k.host_of(a) for a in set().union(qpus, *peers.values())}
        assignment, over = rebalance_placement(loads, self.capacities, hosts=hosts, peers=peers, linked=k.linked)
        for qpu, node in sorted(assignment.items()):
            if k.host_of(qpu) != node:
                k.rebind(qpu, node)
                k.probes.record_control({"action": "rebind", "qpu": qpu, "node": node, "over_capacity": over})
