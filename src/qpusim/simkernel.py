"""Deterministic discrete-event kernel: virtual clock, nodes, seeded links with
FIFO delivery, and the instrumentation probes every component reports into."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable


class SimError(RuntimeError):
    """Kernel misuse: scheduling in the past, missing links or actors."""


class Actor:
    """A unit of simulated state. Messages are delivered one at a time."""

    actor_id: str

    def on_start(self, k: "Kernel") -> None:
        pass

    def on_message(self, k: "Kernel", msg: Any) -> None:
        raise NotImplementedError


@dataclass
class Tick:
    """Self-scheduled timer message; excluded from progress accounting."""

    label: str = ""


class Probes:
    """Run-wide instrumentation shared by all actors.

    `progress` counts state-changing applications (store writes, index applies,
    cache fills, control actions) and is what quiescence detection watches;
    periodic no-op traffic such as an unchanged replica pull does not advance it.
    Every entry of `control_events` carries the virtual time `t` at which the
    control action was recorded, as `response_audits` entries do.
    """

    def __init__(self) -> None:
        self.progress = 0
        self.staleness: list[tuple[str, int]] = []
        self.response_audits: list[dict[str, Any]] = []
        self.control_events: list[dict[str, Any]] = []
        self.load_hook: Callable[[str, Any, int], None] | None = None
        self.metrics: Callable[[dict[str, Any]], None] | None = None

    def progress_tick(self) -> None:
        self.progress += 1

    def record_staleness(self, qpu_id: str, delta: int) -> None:
        self.staleness.append((qpu_id, delta))
        self.emit({"type": "staleness", "qpu": qpu_id, "delta": delta})

    def record_control(self, now: int, event: dict[str, Any]) -> None:
        """Store `event` stamped with virtual time `now` and emit the same
        event plus `"type": "control"` as the metrics record."""
        stamped = {"t": now, **event}
        self.control_events.append(stamped)
        self.progress_tick()
        self.emit({"type": "control", **stamped})

    def record_audit(self, record: dict[str, Any]) -> None:
        self.response_audits.append(record)

    def record_load(self, qpu_id: str, region: Any, now: int) -> None:
        if self.load_hook is not None:
            self.load_hook(qpu_id, region, now)

    def emit(self, record: dict[str, Any]) -> None:
        if self.metrics is not None:
            self.metrics(record)

    def type2_violations(self) -> list[dict[str, Any]]:
        return [a for a in self.response_audits if a["violations"]]


@dataclass
class _Link:
    base: int
    jitter: int
    rng: random.Random
    last_delivery: int = 0

    def delay(self) -> int:
        if self.jitter:
            return self.base + self.rng.randint(0, self.jitter)
        return self.base


class Kernel:
    """Single-threaded event loop over virtual integer milliseconds.

    Every event fires in (time, insertion seq) order, so one (seed, config,
    workload) triple always produces the same trace.
    """

    def __init__(self, seed: int | str = 0, local_latency: int = 0) -> None:
        self.seed = seed
        self.now = 0
        self.local_latency = local_latency
        self.probes = Probes()
        self.tracer: Callable[[int, int, str, Any], None] | None = None
        self._seq = 0
        self._heap: list[tuple[int, int, str, Any]] = []
        self._nodes: set[str] = set()
        self._links: dict[tuple[str, str], _Link] = {}
        self._actors: dict[str, Actor] = {}
        self._hosts: dict[str, str] = {}
        self._unstarted: list[str] = []

    # -- topology ---------------------------------------------------------

    def add_node(self, node_id: str) -> None:
        if node_id in self._nodes:
            raise SimError(f"duplicate node {node_id!r}")
        self._nodes.add(node_id)

    def add_link(self, a: str, b: str, base_latency: int, jitter: int = 0) -> None:
        """Registers both directions with independent seeded jitter streams."""
        if base_latency <= 0:
            raise SimError(f"link latency must be positive: {a}->{b}")
        for src, dst in ((a, b), (b, a)):
            if src not in self._nodes or dst not in self._nodes:
                raise SimError(f"link endpoints must be nodes: {src}->{dst}")
            self._links[(src, dst)] = _Link(base_latency, jitter, self.rng(f"link|{src}|{dst}"))

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def register(self, actor: Actor, node_id: str) -> None:
        if actor.actor_id in self._actors:
            raise SimError(f"duplicate actor {actor.actor_id!r}")
        if node_id not in self._nodes:
            raise SimError(f"unknown node {node_id!r} for actor {actor.actor_id!r}")
        self._actors[actor.actor_id] = actor
        self._hosts[actor.actor_id] = node_id
        self._unstarted.append(actor.actor_id)

    def rebind(self, actor_id: str, node_id: str) -> None:
        if actor_id not in self._actors:
            raise SimError(f"unknown actor {actor_id!r}")
        if node_id not in self._nodes:
            raise SimError(f"unknown node {node_id!r}")
        self._hosts[actor_id] = node_id

    def actor(self, actor_id: str) -> Actor:
        return self._actors[actor_id]

    def host_of(self, actor_id: str) -> str:
        return self._hosts[actor_id]

    def rng(self, label: str) -> random.Random:
        """Independent stream derived from the master seed by a stable label."""
        return random.Random(f"{self.seed}|{label}")

    # -- scheduling -------------------------------------------------------

    def schedule(self, at: int, target: str, msg: Any) -> int:
        if at < self.now:
            raise SimError(f"scheduling in the past: {at} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, target, msg))
        return self._seq

    def schedule_in(self, delay: int, target: str, msg: Any) -> int:
        return self.schedule(self.now + delay, target, msg)

    def send(self, from_actor: str, to_actor: str, msg: Any) -> int:
        """Schedules delivery over the hosting nodes' link. Same-node delivery
        uses the local latency; per-link FIFO is preserved by clamping."""
        src, dst = self._hosts[from_actor], self._hosts[to_actor]
        if src == dst:
            return self.schedule(self.now + self.local_latency, to_actor, msg)
        link = self._links.get((src, dst))
        if link is None:
            raise SimError(f"no link {src}->{dst} (for {from_actor}->{to_actor})")
        deliver_at = max(self.now + link.delay(), link.last_delivery)
        link.last_delivery = deliver_at
        return self.schedule(deliver_at, to_actor, msg)

    # -- execution --------------------------------------------------------

    def _start_pending(self) -> None:
        """Starts actors in registration order. One registered by another's
        on_start waits for the next call."""
        if self._unstarted:
            pending, self._unstarted = self._unstarted, []
            for actor_id in pending:
                self._actors[actor_id].on_start(self)

    def _dispatch(self) -> None:
        """Delivers the earliest event, then starts any actor it registered."""
        at, seq, target, msg = heapq.heappop(self._heap)
        self.now = at
        actor = self._actors.get(target)
        if actor is None:
            raise SimError(f"message for unknown actor {target!r}")
        if self.tracer is not None:
            self.tracer(at, seq, target, msg)
        actor.on_message(self, msg)
        self._start_pending()

    def run_until(self, t_max: int | None = None) -> int:
        """Processes events until the queue empties or t_max is reached.

        An empty queue is quiescence: every write replicated and every update
        applied, the state all "after quiescence" properties are checked in.
        """
        self._start_pending()
        while self._heap:
            if t_max is not None and self._heap[0][0] > t_max:
                self.now = t_max
                return self.now
            self._dispatch()
        if t_max is not None and t_max > self.now:
            self.now = t_max
        return self.now

    def run_until_empty(self) -> int:
        return self.run_until(None)

    def step(self) -> bool:
        """Processes exactly one event; False when the queue is empty."""
        self._start_pending()
        if not self._heap:
            return False
        self._dispatch()
        return True

    def pending(self) -> int:
        return len(self._heap)
