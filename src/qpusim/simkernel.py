"""Deterministic discrete-event kernel: virtual clock, nodes, seeded links with
FIFO delivery, and the instrumentation probes every component reports into."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    from .metrics import MetricsSink


class SimError(RuntimeError):
    """Kernel misuse: scheduling in the past, missing links or actors."""


class Actor:
    """A unit of simulated state. Messages are delivered one at a time."""

    actor_id: str

    def on_start(self, k: "Kernel") -> None:
        pass

    def on_message(self, k: "Kernel", msg: Any) -> None:
        raise NotImplementedError

    def sends_to(self) -> Iterable[str]:
        """Ids of the actors this one addresses messages to, replies aside:
        a reply goes back to an actor that addressed this one. Rebalancing
        reads it to keep every message path on one node or one link."""
        return ()


@dataclass
class Tick:
    """Self-scheduled timer message; excluded from progress accounting."""

    label: str = ""


class Probes:
    """Run-wide instrumentation shared by all actors.

    `progress` counts state-changing applications (store writes, index applies,
    cache fills, control actions) and is what quiescence detection watches;
    periodic no-op traffic such as an unchanged replica pull does not advance it.

    The attached `MetricsSink` is the run's one log: staleness samples,
    control actions and type-2 audit findings are emitted to it, stamped with
    virtual time there, and read back from its records. Without a sink,
    emitted records are dropped.
    """

    def __init__(self) -> None:
        self.progress = 0
        self.load_hook: Callable[[str, Any, int], None] | None = None
        self.metrics: MetricsSink | None = None

    def progress_tick(self) -> None:
        self.progress += 1

    def record_control(self, event: dict[str, Any]) -> None:
        """A control action: counts as progress and is emitted as a
        `"type": "control"` record."""
        self.progress_tick()
        self.emit({"type": "control", **event})

    def record_load(self, qpu_id: str, region: Any, now: int) -> None:
        if self.load_hook is not None:
            self.load_hook(qpu_id, region, now)

    def emit(self, record: dict[str, Any]) -> None:
        if self.metrics is not None:
            self.metrics.emit(record)

    def type2_violations(self) -> list[dict[str, Any]]:
        """The `type2` records of the attached sink's log; a run without a
        sink has no log to read, so asking is an error."""
        if self.metrics is None:
            raise SimError("no metrics sink attached: type-2 audits are only recorded in its log")
        return [r for r in self.metrics.records if r.get("type") == "type2"]


@dataclass
class _Link:
    base: int
    jitter: int
    rng: random.Random
    last_delivery: int = 0

    def __post_init__(self) -> None:
        self._bits = (self.jitter + 1).bit_length()

    def delay(self) -> int:
        """base plus a jitter draw that consumes the same bits as
        `rng.randrange(jitter + 1)`: its rejection loop, inlined."""
        jitter = self.jitter
        if jitter:
            getrandbits, bits = self.rng.getrandbits, self._bits
            r = getrandbits(bits)
            while r > jitter:
                r = getrandbits(bits)
            return self.base + r
        return self.base


class Kernel:
    """Single-threaded event loop over virtual integer milliseconds.

    Events fire in time order, and in scheduling order within a time, so one
    (seed, config, workload) triple always produces the same trace. Each time
    that has events keeps them in one FIFO list in `_due`; the heap `_times`
    holds each such time once (a calendar queue with one bucket per
    millisecond, Brown, CACM 1988). An event scheduled at the instant being
    delivered joins the end of that instant's list. Handlers must not call
    `run_until` or `step`: the loop is not re-entrant.
    """

    def __init__(self, seed: int | str = 0) -> None:
        self.seed = seed
        self.now = 0
        self.probes = Probes()
        self._due: dict[int, list[tuple[str, Any]]] = {}
        self._times: list[int] = []
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

    def actors(self) -> list[Actor]:
        return list(self._actors.values())

    def linked(self, a: str, b: str) -> bool:
        """True when nodes a and b are one node or joined by a link."""
        return a == b or (a, b) in self._links

    def host_of(self, actor_id: str) -> str:
        return self._hosts[actor_id]

    def rng(self, label: str) -> random.Random:
        """Independent stream derived from the master seed by a stable label."""
        return random.Random(f"{self.seed}|{label}")

    # -- scheduling -------------------------------------------------------

    def schedule(self, at: int, target: str, msg: Any) -> None:
        if at < self.now:
            raise SimError(f"scheduling in the past: {at} < {self.now}")
        events = self._due.get(at)
        if events is None:
            self._due[at] = [(target, msg)]
            heapq.heappush(self._times, at)
        else:
            events.append((target, msg))

    def schedule_in(self, delay: int, target: str, msg: Any) -> None:
        self.schedule(self.now + delay, target, msg)

    def send(self, from_actor: str, to_actor: str, msg: Any) -> None:
        """Schedules delivery over the hosting nodes' link. Same-node delivery
        is at `now`; per-link FIFO is preserved by clamping."""
        src, dst = self._hosts[from_actor], self._hosts[to_actor]
        if src == dst:
            self.schedule(self.now, to_actor, msg)
            return
        link = self._links.get((src, dst))
        if link is None:
            raise SimError(f"no link {src}->{dst} (for {from_actor}->{to_actor})")
        deliver_at = max(self.now + link.delay(), link.last_delivery)
        link.last_delivery = deliver_at
        self.schedule(deliver_at, to_actor, msg)

    # -- execution --------------------------------------------------------

    def _start_pending(self) -> None:
        """Starts actors in registration order. One registered by another's
        on_start waits for the next call."""
        if self._unstarted:
            pending, self._unstarted = self._unstarted, []
            for actor_id in pending:
                self._actors[actor_id].on_start(self)

    def _deliver(self, target: str, msg: Any) -> None:
        """Delivers one event at `now`, then starts any actor it registered."""
        actor = self._actors.get(target)
        if actor is None:
            raise SimError(f"message for unknown actor {target!r}")
        actor.on_message(self, msg)
        self._start_pending()

    def _drop_time(self, at: int) -> None:
        del self._due[at]
        heapq.heappop(self._times)

    def run_until(self, t_max: int | None = None) -> int:
        """Processes events until the queue empties or t_max is reached.

        An empty queue is quiescence: every write replicated and every update
        applied, the state all "after quiescence" properties are checked in.
        An event whose handler raises is consumed; the rest of its instant
        stays queued for the next call. A t_max before now is an error: the
        clock never runs backwards.
        """
        if t_max is not None and t_max < self.now:
            raise SimError(f"run_until({t_max}) is before now ({self.now})")
        self._start_pending()
        times, due = self._times, self._due
        while times:
            at = times[0]
            if t_max is not None and at > t_max:
                self.now = t_max
                return self.now
            self.now = at
            events = due[at]
            i = 0
            try:
                # Events this loop schedules at `at` are appended to `events`
                # and visited in turn.
                for i, (target, msg) in enumerate(events):
                    self._deliver(target, msg)
            except BaseException:
                del events[: i + 1]
                if not events:
                    self._drop_time(at)
                raise
            self._drop_time(at)
        if t_max is not None:
            self.now = t_max
        return self.now

    def run_until_empty(self) -> int:
        return self.run_until(None)

    def step(self) -> bool:
        """Processes exactly one event; False when the queue is empty."""
        self._start_pending()
        if not self._times:
            return False
        at = self._times[0]
        events = self._due[at]
        target, msg = events.pop(0)
        if not events:
            self._drop_time(at)
        self.now = at
        self._deliver(target, msg)
        return True

    def pending(self) -> int:
        return sum(map(len, self._due.values()))
