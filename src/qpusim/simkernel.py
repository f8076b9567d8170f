"""Deterministic discrete-event kernel: virtual clock, nodes, seeded links, FIFO
delivery between each pair of actors, and the probes components report into."""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, MutableSequence

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
    """Timer message; excluded from progress accounting. `Kernel.every`
    sends one with a positive `period` and re-arms it after each delivery,
    until `Kernel.stop_timers`; a Tick scheduled by hand (period 0) is
    delivered once."""

    label: str = ""
    period: int = 0


class Probes:
    """Run-wide instrumentation shared by all actors.

    `progress` counts state-changing applications (store writes, index applies,
    cache fills, control actions), each bumped by one where it happens, and
    is what quiescence detection watches. A replica counts every op it
    applies, where it stores the op (`DcReplica._apply`), including those it
    does not log; periodic no-op traffic such as an unchanged replica pull
    does not advance it.

    The attached `MetricsSink` is the run's one log: control actions and
    type-2 audit findings are emitted to it, and index units write their
    staleness samples to it (`MetricsSink.staleness`), stamped with virtual
    time there and read back from its records. Without a sink,
    emitted records are dropped. `load_hook(qpu_id, region, now)`, when one
    is installed, takes a load sample of each query a unit answers without
    a sub-query (QpuBase.fan_out).
    """

    def __init__(self) -> None:
        self.progress = 0
        self.load_hook: Callable[[str, Any, int], None] | None = None
        self.metrics: MetricsSink | None = None

    def record_control(self, event: dict[str, Any]) -> None:
        """A control action: counts as progress and is emitted as a
        `"type": "control"` record."""
        self.progress += 1
        self.emit({"type": "control", **event})

    def emit(self, record: dict[str, Any]) -> None:
        if self.metrics is not None:
            self.metrics.emit(record)

    def type2_violations(self) -> list[dict[str, Any]]:
        """The `type2` records of the attached sink's log; a run without a
        sink has no log to read, so asking is an error."""
        if self.metrics is None:
            raise SimError("no metrics sink attached: type-2 audits are only recorded in its log")
        return self.metrics.type2_records()


_FED = (None, "fed")  # the marker of the next fed time: first in its bucket, never delivered


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
    `run_until`, `step` or `feed`: the loop is not re-entrant.

    The workload enters through `feed` and takes one entry in the calendar:
    the marker `_FED`, first in the bucket of the next fed time. Before
    delivery the kernel holds only each fed event's time, in one int column,
    and a source that makes each event's (target, msg) when it is pulled.
    A bucket that starts with the marker gets that time's fed events in its
    place (`_pull_fed`) and is delivered like any other by `_deliver`, the
    one delivery body (`step` hands it a single event). `_deliver` calls
    each handler, starts actors only when one is waiting to start, and takes
    a separate branch for ticks, dropped events and unknown actors. A bucket
    is freed once its time is done.
    """

    def __init__(self, seed: int | str = 0) -> None:
        self.seed = seed
        self.now = 0
        self.probes = Probes()
        self._due: dict[int, list[tuple]] = {}  # (target, msg); (target, msg, sender) from `send`; (None, None) if dropped
        self._times: list[int] = []
        self._fed_at: MutableSequence[int] = []  # fed times not yet delivered, latest first
        self._fed_next: Callable[[], tuple] | None = None  # pulls the next fed (target, msg)
        self._fed_gone: set[str] = set()  # actors unregistered during the feed: their fed events drop
        self._nodes: set[str] = set()
        self._links: dict[tuple[str, str], _Link] = {}
        self._actors: dict[str, Actor] = {}
        self._hosts: dict[str, str] = {}
        self._floors: dict[str, int] = {}  # actor -> its last message in flight when it was rebound
        self._unstarted: list[str] = []
        self.timers: dict[str, int] = {}  # label -> longest period armed by every()
        self._timers_stopped = False

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

    def unregister(self, actor_id: str) -> None:
        """Removes an actor. What was scheduled or fed for it without a
        sender (its own timeouts and ticks, its workload) is dropped when its
        time comes, which still advances the clock; a message `send`
        addressed to it raises SimError. While a feed is active the id joins
        `_fed_gone`, whose fed events `_pull_fed` drops until that feed ends."""
        if self._actors.pop(actor_id, None) is None:
            raise SimError(f"unknown actor {actor_id!r}")
        del self._hosts[actor_id]
        if actor_id in self._unstarted:
            self._unstarted.remove(actor_id)
        for events in self._due.values():  # in place: run_until may be walking one
            events[:] = [(None, None) if len(e) == 2 and e[0] == actor_id else e for e in events]
        if self._fed_at:
            self._fed_gone.add(actor_id)

    def rebind(self, actor_id: str, node_id: str) -> None:
        """Moves an actor to another node, keeping each pair of actors FIFO:
        no message to or from it is delivered before the last one in flight
        to or from it when it moved. A rebind to its own node, or with
        nothing in flight, changes no delivery time."""
        if actor_id not in self._actors:
            raise SimError(f"unknown actor {actor_id!r}")
        if node_id not in self._nodes:
            raise SimError(f"unknown node {node_id!r}")
        if self._hosts[actor_id] == node_id:
            return
        self._hosts[actor_id] = node_id
        sent = (at for at, events in self._due.items() if any(len(e) == 3 and actor_id in (e[0], e[2]) for e in events))
        self._floors[actor_id] = max(sent, default=0)

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
        """Queues msg for target at `at`, with no sender; only `send` names one."""
        if at < self.now:
            raise SimError(f"scheduling in the past: {at} < {self.now}")
        events = self._due.get(at)
        if events is None:
            self._due[at] = [(target, msg)]
            heapq.heappush(self._times, at)
        else:
            events.append((target, msg))

    def feed(self, times: MutableSequence[int], events: Iterable[tuple[str, Any]]) -> None:
        """Queues one event per entry of `times`, in time order, as
        `schedule` would each in turn. `events` yields each one's (target,
        msg), in the same order, and is pulled only when the clock reaches
        the event's time, so before delivery the kernel holds the times, one
        marker in the calendar at the first of them, and nothing of the
        messages. It takes the times column over, empties it as they are
        pulled, and drops it and the source once the last one is. At each
        time the fed events come first, then what was scheduled for that
        time, which is the order of scheduling all of them up front and the
        rest during the run. Times out of order, a time before now, or a feed
        before the last fed event is pulled raises SimError and leaves the
        kernel and the column as they were."""
        if self._fed_at:
            raise SimError(f"fed again with {len(self._fed_at)} fed events still to deliver")
        last = self.now
        for at in times:
            if at < last:
                raise SimError(f"fed events out of time order or in the past: {at} < {last}")
            last = at
        if times:
            times.reverse()
            self._fed_at = times
            self._fed_next = iter(events).__next__
            self._mark_fed(times[-1])

    def schedule_in(self, delay: int, target: str, msg: Any) -> None:
        self.schedule(self.now + delay, target, msg)

    def send(self, from_actor: str, to_actor: str, msg: Any) -> None:
        """Queues delivery over the hosting nodes' link, or at `now` on one
        node, as `schedule` would with the sender named; a send is never in
        the past, so it skips that check. An event sent at the instant being
        delivered joins the end of that instant's list. A link's deliveries
        are FIFO by clamping; see `rebind`. Either actor not registered
        raises SimError."""
        hosts = self._hosts
        try:
            src, dst = hosts[from_actor], hosts[to_actor]
        except KeyError as exc:
            raise SimError(f"send {from_actor}->{to_actor}: unknown actor {exc.args[0]!r}") from None
        at = self.now
        if src != dst:
            try:
                link = self._links[(src, dst)]
            except KeyError:
                raise SimError(f"no link {src}->{dst} (for {from_actor}->{to_actor})") from None
            at += link.delay()
            if at < link.last_delivery:
                at = link.last_delivery
            else:
                link.last_delivery = at
        if self._floors:
            at = max(at, self._floors.get(from_actor, 0), self._floors.get(to_actor, 0))
        events = self._due.get(at)
        if events is None:
            self._due[at] = [(to_actor, msg, from_actor)]
            heapq.heappush(self._times, at)
        else:
            events.append((to_actor, msg, from_actor))

    def every(self, period: int, actor_id: str, label: str) -> None:
        """Delivers Tick(label, period) to the actor every `period` ms from
        now on. Each tick is re-armed right after its handler returns, so it
        follows the events the handler scheduled at that instant."""
        if period <= 0:
            raise SimError(f"timer period must be positive: {actor_id} {label!r} every {period}")
        self.timers[label] = max(self.timers.get(label, 0), period)
        self.schedule(self.now + period, actor_id, Tick(label, period))

    def stop_timers(self) -> None:
        """Ends every timer: a tick still queued is dropped when its time
        comes, which still advances the clock to it."""
        self._timers_stopped = True

    # -- execution --------------------------------------------------------

    def _start_pending(self) -> None:
        """Starts actors in registration order. One registered by another's
        on_start waits for the next call."""
        if self._unstarted:
            pending, self._unstarted = self._unstarted, []
            for actor_id in pending:
                self._actors[actor_id].on_start(self)

    def _deliver(self, events: list[tuple]) -> None:
        """Delivers each event of `events` at `now` in turn, those appended
        while it runs included; re-arms a timer's tick after its handler;
        and after each delivered event starts any actor waiting to start.
        An event whose handler raises is consumed: it and those before it
        leave the list, and the rest stay."""
        actors = self._actors
        i = -1
        try:
            for i, event in enumerate(events):
                target, msg = event[0], event[1]
                try:
                    actor = actors[target]
                except KeyError:
                    if target is None:
                        continue  # dropped by unregister
                    raise SimError(f"message for unknown actor {target!r}") from None
                if msg.__class__ is not Tick:
                    actor.on_message(self, msg)
                else:
                    period = msg.period
                    if period and self._timers_stopped:
                        continue
                    actor.on_message(self, msg)
                    if period:
                        self.schedule(self.now + period, target, msg)
                if self._unstarted:
                    self._start_pending()
        except BaseException:
            del events[: i + 1]
            raise

    def _mark_fed(self, at: int) -> None:
        """Puts the marker first in the bucket at `at`, ahead of what was
        scheduled for that time."""
        events = self._due.get(at)
        if events is None:
            self._due[at] = [_FED]
            heapq.heappush(self._times, at)
        else:
            events.insert(0, _FED)

    def _pull_fed(self, at: int) -> list[tuple]:
        """The fed events at `at`, an unregistered actor's dropped; moves the
        marker on, or after the last time drops the drained column (it keeps
        its allocation as it empties), the source and `_fed_gone`."""
        fed, pull = self._fed_at, self._fed_next
        arrived = []
        while fed and fed[-1] == at:
            fed.pop()
            arrived.append(pull())
        gone = self._fed_gone
        if gone:
            arrived = [(None, None) if event[0] in gone else event for event in arrived]
        if fed:
            self._mark_fed(fed[-1])
        else:
            self._fed_at, self._fed_next = [], None
            gone.clear()
        return arrived

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
            if events[0] is _FED:
                events[:1] = self._pull_fed(at)
            try:
                self._deliver(events)
            except BaseException:
                if not events:
                    del due[at]
                    heapq.heappop(times)
                raise
            del due[at]
            heapq.heappop(times)
        if t_max is not None:
            self.now = t_max
        return self.now

    def run_until_empty(self) -> int:
        return self.run_until(None)

    def step(self) -> bool:
        """Processes exactly one event; False when the queue is empty."""
        self._start_pending()
        times = self._times
        if not times:
            return False
        at = self.now = times[0]
        events = self._due[at]
        if events[0] is _FED:
            events[:1] = self._pull_fed(at)
        event = events.pop(0)[:2]
        if not events:
            del self._due[at]
            heapq.heappop(times)
        self._deliver([event])
        return True

    def pending(self) -> int:
        """Events queued and not yet delivered, fed ones included, less the
        one marker that stands for those not yet pulled."""
        fed = self._fed_at
        return sum(map(len, self._due.values())) + len(fed) - bool(fed)
