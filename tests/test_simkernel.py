"""Event ordering, link FIFO, and trace determinism of the simulation kernel."""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from qpusim.build import build
from qpusim.config import parse_topology
from qpusim.scenarios import SCENARIOS, scenario
from qpusim.simkernel import Actor, Kernel, SimError, Tick, _Link


class Recorder(Actor):
    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.seen = []

    def on_message(self, k, msg):
        self.seen.append((k.now, msg))


class Heartbeat(Actor):
    actor_id = "hb"

    def __init__(self):
        self.count = 0

    def on_start(self, k):
        k.schedule_in(10, self.actor_id, Tick())

    def on_message(self, k, msg):
        self.count += 1
        k.schedule_in(10, self.actor_id, Tick())


def kernel_with(*actors, seed=0):
    k = Kernel(seed=seed)
    k.add_node("n1")
    for a in actors:
        k.register(a, "n1")
    return k


class Starter(Actor):
    """Logs its start; optionally registers another actor from on_start."""

    def __init__(self, actor_id, log, spawn=None):
        self.actor_id = actor_id
        self.log = log
        self.spawn = spawn

    def on_start(self, k):
        self.log.append(self.actor_id)
        if self.spawn is not None:
            k.register(self.spawn, "n1")

    def on_message(self, k, msg):
        pass


class TestActorStart:
    def test_actors_start_once_in_registration_order(self):
        log = []
        k = kernel_with(Starter("b", log), Starter("a", log))
        k.run_until(0)
        k.run_until(0)
        assert log == ["b", "a"]

    def test_actor_registered_in_on_start_starts_on_the_next_call(self):
        log = []
        k = kernel_with(Starter("a", log, spawn=Starter("child", log)), Starter("b", log))
        k.run_until(0)
        assert log == ["a", "b"]
        k.run_until(0)
        assert log == ["a", "b", "child"]

    def test_actor_registered_by_a_handler_starts_after_that_event(self):
        log = []
        rec = Recorder("r")
        k = kernel_with(rec)
        rec.on_message = lambda kk, msg: kk.register(Starter("late", log), "n1")  # type: ignore[assignment]
        k.schedule(1, "r", "go")
        assert k.step()
        assert log == ["late"]


class TestScheduling:
    def test_equal_times_fire_in_insertion_order(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(5, "r", "first")
        k.schedule(5, "r", "second")
        k.run_until_empty()
        assert [m for _, m in rec.seen] == ["first", "second"]

    def test_empty_queue_terminates(self):
        k = kernel_with(Recorder("r"))
        assert k.run_until_empty() == 0

    def test_scheduling_in_the_past_is_an_error(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(5, "r", "x")
        k.run_until_empty()
        with pytest.raises(SimError):
            k.schedule(1, "r", "late")

    def test_running_until_a_time_before_now_is_an_error(self):
        """run_until(5) after run_until(12) once set the clock back to 5, so
        an event scheduled at 7 was delivered after the one at 10."""
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(10, "r", "a")
        k.schedule(20, "r", "b")
        assert k.run_until(12) == 12
        with pytest.raises(SimError):
            k.run_until(5)
        assert k.now == 12
        with pytest.raises(SimError):
            k.schedule(7, "r", "late")
        assert k.run_until(12) == 12
        assert k.run_until_empty() == 20
        assert rec.seen == [(10, "a"), (20, "b")]

    def test_heartbeat_stops_at_t_max(self):
        hb = Heartbeat()
        k = kernel_with(hb)
        assert k.run_until(95) == 95
        assert hb.count == 9

    def test_ten_thousand_random_events_fire_in_time_seq_order(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        rng = random.Random(1)
        scheduled = []
        for i in range(10_000):
            at = rng.randrange(0, 5000)
            k.schedule(at, "r", i)
            scheduled.append((at, i))
        k.run_until_empty()
        expected = [i for _, i in sorted(scheduled)]
        assert [m for _, m in rec.seen] == expected

    def test_events_scheduled_at_the_current_instant_fire_after_those_already_due(self):
        rec = Recorder("r")
        k = kernel_with(rec)

        def chain(kk, msg):
            rec.seen.append((kk.now, msg))
            if msg in ("a", "b"):
                kk.schedule_in(0, "r", msg * 2)

        rec.on_message = chain  # type: ignore[assignment]
        k.schedule(5, "r", "a")
        k.schedule(5, "r", "b")
        k.schedule(6, "r", "c")
        k.run_until_empty()
        assert rec.seen == [(5, "a"), (5, "b"), (5, "aa"), (5, "bb"), (6, "c")]
        assert k.pending() == 0


class Fragile(Actor):
    """Records each message, then raises on "boom"; "a" also schedules "d"
    at the same instant."""

    def __init__(self):
        self.actor_id = "f"
        self.seen = []

    def on_message(self, k, msg):
        self.seen.append((k.now, msg))
        if msg == "a":
            k.schedule_in(0, self.actor_id, "d")
        if msg == "boom":
            raise ValueError("boom")


class TestRaisingHandlers:
    """A handler that raises consumes its event; the next call delivers the
    rest of that instant, in order, and nothing twice."""

    @staticmethod
    def _raised_at_five():
        f = Fragile()
        k = kernel_with(f)
        for msg in ("a", "boom", "c"):
            k.schedule(5, "f", msg)
        k.schedule(7, "f", "e")
        with pytest.raises(ValueError):
            k.run_until_empty()
        assert f.seen == [(5, "a"), (5, "boom")]
        assert k.pending() == 3
        return k, f

    def test_run_until_resumes_after_the_raising_event(self):
        k, f = self._raised_at_five()
        k.run_until_empty()
        assert f.seen == [(5, "a"), (5, "boom"), (5, "c"), (5, "d"), (7, "e")]

    def test_step_resumes_after_the_raising_event(self):
        k, f = self._raised_at_five()
        assert k.step()
        assert f.seen[-1] == (5, "c")
        assert k.pending() == 2
        k.run_until_empty()
        assert f.seen == [(5, "a"), (5, "boom"), (5, "c"), (5, "d"), (7, "e")]

    def test_raising_last_event_of_an_instant_leaves_the_queue_consistent(self):
        f = Fragile()
        k = kernel_with(f)
        k.schedule(5, "f", "boom")
        k.schedule(6, "f", "x")
        with pytest.raises(ValueError):
            k.step()
        assert k.pending() == 1
        k.schedule(5, "f", "y")
        k.run_until_empty()
        assert f.seen == [(5, "boom"), (5, "y"), (6, "x")]


class TestLinks:
    def test_same_node_send_is_immediate(self):
        a, b = Recorder("a"), Recorder("b")
        k = kernel_with(a, b)
        k.schedule(3, "a", "go")
        a.on_message = lambda kk, msg: kk.send("a", "b", "ping")  # type: ignore[assignment]
        k.run_until_empty()
        assert b.seen == [(3, "ping")]

    def test_fixed_latency_preserves_spacing(self):
        k = Kernel(seed=0)
        k.add_node("n1")
        k.add_node("n2")
        k.add_link("n1", "n2", 5)
        src, dst = Recorder("src"), Recorder("dst")
        k.register(src, "n1")
        k.register(dst, "n2")
        src.on_message = lambda kk, msg: kk.send("src", "dst", msg)  # type: ignore[assignment]
        k.schedule(0, "src", "a")
        k.schedule(1, "src", "b")
        k.run_until_empty()
        assert dst.seen == [(5, "a"), (6, "b")]

    def test_missing_link_is_a_config_error(self):
        k = Kernel(seed=0)
        k.add_node("n1")
        k.add_node("n2")
        a, b = Recorder("a"), Recorder("b")
        k.register(a, "n1")
        k.register(b, "n2")
        with pytest.raises(SimError):
            k.send("a", "b", "x")

    def test_send_to_or_from_an_unregistered_actor_is_a_sim_error(self):
        k = kernel_with(Recorder("a"))
        with pytest.raises(SimError, match="unknown actor 'gone'"):
            k.send("a", "gone", "x")
        with pytest.raises(SimError, match="unknown actor 'gone'"):
            k.send("gone", "a", "x")
        assert k.pending() == 0

    def test_jittered_sends_never_reorder_within_a_link(self):
        k = Kernel(seed=7)
        k.add_node("n1")
        k.add_node("n2")
        k.add_link("n1", "n2", 3, jitter=9)
        src, dst = Recorder("src"), Recorder("dst")
        k.register(src, "n1")
        k.register(dst, "n2")
        src.on_message = lambda kk, msg: kk.send("src", "dst", msg)  # type: ignore[assignment]
        for i in range(10_000):
            k.schedule(i, "src", i)
        k.run_until_empty()
        payloads = [m for _, m in dst.seen]
        assert payloads == list(range(10_000))
        times = [t for t, _ in dst.seen]
        assert times == sorted(times)

    def test_rebind_changes_latency(self):
        k = Kernel(seed=0)
        for n in ("n1", "n2", "n3"):
            k.add_node(n)
        k.add_link("n1", "n2", 5)
        k.add_link("n1", "n3", 50)
        src, dst = Recorder("src"), Recorder("dst")
        k.register(src, "n1")
        k.register(dst, "n2")
        src.on_message = lambda kk, msg: kk.send("src", "dst", msg)  # type: ignore[assignment]
        k.schedule(0, "src", "near")
        k.run_until_empty()
        k.rebind("dst", "n3")
        k.schedule(k.now, "src", "far")
        k.run_until_empty()
        assert dst.seen == [(5, "near"), (55, "far")]


class TestJitter:
    @pytest.mark.parametrize("jitter", [1, 2, 3, 7, 8, 10, 255])
    def test_delay_draws_as_randrange_does(self, jitter):
        seed = f"jitter|{jitter}"
        link, ref = _Link(4, jitter, random.Random(seed)), random.Random(seed)
        assert [link.delay() for _ in range(1000)] == [4 + ref.randrange(jitter + 1) for _ in range(1000)]
        assert link.rng.random() == ref.random()

    def test_no_jitter_draws_nothing(self):
        link, ref = _Link(4, 0, random.Random(1)), random.Random(1)
        assert {link.delay() for _ in range(10)} == {4}
        assert link.rng.random() == ref.random()


class HeapKernel(Kernel):
    """Reference kernel: every event in one heap of (time, seq, target, msg),
    and link jitter drawn with randrange."""

    def __init__(self, seed):
        super().__init__(seed)
        self._heap = []
        self._seq = 0

    def schedule(self, at, target, msg):
        if at < self.now:
            raise SimError(f"scheduling in the past: {at} < {self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, target, msg))

    def send(self, from_actor, to_actor, msg):
        src, dst = self._hosts[from_actor], self._hosts[to_actor]
        if src == dst:
            self.schedule(self.now, to_actor, msg)
            return
        link = self._links[(src, dst)]
        delay = link.base + (link.rng.randrange(link.jitter + 1) if link.jitter else 0)
        link.last_delivery = max(self.now + delay, link.last_delivery)
        self.schedule(link.last_delivery, to_actor, msg)

    def _pop(self):
        at, _seq, target, msg = heapq.heappop(self._heap)
        self.now = at
        self._actors[target].on_message(self, msg)
        self._start_pending()

    def run_until(self, t_max=None):
        self._start_pending()
        while self._heap:
            if t_max is not None and self._heap[0][0] > t_max:
                self.now = t_max
                return self.now
            self._pop()
        if t_max is not None and t_max > self.now:
            self.now = t_max
        return self.now

    def step(self):
        self._start_pending()
        if not self._heap:
            return False
        self._pop()
        return True

    def pending(self):
        return len(self._heap)


class Scripted(Actor):
    """On each message below depth 3, runs its actions: ("send", i) sends to
    actor i, on its node or over a link; ("in", d) schedules itself d ms on.
    Messages are (sender, sender's count, depth), so a different delivery
    order gives different messages."""

    def __init__(self, actor_id, actions, trace):
        self.actor_id = actor_id
        self.actions = actions
        self.trace = trace
        self.sent = 0

    def on_message(self, k, msg):
        self.trace.append((k.now, self.actor_id, msg))
        depth = msg[2]
        if depth >= 3:
            return
        for kind, arg in self.actions:
            self.sent += 1
            out = (self.actor_id, self.sent, depth + 1)
            if kind == "send":
                k.send(self.actor_id, f"a{arg}", out)
            else:
                k.schedule_in(arg, self.actor_id, out)


_action = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 5)),
    st.tuples(st.just("in"), st.integers(0, 5)),
)
_program = st.fixed_dictionaries(
    {
        "nodes": st.integers(2, 3),
        "links": st.lists(st.tuples(st.integers(1, 4), st.integers(0, 9)), min_size=3, max_size=3),
        "hosts": st.lists(st.integers(0, 2), min_size=6, max_size=6),
        "actions": st.lists(st.lists(_action, max_size=3), min_size=6, max_size=6),
        "initial": st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), min_size=1, max_size=12),
        "driver": st.lists(
            st.one_of(st.tuples(st.just("run"), st.integers(0, 8)), st.tuples(st.just("step"), st.integers(1, 6))),
            max_size=8,
        ),
        "seed": st.integers(0, 2**16),
    }
)


def _scripted_trace(kernel_cls, p, queue=None):
    """Runs program p on a kernel of class kernel_cls; returns its delivery
    trace and the clock after each driver call. `queue(k, initial)` queues
    the initial (at, target, msg) events; by default each is scheduled in
    turn."""
    k = kernel_cls(seed=p["seed"])
    nodes = [f"n{i}" for i in range(p["nodes"])]
    for n in nodes:
        k.add_node(n)
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    for (a, b), (base, jitter) in zip(pairs, p["links"]):
        k.add_link(a, b, base, jitter)
    trace, clocks = [], []
    for i, (host, actions) in enumerate(zip(p["hosts"], p["actions"])):
        k.register(Scripted(f"a{i}", actions, trace), nodes[host % len(nodes)])
    initial = [(at, f"a{target}", ("init", j, 0)) for j, (at, target) in enumerate(p["initial"])]
    if queue is None:
        for event in initial:
            k.schedule(*event)
    else:
        queue(k, initial)
    for kind, n in p["driver"]:
        if kind == "run":
            clocks.append(k.run_until(k.now + n))
        else:
            clocks.append([k.step() for _ in range(n)])
        clocks.append((k.now, k.pending()))
    clocks.append(k.run_until_empty())
    return trace, clocks


class TestOrderEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_program)
    def test_delivery_trace_equals_a_time_seq_heap_kernel(self, p):
        assert _scripted_trace(Kernel, p) == _scripted_trace(HeapKernel, p)


def _feed_even_schedule_odd(k, initial):
    """Feeds the even-numbered initial events, sorted stably by time, then
    schedules the odd-numbered ones."""
    k.feed(sorted(initial[::2], key=lambda event: event[0]))
    for event in initial[1::2]:
        k.schedule(*event)


def _schedule_even_then_odd(k, initial):
    """The same events scheduled up front: the fed ones in the order they
    were fed, then the others."""
    for event in [*sorted(initial[::2], key=lambda event: event[0]), *initial[1::2]]:
        k.schedule(*event)


class TestFeed:
    @settings(max_examples=300, deadline=None)
    @given(_program)
    def test_fed_events_deliver_as_if_scheduled_up_front(self, p):
        """Fed events, events scheduled before the run, and what the
        handlers schedule and send during it, under any mix of run_until
        and step calls: the trace, the clocks and the pending counts equal
        those of scheduling the fed events up front, ahead of the rest."""
        fed = _scripted_trace(Kernel, p, _feed_even_schedule_odd)
        assert fed == _scripted_trace(Kernel, p, _schedule_even_then_odd)

    def test_fed_events_come_before_what_was_scheduled_for_their_time(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(5, "r", "scheduled")
        k.feed([(5, "r", "fed"), (6, "r", "later")])
        k.run_until_empty()
        assert rec.seen == [(5, "fed"), (5, "scheduled"), (6, "later")]

    def test_run_until_between_two_fed_times_stops_there(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.feed([(10, "r", "a"), (30, "r", "b")])
        assert k.run_until(20) == 20
        assert rec.seen == [(10, "a")]
        assert k.pending() == 1
        assert k.run_until(30) == 30
        assert rec.seen == [(10, "a"), (30, "b")]

    def test_step_takes_the_fed_events_of_a_time_first(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(5, "r", "scheduled")
        k.feed([(5, "r", "a"), (5, "r", "b"), (9, "r", "c")])
        assert k.pending() == 4
        counts = []
        while k.step():
            counts.append(k.pending())
        assert rec.seen == [(5, "a"), (5, "b"), (5, "scheduled"), (9, "c")]
        assert counts == [3, 2, 1, 0]

    def test_delivered_events_leave_the_fed_list(self):
        """The kernel keeps the list it was fed and drains it, so nothing
        holds an event once it is delivered."""
        rec = Recorder("r")
        k = kernel_with(rec)
        events = [(t, "r", t) for t in range(0, 50, 10)]
        k.feed(events)
        k.run_until(25)
        assert len(events) == k.pending() == 2
        k.run_until_empty()
        assert events == []

    def test_a_second_feed_waits_until_the_first_is_delivered(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.feed([(10, "r", 1), (20, "r", 2)])
        k.run_until(10)
        with pytest.raises(SimError):
            k.feed([(15, "r", 3)])
        k.run_until(20)
        k.feed([(20, "r", 4), (25, "r", 5)])
        k.run_until_empty()
        assert [m for _, m in rec.seen] == [1, 2, 4, 5]

    @pytest.mark.parametrize(
        "events",
        [
            [(10, "r", "a"), (5, "r", "b")],
            [(3, "r", "past"), (12, "r", "c")],
        ],
    )
    def test_a_list_out_of_time_order_or_in_the_past_is_an_error(self, events):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(4, "r", "x")
        k.run_until(4)
        given_events = list(events)
        with pytest.raises(SimError):
            k.feed(events)
        assert events == given_events
        assert k.pending() == 0
        assert k.run_until_empty() == 4

    def test_unregister_drops_the_actors_fed_events_and_the_clock_still_reaches_them(self):
        dst, other = Recorder("dst"), Recorder("other")
        k = kernel_with(dst, other)
        k.feed([(10, "dst", "a"), (20, "other", "b"), (40, "dst", "c")])
        k.run_until(10)
        k.unregister("dst")
        assert k.run_until_empty() == 40
        assert dst.seen == [(10, "a")]
        assert other.seen == [(20, "b")]
        assert k.pending() == 0

    @pytest.mark.parametrize("scheduled", [True, False])
    @pytest.mark.parametrize("first", ["a", "boom"])
    def test_a_raising_fed_handler_consumes_its_event(self, scheduled, first):
        """The rest of the instant stays queued, whether or not something
        was scheduled for it before it came and whether or not a fed event
        scheduled something at it before the raise ("a" schedules "d")."""
        f = Fragile()
        k = kernel_with(f)
        if scheduled:
            k.schedule(5, "f", "scheduled")
        fed = [(5, "f", "a"), (5, "f", "boom")] if first == "a" else [(5, "f", "boom")]
        k.feed([*fed, (5, "f", "c"), (7, "f", "e")])
        with pytest.raises(ValueError):
            k.run_until_empty()
        after = ["scheduled"] * scheduled + ["d"] * (first == "a")
        assert k.pending() == 2 + len(after)
        k.run_until_empty()
        before = ["a"] * (first == "a")
        assert f.seen == [(5, m) for m in [*before, "boom", "c", *after]] + [(7, "e")]
        assert k.pending() == 0


class Stepper(Actor):
    """Runs one scripted step per message, inside a handler as the adaptive
    controller's rebinds run: ("send", a, b) sends b the next number of the
    pair (a, b); ("rebind", a, n) moves a to node n; ("twice", a, n) moves
    a to node n and then on to node n + 1; ("join", a, b) moves a onto b's
    node."""

    actor_id = "stepper"

    def __init__(self, nodes):
        self.nodes = nodes
        self.sent = {}

    def on_message(self, k, step):
        kind, a, b = step
        if kind == "send":
            n = self.sent.get((f"a{a}", f"a{b}"), 0)
            self.sent[(f"a{a}", f"a{b}")] = n + 1
            k.send(f"a{a}", f"a{b}", (f"a{a}", n))
        elif kind in ("rebind", "twice"):
            k.rebind(f"a{a}", self.nodes[b % len(self.nodes)])
            if kind == "twice":
                k.rebind(f"a{a}", self.nodes[(b + 1) % len(self.nodes)])
        else:
            k.rebind(f"a{a}", k.host_of(f"a{b}"))


_actor = st.integers(0, 3)
_step = st.one_of(
    st.tuples(st.just("send"), _actor, _actor),
    st.tuples(st.sampled_from(["rebind", "twice"]), _actor, st.integers(0, 3)),
    st.tuples(st.just("join"), _actor, _actor),
)
_rebind_program = st.fixed_dictionaries(
    {
        "nodes": st.integers(3, 4),
        "links": st.lists(st.tuples(st.integers(1, 60), st.integers(0, 30)), min_size=6, max_size=6),
        "hosts": st.lists(st.integers(0, 3), min_size=4, max_size=4),
        # each step waits 0-10 ms after the last; a 0 puts two at one instant
        "steps": st.lists(st.tuples(st.integers(0, 10), _step), min_size=10, max_size=40),
        "seed": st.integers(0, 2**16),
    }
)


class TestRebindKeepsPairFifo:
    @settings(max_examples=300, deadline=None)
    @given(_rebind_program)
    def test_every_pair_receives_in_send_order_across_rebinds(self, p):
        """Random nodes, jittered links and actors; sends interleaved with
        rebinds to another node, to the same node, twice in a row, and onto
        the peer's node, so a pair's path changes between the link and the
        node while messages are in flight."""
        k = Kernel(seed=p["seed"])
        nodes = [f"n{i}" for i in range(p["nodes"])]
        for n in nodes:
            k.add_node(n)
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        for (a, b), (base, jitter) in zip(pairs, p["links"]):
            k.add_link(a, b, base, jitter)
        actors = [Recorder(f"a{i}") for i in range(4)]
        for actor, host in zip(actors, p["hosts"]):
            k.register(actor, nodes[host % len(nodes)])
        stepper = Stepper(nodes)
        k.register(stepper, nodes[0])
        at = 0
        for wait, step in p["steps"]:
            at += wait
            k.schedule(at, "stepper", step)
        k.run_until_empty()
        for receiver in actors:
            got = {}
            for _t, (sender, n) in receiver.seen:
                got.setdefault(sender, []).append(n)
            sent = {a: stepper.sent[(a, b)] for a, b in stepper.sent if b == receiver.actor_id}
            assert got == {a: list(range(n)) for a, n in sent.items()}

    @staticmethod
    def two_links():
        k = Kernel(seed=0)
        for n in ("n1", "n2", "n3"):
            k.add_node(n)
        k.add_link("n1", "n2", 100)
        k.add_link("n1", "n3", 1)
        src, dst = Recorder("src"), Recorder("dst")
        k.register(src, "n1")
        k.register(dst, "n2")
        return k, src, dst

    def test_a_message_after_a_rebind_waits_for_the_one_in_flight(self):
        k, _, dst = self.two_links()
        k.send("src", "dst", "slow")
        k.run_until(10)
        k.rebind("dst", "n3")
        k.send("src", "dst", "fast")
        k.run_until_empty()
        assert dst.seen == [(100, "slow"), (100, "fast")]

    @pytest.mark.parametrize("moved", ["src", "dst"])
    def test_a_same_node_message_waits_for_the_floor_of_either_end(self, moved):
        """Moving either end onto the other's node turns the pair's path
        into a same-node one; the next message still waits."""
        k, _, dst = self.two_links()
        k.send("src", "dst", "slow")
        k.rebind(moved, k.host_of("dst" if moved == "src" else "src"))
        k.send("src", "dst", "local")
        k.run_until_empty()
        assert dst.seen == [(100, "slow"), (100, "local")]

    def test_a_floor_delays_messages_to_other_actors_too(self):
        k, src, _ = self.two_links()
        other = Recorder("other")
        k.register(other, "n1")
        k.send("src", "dst", "slow")
        k.rebind("dst", "n1")
        k.send("dst", "other", "after")
        k.send("src", "other", "unrelated")
        k.run_until_empty()
        assert other.seen == [(0, "unrelated"), (100, "after")]

    def test_a_rebind_to_the_own_node_changes_no_delivery_time(self):
        def trace(rebind):
            k = Kernel(seed=3)
            for n in ("n1", "n2"):
                k.add_node(n)
            k.add_link("n1", "n2", 10, jitter=30)
            src, dst = Recorder("src"), Recorder("dst")
            k.register(src, "n1")
            k.register(dst, "n2")
            for i in range(20):
                k.send("src", "dst", i)
                if rebind:
                    k.rebind("dst", "n2")
                k.run_until(k.now + 3)
            k.run_until_empty()
            return dst.seen

        assert trace(rebind=True) == trace(rebind=False)

    @pytest.mark.parametrize("run_to", [100, 150], ids=["delivered-now", "delivered-earlier"])
    def test_a_rebind_with_nothing_in_flight_changes_no_delivery_time(self, run_to):
        k, _, dst = self.two_links()
        k.send("src", "dst", "a")
        k.run_until(run_to)
        k.rebind("dst", "n3")
        k.send("src", "dst", "b")
        k.run_until_empty()
        assert dst.seen == [(100, "a"), (run_to + 1, "b")]

    def test_a_floor_ends_when_the_clock_reaches_it(self):
        k, _, dst = self.two_links()
        k.send("src", "dst", "a")
        k.run_until(99)
        k.rebind("dst", "n3")
        k.run_until(100)
        k.send("src", "dst", "b")
        k.run_until_empty()
        assert dst.seen == [(100, "a"), (101, "b")]

    def test_unregister(self):
        k, src, dst = self.two_links()
        k.send("src", "dst", "in flight")
        k.unregister("dst")
        assert [a.actor_id for a in k.actors()] == ["src"]
        with pytest.raises(SimError, match="unknown actor 'dst'"):
            k.run_until_empty()
        k.register(Recorder("dst"), "n3")  # the id is free again
        with pytest.raises(SimError):
            k.unregister("gone")

    def test_unregister_drops_what_was_scheduled_for_the_actor(self):
        """Events scheduled for an actor without a sender (its own timeouts
        and ticks) are dropped with it, and still advance the clock to their
        time. A handler may unregister an actor that has events in the
        instant being delivered: the instant's other events all arrive."""

        class Remover(Actor):
            actor_id = "remover"

            def on_message(self, k, msg):
                k.unregister("dst")

        dst, other = Recorder("dst"), Recorder("other")
        k = kernel_with(dst, other, Remover())
        for target, msg in (("dst", "before"), ("remover", "go"), ("dst", "after"), ("other", "same instant")):
            k.schedule(10, target, msg)
        k.schedule(50, "dst", "timeout")
        k.every(20, "dst", "tick")
        assert k.run_until_empty() == 50
        assert dst.seen == [(10, "before")]
        assert other.seen == [(10, "same instant")]
        assert k.pending() == 0


class TestTimers:
    def test_ticks_fire_at_every_multiple_of_the_period(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.every(10, "r", "beat")
        k.run_until(55)
        assert rec.seen == [(t, Tick("beat", 10)) for t in (10, 20, 30, 40, 50)]
        assert k.timers == {"beat": 10}

    def test_a_tick_is_re_armed_after_the_events_its_handler_scheduled(self):
        """Units re-armed their own tick as the handler's last act, so an
        event the handler schedules one period ahead comes before the next
        tick at that instant; and one it schedules now, before it too."""
        rec = Recorder("r")
        k = kernel_with(rec)

        def on_message(kk, msg):
            rec.seen.append((kk.now, msg))
            if isinstance(msg, Tick):
                kk.schedule_in(10, "r", f"ahead@{kk.now}")
                kk.schedule_in(0, "r", f"now@{kk.now}")

        rec.on_message = on_message  # type: ignore[assignment]
        k.every(10, "r", "beat")
        k.run_until(20)
        assert [(t, m if isinstance(m, str) else m.label) for t, m in rec.seen] == [
            (10, "beat"), (10, "now@10"), (20, "ahead@10"), (20, "beat"), (20, "now@20"),
        ]

    def test_after_stop_a_queued_tick_is_dropped_but_the_clock_reaches_it(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.every(10, "r", "beat")
        k.run_until(15)
        k.stop_timers()
        assert k.run_until_empty() == 20
        assert rec.seen == [(10, Tick("beat", 10))]
        assert k.pending() == 0

    def test_a_tick_scheduled_by_hand_is_delivered_once(self):
        rec = Recorder("r")
        k = kernel_with(rec)
        k.schedule(5, "r", Tick("once"))
        k.stop_timers()  # ends timers only; a hand-scheduled tick is no timer
        assert k.run_until_empty() == 5
        assert rec.seen == [(5, Tick("once"))]
        assert k.timers == {}

    def test_a_period_below_one_millisecond_is_an_error(self):
        k = kernel_with(Recorder("r"))
        for period in (0, -5):
            with pytest.raises(SimError):
                k.every(period, "r", "beat")

    @pytest.mark.parametrize("name", [*SCENARIOS, "client-cache+batched-filters"])
    def test_settle_horizon_is_unchanged(self, name):
        """The horizon each unit class once contributed by hand: the longest
        pull interval, flush interval and control period, each counted once."""
        doc, _ = scenario(name.removesuffix("+batched-filters"))
        if name.endswith("+batched-filters"):
            for q, interval in zip((q for q in doc["qpus"] if q["class"] == "filter"), (30, 50, 20)):
                q["batch_interval"] = interval
        cfg = parse_topology(doc)
        net = build(cfg)
        net.kernel.run_until(0)  # starts the units, which arm their timers
        max_link = max(l.base_latency + l.jitter for l in cfg.links)
        depth = len(cfg.qpus) + 2
        pulls = max((q.pull_interval or 0 for q in cfg.qpus if q.cls == "cache"), default=0)
        batches = max((q.batch_interval for q in cfg.qpus if q.cls == "filter"), default=0)
        a = cfg.adaptive
        period = a.period_buckets * a.bucket_ms if a.enabled else 0
        assert net.settle_horizon() == 2 * max_link * depth + 2 * (pulls + batches + period) + 100


class TestDeterminism:
    @staticmethod
    def _run(seed):
        k = Kernel(seed=seed)
        k.add_node("n1")
        k.add_node("n2")
        k.add_link("n1", "n2", 2, jitter=5)
        src, dst = Recorder("src"), Recorder("dst")
        k.register(src, "n1")
        k.register(dst, "n2")
        src.on_message = lambda kk, msg: kk.send("src", "dst", msg)  # type: ignore[assignment]
        rng = k.rng("driver")
        for i in range(500):
            k.schedule(rng.randrange(0, 300), "src", i)
        k.run_until_empty()
        assert len(dst.seen) == 500
        return dst.seen

    def test_identical_seed_gives_identical_trace(self):
        assert self._run(123) == self._run(123)

    def test_different_seed_gives_different_trace(self):
        assert self._run(123) != self._run(124)

    def test_rng_streams_are_label_stable(self):
        k1, k2 = Kernel(seed=9), Kernel(seed=9)
        assert [k1.rng("a").random() for _ in range(5)] == [k2.rng("a").random() for _ in range(5)]
        assert k1.rng("a").random() != k1.rng("b").random()
