"""Event ordering, link FIFO, and trace determinism of the simulation kernel."""

import random

import pytest

from qpusim.simkernel import Actor, Kernel, SimError, Tick


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
            seq = k.schedule(at, "r", i)
            scheduled.append((at, seq, i))
        k.run_until_empty()
        expected = [i for _, _, i in sorted(scheduled)]
        assert [m for _, m in rec.seen] == expected


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


class TestDeterminism:
    @staticmethod
    def _run(seed):
        k = Kernel(seed=seed)
        k.add_node("n1")
        k.add_node("n2")
        k.add_link("n1", "n2", 2, jitter=5)
        trace = []
        k.tracer = lambda at, seq, target, msg: trace.append((at, seq, target, repr(msg)))
        src, dst = Recorder("src"), Recorder("dst")
        k.register(src, "n1")
        k.register(dst, "n2")
        src.on_message = lambda kk, msg: kk.send("src", "dst", msg)  # type: ignore[assignment]
        rng = k.rng("driver")
        for i in range(500):
            k.schedule(rng.randrange(0, 300), "src", i)
        k.run_until_empty()
        return trace

    def test_identical_seed_gives_identical_trace(self):
        assert self._run(123) == self._run(123)

    def test_different_seed_gives_different_trace(self):
        assert self._run(123) != self._run(124)

    def test_rng_streams_are_label_stable(self):
        k1, k2 = Kernel(seed=9), Kernel(seed=9)
        assert [k1.rng("a").random() for _ in range(5)] == [k2.rng("a").random() for _ in range(5)]
        assert k1.rng("a").random() != k1.rng("b").random()
