"""Load windows, split/merge planning and execution, and placement balancing."""

import itertools
import random

import pytest

from qpusim.adapt import (
    AdaptiveController,
    LoadTracker,
    LoadWindow,
    choose_split,
    rebalance_placement,
)
from qpusim.core import Kind, Predicate, Query, Version
from qpusim.indexing import ControlDone, FilterQpu, IndexQpu, MergeCmd, SplitCmd
from qpusim.metrics import MetricsSink
from qpusim.qpunet import QueryMsg
from qpusim.scenarios import SCENARIOS, scenario
from qpusim.simkernel import Kernel
from qpusim.store import DcReplica

from conftest import (
    Client,
    LogRecorder,
    control_actions,
    make_region,
    record_log,
    records_of,
    registry_bytes,
    run_query,
)

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}
FULL = make_region(size=(None, None), genre=(None, None))


def q_point(v):
    return Query.of([Predicate.equals("size", v)])


def q_range(lo, hi):
    return Query.of([Predicate.between("size", lo, hi)])


def region_of(q):
    from qpusim.core import query_to_region

    return query_to_region(q, ["size", "genre"])


class TestLoadWindow:
    def test_three_queries_one_bucket(self):
        w = LoadWindow(window_buckets=5, bucket_ms=100)
        for _ in range(3):
            w.record(50, region_of(q_point(7)))
        assert w.load(50) == 3

    def test_rotation_drops_oldest_bucket(self):
        w = LoadWindow(window_buckets=3, bucket_ms=100)
        w.record(0, region_of(q_point(7)))
        w.record(150, region_of(q_point(7)))
        assert w.load(150) == 2
        assert w.load(399) == 1  # bucket 0 rotated out
        assert w.load(999) == 0

    def test_histogram_matches_direct_tally(self):
        w = LoadWindow(window_buckets=10, bucket_ms=100)
        rng = random.Random(6)
        expected = []
        for _ in range(100):
            v = rng.randrange(50)
            expected.append(v)  # midpoint of [v, v+1) is v
            w.record(rng.randrange(0, 900), region_of(q_point(v)))
        got = sorted(w.samples(900, "size"))
        assert got == sorted(expected)
        assert w.samples(900, "genre") == []


def leaf_with_values(values, region=None):
    k = Kernel(seed=0)
    k.add_node("n")
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n")
    leaf = IndexQpu("root", region or FULL, recheck_replica=rep)
    k.register(leaf, "n")
    from qpusim.store import WriteOp

    for i, v in enumerate(values, start=1):
        leaf.index.apply(WriteOp(f"k{i}", {"size": v}, None, Version(i, "dc1")))
    return k, rep, leaf


class TestChooseSplit:
    def test_below_threshold_is_noop(self):
        _, _, leaf = leaf_with_values(range(10))
        assert choose_split(leaf, 99, {"size": []}, t_split=100) is None

    def test_indivisible_region_is_noop(self):
        _, _, leaf = leaf_with_values([7, 7, 7])  # one distinct value
        assert choose_split(leaf, 500, {"size": []}, t_split=100) is None

    def test_plane_near_hot_range_median(self):
        k, _, leaf = leaf_with_values(range(0, 100), region=make_region(size=(0, 100), genre=(None, None)))
        samples = [90, 92, 94, 95, 96, 97, 98, 99]
        plan = choose_split(leaf, 500, {"size": samples}, t_split=100)
        assert plan is not None and plan.dim == "size"
        assert 90 <= plan.plane <= 99  # inside the hot range's vicinity
        low, high = leaf.region.split(plan.dim, plan.plane)
        # children cover the parent region exactly
        assert low.interval("size").lo == 0 and high.interval("size").hi == 100
        assert low.interval("size").hi == high.interval("size").lo

    def test_no_samples_falls_back_to_interval_midpoint(self):
        _, _, leaf = leaf_with_values(range(0, 100), region=make_region(size=(0, 100), genre=(None, None)))
        plan = choose_split(leaf, 500, {"size": [], "genre": []}, t_split=100)
        assert plan is not None
        assert 45 <= plan.plane <= 55

    def test_dimension_with_widest_sample_spread_wins(self):
        k = Kernel(seed=0)
        k.add_node("n")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n")
        leaf = IndexQpu("root", FULL, recheck_replica=rep)
        k.register(leaf, "n")
        from qpusim.store import WriteOp

        for i in range(20):
            leaf.index.apply(
                WriteOp(f"k{i}", {"size": i, "genre": chr(97 + i % 5)}, None, Version(i + 1, "dc1"))
            )
        samples = {
            "size": list(range(15)),  # wide spread
            "genre": ["c"] * 15,  # single point
        }
        plan = choose_split(leaf, 500, samples, t_split=100)
        assert plan.dim == "size"


class TestSplitExecution:
    def build(self):
        k = Kernel(seed=0)
        k.add_node("n")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n")
        root = IndexQpu("root", FULL, recheck_replica=rep)
        k.register(root, "n")
        flt = FilterQpu("flt", rep, [("root", FULL)])
        k.register(flt, "n")
        cl = Client()
        k.register(cl, "n")
        return k, rep, root, cl

    def seed_objects(self, k, rep, n=100):
        rng = random.Random(1)
        for i in range(n):
            rep.put(k, f"k{i}", {"size": rng.randrange(200), "genre": rng.choice("abcdef")})
        k.run_until_empty()

    def test_child_registries_partition_parent(self):
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 100)
        before = dict(root.index.registry)
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        assert root.mode == IndexQpu.INTERNAL
        kids = [k.actor(c.to) for c in root.connections]
        assert len(kids) == 2
        sizes = [len(c.index.registry) for c in kids]
        assert sum(sizes) == 100
        for child in kids:
            for key, attrs, _v in child.index.registry.values():
                assert child.region.contains(attrs)
                assert before[key][1] == attrs
        # coverage conservation: children tile the parent's region exactly
        union_checks = random.Random(2)
        for _ in range(200):
            attrs = {"size": union_checks.randrange(-5, 210), "genre": union_checks.choice("ag")}
            assert sum(c.coverage.contains(attrs) for c in root.connections) == (
                1 if root.region.contains(attrs) else 0
            )

    def test_query_results_unchanged_across_split(self):
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 80)
        queries = [q_range(0, 60), q_range(50, 150), q_range(120, 260)]
        before = [frozenset(e[0] for e in run_query(k, cl, "root", q).entries) for q in queries]
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        after = [frozenset(e[0] for e in run_query(k, cl, "root", q).entries) for q in queries]
        assert before == after

    def test_query_in_the_split_instant_is_answered(self):
        # a query arriving in the split's instant is answered in full
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 40)
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.schedule(k.now, "root", QueryMsg("mid", q_range(0, 300), "client"))
        while "mid" not in cl.responses:
            k.step()
        assert len(cl.responses["mid"].entries) == 40

    def test_write_in_the_split_instant_reaches_a_child(self):
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 10)
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        rep.put(k, "fresh", {"size": 5})
        k.run_until_empty()
        kids = {c.to: k.actor(c.to) for c in root.connections}
        assert any("fresh" in child.index.registry for child in kids.values())
        resp = run_query(k, cl, "root", q_point(5))
        assert "fresh" in {e[0] for e in resp.entries}

    def test_split_is_done_in_its_instant_and_a_child_answers_that_instant(self):
        """The children are built holding their rows, so the split completes
        in the instant of its command, with no message to a child. A query
        scheduled in that instant, after the command, is answered by the
        child that owns it, and the load sample is the child's."""
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 40)
        ctl = LogRecorder("ctl")
        k.register(ctl, "n")
        root.controller = "ctl"
        samples = []
        k.probes.load_hook = lambda qpu_id, region, now: samples.append((qpu_id, now))
        t0 = k.now
        k.schedule(t0, "root", SplitCmd("root", "size", 100))
        k.schedule(t0, "root", QueryMsg("same", q_range(0, 50), "client"))
        k.run_until(t0)
        assert ctl.entries == [ControlDone("root")]
        low = root.split_children()[0]
        assert samples == [(low, t0)]
        resp = cl.responses["same"]
        expected = {key for key, o in rep.objects.items() if 0 <= o.attrs["size"] <= 50}
        assert resp.complete and {e[0] for e in resp.entries} == expected


class TestMergeExecution:
    def split_then(self, writes_between=False):
        t = TestSplitExecution()
        k, rep, root, cl = t.build()
        self.log = record_log(k, rep)
        t.seed_objects(k, rep, 60)
        pre_bytes = registry_bytes(root.index)
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        if writes_between:
            rng = random.Random(9)
            for i in range(40):
                rep.put(k, f"k{rng.randrange(80)}", {"size": rng.randrange(200)})
            k.run_until_empty()
        children = tuple(c.to for c in root.connections)
        k.schedule(k.now, "root", MergeCmd("root", children))
        k.run_until_empty()
        return k, rep, root, cl, pre_bytes

    def test_merge_right_after_split_restores_identical_registry(self):
        k, rep, root, cl, pre_bytes = self.split_then(writes_between=False)
        assert root.mode == IndexQpu.LEAF
        assert root.connections == []
        assert registry_bytes(root.index) == pre_bytes

    def test_merge_with_interleaved_writes_equals_lww_replay(self):
        k, rep, root, cl, _ = self.split_then(writes_between=True)
        live = {}
        for entry in sorted(self.log.entries, key=lambda e: e.op.version):
            if entry.op.new_attrs is not None:
                live[entry.op.key] = entry.op.new_attrs
            else:
                live.pop(entry.op.key, None)
        assert {key: attrs for key, attrs, _v in root.index.registry.values()} == live

    def test_merging_unit_applies_writes_before_the_snapshots_arrive(self):
        """Children rebound behind a 50 ms link take 100 ms to send their
        snapshots back. Writes that reach the merging parent meanwhile are
        applied at once; a query waits for the last snapshot and is then
        answered complete. The registry ends as the last-writer-wins replay
        of the replica's log."""
        t = TestSplitExecution()
        k, rep, root, cl = t.build()
        log = record_log(k, rep)
        t.seed_objects(k, rep, 30)
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        k.add_node("far")
        k.add_link("n", "far", 50)
        children = tuple(root.split_children())
        for child in children:
            k.rebind(child, "far")
        t0 = k.now
        k.schedule(t0, "root", MergeCmd("root", children))
        k.run_until(t0)
        rep.put(k, "fresh", {"size": 5})
        rep.put(k, "k3", {"size": 150})
        rep.delete(k, "k4")
        k.schedule(t0, "root", QueryMsg("mid", q_range(0, 300), "client"))
        k.run_until(t0 + 99)
        assert root.mode == IndexQpu.MERGING
        assert root.index.registry["fresh"][1] == {"size": 5}
        assert "mid" not in cl.responses
        while "mid" not in cl.responses:
            k.step()
        assert k.now == t0 + 100 and root.mode == IndexQpu.LEAF and root.connections == []
        assert cl.responses["mid"].complete and len(cl.responses["mid"].entries) == 30
        k.run_until_empty()
        live = {}
        for entry in sorted(log.entries, key=lambda e: e.op.version):
            if entry.op.new_attrs is not None:
                live[entry.op.key] = entry.op.new_attrs
            else:
                live.pop(entry.op.key, None)
        assert {key: attrs for key, attrs, _v in root.index.registry.values()} == live

    def test_queries_buffered_during_merge_are_answered(self):
        t = TestSplitExecution()
        k, rep, root, cl = t.build()
        t.seed_objects(k, rep, 30)
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        children = tuple(c.to for c in root.connections)
        k.schedule(k.now, "root", MergeCmd("root", children))
        k.schedule(k.now, "root", QueryMsg("during", q_range(0, 300), "client"))
        k.run_until_empty()
        assert "during" in cl.responses
        assert len(cl.responses["during"].entries) == 30


def controller_net(*, t_split=50, t_merge=20, period_ms=200, window_buckets=10, bucket_ms=100, seed=0):
    k = Kernel(seed=seed)
    MetricsSink(k)
    k.add_node("n")
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n")
    root = IndexQpu("root", FULL, recheck_replica=rep, controller="ctl")
    k.register(root, "n")
    flt = FilterQpu("flt", rep, [("root", FULL)])
    k.register(flt, "n")
    tracker = LoadTracker(window_buckets, bucket_ms)
    k.probes.load_hook = tracker.record
    ctl = AdaptiveController("ctl", k, tracker, ["root"], t_split=t_split, t_merge=t_merge, period_ms=period_ms)
    k.register(ctl, "n")
    cl = Client()
    k.register(cl, "n")
    return k, rep, root, ctl, tracker, cl


class TestController:
    def drive_queries(self, k, rng, rate_per_100ms, until, hot=True):
        t = k.now
        i = 0
        while t < until:
            for _ in range(rate_per_100ms):
                v = rng.choice((40, 42, 44, 46, 48)) if hot else rng.randrange(200)
                i += 1
                k.schedule(t + rng.randrange(100), "root", QueryMsg(f"w{i}", q_point(v), "client"))
            t += 100

    def test_split_fires_within_two_periods_under_hot_load(self):
        k, rep, root, ctl, tracker, cl = controller_net()
        rng = random.Random(3)
        for i in range(30):
            rep.put(k, f"k{i}", {"size": rng.randrange(100)})
        k.run_until(50)  # controller stays periodic, so drain by horizon
        self.drive_queries(k, rng, rate_per_100ms=40, until=800)
        k.run_until(400)  # two control periods
        k.stop_timers()
        k.run_until_empty()
        splits = control_actions(k, "split")
        assert splits, "expected a split within two control periods"
        assert splits[0]["t"] <= 400
        assert root.mode == IndexQpu.INTERNAL
        assert len(root.split_children()) == 2

    def test_no_control_action_under_uniform_low_load(self):
        k, rep, root, ctl, tracker, cl = controller_net(t_split=50, period_ms=100)
        rng = random.Random(4)
        for i in range(30):
            rep.put(k, f"k{i}", {"size": rng.randrange(200)})
        k.run_until(50)
        # ~2 queries per 100 ms bucket, well under every threshold, 100 periods
        self.drive_queries(k, rng, rate_per_100ms=2, until=10_000, hot=False)
        k.run_until(10_000)
        k.stop_timers()
        k.run_until_empty()
        assert records_of(k, "control") == []

    def test_cold_children_merge_back(self):
        k, rep, root, ctl, tracker, cl = controller_net(t_split=40, t_merge=15, period_ms=200)
        rng = random.Random(5)
        for i in range(30):
            rep.put(k, f"k{i}", {"size": rng.randrange(100)})
        k.run_until(50)
        pre_bytes = registry_bytes(root.index)
        self.drive_queries(k, rng, rate_per_100ms=30, until=600)
        k.run_until(600)
        assert control_actions(k, "split")
        # queries stop; windows decay; the controller should merge back
        k.run_until(3000)
        k.stop_timers()
        k.run_until_empty()
        assert control_actions(k, "merge")
        assert root.mode == IndexQpu.LEAF
        assert registry_bytes(root.index) == pre_bytes

    def test_one_hot_sibling_blocks_merge(self):
        k, rep, root, ctl, tracker, cl = controller_net(t_split=40, t_merge=15, period_ms=200)
        rng = random.Random(6)
        for i in range(30):
            rep.put(k, f"k{i}", {"size": rng.randrange(100)})
        k.run_until(50)
        self.drive_queries(k, rng, rate_per_100ms=30, until=600)
        k.run_until(600)
        splits = control_actions(k, "split")
        assert splits
        hot_child = splits[0]["children"][0]
        # keep one child hot forever: above t_merge, below t_split
        t = k.now
        i = 0
        while t < 4000:
            for _ in range(20):
                i += 1
                k.schedule(t + rng.randrange(100), hot_child, QueryMsg(f"h{i}", q_point(44), "client"))
            t += 100
        k.run_until(4000)
        k.stop_timers()
        k.run_until_empty()
        assert not control_actions(k, "merge")


class TestRebalance:
    def test_two_equal_loads_two_nodes(self):
        assignment, over = rebalance_placement({"a": 10, "b": 10}, {"n1": 100, "n2": 100})
        assert not over
        assert {assignment["a"], assignment["b"]} == {"n1", "n2"}

    def test_heaviest_gets_roomiest_node(self):
        assignment, _ = rebalance_placement({"big": 50, "s1": 1, "s2": 1}, {"small": 10, "large": 100})
        assert assignment["big"] == "large"

    def test_over_capacity_flagged(self):
        _, over = rebalance_placement({"a": 100, "b": 100}, {"n1": 50, "n2": 50})
        assert over

    def test_greedy_within_2x_of_exhaustive_optimum(self):
        rng = random.Random(12)
        nodes = {"n1": 1000, "n2": 1000, "n3": 1000}
        for _ in range(20):
            loads = {f"q{i}": rng.randrange(1, 50) for i in range(10)}
            assignment, _ = rebalance_placement(loads, nodes)
            greedy_max = max(
                sum(loads[q] for q, n in assignment.items() if n == node) for node in nodes
            )
            best = None
            for combo in itertools.product(sorted(nodes), repeat=len(loads)):
                per = dict.fromkeys(nodes, 0)
                for qpu, node in zip(sorted(loads), combo):
                    per[node] += loads[qpu]
                worst = max(per.values())
                best = worst if best is None else min(best, worst)
            assert greedy_max <= 2 * best

    def test_candidates_are_linked_to_every_peer_as_placed_so_far(self):
        """a and b exchange messages, so b follows a to a node linked to
        a's new one, although the unlinked y has more room left; c, whose
        peer's node is linked to no node with capacity, stays on its host."""
        links = {frozenset(pair) for pair in (("h", "x"), ("h", "y"))}

        def linked(m, n):
            return m == n or frozenset((m, n)) in links

        hosts = {"a": "h", "b": "h", "c": "h", "p": "far"}
        peers = {"a": {"b"}, "b": {"a"}, "c": {"p"}}
        loads = {"a": 10.0, "b": 5.0, "c": 1.0}
        assignment, _ = rebalance_placement(
            loads, {"h": 1.0, "x": 100.0, "y": 95.0}, hosts=hosts, peers=peers, linked=linked
        )
        assert assignment == {"a": "x", "b": "x", "c": "h"}
        unconstrained, _ = rebalance_placement(loads, {"h": 1.0, "x": 100.0, "y": 95.0})
        assert unconstrained["b"] == "y"

    def test_rebalance_never_moves_a_qpu_onto_an_unlinked_node(self):
        """n2 has the room but no link to n1, where iq's filter, issuer and
        the controller run; iq must stay. With the link it moves, and the
        run still validates."""
        from qpusim.runner import run_scenario, validate_scenario

        def topology(links):
            return {
                "attributes": [{"name": "size", "kind": "int"}],
                "nodes": [{"id": "n1", "capacity": 1}, {"id": "n2", "capacity": 100}],
                "links": links,
                "dcs": [{"id": "dc1", "node": "n1"}],
                "qpus": [
                    {"id": "flt", "class": "filter", "node": "n1", "dc": "dc1", "targets": [{"qpu": "iq"}]},
                    {"id": "iq", "class": "index", "node": "n1", "region": {}, "recheck_dc": "dc1"},
                ],
                "connections": [],
                "adaptive": {"enabled": True, "rebalance": True},
            }

        workload = {
            "phases": [
                {
                    "duration": 3000,
                    "write_rate": 40.0,
                    "query_rate": 20.0,
                    "key_space": 40,
                    "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 100}},
                    "query_shapes": [{"attrs": ["size"], "selectivity": 0.2}],
                    "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
                    "query_origin": ["iq"],
                }
            ]
        }
        k = run_scenario(topology([]), workload, seed=0).network.kernel
        assert {k.host_of(a.actor_id) for a in k.actors()} == {"n1"}
        assert control_actions(k, "rebind") == []
        assert len(records_of(k, "query")) == 60

        linked = topology([{"from": "n1", "to": "n2", "base_latency": 5}])
        k = run_scenario(linked, workload, seed=0).network.kernel
        assert k.host_of("iq") == "n2"
        assert [r["node"] for r in control_actions(k, "rebind")] == ["n2"]
        report = validate_scenario(linked, workload, seed=0)
        assert report.ok, report.describe()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rebalanced_adaptive_skew_keeps_only_the_live_tree_registered(self, seed, monkeypatch):
        """adaptive-skew with a roomy third node and rebalancing on: leaves
        split, merge and move while updates and queries are in flight. The
        run validates, and once it ends the registered index units are
        exactly the units of the tree, and only units of the tree keep a
        load window. While retired units stayed registered, 7 were against
        1 in the tree at seed 0."""
        from qpusim import runner

        topology, workload = scenario("adaptive-skew")
        topology["nodes"].append({"id": "spare", "capacity": 100})
        topology["links"] += [
            {"from": "spare", "to": "storage", "base_latency": 3, "jitter": 2},
            {"from": "spare", "to": "query", "base_latency": 40, "jitter": 5},
        ]
        topology["adaptive"]["rebalance"] = True
        nets = []
        build = runner.build
        monkeypatch.setattr(runner, "build", lambda cfg, seed: nets.append(build(cfg, seed)) or nets[-1])
        report = runner.validate_scenario(topology, workload, seed=seed)
        assert report.ok, report.describe()
        net = nets[0]
        k = net.kernel
        assert control_actions(k, "rebind") and control_actions(k, "merge")
        registered = {a.actor_id for a in k.actors() if isinstance(a, IndexQpu)}
        assert registered == {u.qpu_id for u in net.controller.units("iq")}
        assert set(net.controller.tracker.windows) <= registered

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_every_send_is_on_a_declared_path(self, name, monkeypatch):
        """Rebalancing keeps linked only the message paths that actors declare
        through sends_to(). Every message one actor sends another must be on
        a path the sender or, for a reply, the receiver declares at that
        moment. In adaptive-skew, leaves split and merge, so retirements,
        their snapshots and control acks run too."""
        from qpusim.runner import run_scenario

        undeclared = set()
        send = Kernel.send

        def checked(k, src, dst, msg):
            if src != dst and dst not in k.actor(src).sends_to() and src not in k.actor(dst).sends_to():
                undeclared.add((src, dst, type(msg).__name__))
            return send(k, src, dst, msg)

        monkeypatch.setattr(Kernel, "send", checked)
        t, w = scenario(name)
        k = run_scenario(t, w, seed=0).network.kernel
        assert undeclared == set()
        if name == "adaptive-skew":
            assert control_actions(k, "split") and control_actions(k, "merge")

    def test_controller_rebind_moves_actor(self):
        k, rep, root, ctl, tracker, cl = controller_net()
        k.add_node("spare")
        k.add_link("n", "spare", 1)
        ctl.rebalance = True
        ctl.capacities = {"n": 10.0, "spare": 100.0}
        rng = random.Random(7)
        for i in range(10):
            rep.put(k, f"k{i}", {"size": i})
        k.run_until(50)
        for i in range(30):
            k.schedule(rng.randrange(60, 150), "root", QueryMsg(f"r{i}", q_point(5), "client"))
        k.run_until(400)
        k.stop_timers()
        k.run_until_empty()
        rebinds = control_actions(k, "rebind")
        assert rebinds and k.host_of("root") == "spare"


class TestControllerPlacement:
    """The adaptive controller exchanges messages with every index root, so
    it runs on a node that is, or is linked to, every root's node."""

    WORKLOAD = {
        "phases": [
            {
                "duration": 3000,
                "write_rate": 20.0,
                "query_rate": 20.0,
                "key_space": 40,
                "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 100}},
                "query_shapes": [{"attrs": ["size"], "selectivity": 0.1}],
                "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
                "query_origin": ["ib"],
            }
        ]
    }

    @staticmethod
    def topology(nodes, links, dc_node):
        """Roots ia on a and ib on b, each fed by its own filter from dc1."""
        return {
            "attributes": [{"name": "size", "kind": "int"}],
            "nodes": [{"id": n} for n in nodes],
            "links": [{"from": x, "to": y, "base_latency": 5} for x, y in links],
            "dcs": [{"id": "dc1", "node": dc_node}],
            "qpus": [
                {"id": "fa", "class": "filter", "node": "a", "dc": "dc1", "targets": [{"qpu": "ia"}]},
                {"id": "ia", "class": "index", "node": "a", "region": {}, "recheck_dc": "dc1"},
                {"id": "fb", "class": "filter", "node": "b", "dc": "dc1", "targets": [{"qpu": "ib"}]},
                {"id": "ib", "class": "index", "node": "b", "region": {}, "recheck_dc": "dc1"},
            ],
            "connections": [],
            "adaptive": {"enabled": True, "t_split": 20, "t_merge": 5},
        }

    def test_controller_runs_on_the_node_linked_to_every_root(self):
        """a and b are linked only through hub. The controller once ran on
        the first root's node, a, and its split command to ib found no link
        from a to b."""
        from qpusim.config import controller_node, parse_topology
        from qpusim.runner import run_scenario, validate_scenario

        t = self.topology(["a", "b", "hub"], [("a", "hub"), ("b", "hub")], "hub")
        assert controller_node(parse_topology(t)) == "hub"
        res = run_scenario(t, self.WORKLOAD, seed=0)
        k = res.network.kernel
        assert k.host_of("adaptive-controller") == "hub"
        assert [r["qpu"] for r in control_actions(k, "split")][:1] == ["ib"]
        report = validate_scenario(t, self.WORKLOAD, seed=0)
        assert report.ok, report.describe()

    def test_no_node_linked_to_every_root_is_a_config_error(self):
        """Without the hub, a reaches b only over two links, through the
        replicas' nodes ra and rb: every message path has a link, but no
        node can hold the controller."""
        from qpusim.config import ConfigError, parse_topology

        t = self.topology(["a", "b", "ra", "rb"], [("a", "ra"), ("ra", "rb"), ("rb", "b")], "ra")
        t["dcs"].append({"id": "dc2", "node": "rb"})
        t["qpus"][2]["dc"] = "dc2"
        with pytest.raises(ConfigError) as err:
            parse_topology(t)
        assert err.value.errors == ["adaptive: no node is linked to every index root"]
        t["adaptive"]["enabled"] = False
        parse_topology(t)


class TestControllerOnAnotherNode:
    """The controller on node c, 80 ms from the tree on n, with a 100 ms
    period: a ControlDone is still on its way when the next period comes.
    The controller reads the tree from the units, so in that gap it already
    sees the tree the units have, not the one its last record describes."""

    def build(self):
        k = Kernel(seed=0)
        MetricsSink(k)
        for node in ("z", "n", "c", "x"):
            k.add_node(node)
        k.add_link("z", "n", 1)  # replica and filter reach only the tree's node
        k.add_link("n", "c", 80)
        k.add_link("n", "x", 1)
        k.add_link("c", "x", 1)
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "z")
        k.register(FilterQpu("flt", rep, [("root", FULL)]), "z")
        root = IndexQpu("root", FULL, recheck_replica=rep, controller="ctl")
        k.register(root, "n")
        tracker = LoadTracker(10, 100)
        k.probes.load_hook = tracker.record
        ctl = AdaptiveController(
            "ctl", k, tracker, ["root"], t_split=50, t_merge=20, period_ms=100,
            rebalance=True, capacities={"n": 10.0, "x": 100.0},
        )
        k.register(ctl, "c")
        cl = Client()
        k.register(cl, "n")
        for i in range(30):
            rep.put(k, f"k{i}", {"size": i})
        for i in range(60):
            k.schedule(50 + i % 50, "root", QueryMsg(f"q{i}", q_point(i % 30), "client"))
        return k, root, ctl, cl

    def test_rebalance_in_the_gap_places_the_current_leaves(self):
        k, root, ctl, cl = self.build()
        k.run_until(200)  # split asked at 100, done at 180; its ControlDone lands at 260
        children = ["root.s1a", "root.s1b"]
        assert [r["t"] for r in control_actions(k, "split_requested")] == [100]
        assert root.mode == IndexQpu.INTERNAL and control_actions(k, "split") == []
        assert ctl.sends_to() == ["root", *children]
        # the period at 200 rebalances the children; the root, whose
        # filter's node is linked only to n, stays
        assert [(r["t"], r["qpu"], r["node"]) for r in control_actions(k, "rebind")] == [
            (200, c, "x") for c in children
        ]
        k.run_until(300)
        assert [(r["t"], r["children"]) for r in control_actions(k, "split")] == [(260, children)]

        k.run_until(400)  # merge asked at 300, done at 382; its ControlDone lands at 462
        assert [r["t"] for r in control_actions(k, "merge_requested")] == [300]
        assert root.mode == IndexQpu.LEAF and control_actions(k, "merge") == []
        assert ctl.sends_to() == ["root"]
        k.run_until(500)
        assert [(r["t"], r["retired"]) for r in control_actions(k, "merge")] == [(462, children)]
        assert ctl.sends_to() == ["root"]
        k.stop_timers()
        k.run_until_empty()
        assert len(run_query(k, cl, "root", q_range(0, 30)).entries) == 30
