"""Load windows, split/merge planning and execution, and placement balancing."""

import itertools
import random

import pytest

from qpusim.adapt import (
    AdaptiveController,
    LoadTracker,
    LoadWindow,
    RegionNode,
    choose_split,
    rebalance_placement,
)
from qpusim.core import AttrValue, Kind, Predicate, Query, Version, make_attrs
from qpusim.indexing import FilterQpu, IndexQpu, MergeCmd, SplitCmd
from qpusim.qpunet import QueryMsg
from qpusim.simkernel import Kernel
from qpusim.store import ClientWrite, DcReplica

from conftest import Client, make_region, run_query

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
        w.record(0, None)
        w.record(150, None)
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
        got = sorted(s.value for s in w.samples(900, "size"))
        assert got == sorted(expected)
        assert w.samples(900, "genre") == []


def leaf_with_values(values, region=None):
    k = Kernel(seed=0)
    k.add_node("n")
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n")
    leaf = IndexQpu("root", region or FULL, recheck_replica=rep)
    k.register(leaf, "n")
    from qpusim.store import PUT, WriteOp

    for i, v in enumerate(values, start=1):
        leaf.index.apply(WriteOp(f"k{i}", PUT, make_attrs({"size": v}), None, Version(i, "dc1"), "dc1"))
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
        samples = [AttrValue.of(v) for v in [90, 92, 94, 95, 96, 97, 98, 99]]
        plan = choose_split(leaf, 500, {"size": samples}, t_split=100)
        assert plan is not None and plan.dim == "size"
        assert 90 <= plan.plane.value <= 99  # inside the hot range's vicinity
        low, high = leaf.region.split(plan.dim, plan.plane)
        # children cover the parent region exactly
        assert low.interval("size").lo.value == 0 and high.interval("size").hi.value == 100
        assert low.interval("size").hi == high.interval("size").lo

    def test_no_samples_falls_back_to_interval_midpoint(self):
        _, _, leaf = leaf_with_values(range(0, 100), region=make_region(size=(0, 100), genre=(None, None)))
        plan = choose_split(leaf, 500, {"size": [], "genre": []}, t_split=100)
        assert plan is not None
        assert 45 <= plan.plane.value <= 55

    def test_dimension_with_widest_sample_spread_wins(self):
        k = Kernel(seed=0)
        k.add_node("n")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n")
        leaf = IndexQpu("root", FULL, recheck_replica=rep)
        k.register(leaf, "n")
        from qpusim.store import PUT, WriteOp

        for i in range(20):
            leaf.index.apply(
                WriteOp(f"k{i}", PUT, make_attrs({"size": i, "genre": chr(97 + i % 5)}), None, Version(i + 1, "dc1"), "dc1")
            )
        samples = {
            "size": [AttrValue.of(v) for v in range(15)],  # wide spread
            "genre": [AttrValue.of("c")] * 15,  # single point
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
            rep.put(k, f"k{i}", make_attrs({"size": rng.randrange(200), "genre": rng.choice("abcdef")}))
        k.run_until_empty()

    def test_child_registries_partition_parent(self):
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 100)
        before = dict(root.index.registry)
        k.schedule(k.now, "root", SplitCmd("root", ("size", AttrValue.of(100))))
        k.run_until_empty()
        assert root.mode == IndexQpu.INTERNAL
        kids = [k.actor(c.to) for c in root.connections]
        assert len(kids) == 2
        sizes = [len(c.index.registry) for c in kids]
        assert sum(sizes) == 100
        for child in kids:
            for key, (attrs, _v) in child.index.registry.items():
                assert child.region.contains(attrs)
                assert before[key][0] == attrs
        # coverage conservation: children tile the parent's region exactly
        union_checks = random.Random(2)
        for _ in range(200):
            attrs = make_attrs({"size": union_checks.randrange(-5, 210), "genre": union_checks.choice("ag")})
            assert sum(c.coverage.contains(attrs) for c in root.connections) == (
                1 if root.region.contains(attrs) else 0
            )

    def test_query_results_unchanged_across_split(self):
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 80)
        queries = [q_range(0, 60), q_range(50, 150), q_range(120, 260)]
        before = [frozenset(e[0] for e in run_query(k, cl, "root", q).entries) for q in queries]
        k.schedule(k.now, "root", SplitCmd("root", ("size", AttrValue.of(100))))
        k.run_until_empty()
        after = [frozenset(e[0] for e in run_query(k, cl, "root", q).entries) for q in queries]
        assert before == after

    def test_availability_during_handoff(self):
        # a query arriving while the parent is mid-handoff is still answered
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 40)
        k.schedule(k.now, "root", SplitCmd("root", ("size", AttrValue.of(100))))
        k.schedule(k.now, "root", QueryMsg("mid", q_range(0, 300), "client"))
        while "mid" not in cl.responses:
            k.step()
        assert len(cl.responses["mid"].entries) == 40

    def test_writes_during_handoff_reach_children(self):
        k, rep, root, cl = self.build()
        self.seed_objects(k, rep, 10)
        k.schedule(k.now, "root", SplitCmd("root", ("size", AttrValue.of(100))))
        rep.put(k, "fresh", make_attrs({"size": 5}))
        k.run_until_empty()
        kids = {c.to: k.actor(c.to) for c in root.connections}
        assert any("fresh" in child.index.registry for child in kids.values())
        resp = run_query(k, cl, "root", q_point(5))
        assert "fresh" in {e[0] for e in resp.entries}


class TestMergeExecution:
    def split_then(self, writes_between=False):
        t = TestSplitExecution()
        k, rep, root, cl = t.build()
        t.seed_objects(k, rep, 60)
        pre_bytes = root.index.registry_bytes()
        k.schedule(k.now, "root", SplitCmd("root", ("size", AttrValue.of(100))))
        k.run_until_empty()
        if writes_between:
            rng = random.Random(9)
            for i in range(40):
                rep.put(k, f"k{rng.randrange(80)}", make_attrs({"size": rng.randrange(200)}))
            k.run_until_empty()
        children = tuple(c.to for c in root.connections)
        k.schedule(k.now, "root", MergeCmd(children))
        k.run_until_empty()
        return k, rep, root, cl, pre_bytes

    def test_merge_right_after_split_restores_identical_registry(self):
        k, rep, root, cl, pre_bytes = self.split_then(writes_between=False)
        assert root.mode == IndexQpu.LEAF
        assert root.connections == []
        assert root.index.registry_bytes() == pre_bytes

    def test_merge_with_interleaved_writes_equals_lww_replay(self):
        k, rep, root, cl, _ = self.split_then(writes_between=True)
        from qpusim.store import PUT

        live = {}
        for entry in sorted(rep.log, key=lambda e: e.op.version):
            if entry.op.kind == PUT:
                live[entry.op.key] = entry.op.new_attrs
            else:
                live.pop(entry.op.key, None)
        assert {key: attrs for key, (attrs, _v) in root.index.registry.items()} == live

    def test_queries_buffered_during_merge_are_answered(self):
        t = TestSplitExecution()
        k, rep, root, cl = t.build()
        t.seed_objects(k, rep, 30)
        k.schedule(k.now, "root", SplitCmd("root", ("size", AttrValue.of(100))))
        k.run_until_empty()
        children = tuple(c.to for c in root.connections)
        k.schedule(k.now, "root", MergeCmd(children))
        k.schedule(k.now, "root", QueryMsg("during", q_range(0, 300), "client"))
        k.run_until_empty()
        assert "during" in cl.responses
        assert len(cl.responses["during"].entries) == 30


def controller_net(*, t_split=50, t_merge=20, period_ms=200, window_buckets=10, bucket_ms=100, seed=0):
    k = Kernel(seed=seed)
    k.add_node("n")
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n")
    root = IndexQpu("root", FULL, recheck_replica=rep, controller="ctl")
    k.register(root, "n")
    flt = FilterQpu("flt", rep, [("root", FULL)])
    k.register(flt, "n")
    tracker = LoadTracker(window_buckets, bucket_ms)
    k.probes.load_hook = tracker.record
    ctl = AdaptiveController(
        "ctl", tracker, [RegionNode("root", FULL)], t_split=t_split, t_merge=t_merge, period_ms=period_ms
    )
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
            rep.put(k, f"k{i}", make_attrs({"size": rng.randrange(100)}))
        k.run_until(50)  # controller stays periodic, so drain by horizon
        self.drive_queries(k, rng, rate_per_100ms=40, until=800)
        k.run_until(400)  # two control periods
        ctl.stop()
        k.run_until_empty()
        splits = [e for e in k.probes.control_events if e["action"] == "split"]
        assert splits, "expected a split within two control periods"
        assert splits[0]["t"] <= 400
        assert root.mode == IndexQpu.INTERNAL
        tree = ctl.roots["root"]
        assert len(tree.children) == 2

    def test_no_control_action_under_uniform_low_load(self):
        k, rep, root, ctl, tracker, cl = controller_net(t_split=50, period_ms=100)
        rng = random.Random(4)
        for i in range(30):
            rep.put(k, f"k{i}", make_attrs({"size": rng.randrange(200)}))
        k.run_until(50)
        # ~2 queries per 100 ms bucket, well under every threshold, 100 periods
        self.drive_queries(k, rng, rate_per_100ms=2, until=10_000, hot=False)
        k.run_until(10_000)
        ctl.stop()
        k.run_until_empty()
        assert k.probes.control_events == []

    def test_cold_children_merge_back(self):
        k, rep, root, ctl, tracker, cl = controller_net(t_split=40, t_merge=15, period_ms=200)
        rng = random.Random(5)
        for i in range(30):
            rep.put(k, f"k{i}", make_attrs({"size": rng.randrange(100)}))
        k.run_until(50)
        pre_bytes = root.index.registry_bytes()
        self.drive_queries(k, rng, rate_per_100ms=30, until=600)
        k.run_until(600)
        assert any(e["action"] == "split" for e in k.probes.control_events)
        # queries stop; windows decay; the controller should merge back
        k.run_until(3000)
        ctl.stop()
        k.run_until_empty()
        assert any(e["action"] == "merge" for e in k.probes.control_events)
        assert root.mode == IndexQpu.LEAF
        assert root.index.registry_bytes() == pre_bytes

    def test_one_hot_sibling_blocks_merge(self):
        k, rep, root, ctl, tracker, cl = controller_net(t_split=40, t_merge=15, period_ms=200)
        rng = random.Random(6)
        for i in range(30):
            rep.put(k, f"k{i}", make_attrs({"size": rng.randrange(100)}))
        k.run_until(50)
        self.drive_queries(k, rng, rate_per_100ms=30, until=600)
        k.run_until(600)
        splits = [e for e in k.probes.control_events if e["action"] == "split"]
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
        ctl.stop()
        k.run_until_empty()
        assert not any(e["action"] == "merge" for e in k.probes.control_events)


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

    def test_controller_rebind_moves_actor(self):
        k, rep, root, ctl, tracker, cl = controller_net()
        k.add_node("spare")
        k.add_link("n", "spare", 1)
        ctl.rebalance = True
        ctl.capacities = {"n": 10.0, "spare": 100.0}
        rng = random.Random(7)
        for i in range(10):
            rep.put(k, f"k{i}", make_attrs({"size": i}))
        k.run_until(50)
        for i in range(30):
            k.schedule(rng.randrange(60, 150), "root", QueryMsg(f"r{i}", q_point(5), "client"))
        k.run_until(400)
        ctl.stop()
        k.run_until_empty()
        rebinds = [e for e in k.probes.control_events if e["action"] == "rebind"]
        assert rebinds and k.host_of("root") == "spare"
