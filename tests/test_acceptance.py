"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import copy
import random
import statistics
import time
from collections import Counter

import pytest

import qpusim.runner as runner
from qpusim.build import build
from qpusim.config import parse_topology, parse_workload
from qpusim.core import Kind, Predicate, Query, Version
from qpusim.indexing import FilterQpu, IndexQpu, IndexUpdate, MergeCmd, MergeQpu
from qpusim.metrics import MetricsSink
from qpusim.qpunet import CacheQpu, Connection, QpuBase
from qpusim.runner import RuntimeInvariantViolation, run_scenario, validate_scenario
from qpusim.scenarios import scenario
from qpusim.simkernel import Kernel
from qpusim.store import DcReplica, LogEntry, WriteOp

from conftest import Client, control_actions, make_region, records_of, registry_bytes, run_query

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}
FULL = make_region(size=(None, None), genre=(None, None))


def _pass(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


class TestCriterion1OracleEquivalence:
    @pytest.mark.parametrize("name", ["single-index", "cdn", "client-cache"])
    def test_validate_passes_at_scale(self, name):
        started = time.monotonic()
        topology, workload = scenario(name)
        report = validate_scenario(topology, workload, seed=101)
        elapsed = time.monotonic() - started
        assert report.converged
        assert report.queries_checked >= 100
        assert report.mismatches == [], report.describe()
        assert report.ok
        assert elapsed < 60, f"{name} took {elapsed:.1f}s"
        _pass(1, f"{name}: {report.queries_checked} queries match the scan oracle exactly ({elapsed:.1f}s)")

    def test_workload_scale_meets_floor(self):
        topology, workload = scenario("single-index")
        res = run_scenario(topology, workload, seed=101)
        assert len(res.journal.written_keys) >= 500
        churn = (res.journal.writes + res.journal.deletes) - 500
        assert churn >= 200
        _pass(1, f"scale floor: {len(res.journal.written_keys)} objects, {churn} mixed writes/deletes")


class TestCriterion2NoType2:
    def test_all_scenarios_audit_clean(self, audited_recheck):
        for name in ("single-index", "cdn", "client-cache", "adaptive-skew"):
            topology, workload = scenario(name)
            before = audited_recheck.calls
            res = run_scenario(topology, workload, seed=202)
            assert audited_recheck.calls > before, f"{name}: no response was rechecked"
            assert res.network.kernel.probes.type2_violations() == []
        assert audited_recheck.bad == []
        _pass(2, f"zero type-2 violations; {audited_recheck.calls} rechecked responses kept only current matching rows")

    @pytest.mark.parametrize("name", ["cdn", "adaptive-skew"])
    def test_one_recheck_per_client_query_at_its_entry_unit(self, name, audited_recheck, monkeypatch):
        """Every answer a unit gives passes _finish once. A client query's
        is rechecked exactly once, at the unit it was issued to; a
        sub-query's is not rechecked."""
        finished = []  # (unit, sub, rechecks during its _finish)
        original = QpuBase._finish

        def counting(self, k, pend):
            before = audited_recheck.calls
            original(self, k, pend)
            finished.append((self.qpu_id, pend.msg.sub, audited_recheck.calls - before))

        monkeypatch.setattr(QpuBase, "_finish", counting)
        topology, workload = scenario(name)
        res = run_scenario(topology, workload, seed=202)
        clients = [(unit, n) for unit, sub, n in finished if not sub]
        subs = [n for _unit, sub, n in finished if sub]
        assert len(subs) > len(clients) > 0
        assert set(subs) == {0}
        assert all(n == 1 for _unit, n in clients)
        assert Counter(unit for unit, _n in clients) == Counter(origin for _q, origin in res.journal.queries)
        assert audited_recheck.calls == len(clients) and audited_recheck.bad == []
        assert res.network.kernel.probes.type2_violations() == []
        _pass(2, f"{name}: {len(clients)} client answers rechecked once each, {len(subs)} sub-answers passed on as joined")

    def test_an_entry_unit_that_skips_its_recheck_lets_stale_rows_escape(self, monkeypatch):
        """With a recheck only at the entry unit, nothing else stands
        between a stale row and the client: on cdn, a mutant whose entry
        units do not recheck gives answers with rows their replica no
        longer matches, which the audit records as type2."""
        topology, workload = scenario("cdn")
        origins = {origin for phase in workload["phases"] for origin in phase.get("query_origin", ())}

        def mutant(cfg, seed):
            net = build(cfg, seed)
            for qpu_id in origins:
                net.kernel.actor(qpu_id).recheck_enabled = False
            return net

        monkeypatch.setattr(runner, "build", mutant)
        with pytest.raises(RuntimeInvariantViolation, match="type-2 inconsistency escaped recheck"):
            run_scenario(topology, workload, seed=202)
        _pass(2, "negative control: entry units that skip their recheck let a type-2 row escape on cdn")

    def test_negative_control_has_teeth(self):
        topology, workload = scenario("single-index")
        topology = copy.deepcopy(topology)
        topology["debug"] = {"disable_recheck": True}
        workload = copy.deepcopy(workload)
        workload["phases"][1]["delete_fraction"] = 0.7
        workload["phases"][1]["write_rate"] = 100.0
        workload["phases"][1]["query_rate"] = 100.0
        report = validate_scenario(topology, workload, seed=202)
        assert len(report.type2_violations) >= 1
        assert not report.ok
        _pass(2, f"negative control: recheck disabled produced {len(report.type2_violations)} violations")


class TestCriterion3ConvergentMerge:
    def test_five_interleavings_byte_identical(self):
        rng = random.Random(303)
        streams = {}
        for s in ("src1", "src2", "src3"):
            ops = []
            for ts in range(1, 301):
                key = f"k{rng.randrange(80)}"
                if rng.random() < 0.25:
                    ops.append(WriteOp(key, None, None, Version(ts, s)))
                else:
                    attrs = {"size": rng.randrange(150), "genre": rng.choice("abcde")}
                    ops.append(WriteOp(key, attrs, None, Version(ts, s)))
            streams[s] = ops
        assert sum(len(v) for v in streams.values()) == 900
        outcomes = set()
        for trial in range(5):
            k = Kernel(seed=trial)
            k.add_node("n")
            mq = MergeQpu("mq", FULL)
            k.register(mq, "n")
            trial_rng = random.Random(1000 + trial)
            cursors = dict.fromkeys(streams, 0)
            while any(cursors[s] < len(streams[s]) for s in streams):
                s = trial_rng.choice([s for s in sorted(streams) if cursors[s] < len(streams[s])])
                n = min(trial_rng.randint(1, 9), len(streams[s]) - cursors[s])
                batch = tuple(LogEntry(0, op, 0) for op in streams[s][cursors[s] : cursors[s] + n])
                cursors[s] += n
                mq.handle_update(k, IndexUpdate(batch))
            outcomes.add(registry_bytes(mq.index))
        assert len(outcomes) == 1
        _pass(3, "900-op 3-source stream converges byte-identically under 5 interleavings")


def adaptive_net(workload_doc=None, seed=404):
    topology, workload = scenario("adaptive-skew")
    cfg = parse_topology(topology)
    wl = parse_workload(workload_doc or workload, cfg)
    net = build(cfg, seed)
    MetricsSink(net.kernel)
    from qpusim.workload import WorkloadDriver

    driver = WorkloadDriver(net, wl, seed)
    end = driver.schedule_all()
    return net, driver, end


def run_until_split(net, deadline):
    k = net.kernel
    while k.now < deadline:
        if control_actions(k, "split"):
            return True
        if not k.step():
            return False
    return bool(control_actions(k, "split"))


PROBE_QUERIES = [
    Query.of([Predicate.between("size", 0, 10)]),
    Query.of([Predicate.between("size", 5, 80)]),
    Query.of([Predicate.between("size", 0, 300)]),
    Query.of([Predicate.between("size", 40, 60), Predicate.between("genre", "a", "m")]),
]


class TestCriterion4SplitMergeConservation:
    def test_split_preserves_results_and_merge_restores_registry(self):
        topology, workload = scenario("adaptive-skew")
        workload = copy.deepcopy(workload)
        workload["phases"][1]["write_rate"] = 0.0  # writes quiesce after the seed phase
        net, driver, end = adaptive_net(workload)
        k = net.kernel
        cl = Client()
        k.register(cl, k.host_of("iq"))

        k.run_until(3050)  # seed writes done and propagated; queries just began
        root = net.qpus["iq"]
        assert root.mode == IndexQpu.LEAF
        pre_bytes = registry_bytes(root.index)
        pre_results = [frozenset(e[0] for e in run_query(k, cl, "iq", q, drain=False).entries) for q in PROBE_QUERIES]

        assert run_until_split(net, deadline=20_000), "no split happened"
        post_results = [
            frozenset(e[0] for e in run_query(k, cl, "iq", q, drain=False).entries) for q in PROBE_QUERIES
        ]
        assert post_results == pre_results

        # immediate merge with no intervening writes must restore the registry
        k.stop_timers()
        children = tuple(c.to for c in root.connections)
        k.schedule(k.now, "iq", MergeCmd("iq", children))
        while root.mode != IndexQpu.LEAF:
            assert k.step(), "merge never completed"
        assert registry_bytes(root.index) == pre_bytes
        final_results = [
            frozenset(e[0] for e in run_query(k, cl, "iq", q, drain=False).entries) for q in PROBE_QUERIES
        ]
        assert final_results == pre_results
        _pass(4, "split leaves key sets unchanged; immediate merge restores the registry byte-for-byte")


class TestCriterion5AdaptiveResponsiveness:
    def test_split_within_two_periods_and_load_strictly_decreases(self):
        topology, workload = scenario("adaptive-skew")
        workload = copy.deepcopy(workload)
        # 10x the split threshold (60/window) over the hot region
        workload["phases"][1]["query_rate"] = 600.0
        workload["phases"][1]["write_rate"] = 0.0
        net, driver, end = adaptive_net(workload, seed=505)
        k = net.kernel
        period = net.controller.period_ms
        load_onset = 3000
        assert run_until_split(net, deadline=load_onset + 2 * period), "split must fire within 2 control periods"
        split_t = control_actions(k, "split")[0]["t"]
        assert split_t <= load_onset + 2 * period
        tracker = net.controller.tracker
        pre_split_load = max(
            tracker.load(q, split_t) for q in tracker.windows
        )
        # two more periods of the same workload against the children
        k.run_until(split_t + 2 * period)
        leaf_loads = {leaf.qpu_id: tracker.load(leaf.qpu_id, k.now) for leaf in net.controller.leaves("iq")}
        assert max(leaf_loads.values()) < pre_split_load
        net.kernel.stop_timers()
        net.stop_periodic()
        k.run_until_empty()
        _pass(
            5,
            f"split at t={split_t} (within 2 periods); max leaf window {max(leaf_loads.values())} < {pre_split_load}",
        )

    def test_uniform_low_load_no_action_over_100_periods(self):
        topology, workload = scenario("adaptive-skew")
        workload = copy.deepcopy(workload)
        workload["phases"] = [
            workload["phases"][0],
            {
                "duration": 50_000,  # 100 periods of 500 ms
                "query_rate": 10.0,
                "key_space": 300,
                "attributes": {
                    "size": {"dist": "uniform", "lo": 0, "hi": 200},
                    "genre": {"dist": "choice", "values": ["ambient", "blues"]},
                },
                "query_shapes": [{"attrs": ["size"], "selectivity": 0.05}],
                "query_origin": ["iq"],
            },
        ]
        net, driver, end = adaptive_net(workload, seed=505)
        net.kernel.run_until(end)
        net.stop_periodic()
        net.kernel.run_until_empty()
        assert records_of(net.kernel, "control") == []
        _pass(5, "uniform low load: zero control actions across 100 control periods")


class TestCriterion6Staleness:
    def _staleness_topology(self, batch_interval=0, batch_size=None, jitter=0):
        return {
            "attributes": [{"name": "size", "kind": "int"}, {"name": "genre", "kind": "text"}],
            "nodes": [{"id": "storage"}, {"id": "query"}],
            "links": [{"from": "storage", "to": "query", "base_latency": 7, "jitter": jitter}],
            "dcs": [{"id": "dc1", "node": "storage"}],
            "qpus": [
                {
                    "id": "flt",
                    "class": "filter",
                    "node": "storage",
                    "dc": "dc1",
                    "targets": [{"qpu": "iq"}],
                    "batch_interval": batch_interval,
                    "batch_size": batch_size,
                },
                {"id": "iq", "class": "index", "node": "query", "region": {}, "recheck_dc": "dc1"},
            ],
            "connections": [],
        }

    def _writes_workload(self, rate, duration=2500):
        return {
            "phases": [
                {
                    "duration": duration,
                    "write_rate": rate,
                    "key_space": 400,
                    "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 100}},
                    "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
                }
            ]
        }

    def test_unloaded_fixed_latency_every_sample_equals_latency(self):
        res = run_scenario(self._staleness_topology(), self._writes_workload(rate=20.0), seed=606)
        samples = [r["delta"] for r in records_of(res.network.kernel, "staleness")]
        assert samples and set(samples) == {7}
        _pass(6, f"unloaded path: all {len(samples)} staleness samples equal the link latency (7)")

    def test_halving_batch_interval_reduces_median_staleness(self):
        def median_for(interval):
            res = run_scenario(
                self._staleness_topology(batch_interval=interval, batch_size=5),
                self._writes_workload(rate=160.0),  # 8 ops per 50ms vs 5-per-flush capacity
                seed=606,
            )
            return statistics.median(r["delta"] for r in records_of(res.network.kernel, "staleness"))

        slow, fast = median_for(50), median_for(25)
        assert fast < slow
        _pass(6, f"halving the filter batch interval cut median staleness {slow} -> {fast}")


class TestCriterion7Determinism:
    @pytest.mark.parametrize("name", ["single-index", "adaptive-skew"])
    def test_identical_seed_byte_identical_metrics(self, tmp_path, name):
        topology, workload = scenario(name)
        run_scenario(topology, workload, seed=707, out=tmp_path / "a.ndjson", scenario_name=name)
        run_scenario(topology, workload, seed=707, out=tmp_path / "b.ndjson", scenario_name=name)
        a = (tmp_path / "a.ndjson").read_bytes()
        b = (tmp_path / "b.ndjson").read_bytes()
        assert a == b
        _pass(7, f"{name}: metrics files byte-identical across two same-seed runs ({len(a)} bytes)")


class TestCriterion8CacheContract:
    def _cache_net(self, capacity, ttl):
        k = Kernel(seed=808)
        k.add_node("n1")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n1")
        iq = IndexQpu("iq", FULL, recheck_replica=rep)
        k.register(iq, "n1")
        flt = FilterQpu("flt", rep, [("iq", FULL)])
        k.register(flt, "n1")
        cq = CacheQpu("cq", SCHEMA, capacity=capacity, ttl=ttl, recheck_replica=rep)
        cq.connect(Connection("iq", FULL))
        k.register(cq, "n1")
        cl = Client()
        k.register(cl, "n1")
        return k, rep, cq, cl

    def test_lru_capacity_one_three_misses(self):
        k, rep, cq, cl = self._cache_net(capacity=1, ttl=10_000)
        a = Query.of([Predicate.between("size", 0, 10)])
        b = Query.of([Predicate.between("size", 20, 30)])
        for q in (a, b, a):
            run_query(k, cl, "cq", q)
        assert (cq.misses, cq.hits) == (3, 0)
        _pass(8, "LRU capacity 1: A,B,A is three misses")

    def test_ttl_expiry_at_t_plus_11(self):
        k, rep, cq, cl = self._cache_net(capacity=8, ttl=10)
        q = Query.of([Predicate.between("size", 0, 10)])
        run_query(k, cl, "cq", q)
        k.schedule(k.now + 11, "client", "wake")
        k.run_until_empty()
        run_query(k, cl, "cq", q)
        assert (cq.misses, cq.hits) == (2, 0)
        _pass(8, "entry cached at t misses again at t+11 with ttl=10")

    def test_cache_on_path_changes_no_key_set_at_quiescence(self):
        topology, workload = scenario("single-index")
        cached = copy.deepcopy(topology)
        cached["qpus"].append(
            {"id": "front", "class": "cache", "node": "query", "capacity": 64, "ttl": 5000, "recheck_dc": "dc1"}
        )
        cached["connections"] = [{"from": "front", "to": "iq"}]
        key_sets = {}
        for label, topo, origin in (("plain", topology, "iq"), ("cached", cached, "front")):
            cfg = parse_topology(topo)
            net = build(cfg, 808)
            k = net.kernel
            rep = net.replicas["dc1"]
            rng = random.Random(808)
            for i in range(400):
                rep.put(k, f"k{i}", {"size": rng.randrange(200), "genre": rng.choice("abcdef")})
            k.run_until_empty()
            cl = Client()
            k.register(cl, k.host_of(origin))
            results = []
            for q in PROBE_QUERIES:
                results.append(frozenset(e[0] for e in run_query(k, cl, origin, q).entries))
                results.append(frozenset(e[0] for e in run_query(k, cl, origin, q).entries))  # cached pass
            key_sets[label] = results
        assert key_sets["plain"] == key_sets["cached"]
        _pass(8, "adding a response cache on the path changes no key set at quiescence")


class TestCriterion9RegionAlgebraFuzz:
    @staticmethod
    def _random_region(rng, dims, span):
        bounds = {}
        for d in dims:
            a, b = rng.randrange(span), rng.randrange(span)
            lo, hi = (min(a, b), max(a, b) + 1)
            pair = [lo, hi]
            if rng.random() < 0.12:
                pair[0] = None
            if rng.random() < 0.12:
                pair[1] = None
            bounds[d] = tuple(pair)
        return make_region(**bounds)

    def test_ten_thousand_cases_match_grid_enumeration(self):
        started = time.monotonic()
        rng = random.Random(909)
        checked = 0
        for case in range(10_000):
            three = case % 3 == 0
            dims = ("x", "y", "z") if three else ("x", "y")
            span = 6 if three else 10
            a = self._random_region(rng, dims, span)
            b = self._random_region(rng, dims, span)
            clipped = a.clip(b)
            pieces = a.subtract(b)
            assert len(pieces) <= 2 * len(dims)
            if three:
                points = [
                    {d: rng.randrange(-1, span + 2) for d in dims} for _ in range(25)
                ]
            else:
                points = [{"x": x, "y": y} for x in range(-1, span + 2) for y in range(-1, span + 2)]
            saw_overlap = False
            for attrs in points:
                in_a, in_b = a.contains(attrs), b.contains(attrs)
                saw_overlap = saw_overlap or (in_a and in_b)
                hits = sum(p.contains(attrs) for p in pieces)
                assert hits <= 1
                assert bool(hits) == (in_a and not in_b)
                clip_hit = clipped is not None and clipped.contains(attrs)
                assert clip_hit == (in_a and in_b)
                checked += 1
            if saw_overlap:
                assert clipped is not None  # grid found a common point, clip must agree
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"fuzz took {elapsed:.1f}s"
        _pass(9, f"10,000 region cases, {checked} grid points, zero mismatches in {elapsed:.1f}s")
