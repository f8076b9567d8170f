"""Config validation, scenario runs, metrics determinism, oracle validation
mode and its negative control, and the CLI contract."""

import ast
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qpusim.config as config
import qpusim.runner as runner
import qpusim.store as store
from qpusim.build import build
from qpusim.cli import main as cli_main
from qpusim.config import ConfigError, parse_topology, parse_workload
from qpusim.core import query_matcher
from qpusim.metrics import SCHEMA_VERSION, MetricsSink, parse_ndjson, percentile, summarize
from qpusim.runner import run_scenario, validate_scenario
from qpusim.scenarios import SCENARIOS, scenario, write_scenario
from qpusim.workload import WorkloadDriver

from conftest import Client, run_query


def minimal_topology(**overrides):
    doc = {
        "attributes": [{"name": "size", "kind": "int"}, {"name": "genre", "kind": "text"}],
        "nodes": [{"id": "n1"}, {"id": "n2"}],
        "links": [{"from": "n1", "to": "n2", "base_latency": 5}],
        "dcs": [{"id": "dc1", "node": "n1"}],
        "qpus": [
            {"id": "flt", "class": "filter", "node": "n1", "dc": "dc1", "targets": [{"qpu": "iq"}]},
            {"id": "iq", "class": "index", "node": "n2", "region": {}, "recheck_dc": "dc1"},
        ],
        "connections": [],
    }
    doc.update(overrides)
    return doc


def zero_rate_workload():
    return {
        "phases": [
            {
                "duration": 3000,
                "key_space": 10,
                "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 10}},
            }
        ]
    }


def shaped_workload():
    doc = zero_rate_workload()
    doc["phases"][0]["query_shapes"] = [{"attrs": ["size"], "selectivity": 0.1, "weight": 2}]
    return doc


class TestTopologyValidation:
    def test_bundled_scenarios_load_cleanly(self):
        for name in SCENARIOS:
            t, w = scenario(name)
            cfg = parse_topology(t)
            parse_workload(w, cfg)

    def test_connection_cycle_rejected_naming_the_cycle(self):
        doc = minimal_topology(
            qpus=[
                {"id": "a", "class": "federation", "node": "n1", "recheck_dc": "dc1"},
                {"id": "b", "class": "federation", "node": "n1", "recheck_dc": "dc1"},
            ],
            connections=[{"from": "a", "to": "b"}, {"from": "b", "to": "a"}],
        )
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "cycle" in str(err.value)
        assert "a -> b -> a" in str(err.value)

    def test_unknown_attribute_in_region_rejected(self):
        doc = minimal_topology()
        doc["qpus"][1]["region"] = {"colour": [0, 10]}
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "unknown attribute" in str(err.value)
        assert "colour" in str(err.value)

    def test_inverted_region_bounds_rejected(self):
        doc = minimal_topology()
        doc["qpus"][1]["region"] = {"size": [10, 10]}
        with pytest.raises(ConfigError):
            parse_topology(doc)

    def test_hysteresis_violation_rejected(self):
        doc = minimal_topology(adaptive={"enabled": True, "t_split": 100, "t_merge": 50})
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "hysteresis" in str(err.value)

    def test_filter_must_target_indexing_qpus(self):
        doc = minimal_topology()
        doc["qpus"].append({"id": "ds", "class": "ds", "node": "n1", "dc": "dc1"})
        doc["qpus"][0]["targets"] = [{"qpu": "ds"}]
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "not an indexing QPU" in str(err.value)

    def test_cache_needs_exactly_one_downstream(self):
        doc = minimal_topology()
        doc["qpus"].append({"id": "cq", "class": "cache", "node": "n1", "recheck_dc": "dc1"})
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "exactly one downstream" in str(err.value)

    def test_missing_replication_link_rejected(self):
        doc = minimal_topology(
            nodes=[{"id": "n1"}, {"id": "n2"}, {"id": "n3"}],
            dcs=[{"id": "dc1", "node": "n1"}, {"id": "dc2", "node": "n3"}],
        )
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "replication" in str(err.value)

    def test_partial_recheck_dc_must_cover_region(self):
        doc = minimal_topology(
            dcs=[
                {"id": "dc1", "node": "n1"},
                {"id": "edge", "node": "n2", "full_replica": False, "placement": {"size": [0, 10]}},
            ],
        )
        doc["qpus"][1]["recheck_dc"] = "edge"  # iq's region is the full space
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "does not cover" in str(err.value)

    def test_qpu_that_reaches_no_full_replica_rejected(self):
        # fq names no recheck_dc, and no link leads from its node to dc1's
        doc = minimal_topology(
            links=[],
            qpus=[
                {"id": "ds", "class": "ds", "node": "n1", "dc": "dc1"},
                {"id": "fq", "class": "federation", "node": "n2"},
            ],
            connections=[{"from": "fq", "to": "ds"}],
        )
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert "qpus[1](fq): no recheck_dc and no full replica reachable" in str(err.value)
        doc["links"] = [{"from": "n1", "to": "n2", "base_latency": 5}]
        net = build(parse_topology(doc))
        assert net.qpus["fq"].recheck_replica is net.replicas["dc1"]

    def test_message_paths_need_a_direct_link(self):
        """Kernel sends take one link. A filter and its DC, a filter and its
        targets, both ends of a connection and a push_to must share a node
        or be linked directly; a path through a third node is not enough."""
        doc = minimal_topology(links=[])
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert err.value.errors == ["qpus[0](flt).targets[0]: no link between nodes of 'flt' and 'iq'"]
        doc = minimal_topology(
            nodes=[{"id": "n1"}, {"id": "n2"}, {"id": "n3"}],
            links=[{"from": "n1", "to": "n2", "base_latency": 5}, {"from": "n2", "to": "n3", "base_latency": 5}],
            qpus=[
                {"id": "flt", "class": "filter", "node": "n3", "dc": "dc1", "targets": [{"qpu": "iq"}]},
                {"id": "iq", "class": "index", "node": "n1", "region": {}, "push_to": "mq"},
                {"id": "mq", "class": "merge", "node": "n3", "region": {}},
                {"id": "fq", "class": "federation", "node": "n3"},
            ],
            connections=[{"from": "fq", "to": "iq"}],
        )
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert err.value.errors == [
            "qpus[0](flt).dc: no link between nodes of 'flt' and 'dc1'",
            "qpus[0](flt).targets[0]: no link between nodes of 'flt' and 'iq'",
            "qpus[1](iq).push_to: no link between nodes of 'iq' and 'mq'",
            "connections[0]: no link between nodes of 'fq' and 'iq'",
        ]
        doc["links"].append({"from": "n1", "to": "n3", "base_latency": 5})
        workload = shaped_workload()
        workload["phases"][0].update(write_rate=20, write_origin={"dcs": ["dc1"]}, query_rate=5, query_origin=["fq"])
        res = run_scenario(doc, workload)
        assert res.network.qpus["mq"].index.registry  # flt -> iq -> mq
        assert any(r["type"] == "query" and r["results"] for r in res.sink.records)

    def test_errors_accumulate_with_paths(self):
        doc = minimal_topology()
        doc["qpus"][1]["region"] = {"colour": [0, 1], "size": [9, 3]}
        doc["links"][0]["base_latency"] = 0
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert len(err.value.errors) >= 3


def cache_topology(**cache_params):
    """minimal_topology plus a cache: a response cache in front of the
    index, or a replica cache (one given pull_from) with no connection."""
    doc = minimal_topology(connections=[] if "pull_from" in cache_params else [{"from": "cq", "to": "iq"}])
    doc["qpus"].append({"id": "cq", "class": "cache", "node": "n2", "recheck_dc": "dc1", **cache_params})
    return doc


class TestQpuParameterValidation:
    """Parameters that would fail only at run time are rejected at parse time."""

    def _rejected(self, doc, field):
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert field in str(err.value)

    def test_valid_replica_and_response_caches_accepted(self):
        parse_topology(cache_topology(pull_from="iq", pull_interval=400))
        parse_topology(cache_topology(capacity=64, ttl=2.5, timeout=100))

    def test_replica_cache_without_pull_interval_rejected(self):
        self._rejected(cache_topology(pull_from="iq"), "pull_interval")

    def test_replica_cache_zero_pull_interval_rejected(self):
        # accepted, it would reschedule its pull at the same instant forever
        self._rejected(cache_topology(pull_from="iq", pull_interval=0), "pull_interval")

    def test_replica_cache_negative_pull_interval_rejected(self):
        self._rejected(cache_topology(pull_from="iq", pull_interval=-5), "pull_interval")

    def test_replica_cache_non_numeric_pull_interval_rejected(self):
        self._rejected(cache_topology(pull_from="iq", pull_interval="400"), "pull_interval")

    def test_pull_interval_on_a_response_cache_rejected(self):
        # a response cache never pulls, so the key only widened the drain's settle horizon
        self._rejected(cache_topology(pull_interval=400), "pull_interval: only a replica cache")

    def test_leftover_cache_mode_key_rejected(self):
        # ignored, an old replica cache's file would load as a response cache
        self._rejected(cache_topology(mode="replica", pull_interval=400), "mode: not a cache key")

    def test_non_numeric_cache_capacity_is_config_error(self):
        self._rejected(cache_topology(capacity="big"), "capacity")

    def test_non_numeric_cache_ttl_is_config_error(self):
        self._rejected(cache_topology(ttl="long"), "ttl")

    def test_non_numeric_node_capacity_is_config_error(self):
        self._rejected(minimal_topology(nodes=[{"id": "n1", "capacity": "big"}, {"id": "n2"}]), "nodes[0].capacity")

    @pytest.mark.parametrize("timeout", [0, -1, 2.5, "soon", True])
    def test_timeout_must_be_positive_integer(self, timeout):
        self._rejected(cache_topology(timeout=timeout), "timeout")

    @pytest.mark.parametrize("size", [0, -3, 1.5, "many"])
    def test_filter_batch_size_must_be_at_least_one(self, size):
        doc = minimal_topology()
        doc["qpus"][0]["batch_size"] = size
        self._rejected(doc, "batch_size")

    def test_non_numeric_filter_batch_interval_is_config_error(self):
        doc = minimal_topology()
        doc["qpus"][0]["batch_interval"] = "often"
        self._rejected(doc, "batch_interval")

    @pytest.mark.parametrize("interval", [0.5, -1, True])
    def test_filter_batch_interval_must_be_non_negative_integer(self, interval):
        # flushes are scheduled on the integer clock
        doc = minimal_topology()
        doc["qpus"][0]["batch_interval"] = interval
        self._rejected(doc, "batch_interval")

    def test_units_run_with_the_accepted_values(self):
        doc = cache_topology(capacity=2.5, ttl=0.5)
        doc["qpus"][0]["batch_interval"] = 40
        net = build(parse_topology(doc))
        cache, flt = net.caches[0], net.filters[0]
        assert (cache.capacity, cache.ttl, flt.batch_interval) == (2.5, 0.5, 40)
        # validate mode waits whole milliseconds for response caches to expire
        assert net.max_cache_ttl() == 1


class TestWorkloadValidation:
    def test_negative_rate_rejected(self):
        cfg = parse_topology(minimal_topology())
        with pytest.raises(ConfigError) as err:
            parse_workload({"phases": [{"duration": 100, "write_rate": -1}]}, cfg)
        assert "write_rate" in str(err.value)

    def test_query_phase_needs_shapes_and_origin(self):
        cfg = parse_topology(minimal_topology())
        with pytest.raises(ConfigError) as err:
            parse_workload({"phases": [{"duration": 100, "query_rate": 5}]}, cfg)
        msg = str(err.value)
        assert "query_shapes" in msg and "query_origin" in msg

    def test_unknown_origin_rejected(self):
        cfg = parse_topology(minimal_topology())
        doc = {
            "phases": [
                {
                    "duration": 100,
                    "query_rate": 5,
                    "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 5}},
                    "query_shapes": [{"attrs": ["size"], "selectivity": 0.1}],
                    "query_origin": ["ghost"],
                }
            ]
        }
        with pytest.raises(ConfigError) as err:
            parse_workload(doc, cfg)
        assert "ghost" in str(err.value)

    @pytest.mark.parametrize("limit", [-1, 2.5, "ten"])
    def test_phase_limit_must_be_non_negative_integer(self, limit):
        cfg = parse_topology(minimal_topology())
        with pytest.raises(ConfigError) as err:
            parse_workload({"phases": [{"duration": 100, "limit": limit}]}, cfg)
        assert "phases[0].limit" in str(err.value)

    def test_phase_limit_zero_accepted(self):
        cfg = parse_topology(minimal_topology())
        assert parse_workload({"phases": [{"duration": 100, "limit": 0}]}, cfg).phases[0].limit == 0

    @pytest.mark.parametrize("bounds", [{"lo": "a", "hi": 5}, {"lo": "a", "hi": "b"}, {"lo": 5}, {"lo": 5, "hi": 5}])
    def test_uniform_bounds_must_be_increasing_numbers(self, bounds):
        cfg = parse_topology(minimal_topology())
        doc = {"phases": [{"duration": 100, "attributes": {"size": {"dist": "uniform", **bounds}}}]}
        with pytest.raises(ConfigError) as err:
            parse_workload(doc, cfg)
        assert "phases[0].attributes.size: uniform needs numbers lo < hi" in str(err.value)

    @pytest.mark.parametrize("params", [{"s": "steep", "n": 5}, {"s": 1.2, "n": "many"}])
    def test_non_numeric_zipf_parameters_are_config_errors(self, params):
        cfg = parse_topology(minimal_topology())
        doc = {"phases": [{"duration": 100, "attributes": {"size": {"dist": "zipf", **params}}}]}
        with pytest.raises(ConfigError) as err:
            parse_workload(doc, cfg)
        assert "phases[0].attributes.size." in str(err.value) and "must be a" in str(err.value)

    def test_non_integer_seed_is_config_error(self):
        cfg = parse_topology(minimal_topology())
        with pytest.raises(ConfigError) as err:
            parse_workload({"phases": [{"duration": 100}], "seed": "lucky"}, cfg)
        assert "seed: must be an integer, got 'lucky'" in str(err.value)

    def test_choice_ints_on_a_float_attribute_are_drawn_as_floats(self):
        t = minimal_topology(attributes=[{"name": "size", "kind": "int"}, {"name": "weight", "kind": "float"}])
        w = {
            "phases": [
                {
                    "duration": 1000,
                    "write_rate": 20.0,
                    "key_space": 10,
                    "attributes": {"weight": {"dist": "choice", "values": [1, 2.5]}},
                    "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
                }
            ]
        }
        cfg = parse_topology(t)
        values = parse_workload(w, cfg).phases[0].attributes["weight"].values
        assert values == [1.0, 2.5] and [type(v) for v in values] == [float, float]
        res = run_scenario(t, w, seed=0)
        assert [r for r in res.sink.records if r["type"] == "rejected_write"] == []
        assert {type(o.attrs["weight"]) for o in res.network.replicas["dc1"].objects.values()} == {float}

    def test_zipf_parameters_checked(self):
        cfg = parse_topology(minimal_topology())
        doc = {
            "phases": [
                {
                    "duration": 100,
                    "attributes": {"size": {"dist": "zipf", "s": 0, "n": 5}},
                }
            ]
        }
        with pytest.raises(ConfigError):
            parse_workload(doc, cfg)


# sha256 of run_scenario(...).sink.to_ndjson() for each bundled scenario, and
# for the benchmark's delete-heavy `ingest` write stream at scale 1, at
# GOLDEN_SEEDS. A change meant to alter behaviour updates these and says why;
# any other change must leave them equal.
GOLDEN_SEEDS = (0, 7, 505)
GOLDEN_NDJSON_SHA256 = {
    "single-index": (
        "6a27922d32df1d8accc50cc36ffdda63da59f6f02b3ce51ab1897252aba85b34",
        "902d106022051bfb1413fc07254cd5b1197fa2ac154fb633c7512e8dff0b78d9",
        "7b410b05aaa90e31d53b164ef2bda502a0f6cb2a547ee153e1747dbea0702410",
    ),
    "cdn": (
        "4b3050b8d9a297b1c4331e69c7a3c1ded2f31cf758b1adea3c032d30f1d1236d",
        "7605b06550df355c516aa6405ed3cad6b7a9a149d16bf056259b6d1cda1a4907",
        "584fba779793c52cf8e9ca99a012916911783868bda00e57f25757910a3a15a6",
    ),
    "client-cache": (
        "9433ac9019bd844eddb1307edeea848d04394656124257158c53fb5484432af3",
        "e4e64831ea994ac4bf883c19021cecae6780da7f2b54a982ae293b7d9ec6e84c",
        "2cc94ccc3bd0daeb1f58d4e03f761c37eef0b750bad15b25343b081098c84be0",
    ),
    "adaptive-skew": (
        "26bfd2642701536b3d52a82e40b1bcb4fcabd3c7179602154607e18d83796c7f",
        "b2a5e4d57dcba4db105a02b8906bacf46cf32ab973b516fbaa3d784c8864c8d8",
        "1d12d283ec0fb77255bf508147070b9910b2a7ea5cbe99345249b15579a3c8c5",
    ),
    "ingest": (
        "97ecc988a8f89487d45aeb98b018f02de8b55e436319b71dfbb950a2df48c462",
        "b9b7096450f65090ce457b465dccc458dd51ba400fc17d3c26ef73c3e21acf7c",
        "935b7e3812f30033df2493f2ffa6b216027b7f61bce44ff4868a88ede485876c",
    ),
}


def benchmark_workloads():
    """The benchmark's workload module, benchmarks/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def golden_configs(name):
    """A bundled scenario, or `ingest` from benchmarks/workloads.py at scale 1."""
    if name != "ingest":
        return scenario(name)
    return benchmark_workloads().configs("ingest", 1)


@pytest.mark.parametrize("seed_index", range(len(GOLDEN_SEEDS)), ids=[f"seed{s}" for s in GOLDEN_SEEDS])
@pytest.mark.parametrize("name", [*SCENARIOS, "ingest"])
def test_metrics_stream_matches_golden_hash(name, seed_index):
    t, w = golden_configs(name)
    res = run_scenario(t, w, seed=GOLDEN_SEEDS[seed_index])
    digest = hashlib.sha256(res.sink.to_ndjson().encode()).hexdigest()
    assert digest == GOLDEN_NDJSON_SHA256[name][seed_index]


# sha256 of the metrics stream of each benchmark workload at its 4x scale, at
# BENCHMARK_SEEDS, as benchmarks/child.py hashes it (the run's meta names the
# workload). The scale-1 scenarios are too small to show some changes of
# behaviour: with five of cdn's seven rechecking units not rechecking, every
# golden hash above stays equal. The same rule as for those holds here.
BENCHMARK_SEEDS = (0, 4242)
BENCHMARK_NDJSON_SHA256 = {
    "cdn-4x": (
        "ac9a992d52e10721264498335b9944306f4990041fddc813b0b7d06a6aa17a89",
        "0c4e651d0dccff6f6bd3d499e85196e66f35b47385c407eba005ad01db709c0f",
    ),
    "client-cache-4x": (
        "e9783f63a94b5813e50ef8a3a011f15c723058cac97949a8fcd81abf2f9e67a7",
        "17bf292e65b63b3dbfd1326b304b86bbc74cb2e1f5d6e09a4fbe160d5189d1f9",
    ),
    "adaptive-skew-4x": (
        "a592e7abdc8a85e43b29883615b83d85ed8f58a15cb7446019d781b388bb88f9",
        "a1337807a2d790371ac010a575fc6b04951bacd08c24306ced74b18ee31a3283",
    ),
    "ingest": (
        "924fead8c4f869d93fee518379b4b0d8f9966cd6382a9c3692ef45b987d6d119",
        "694b1260a312287309dff8906cb9d169e1b3758d1fc9be60385bf4d8f29371cd",
    ),
}


@pytest.mark.parametrize("seed_index", range(len(BENCHMARK_SEEDS)), ids=[f"seed{s}" for s in BENCHMARK_SEEDS])
@pytest.mark.parametrize("name", list(BENCHMARK_NDJSON_SHA256))
def test_benchmark_stream_matches_recorded_hash(name, seed_index):
    workloads = benchmark_workloads()
    assert workloads.NAMES == tuple(BENCHMARK_NDJSON_SHA256)
    t, w = workloads.configs(name)
    res = run_scenario(t, w, seed=BENCHMARK_SEEDS[seed_index], scenario_name=name)
    digest = hashlib.sha256(res.sink.to_ndjson().encode()).hexdigest()
    assert digest == BENCHMARK_NDJSON_SHA256[name][seed_index]


class FrozenAttrs(dict):
    """An attrs dict that raises on any in-place change."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a shared attrs dict was mutated in place")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse


@pytest.mark.parametrize("name", SCENARIOS)
def test_shared_attrs_dicts_are_never_mutated(name, monkeypatch):
    """Attrs dicts are shared, uncopied, from DcReplica.put's ingest copy to
    every replica, log, index registry, snapshot and result row. With that
    copy made a FrozenAttrs (by shadowing `dict` in qpusim.store, where put
    makes it), each bundled scenario runs to the same metrics stream, and any
    code that edits a shared attrs dict raises."""
    monkeypatch.setattr(store, "dict", FrozenAttrs, raising=False)
    t, w = scenario(name)
    res = run_scenario(t, w, seed=GOLDEN_SEEDS[0])
    stored = [o.attrs for rep in res.network.replicas.values() for o in rep.objects.values()]
    assert stored and all(isinstance(attrs, FrozenAttrs) or not attrs for attrs in stored)
    digest = hashlib.sha256(res.sink.to_ndjson().encode()).hexdigest()
    assert digest == GOLDEN_NDJSON_SHA256[name][0]


def test_benchmark_tracer_self_test_passes():
    """The benchmark's per-layer tracer patches qpusim functions and methods by
    name (qpunet.recheck, PostingIndex.lookup and snapshot, DcReplica.scan,
    ...); its self-test fails when a refactor moves one of them."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "selftest.py")],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0 and "tracer self-test: PASS" in proc.stdout, proc.stdout + proc.stderr


# The work each benchmark workload does at scale 1 and seed 0, as the
# benchmark's tracer counts it (`benchmarks/child.py --mode traced`): events
# delivered, messages handled by replicas and by each QPU class, and posting
# index applies. A change that makes each event cheaper leaves these equal;
# a handler reached twice per message, such as an override that calls a
# traced base-class on_message, counts its messages twice.
QPU_CLASSES = ("ds", "index", "merge", "federation", "cache")
WORK_COUNTS = ("simkernel.events", "store.msgs", "indexing.apply_calls", *(f"qpunet.msgs.{c}" for c in QPU_CLASSES))
BENCHMARK_WORK = {
    "cdn-4x": (5458, 3000, 504, 133, 654, 0, 406, 509),
    "client-cache-4x": (6876, 3750, 3184, 0, 852, 918, 0, 252),
    "adaptive-skew-4x": (4576, 340, 1629, 0, 2646, 0, 0, 0),
    "ingest": (22185, 12500, 10629, 0, 3170, 3216, 0, 102),
}


@pytest.mark.parametrize("name", list(BENCHMARK_WORK))
def test_benchmark_work_counts_match_recorded(name):
    root = Path(__file__).resolve().parent.parent
    cmd = [sys.executable, str(root / "benchmarks" / "child.py"), "--workload", name]
    proc = subprocess.run(
        [*cmd, "--seed", "0", "--scale", "1", "--mode", "traced"], cwd=root, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == 0
    assert {m: out["layers"][m] for m in WORK_COUNTS} == dict(zip(WORK_COUNTS, BENCHMARK_WORK[name]))


def non_stdlib_imports(source: str) -> list[str]:
    """Absolute imports in a module's source of anything outside the
    standard library and qpusim; relative imports are qpusim's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "qpusim" and top not in sys.stdlib_module_names:
                found.append(f"{node.lineno}: {name}")
    return found


def test_runtime_dependencies_stay_at_zero():
    """pyproject.toml declares `dependencies = []`: every module under
    src/qpusim imports only the standard library and qpusim."""
    assert non_stdlib_imports("import numpy\nfrom yaml import load\nimport os.path\nfrom .core import Kind") == [
        "1: numpy",
        "2: yaml",
    ]
    src = Path(__file__).resolve().parent.parent / "src" / "qpusim"
    modules = sorted(src.rglob("*.py"))
    assert modules
    found = {path.name: non_stdlib_imports(path.read_text()) for path in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}


def qpusim_imports(node: ast.AST) -> list[str]:
    """The qpusim modules an import node names: relative imports are
    qpusim's own, and `from . import x` names module x."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return [node.module] if node.module else [alias.name for alias in node.names]
        names = [node.module or ""]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    return [name.partition(".")[2] or name for name in names if name.partition(".")[0] == "qpusim"]


def layering_violations(sources: dict[str, str]) -> list[str]:
    """`module.py:line` of each import of a qpusim module inside a function,
    and of each import in store of a qpusim module other than core and
    simkernel. A function-local import hides an import cycle; the store's
    own imports keep it below every unit that holds rows."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{module}.py:{inner.lineno}" for inner in ast.walk(node) if qpusim_imports(inner))
            elif module == "store" and any(name not in ("core", "simkernel") for name in qpusim_imports(node)):
                found.add(f"{module}.py:{node.lineno}")
    return sorted(found)


def test_qpusim_modules_import_each_other_only_at_module_level():
    """No qpusim import is made inside a function under src/, and store.py
    imports only core and simkernel from qpusim, so no unit module can be
    imported by the store and no import cycle is hidden in a function."""
    sample = {
        "store": "from .core import Version\nfrom . import qpunet\nimport qpusim.indexing\n",
        "qpunet": "import json\ndef install():\n    import os\n    from .indexing import PostingIndex\n",
        "runner": "from qpusim.store import DcReplica\n",
    }
    assert layering_violations(sample) == ["qpunet.py:4", "store.py:2", "store.py:3"]
    src = Path(__file__).resolve().parent.parent / "src" / "qpusim"
    sources = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    assert "store" in sources
    assert layering_violations(sources) == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: no load of the name, no
    attribute read through it, no mention in a string annotation, and no
    entry in `__all__`. `from __future__` imports are directives, not
    names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs, node.args.vararg, node.args.kwarg]
            annotations += [arg.annotation for arg in args if arg is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda item: item[1]) if name not in used]


def test_every_import_is_used():
    """Each name a module under src/qpusim imports is read in that module."""
    sample = (
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "from .core import Kind, Query as Q, Version\n"
        "from typing import Any\n"
        "__all__ = ['Version']\n"
        "def f(x: 'Any') -> None:\n"
        "    return os.path.join(Kind.INT)\n"
    )
    assert unused_imports(sample) == ["2: json", "3: Q"]
    src = Path(__file__).resolve().parent.parent / "src" / "qpusim"
    modules = sorted(src.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The functions, methods and classes defined in `sources` (module name
    -> source) whose name no module of them reads, as a name, an attribute
    or an import (the package's `__init__` re-exports its API), by
    module-qualified name. Dunder methods are the interpreter's to call, so
    they count as read."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()

    def collect(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((prefix + child.name, child.name))
                collect(child, f"{prefix}{child.name}.")
            else:
                collect(child, prefix)

    for module, source in sources.items():
        tree = ast.parse(source)
        collect(tree, f"{module}.")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(
        qualified
        for qualified, name in defined
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )


# Read only by the tests: the predicate reference regions must agree with
# (`Predicate.between`/`equals`, `query_matches`), the metrics re-derivation
# (`summarize`, `parse_ndjson`) and single-stepping the kernel (`step`).
READ_BY_TESTS_ONLY = [
    "core.Predicate.between",
    "core.Predicate.equals",
    "core.query_matches",
    "metrics.parse_ndjson",
    "metrics.summarize",
    "simkernel.Kernel.step",
]


def test_every_src_definition_is_read():
    """Each function, method and class under src/qpusim has a reader under
    src/, apart from the test references in READ_BY_TESTS_ONLY."""
    sample = {
        "a": "class C:\n    def __init__(self): self.used()\n    def used(self): pass\n    def spare(self): pass\n",
        "b": "from .a import C\ndef helper():\n    def inner(): pass\n    return C\n",
    }
    assert unread_definitions(sample) == ["a.C.spare", "b.helper", "b.helper.inner"]
    src = Path(__file__).resolve().parent.parent / "src" / "qpusim"
    sources = {path.stem: path.read_text() for path in sorted(src.glob("*.py"))}
    assert sources
    assert unread_definitions(sources) == READ_BY_TESTS_ONLY


class TestRunScenario:
    def test_zero_rate_workload_emits_only_heartbeats(self):
        res = run_scenario(minimal_topology(), zero_rate_workload(), seed=1)
        body = [r for r in res.sink.records if r.get("type") not in ("meta", "summary")]
        assert body and all(r["type"] == "heartbeat" for r in body)

    def test_same_seed_byte_identical_metrics(self, tmp_path):
        t, w = scenario("single-index")
        a = run_scenario(t, w, seed=11, out=tmp_path / "a.ndjson")
        b = run_scenario(t, w, seed=11, out=tmp_path / "b.ndjson")
        assert (tmp_path / "a.ndjson").read_bytes() == (tmp_path / "b.ndjson").read_bytes()

    def test_different_seed_changes_metrics(self):
        t, w = scenario("single-index")
        a = run_scenario(t, w, seed=11)
        b = run_scenario(t, w, seed=12)
        assert a.sink.to_ndjson() != b.sink.to_ndjson()

    def test_doubled_query_rate_doubles_query_count(self):
        t, w = scenario("single-index")
        import copy

        w2 = copy.deepcopy(w)
        for p in w2["phases"]:
            p["query_rate"] = p.get("query_rate", 0) * 2
        a = run_scenario(t, w, seed=3)
        b = run_scenario(t, w2, seed=3)
        assert b.summary["queries"] == 2 * a.summary["queries"]

    def test_full_replicas_converge_after_drain(self):
        t, w = scenario("cdn")
        res = run_scenario(t, w, seed=5)
        prints = {rep.dc_id: rep.state_fingerprint() for rep in res.network.full_replicas()}
        assert len(set(prints.values())) == 1

    def test_until_gives_hard_horizon(self):
        t, w = scenario("single-index")
        res = run_scenario(t, w, seed=5, until=2000)
        assert res.network.kernel.now == 2000

    def test_the_workload_enters_the_kernel_as_one_fed_list(self):
        """schedule_all feeds the kernel every write, delete, query and
        heartbeat, and schedules none of them."""
        cfg = parse_topology(scenario("cdn")[0])
        spec = parse_workload(scenario("cdn")[1], cfg)
        net = build(cfg, 0)
        driver = WorkloadDriver(net, spec, 0)
        end = driver.schedule_all()
        queries = sum(int(round(p.duration * p.query_rate / 1000.0)) for p in spec.phases)
        heartbeats = sum(-(-p.duration // 1000) for p in spec.phases)
        k = net.kernel
        assert k._due == {} and k._times == []
        assert k.pending() == driver.journal.writes + driver.journal.deletes + queries + heartbeats
        assert k.run_until(end) == end
        assert len(driver.journal.queries) == queries

    def test_summary_recomputes_from_raw_records(self, tmp_path):
        t, w = scenario("cdn")
        res = run_scenario(t, w, seed=9, out=tmp_path / "m.ndjson")
        records = parse_ndjson((tmp_path / "m.ndjson").read_text())
        summary_row = [r for r in records if r["type"] == "summary"]
        assert len(summary_row) == 1
        recomputed = summarize([r for r in records if r["type"] != "summary"])
        assert {k: summary_row[0][k] for k in recomputed} == recomputed

    def test_every_record_has_a_type(self, tmp_path):
        t, w = scenario("client-cache")
        run_scenario(t, w, seed=2, out=tmp_path / "m.ndjson")
        for record in parse_ndjson((tmp_path / "m.ndjson").read_text()):
            assert "type" in record


class DictLog(MetricsSink):
    """A sink that also keeps each record as the dict a sink that stores
    dicts would hold: the header, then `{"t": now, **record}` per emit and
    `{"t": now, "type": "staleness", "qpu": qpu, "delta": delta}` per
    staleness sample."""

    def __init__(self, kernel, meta=None):
        self.dicts = [{"type": "meta", "schema": SCHEMA_VERSION, **(meta or {})}]
        super().__init__(kernel, meta)

    def emit(self, record):
        self.dicts.append({"t": self._kernel.now, **record})
        super().emit(record)

    def staleness(self, qpu, delta):
        self.dicts.append({"t": self._kernel.now, "type": "staleness", "qpu": qpu, "delta": delta})
        super().staleness(qpu, delta)


def rederived_summary(records):
    """The summary figures computed afresh, one list per figure."""
    queries = [r for r in records if r["type"] == "query"]
    latencies = sorted(r["latency"] for r in queries)
    staleness = sorted(r["delta"] for r in records if r["type"] == "staleness")
    cache = [r["hit"] for r in records if r["type"] == "cache"]
    return {
        "queries": len(queries),
        "latency_p50": percentile(latencies, 0.50),
        "latency_p99": percentile(latencies, 0.99),
        "completeness_rate": sum(1 for r in queries if r["complete"]) / len(queries) if queries else None,
        "staleness_samples": len(staleness),
        "staleness_median": percentile(staleness, 0.50),
        "cache_hits": cache.count(True),
        "cache_misses": cache.count(False),
        "control_actions": sum(
            1 for r in records if r["type"] == "control" and r["action"] in ("split", "merge", "rebind")
        ),
    }


class TestMetricsRows:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_records_equal_the_dict_log(self, name, monkeypatch):
        """`records` builds, from the compact rows, the dicts a dict-keeping
        sink holds: the same records in the same order, each with its keys
        in the same order."""
        monkeypatch.setattr(runner, "MetricsSink", DictLog)
        res = run_scenario(*scenario(name), seed=3, scenario_name=name)
        expected = [*res.sink.dicts, {"type": "summary", **res.summary}]
        assert [list(r.items()) for r in res.sink.records] == [list(r.items()) for r in expected]
        assert res.sink.to_ndjson() == "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in expected
        )

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_summarize_reads_any_iterable_once(self, name):
        """summarize reads a one-shot iterator of the stream parsed back
        from NDJSON, and gives the figures re-derived from that stream and
        the sink's own summary."""
        res = run_scenario(*scenario(name), seed=3)
        body = [r for r in parse_ndjson(res.sink.to_ndjson()) if r["type"] != "summary"]
        reads = []

        def once():
            reads.append(1)
            yield from body

        assert summarize(once()) == rederived_summary(body) == res.summary
        assert reads == [1]

    def test_type2_records_reach_type2_violations(self):
        doc = minimal_topology(debug={"disable_recheck": True})
        res = run_scenario(doc, delete_heavy_workload(), seed=13)
        in_stream = [r for r in parse_ndjson(res.sink.to_ndjson()) if r["type"] == "type2"]
        assert in_stream
        assert res.network.kernel.probes.type2_violations() == in_stream


def delete_heavy_workload():
    return {
        "phases": [
            {
                "duration": 2000,
                "write_rate": 100.0,
                "key_space": 60,
                "key_mode": "sequential",
                "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 100}},
                "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
            },
            {
                "duration": 3000,
                "write_rate": 80.0,
                "delete_fraction": 0.7,
                "query_rate": 80.0,
                "key_space": 60,
                "attributes": {"size": {"dist": "uniform", "lo": 0, "hi": 100}},
                "query_shapes": [{"attrs": ["size"], "selectivity": 0.5}],
                "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
                "query_origin": ["iq"],
            },
        ]
    }


class TestOneRegionPerHop:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_at_most_one_region_per_client_query(self, name, monkeypatch):
        """A client query becomes a region once, at the unit it is issued
        to (or, behind a response cache, at the unit the cache fills from),
        and its sub-queries travel as regions: a run builds at most one
        region per client query, and none while a unit handles a region
        sub-query. Counted while the kernel runs, in every qpusim module
        that imports the name."""
        import qpusim.core as core
        import qpusim.qpunet as qpunet
        from qpusim.simkernel import Kernel

        counts = {"regions": 0, "from_subqueries": 0}
        running = [False]
        handling = [None]  # the query of the QueryMsg a unit is handling
        original = core.query_to_region

        def query_to_region(*args):
            if running[0]:
                counts["regions"] += 1
                counts["from_subqueries"] += isinstance(handling[0], core.HyperRegion)
            return original(*args)

        for module in [m for n, m in sys.modules.items() if n == "qpusim" or n.startswith("qpusim.")]:
            if vars(module).get("query_to_region") is original:
                monkeypatch.setattr(module, "query_to_region", query_to_region)
        on_message, run_until = qpunet.QpuBase.on_message, Kernel.run_until

        def counting_on_message(self, k, msg):
            handling[0] = msg.query if isinstance(msg, qpunet.QueryMsg) else None
            on_message(self, k, msg)

        def counting_run_until(self, t_max=None):
            running[0] = True
            try:
                return run_until(self, t_max)
            finally:
                running[0] = False

        monkeypatch.setattr(qpunet.QpuBase, "on_message", counting_on_message)
        monkeypatch.setattr(Kernel, "run_until", counting_run_until)
        result = run_scenario(*scenario(name), seed=0)
        client_queries = len(result.journal.queries)
        assert client_queries > 0
        assert counts["regions"] <= client_queries
        assert counts["from_subqueries"] == 0


class TestValidateMode:
    def test_bundled_scenarios_pass(self):
        for name in ("single-index", "cdn", "client-cache"):
            t, w = scenario(name)
            report = validate_scenario(t, w, seed=13)
            assert report.ok, f"{name}: {report.describe()}"
            assert report.queries_checked >= 100

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_limited_queries_return_the_first_oracle_keys(self, name):
        """Responders keep the first `limit` rows in key order, so after
        quiescence a limited query must return the first `limit` matching
        keys of the converged replica."""
        for limit in (1, 5):
            topology, workload = scenario(name)
            for phase in workload["phases"]:
                phase["limit"] = limit
            for seed in (0, 7):
                report = validate_scenario(topology, workload, seed=seed)
                assert report.ok, f"limit {limit}, seed {seed}: {report.describe()}"
                assert report.queries_checked >= 50

    def test_ds_on_a_partial_dc_marks_what_its_placement_lacks_missing(self):
        """cdn with a ds unit on edge DC e1 (genre < "h") as the only query
        origin, which check-config accepts. The scan answered "complete"
        while missing every key outside the placement: validate found 98
        mismatches at seed 0 and 89 at seed 1, all marked complete. Now each
        mismatch is marked incomplete, and after a run every answer holds
        only matching keys, names regions holding each absent one, and is
        complete exactly when it names none."""
        topology, workload = scenario("cdn")
        topology["qpus"].append({"id": "dse", "class": "ds", "node": "edge1", "dc": "e1"})
        for phase in workload["phases"]:
            if "query_origin" in phase:
                phase["query_origin"] = ["dse"]
        report = validate_scenario(topology, workload, seed=0)
        assert report.mismatches and report.converged
        assert all(not m["complete"] and not m["extra"] for m in report.mismatches)
        res = run_scenario(topology, workload, seed=0)
        k, oracle = res.network.kernel, res.network.replicas["dc1"]
        client = Client()
        k.register(client, "edge1")
        incomplete = 0
        for query, origin in res.journal.queries:
            resp = run_query(k, client, origin, query)
            matches = query_matcher(query)
            expected = {key for key, o in oracle.objects.items() if matches(o.attrs)}
            got = {row[0] for row in resp.entries}
            assert got <= expected
            for key in expected - got:
                assert any(region.contains(oracle.objects[key].attrs) for region in resp.missing)
            incomplete += not resp.complete
        assert 0 < incomplete < len(res.journal.queries)

    def test_negative_control_recheck_disabled_fails_with_type2(self):
        doc = minimal_topology(debug={"disable_recheck": True})
        report = validate_scenario(doc, delete_heavy_workload(), seed=13)
        assert report.type2_violations, "recheck disabled must surface stale results"
        assert not report.ok

    def test_recheck_enabled_same_workload_is_clean(self):
        report = validate_scenario(minimal_topology(), delete_heavy_workload(), seed=13)
        assert report.ok
        assert report.type2_violations == []

    def test_type2_records_reach_the_stream_only_without_recheck(self):
        def type2_records(doc):
            res = run_scenario(doc, delete_heavy_workload(), seed=13)
            return [r for r in parse_ndjson(res.sink.to_ndjson()) if r["type"] == "type2"]

        stale = type2_records(minimal_topology(debug={"disable_recheck": True}))
        assert stale
        for r in stale:
            assert r["qpu"] == "iq" and r["violations"] and len(r["violations"]) <= r["entries"]
        assert type2_records(minimal_topology()) == []


class TestCli:
    def run_cli(self, *argv):
        return cli_main(list(argv))

    def test_scenario_emit_and_check_config(self, tmp_path, capsys):
        assert self.run_cli("scenario", "cdn", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "cdn-topology.json" in out
        assert self.run_cli("check-config", "--topology", str(tmp_path / "cdn-topology.json")) == 0

    def test_run_writes_metrics(self, tmp_path, capsys):
        write_scenario("single-index", tmp_path)
        code = self.run_cli(
            "run",
            "--topology", str(tmp_path / "single-index-topology.json"),
            "--workload", str(tmp_path / "single-index-workload.json"),
            "--seed", "4",
            "--out", str(tmp_path / "metrics.ndjson"),
        )
        assert code == 0
        assert (tmp_path / "metrics.ndjson").exists()
        assert '"queries"' in capsys.readouterr().out

    def test_validate_exit_codes(self, tmp_path, capsys):
        write_scenario("single-index", tmp_path)
        code = self.run_cli(
            "validate",
            "--topology", str(tmp_path / "single-index-topology.json"),
            "--workload", str(tmp_path / "single-index-workload.json"),
            "--seed", "4",
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_bad_config_exits_1(self, tmp_path, capsys):
        bad = minimal_topology()
        bad["qpus"][1]["region"] = {"colour": [0, 1]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert self.run_cli("check-config", "--topology", str(path)) == 1
        assert "config error" in capsys.readouterr().err

    def _check_config(self, tmp_path, topology, workload=None):
        argv = ["check-config", "--topology", str(tmp_path / "topology.json")]
        (tmp_path / "topology.json").write_text(json.dumps(topology))
        if workload is not None:
            (tmp_path / "workload.json").write_text(json.dumps(workload))
            argv += ["--workload", str(tmp_path / "workload.json")]
        return self.run_cli(*argv)

    @pytest.mark.parametrize("field", ["t_split", "t_merge", "window_buckets", "bucket_ms", "period_buckets"])
    def test_non_numeric_adaptive_field_is_config_error(self, tmp_path, capsys, field):
        doc = minimal_topology(adaptive={"enabled": True, field: "many"})
        assert self._check_config(tmp_path, doc) == 1
        assert f"config error: adaptive.{field}: must be an integer, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path,flags",
        [
            ("dcs[0].full_replica", {"dcs": [{"id": "dc1", "node": "n1", "full_replica": "false"}]}),
            ("adaptive.enabled", {"adaptive": {"enabled": "no"}}),
            ("adaptive.rebalance", {"adaptive": {"rebalance": 1}}),
            ("debug.disable_recheck", {"debug": {"disable_recheck": "yes"}}),
        ],
    )
    def test_non_boolean_flag_is_config_error(self, tmp_path, capsys, path, flags):
        assert self._check_config(tmp_path, minimal_topology(**flags)) == 1
        assert f"config error: {path}: must be true or false, got " in capsys.readouterr().err

    def test_absent_flags_keep_their_defaults(self):
        cfg = parse_topology(minimal_topology())
        assert cfg.dcs[0].full_replica is True
        assert cfg.adaptive.enabled is False and cfg.adaptive.rebalance is False
        assert cfg.disable_recheck is False

    def test_check_config_accepts_a_valid_workload(self, tmp_path, capsys):
        assert self._check_config(tmp_path, minimal_topology(), shaped_workload()) == 0
        assert "configuration OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field,path",
        [
            ("duration", "phases[0].duration"),
            ("key_space", "phases[0].key_space"),
            ("write_rate", "phases[0].write_rate"),
            ("query_rate", "phases[0].query_rate"),
            ("delete_fraction", "phases[0].delete_fraction"),
            ("selectivity", "phases[0].query_shapes[0].selectivity"),
            ("weight", "phases[0].query_shapes[0].weight"),
        ],
    )
    def test_non_numeric_workload_field_is_config_error(self, tmp_path, capsys, field, path):
        doc = shaped_workload()
        phase = doc["phases"][0]
        (phase["query_shapes"][0] if "query_shapes" in path else phase)[field] = "long"
        assert self._check_config(tmp_path, minimal_topology(), doc) == 1
        err = capsys.readouterr().err
        assert f"config error: {path}: must be " in err and "got 'long'" in err

    @pytest.mark.parametrize(
        "dist,error",
        [
            ({"dist": "uniform", "lo": 0, "hi": 5}, "phases[0].attributes.genre: uniform needs a numeric attribute, 'genre' is text"),
            ({"dist": "zipf", "s": 1.2, "n": 5}, "phases[0].attributes.genre: zipf needs an int attribute, 'genre' is text"),
            ({"dist": "choice", "values": ["rock", 2]}, "phases[0].attributes.genre.values[1]: expected a text value, got 2"),
        ],
        ids=["uniform", "zipf", "choice"],
    )
    def test_distribution_of_another_kind_is_config_error(self, tmp_path, capsys, dist, error):
        """A distribution must draw values of its attribute's kind; before
        this check, a run raised from the sampler or rejected every write."""
        doc = zero_rate_workload()
        doc["phases"][0]["attributes"]["genre"] = dist
        assert self._check_config(tmp_path, minimal_topology(), doc) == 1
        assert f"config error: {error}" in capsys.readouterr().err

    def test_fractional_uniform_bounds_on_an_int_attribute_are_config_errors(self, tmp_path, capsys):
        """Before this check, the run raised `empty range for randrange()`."""
        doc = zero_rate_workload()
        doc["phases"][0]["attributes"]["size"] = {"dist": "uniform", "lo": 0.2, "hi": 0.7}
        assert self._check_config(tmp_path, minimal_topology(), doc) == 1
        err = capsys.readouterr().err
        assert "config error: phases[0].attributes.size.lo: expected a int value, got 0.2" in err
        assert "config error: phases[0].attributes.size.hi: expected a int value, got 0.7" in err

    @pytest.mark.parametrize(
        "dist,error",
        [
            ({"dist": "zipf", "s": 1.1, "n": 5, "lo": 2**63}, "size.lo: integer out of 64-bit range"),
            ({"dist": "zipf", "s": 1.1, "n": 5, "lo": 2**63 - 2}, "size: greatest draw lo + n - 1: integer out of 64-bit range"),
            ({"dist": "uniform", "lo": 0, "hi": 2**64}, "size.hi: integer out of 64-bit range"),
            ({"dist": "uniform", "lo": -(2**63) - 1, "hi": 0}, "size.lo: integer out of 64-bit range"),
        ],
        ids=["zipf-lo", "zipf-greatest", "uniform-hi", "uniform-lo"],
    )
    def test_int_draws_beyond_int64_are_config_errors(self, tmp_path, capsys, dist, error):
        """Before this check, ingest rejected every write the run drew."""
        doc = zero_rate_workload()
        doc["phases"][0]["attributes"]["size"] = dist
        assert self._check_config(tmp_path, minimal_topology(), doc) == 1
        assert f"config error: phases[0].attributes.{error}" in capsys.readouterr().err

    def test_int_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys):
        """Before this check, parse_topology raised a bare OverflowError."""
        doc = minimal_topology(attributes=[{"name": "size", "kind": "float"}, {"name": "genre", "kind": "text"}])
        doc["dcs"][0]["placement"] = {"size": [0, 10**400]}
        assert self._check_config(tmp_path, doc) == 1
        assert "config error: dcs[0].placement.size[1]: integer beyond the float range" in capsys.readouterr().err

    def test_uniform_width_beyond_the_float_range_is_a_config_error(self, tmp_path, capsys):
        topology = minimal_topology(attributes=[{"name": "size", "kind": "float"}, {"name": "genre", "kind": "text"}])
        doc = zero_rate_workload()
        doc["phases"][0]["attributes"]["size"] = {"dist": "uniform", "lo": -1.5e308, "hi": 1.5e308}
        assert self._check_config(tmp_path, topology, doc) == 1
        assert "config error: phases[0].attributes.size: uniform width hi - lo is beyond the float range" in capsys.readouterr().err

    def test_adaptive_root_with_a_connection_is_config_error(self, tmp_path, capsys):
        """adaptive-skew with iq over size < 100 routing size >= 100 to iq2.
        A split replaced iq's connections with its children, and a merge
        cleared them, so the route to iq2 was gone for good: validate found
        347 key-set mismatches at seed 0 on queries uniform over 0-200."""
        topology, workload = scenario("adaptive-skew")
        topology["qpus"][1]["region"] = {"size": [None, 100]}
        topology["qpus"].append(
            {"id": "iq2", "class": "index", "node": "query", "region": {"size": [100, None]}, "recheck_dc": "dc1"}
        )
        topology["qpus"][0]["targets"].append({"qpu": "iq2"})
        topology["connections"] = [{"from": "iq", "to": "iq2"}]
        assert self._check_config(tmp_path, topology, workload) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: adaptive: root 'iq' has a connection to 'iq2', which a split would drop"
        ]
        topology["adaptive"]["roots"] = []  # every index QPU is a root, iq2 too
        assert self._check_config(tmp_path, topology, workload) == 1
        assert "root 'iq' has a connection to 'iq2'" in capsys.readouterr().err

    def test_replica_cache_pulling_from_an_adaptive_root_is_config_error(self, tmp_path, capsys):
        """client-cache with mq adaptive. A split cleared mq's index, and mq
        still answered pulls, so rc1 installed an empty snapshot: at seed 0,
        with mq also queried at 4x the rate, rc1 answered all its queries
        from 9.0 to 12 s with 0 rows marked complete, while mq answered 2-90."""
        topology, workload = scenario("client-cache")
        topology["adaptive"] = {"enabled": True, "roots": ["mq"], "t_split": 20, "t_merge": 5}
        assert self._check_config(tmp_path, topology, workload) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: qpus[7](rc1): a replica cache cannot pull from adaptive root 'mq'",
            "config error: qpus[8](rc2): a replica cache cannot pull from adaptive root 'mq'",
        ]
        topology["adaptive"]["roots"] = ["iq1"]
        assert self._check_config(tmp_path, topology, workload) == 0

    def test_full_replica_with_a_placement_is_config_error(self, tmp_path, capsys):
        """cdn with dc1 given a placement. Its replica held only the
        placement while recheck and validate's oracle took it as full, and
        validate_scenario at seed 0 failed with `replicas converged: NO`."""
        topology, workload = scenario("cdn")
        topology["dcs"][0]["placement"] = {"size": [0, 100]}
        assert self._check_config(tmp_path, topology, workload) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: dcs[0].placement: a full replica holds every object and takes no placement"
        ]
        del topology["dcs"][0]["placement"]
        assert self._check_config(tmp_path, topology, workload) == 0

    def test_filter_on_a_partial_dc_feeding_beyond_its_placement_is_config_error(self, tmp_path, capsys):
        """single-index with its filter moved to an edge DC e1 that holds
        size < 100, still feeding the full-region iq. A partial DC logs no op
        for a key it does not hold, so iq never got the writes above its
        placement: validate found 75 key-set mismatches at seed 0 and 93 at
        seed 1. A target region inside the placement is accepted."""
        topology, workload = scenario("single-index")
        topology["nodes"].append({"id": "edge"})
        topology["links"] += [
            {"from": "storage", "to": "edge", "base_latency": 3},
            {"from": "query", "to": "edge", "base_latency": 3},
        ]
        topology["dcs"].append({"id": "e1", "node": "edge", "full_replica": False, "placement": {"size": [None, 100]}})
        topology["qpus"][0].update(dc="e1", node="edge")
        assert self._check_config(tmp_path, topology, workload) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: qpus[0](flt).targets[0]: region is not inside the placement of partial DC 'e1'"
        ]
        topology["qpus"][0]["targets"][0]["region"] = {"size": [0, 100]}
        assert self._check_config(tmp_path, topology, workload) == 0

    def test_replica_cache_pulling_from_a_federation_is_config_error(self, tmp_path, capsys):
        """client-cache with rc2 pulling through a federation in front of mq.
        While a replica cache pulled from its one connection, check-config
        accepted rc2 -> fed -> mq, and the run aborted at seed 0 with
        `TypeError: fed got unexpected SnapshotRequest`."""
        topology, workload = scenario("client-cache")
        topology["qpus"].append({"id": "fed", "class": "federation", "node": "core1", "recheck_dc": "dc1"})
        i = next(i for i, q in enumerate(topology["qpus"]) if q["id"] == "rc2")
        topology["qpus"][i]["pull_from"] = "fed"
        topology["connections"] = [{"from": "fed", "to": "mq"}]
        assert self._check_config(tmp_path, topology, workload) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: qpus[{i}](rc2).pull_from: 'fed' is not an indexing QPU"
        ]

    def test_replica_cache_with_a_connection_is_config_error(self, tmp_path, capsys):
        topology, workload = scenario("client-cache")
        topology["connections"] = [{"from": "rc1", "to": "mq"}]
        assert self._check_config(tmp_path, topology, workload) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: qpus[7](rc1): a replica cache answers from what it pulls and takes no connections"
        ]

    def test_replica_cache_pulling_over_no_link_is_config_error(self, tmp_path, capsys):
        topology = cache_topology(pull_from="iq", pull_interval=400)
        topology["nodes"].append({"id": "n3"})
        topology["links"].append({"from": "n1", "to": "n3", "base_latency": 5})
        topology["qpus"][-1]["node"] = "n3"
        assert self._check_config(tmp_path, topology) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: qpus[2](cq).pull_from: no link between nodes of 'cq' and 'iq'"
        ]

    @pytest.mark.parametrize(
        "doc,keys",
        [
            ("topology", ("nodes", 0, "id")),
            ("topology", ("links", 0, "from")),
            ("topology", ("links", 0, "to")),
            ("topology", ("dcs", 0, "id")),
            ("topology", ("dcs", 0, "node")),
            ("topology", ("qpus", 1, "id")),
            ("topology", ("qpus", 1, "node")),
            ("topology", ("qpus", 0, "dc")),
            ("topology", ("qpus", 0, "targets", 0, "qpu")),
            ("topology", ("qpus", 1, "recheck_dc")),
            ("topology", ("qpus", 1, "push_to")),
            ("topology", ("qpus", 2, "pull_from")),
            ("topology", ("connections", 0, "from")),
            ("topology", ("connections", 0, "to")),
            ("topology", ("adaptive", "roots", 0)),
            ("workload", ("phases", 0, "write_origin", "dcs", 0)),
            ("workload", ("phases", 0, "query_origin", 0)),
        ],
        ids=lambda v: v if isinstance(v, str) else ".".join(map(str, v)),
    )
    def test_list_valued_id_is_config_error(self, tmp_path, capsys, doc, keys):
        """Each of these raised `TypeError: unhashable type: 'list'` from a
        set-membership test instead of naming the field."""
        topology, workload = self.every_field()
        assert self._check_config(tmp_path, topology, workload) == 0
        capsys.readouterr()
        *outer, last = keys
        holder = {"topology": topology, "workload": workload}[doc]
        for key in outer:
            holder = holder[key]
        bad = [holder[last]]
        holder[last] = bad
        path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys).lstrip(".")
        if keys[0] == "qpus" and keys[2] != "id":  # a QPU with a string id is named by it
            head = f"qpus[{keys[1]}]"
            path = path.replace(head, f"{head}({topology['qpus'][keys[1]]['id']})", 1)
        assert self._check_config(tmp_path, topology, workload) == 1
        assert f"config error: {path}: must be a string id, got {bad!r}" in capsys.readouterr().err.splitlines()

    def test_entities_after_a_dropped_one_keep_their_document_index(self, tmp_path, capsys):
        """A QPU left out for a bad id shifts the ones after it in the
        parsed list, not in the document, and the lines name them there."""
        doc = minimal_topology()
        doc["qpus"].insert(0, {"id": ["x"], "class": "index", "node": "n1"})
        doc["qpus"][2]["node"] = "nowhere"
        assert self._check_config(tmp_path, doc) == 1
        lines = capsys.readouterr().err.splitlines()
        assert "config error: qpus[0].id: must be a string id, got ['x']" in lines
        assert any(line.startswith("config error: qpus[1](flt).targets[0]: ") for line in lines)
        assert "config error: qpus[2](iq).node: unknown node 'nowhere'" in lines

    def test_phases_after_a_dropped_one_keep_their_document_index(self):
        with pytest.raises(ConfigError) as info:
            parse_workload({"phases": ["x", {"duration": -1, "query_shapes": [3, {"weight": -1}]}]})
        assert info.value.errors == [
            "phases[0]: must be a map, got 'x'",
            "phases[1].query_shapes[0]: must be a map, got 3",
            "phases[1].duration: must be positive",
            "phases[1].query_shapes[1].attrs: must name at least one attribute",
            "phases[1].query_shapes[1].weight: must be positive",
        ]

    @staticmethod
    def every_field():
        """A valid topology and workload that use every id and container
        field check-config reads."""
        topology = cache_topology(pull_from="iq", pull_interval=400)
        topology["qpus"][1]["push_to"] = "mq"
        topology["qpus"] += [
            {"id": "mq", "class": "merge", "node": "n2", "region": {}, "recheck_dc": "dc1"},
            {"id": "fq", "class": "federation", "node": "n2", "recheck_dc": "dc1"},
        ]
        topology["qpus"][0]["targets"][0]["region"] = {"size": [0, None]}
        topology["dcs"].append({"id": "dc2", "node": "n1", "full_replica": False, "placement": {"size": [0, 10]}})
        topology["connections"] = [{"from": "fq", "to": "iq", "coverage": {"size": [None, 50]}}]
        topology["adaptive"] = {"enabled": True, "roots": ["mq"]}
        topology["debug"] = {"disable_recheck": False}
        workload = shaped_workload()
        workload["phases"][0].update(write_rate=5, write_origin={"dcs": ["dc1"]}, query_rate=5, query_origin=["fq"])
        return topology, workload

    PROBES = [
        # misspelled keys, and keys the entity does not read
        ("topology", ("qpus", 2, "pull_intervall"), 400, "qpus[2](cq).pull_intervall: not a cache key"),
        ("topology", ("adaptive", "t_splitt"), 250, "adaptive.t_splitt: not an adaptive key"),
        ("topology", ("nodes", 0, "capcity"), 2, "nodes[0].capcity: not a node key"),
        ("workload", ("phases", 0, "write_rat"), 5, "phases[0].write_rat: not a phase key"),
        ("workload", ("phases", 0, "query_shapes", 0, "selectivty"), 0.2, "phases[0].query_shapes[0].selectivty: not a query shape key"),
        ("workload", ("phases", 0, "attributes", "size", "hgh"), 20, "phases[0].attributes.size.hgh: not a uniform key"),
        ("topology", ("attributes", 0, "knd"), "int", "attributes[0].knd: not an attribute key"),
        ("topology", ("qpus", 0, "recheck_dc"), "dc1", "qpus[0](flt).recheck_dc: not a filter key"),
        ("topology", ("qpus", 1, "pull_from"), "mq", "qpus[1](iq).pull_from: not an index key"),
        ("topology", ("qpus", 0, "timeout"), 100, "qpus[0](flt).timeout: not a filter key"),
        ("topology", ("colour",), "red", "colour: not a topology key"),
        ("workload", ("colour",), "red", "colour: not a workload key"),
        # values int() or float() would coerce
        ("topology", ("links", 0, "base_latency"), "5", "links[0].base_latency: must be an integer, got '5'"),
        ("topology", ("links", 0, "base_latency"), 2.9, "links[0].base_latency: must be an integer, got 2.9"),
        ("workload", ("phases", 0, "key_space"), 2.5, "phases[0].key_space: must be an integer, got 2.5"),
        ("workload", ("phases", 0, "duration"), "100", "phases[0].duration: must be an integer, got '100'"),
        ("topology", ("adaptive", "t_split"), 250.7, "adaptive.t_split: must be an integer, got 250.7"),
        ("workload", ("seed",), 3.7, "seed: must be an integer, got 3.7"),
        ("workload", ("phases", 0, "write_rate"), True, "phases[0].write_rate: must be a number, got True"),
        # a second link between one pair of nodes, in either order
        ("topology", ("links", 1), {"from": "n1", "to": "n2", "base_latency": 7}, "links[1]: duplicate link between 'n1' and 'n2'"),
        ("topology", ("links", 1), {"from": "n2", "to": "n1", "base_latency": 7}, "links[1]: duplicate link between 'n2' and 'n1'"),
        # a filter target listed twice, whose index would get each write twice
        ("topology", ("qpus", 0, "targets", 1), {"qpu": "iq"}, "qpus[0](flt).targets[1]: duplicate target 'iq'"),
    ]

    @pytest.mark.parametrize("doc,keys,value,error", PROBES, ids=[error.split(":")[0] + f"={v!r}" for _d, _k, v, error in PROBES])
    def test_misread_document_is_config_error(self, tmp_path, capsys, doc, keys, value, error):
        """Each of these was accepted: the key ignored, the value truncated
        or converted, the first link replaced by the second, or a filter's
        writes sent to one index twice."""
        topology, workload = self.every_field()
        *outer, last = keys
        holder = {"topology": topology, "workload": workload}[doc]
        for key in outer:
            holder = holder[key]
        if isinstance(holder, list):
            holder.append(value)
        else:
            holder[last] = value
        assert self._check_config(tmp_path, topology, workload) == 1
        assert f"config error: {error}" in capsys.readouterr().err.splitlines()

    def test_every_declared_key_renamed_is_reported(self, monkeypatch):
        """Renaming any declared key that every_field uses to `<key>x` gives
        that key's `not a ... key` line, and a required key's `missing` line.
        The entities and their keys come from the declarations as
        parse_topology and parse_workload read them."""
        reads = []
        entity = config._Reader.entity

        def recording(reader, cls, raw, path):
            spec = entity(reader, cls, raw, path)
            if isinstance(raw, dict):
                reads.append((raw, path, reader.label(cls, raw, path), config._declared(cls, raw)))
            return spec

        def errors(topology, workload):
            reads.clear()
            try:
                parse_workload(workload, parse_topology(topology))
            except ConfigError as exc:
                return exc.errors
            return []

        monkeypatch.setattr(config._Reader, "entity", recording)
        topology, workload = self.every_field()
        assert errors(topology, workload) == []
        entities = list(reads)
        assert len(entities) > 20
        renamed = 0
        for raw, path, _label, (_name, keys, known) in entities:
            for key in [key for key in raw if key in known]:
                items = list(raw.items())
                raw[key + "x"] = raw.pop(key)
                lines = errors(topology, workload)
                label, name = next((label, d[0]) for r, _p, label, d in reads if r is raw)
                where = f"{label}.{key}" if label else key
                assert any(f"{where}x: not {a} {name} key" in lines for a in ("a", "an")), (where, lines)
                if keys[key][2]:
                    assert f"{where}: missing" in lines, (where, lines)
                raw.clear()
                raw.update(items)
                renamed += 1
        assert renamed > 60

    def test_any_value_in_any_place_is_read_or_reported(self):
        """Every value of every_field's documents, replaced in turn by each
        value below, either parses or gives config errors. 25 of these 927
        documents raised a TypeError instead: a null id, an attribute name
        that is not a string, or such a name in a query shape's attrs."""

        def places(doc, path=()):
            items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
            for key, value in items:
                yield path + (key,)
                yield from places(value, path + (key,))

        topology, workload = self.every_field()
        failures = []
        for doc in (topology, workload):
            for *outer, last in list(places(doc)):
                holder = doc
                for key in outer:
                    holder = holder[key]
                value = holder[last]
                for bad in (None, -1, 2.5, 10**400, float("nan"), True, "x", ["x"], {"a": 1}):
                    holder[last] = bad
                    try:
                        parse_workload(workload, parse_topology(topology))
                    except ConfigError:
                        pass
                    except Exception as exc:  # anything else escapes check-config as a traceback
                        failures.append(((*outer, last), bad, repr(exc)))
                holder[last] = value
        assert failures == []

    @pytest.mark.parametrize("command", ["run", "validate", "scenario", "check-config"])
    def test_non_integer_env_seed(self, tmp_path, monkeypatch, capsys, command):
        """A QPUSIM_SEED that is no integer is a config error where a run
        reads it, and is not read by the commands that take no seed; before,
        every command raised a ValueError."""
        write_scenario("single-index", tmp_path)
        monkeypatch.setenv("QPUSIM_SEED", "abc")
        configs = ["--topology", str(tmp_path / "single-index-topology.json")]
        args = {
            "run": ["run", *configs, "--workload", str(tmp_path / "single-index-workload.json"), "--out", str(tmp_path / "m.ndjson")],
            "validate": ["validate", *configs, "--workload", str(tmp_path / "single-index-workload.json")],
            "scenario": ["scenario", "cdn"],
            "check-config": ["check-config", *configs],
        }[command]
        capsys.readouterr()
        if command in ("run", "validate"):
            assert self.run_cli(*args) == 1
            assert capsys.readouterr().err.splitlines() == ["config error: QPUSIM_SEED: must be an integer, got 'abc'"]
        else:
            assert self.run_cli(*args) == 0

    WRONG_SHAPES = [
        ("topology", ("qpus", 0, "targets"), 5, "qpus[0](flt).targets: must be a list, got 5"),
        ("topology", ("qpus", 1, "region"), [1, 2], "qpus[1](iq).region: must be a map, got [1, 2]"),
        ("topology", ("qpus", 0, "targets", 0, "region"), 5, "qpus[0](flt).targets[0].region: must be a map, got 5"),
        ("topology", ("dcs", 1, "placement"), [0, 10], "dcs[1].placement: must be a map, got [0, 10]"),
        ("topology", ("connections", 0, "coverage"), [], "connections[0].coverage: must be a map, got []"),
        *[
            ("topology", (key,), [5], f"{key}[0]: must be a map, got 5")
            for key in ("nodes", "links", "dcs", "qpus", "connections", "attributes")
        ],
        ("topology", ("adaptive",), 5, "adaptive: must be a map, got 5"),
        ("topology", ("adaptive",), [], "adaptive: must be a map, got []"),
        ("topology", ("adaptive", "roots"), "mq", "adaptive.roots: must be a list, got 'mq'"),
        ("topology", ("debug",), 5, "debug: must be a map, got 5"),
        ("topology", (), [], "topology: must be a map, got []"),
        ("workload", ("phases",), 5, "phases: must be a list, got 5"),
        ("workload", ("phases",), [5], "phases[0]: must be a map, got 5"),
        ("workload", ("phases", 0, "attributes"), 5, "phases[0].attributes: must be a map, got 5"),
        ("workload", ("phases", 0, "attributes"), [], "phases[0].attributes: must be a map, got []"),
        ("workload", ("phases", 0, "attributes", "size"), 5, "phases[0].attributes.size: must be a map, got 5"),
        ("workload", ("phases", 0, "query_shapes"), [5], "phases[0].query_shapes[0]: must be a map, got 5"),
        ("workload", ("phases", 0, "query_shapes", 0, "attrs"), 5, "phases[0].query_shapes[0].attrs: must be a list, got 5"),
        ("workload", ("phases", 0, "write_origin"), 5, "phases[0].write_origin: must be a map, got 5"),
        ("workload", ("phases", 0, "write_origin"), [], "phases[0].write_origin: must be a map, got []"),
        ("workload", ("phases", 0, "write_origin", "dcs"), "dc1", "phases[0].write_origin.dcs: must be a list, got 'dc1'"),
        ("workload", ("phases", 0, "query_origin"), "fq", "phases[0].query_origin: must be a list, got 'fq'"),
        ("workload", (), [], "workload: must be a map, got []"),
        # keys None: the file itself holds the text `bad`, or is a directory when bad is None
        ("topology", None, "{", "topology.json: not a JSON document: "),
        ("topology", None, None, "topology.json: Is a directory"),
        ("workload", None, "[1,", "workload.json: not a JSON document: "),
        ("workload", None, None, "workload.json: Is a directory"),
    ]

    @pytest.mark.parametrize(
        "doc,keys,bad,error", WRONG_SHAPES, ids=[f"{doc}-{error.split(':')[0]}-{bad!r}" for doc, _k, bad, error in WRONG_SHAPES]
    )
    def test_container_of_the_wrong_shape_is_config_error(self, tmp_path, capsys, doc, keys, bad, error):
        """Each of these raised a TypeError, an AttributeError or a
        JSONDecodeError, or, for a string where a list belongs, read its
        characters as ids."""
        docs = dict(zip(("topology", "workload"), self.every_field()))
        if keys == ():
            docs[doc] = bad
        elif keys:
            *outer, last = keys
            holder = docs[doc]
            for key in outer:
                holder = holder[key]
            holder[last] = bad
        argv = ["check-config"]
        for name, content in docs.items():
            path = tmp_path / f"{name}.json"
            if keys is None and name == doc:
                path.mkdir() if bad is None else path.write_text(bad)
            else:
                path.write_text(json.dumps(content))
            argv += [f"--{name}", str(path)]
        assert self.run_cli(*argv) == 1
        expected = f"config error: {tmp_path / error if keys is None else error}"
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith(expected) for line in err), err

    def test_null_optional_map_reads_as_absent(self, tmp_path, capsys):
        topology, workload = self.every_field()
        topology["adaptive"] = None
        workload["phases"][0].update(attributes=None, write_origin=None, write_rate=0, query_rate=0, query_shapes=[])
        assert self._check_config(tmp_path, topology, workload) == 0

    def test_missing_file_exits_1(self, capsys):
        assert self.run_cli("check-config", "--topology", "/nonexistent.json") == 1

    @pytest.mark.parametrize("command", ["run", "scenario"])
    def test_unwritable_output_exits_1(self, tmp_path, capsys, command):
        """An output path that cannot be written is reported, not raised."""
        write_scenario("single-index", tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        if command == "run":
            args = [
                "run",
                "--topology", str(tmp_path / "single-index-topology.json"),
                "--workload", str(tmp_path / "single-index-workload.json"),
                "--out", str(tmp_path / "missing" / "m.ndjson"),
            ]
        else:
            args = ["scenario", "cdn", "--out", str(blocker / "dir")]
        capsys.readouterr()
        assert self.run_cli(*args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("cannot write output: "), err

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch, capsys):
        write_scenario("single-index", tmp_path)
        monkeypatch.setenv("QPUSIM_SEED", "77")
        args = [
            "run",
            "--topology", str(tmp_path / "single-index-topology.json"),
            "--workload", str(tmp_path / "single-index-workload.json"),
            "--out", str(tmp_path / "env.ndjson"),
        ]
        assert self.run_cli(*args) == 0
        env_metrics = (tmp_path / "env.ndjson").read_text()
        assert '"seed":"77"' in env_metrics.splitlines()[0]
        # explicit flag wins over the environment
        assert self.run_cli(*args, "--seed", "5") == 0
        assert '"seed":"5"' in (tmp_path / "env.ndjson").read_text().splitlines()[0]
