"""Config validation, scenario runs, metrics determinism, oracle validation
mode and its negative control, and the CLI contract."""

import hashlib
import json

import pytest

from qpusim.cli import main as cli_main
from qpusim.config import ConfigError, parse_topology, parse_workload
from qpusim.metrics import parse_ndjson, summarize
from qpusim.runner import run_scenario, validate_scenario
from qpusim.scenarios import SCENARIOS, scenario, write_scenario


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

    def test_errors_accumulate_with_paths(self):
        doc = minimal_topology()
        doc["qpus"][1]["region"] = {"colour": [0, 1], "size": [9, 3]}
        doc["links"][0]["base_latency"] = 0
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert len(err.value.errors) >= 3


def cache_topology(**cache_params):
    """minimal_topology plus a cache in front of the index."""
    doc = minimal_topology(connections=[{"from": "cq", "to": "iq"}])
    doc["qpus"].append({"id": "cq", "class": "cache", "node": "n2", "recheck_dc": "dc1", **cache_params})
    return doc


class TestQpuParameterValidation:
    """Parameters that would fail only at run time are rejected at parse time."""

    def _rejected(self, doc, field):
        with pytest.raises(ConfigError) as err:
            parse_topology(doc)
        assert field in str(err.value)

    def test_valid_replica_and_response_caches_accepted(self):
        parse_topology(cache_topology(mode="replica", pull_interval=400))
        parse_topology(cache_topology(capacity=64, ttl=2.5, timeout=100))

    def test_replica_cache_without_pull_interval_rejected(self):
        self._rejected(cache_topology(mode="replica"), "pull_interval")

    def test_replica_cache_zero_pull_interval_rejected(self):
        # accepted, it would reschedule its pull at the same instant forever
        self._rejected(cache_topology(mode="replica", pull_interval=0), "pull_interval")

    def test_replica_cache_negative_pull_interval_rejected(self):
        self._rejected(cache_topology(mode="replica", pull_interval=-5), "pull_interval")

    def test_replica_cache_non_numeric_pull_interval_rejected(self):
        self._rejected(cache_topology(mode="replica", pull_interval="400"), "pull_interval")

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


# sha256 of run_scenario(...).sink.to_ndjson() for each bundled scenario at
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
        "4354cc9032b69ab48391156a9be5db6c3a5ec1a8b1160e1630c8c4d018ba0d07",
        "c50372718d4081345767b05318de77a11142f3f3e63e02291d7f9f8d1eb0a2e3",
        "f07f7f899f5c0d8afcabd20ce532f18ccededb770be1726f4ec1bbd0902486c1",
    ),
}


@pytest.mark.parametrize("seed_index", range(len(GOLDEN_SEEDS)), ids=[f"seed{s}" for s in GOLDEN_SEEDS])
@pytest.mark.parametrize("name", SCENARIOS)
def test_metrics_stream_matches_golden_hash(name, seed_index):
    t, w = scenario(name)
    res = run_scenario(t, w, seed=GOLDEN_SEEDS[seed_index])
    digest = hashlib.sha256(res.sink.to_ndjson().encode()).hexdigest()
    assert digest == GOLDEN_NDJSON_SHA256[name][seed_index]


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


class TestValidateMode:
    def test_bundled_scenarios_pass(self):
        for name in ("single-index", "cdn", "client-cache"):
            t, w = scenario(name)
            report = validate_scenario(t, w, seed=13)
            assert report.ok, f"{name}: {report.describe()}"
            assert report.queries_checked >= 100

    def test_negative_control_recheck_disabled_fails_with_type2(self):
        doc = minimal_topology(debug={"disable_recheck": True})
        report = validate_scenario(doc, delete_heavy_workload(), seed=13)
        assert report.type2_violations, "recheck disabled must surface stale results"
        assert not report.ok

    def test_recheck_enabled_same_workload_is_clean(self):
        report = validate_scenario(minimal_topology(), delete_heavy_workload(), seed=13)
        assert report.ok
        assert report.type2_violations == []


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

    def test_missing_file_exits_1(self, capsys):
        assert self.run_cli("check-config", "--topology", "/nonexistent.json") == 1

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
