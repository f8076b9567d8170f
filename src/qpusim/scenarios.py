"""Bundled scenario configurations: a content-delivery network, client-side
caching with a merged global index, a single-index baseline, and the baseline
under adaptive re-partitioning with a skewed workload."""

from __future__ import annotations

import json
from pathlib import Path

SCENARIOS = ("single-index", "cdn", "client-cache", "adaptive-skew")

_ATTRIBUTES = [{"name": "size", "kind": "int"}, {"name": "genre", "kind": "text"}]

_BASE_DISTS = {
    "size": {"dist": "uniform", "lo": 0, "hi": 200},
    "genre": {"dist": "choice", "values": ["ambient", "blues", "classical", "disco", "electro", "folk", "grime", "house", "jazz", "metal", "opera", "pop", "rock", "soul", "techno", "waltz"]},
}

_BASE_SHAPES = [
    {"attrs": ["size"], "selectivity": 0.15, "weight": 3},
    {"attrs": ["size", "genre"], "selectivity": 0.3, "weight": 2},
    {"attrs": ["genre"], "selectivity": 0.0, "weight": 1},
]


def _phases(query_origin, write_origin, *, key_space=500):
    """Seed, churn and read phases sized for the oracle-equivalence check:
    500 distinct keys, 250 further mixed writes/deletes, 120 queries."""
    return [
        {
            "duration": 5000,
            "write_rate": 100.0,
            "key_space": key_space,
            "key_mode": "sequential",
            "attributes": _BASE_DISTS,
            "write_origin": write_origin,
        },
        {
            "duration": 4000,
            "write_rate": 62.5,
            "query_rate": 15.0,
            "delete_fraction": 0.25,
            "key_space": key_space,
            "attributes": _BASE_DISTS,
            "query_shapes": _BASE_SHAPES,
            "write_origin": write_origin,
            "query_origin": query_origin,
        },
        {
            "duration": 3000,
            "query_rate": 20.0,
            "key_space": key_space,
            "attributes": _BASE_DISTS,
            "query_shapes": _BASE_SHAPES,
            "query_origin": query_origin,
        },
    ]


def single_index() -> tuple[dict, dict]:
    topology = {
        "attributes": _ATTRIBUTES,
        "nodes": [{"id": "storage", "capacity": 100}, {"id": "query", "capacity": 100}],
        "links": [{"from": "storage", "to": "query", "base_latency": 5, "jitter": 2}],
        "dcs": [{"id": "dc1", "node": "storage"}],
        "qpus": [
            {"id": "flt", "class": "filter", "node": "storage", "dc": "dc1", "targets": [{"qpu": "iq"}]},
            {"id": "iq", "class": "index", "node": "query", "region": {}, "recheck_dc": "dc1"},
        ],
        "connections": [],
    }
    workload = {
        "phases": _phases(["iq"], {"mode": "fixed", "dcs": ["dc1"]}),
    }
    return topology, workload


def cdn() -> tuple[dict, dict]:
    edge1_region = {"genre": [None, "h"]}
    edge2_region = {"genre": ["h", "n"]}
    topology = {
        "attributes": _ATTRIBUTES,
        "nodes": [
            {"id": "core1", "capacity": 100},
            {"id": "core2", "capacity": 100},
            {"id": "edge1", "capacity": 40},
            {"id": "edge2", "capacity": 40},
        ],
        "links": [
            {"from": "core1", "to": "core2", "base_latency": 30, "jitter": 5},
            {"from": "core1", "to": "edge1", "base_latency": 20, "jitter": 5},
            {"from": "core1", "to": "edge2", "base_latency": 25, "jitter": 5},
            {"from": "core2", "to": "edge1", "base_latency": 25, "jitter": 5},
            {"from": "core2", "to": "edge2", "base_latency": 20, "jitter": 5},
            {"from": "edge1", "to": "edge2", "base_latency": 40, "jitter": 5},
        ],
        "dcs": [
            {"id": "dc1", "node": "core1"},
            {"id": "dc2", "node": "core2"},
            {"id": "e1", "node": "edge1", "full_replica": False, "placement": edge1_region},
            {"id": "e2", "node": "edge2", "full_replica": False, "placement": edge2_region},
        ],
        "qpus": [
            {"id": "ds1", "class": "ds", "node": "core1", "dc": "dc1"},
            {"id": "ds2", "class": "ds", "node": "core2", "dc": "dc2"},
            {"id": "cc1", "class": "cache", "node": "core1", "capacity": 256, "ttl": 2000, "recheck_dc": "dc1"},
            {"id": "cc2", "class": "cache", "node": "core2", "capacity": 256, "ttl": 2000, "recheck_dc": "dc2"},
            {"id": "iq1", "class": "index", "node": "edge1", "region": edge1_region, "recheck_dc": "e1"},
            {"id": "iq2", "class": "index", "node": "edge2", "region": edge2_region, "recheck_dc": "e2"},
            {"id": "fe1", "class": "filter", "node": "edge1", "dc": "e1", "targets": [{"qpu": "iq1"}]},
            {"id": "fe2", "class": "filter", "node": "edge2", "dc": "e2", "targets": [{"qpu": "iq2"}]},
            {"id": "fq", "class": "federation", "node": "edge1", "recheck_dc": "dc1"},
            {"id": "fc1", "class": "cache", "node": "edge1", "capacity": 128, "ttl": 2000, "recheck_dc": "dc1"},
            {"id": "fc2", "class": "cache", "node": "edge2", "capacity": 128, "ttl": 2000, "recheck_dc": "dc2"},
        ],
        "connections": [
            {"from": "fq", "to": "iq1", "coverage": edge1_region},
            {"from": "fq", "to": "iq2", "coverage": edge2_region},
            {"from": "fq", "to": "cc1", "coverage": {"genre": ["n", "t"]}},
            {"from": "fq", "to": "cc2", "coverage": {"genre": ["t", None]}},
            {"from": "cc1", "to": "ds1"},
            {"from": "cc2", "to": "ds2"},
            {"from": "fc1", "to": "fq"},
            {"from": "fc2", "to": "fq"},
        ],
    }
    workload = {
        "phases": _phases(["fc1", "fc2"], {"mode": "round_robin", "dcs": ["dc1", "dc2"]}),
    }
    return topology, workload


def client_cache() -> tuple[dict, dict]:
    placements = {
        "cdc1": {"size": [None, 70]},
        "cdc2": {"size": [70, 140]},
        "cdc3": {"size": [140, None]},
    }
    topology = {
        "attributes": _ATTRIBUTES,
        "nodes": [
            {"id": "c1", "capacity": 20},
            {"id": "c2", "capacity": 20},
            {"id": "c3", "capacity": 20},
            {"id": "core1", "capacity": 100},
            {"id": "core2", "capacity": 100},
        ],
        "links": [
            {"from": "c1", "to": "c2", "base_latency": 25, "jitter": 5},
            {"from": "c1", "to": "c3", "base_latency": 25, "jitter": 5},
            {"from": "c2", "to": "c3", "base_latency": 25, "jitter": 5},
            {"from": "c1", "to": "core1", "base_latency": 15, "jitter": 3},
            {"from": "c2", "to": "core1", "base_latency": 15, "jitter": 3},
            {"from": "c3", "to": "core1", "base_latency": 15, "jitter": 3},
            {"from": "c1", "to": "core2", "base_latency": 18, "jitter": 3},
            {"from": "c2", "to": "core2", "base_latency": 18, "jitter": 3},
            {"from": "c3", "to": "core2", "base_latency": 18, "jitter": 3},
            {"from": "core1", "to": "core2", "base_latency": 10, "jitter": 2},
        ],
        "dcs": [
            {"id": "cdc1", "node": "c1", "full_replica": False, "placement": placements["cdc1"]},
            {"id": "cdc2", "node": "c2", "full_replica": False, "placement": placements["cdc2"]},
            {"id": "cdc3", "node": "c3", "full_replica": False, "placement": placements["cdc3"]},
            {"id": "dc1", "node": "core1"},
            {"id": "dc2", "node": "core2"},
        ],
        "qpus": [
            {"id": "iq1", "class": "index", "node": "c1", "region": placements["cdc1"], "recheck_dc": "cdc1", "push_to": "mq"},
            {"id": "iq2", "class": "index", "node": "c2", "region": placements["cdc2"], "recheck_dc": "cdc2", "push_to": "mq"},
            {"id": "iq3", "class": "index", "node": "c3", "region": placements["cdc3"], "recheck_dc": "cdc3", "push_to": "mq"},
            {"id": "f1", "class": "filter", "node": "c1", "dc": "cdc1", "targets": [{"qpu": "iq1"}]},
            {"id": "f2", "class": "filter", "node": "c2", "dc": "cdc2", "targets": [{"qpu": "iq2"}]},
            {"id": "f3", "class": "filter", "node": "c3", "dc": "cdc3", "targets": [{"qpu": "iq3"}]},
            {"id": "mq", "class": "merge", "node": "core1", "region": {}, "recheck_dc": "dc1"},
            {"id": "rc1", "class": "cache", "node": "core1", "pull_from": "mq", "pull_interval": 400, "recheck_dc": "dc1"},
            {"id": "rc2", "class": "cache", "node": "core2", "pull_from": "mq", "pull_interval": 400, "recheck_dc": "dc2"},
        ],
        "connections": [],
    }
    workload = {
        "phases": _phases(
            ["rc1", "rc2"], {"mode": "by_placement", "dcs": ["cdc1", "cdc2", "cdc3"]}
        ),
    }
    return topology, workload


def adaptive_skew() -> tuple[dict, dict]:
    topology, _ = single_index()
    topology = json.loads(json.dumps(topology))  # deep copy
    topology["adaptive"] = {
        "enabled": True,
        "t_split": 60,
        "t_merge": 15,
        "window_buckets": 10,
        "bucket_ms": 100,
        "period_buckets": 5,
        "roots": ["iq"],
    }
    skew_dists = {
        "size": {"dist": "zipf", "s": 1.2, "n": 50, "lo": 0},
        "genre": _BASE_DISTS["genre"],
    }
    workload = {
        "phases": [
            {
                "duration": 3000,
                "write_rate": 100.0,
                "key_space": 300,
                "key_mode": "sequential",
                "attributes": _BASE_DISTS,
                "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
            },
            {
                "duration": 4000,
                "write_rate": 10.0,
                "query_rate": 150.0,
                "delete_fraction": 0.1,
                "key_space": 300,
                "attributes": skew_dists,
                "query_shapes": [{"attrs": ["size"], "selectivity": 0.02, "weight": 1}],
                "write_origin": {"mode": "fixed", "dcs": ["dc1"]},
                "query_origin": ["iq"],
            },
            {
                "duration": 3000,
                "query_rate": 2.0,
                "key_space": 300,
                "attributes": skew_dists,
                "query_shapes": [{"attrs": ["size"], "selectivity": 0.02, "weight": 1}],
                "query_origin": ["iq"],
            },
        ],
    }
    return topology, workload


_BUILDERS = {
    "single-index": single_index,
    "cdn": cdn,
    "client-cache": client_cache,
    "adaptive-skew": adaptive_skew,
}


def scenario(name: str) -> tuple[dict, dict]:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; have {', '.join(SCENARIOS)}") from None


def write_scenario(name: str, out_dir: str | Path) -> tuple[Path, Path]:
    topology, workload = scenario(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tpath = out / f"{name}-topology.json"
    wpath = out / f"{name}-workload.json"
    tpath.write_text(json.dumps(topology, indent=2) + "\n")
    wpath.write_text(json.dumps(workload, indent=2) + "\n")
    return tpath, wpath
