"""Shared helpers: a response-collecting client, query driving, recording a
replica's update feed, reading the metrics log, oracles over a posting
index's registry, a recheck wrapper that checks every row it keeps, and the
benchmark's workload configs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import qpusim.qpunet as qpunet
from qpusim.core import HyperRegion, Interval
from qpusim.qpunet import QueryMsg
from qpusim.simkernel import Actor


class Client(Actor):
    """Collects query responses addressed to it."""

    def __init__(self, actor_id="client"):
        self.actor_id = actor_id
        self.responses = {}
        self._n = 0

    def on_message(self, k, msg):
        if hasattr(msg, "qid"):
            self.responses[msg.qid] = msg

    def next_qid(self):
        self._n += 1
        return f"{self.actor_id}-q{self._n}"


class LogRecorder(Actor):
    """Keeps every log entry a replica sends it, in arrival order."""

    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.entries = []

    def on_message(self, k, msg):
        self.entries.append(msg)

    def ops(self):
        return [entry.op for entry in self.entries]


def record_log(k, replica):
    """Registers a recorder on the replica's node and subscribes it from
    position 0. Call it before the replica's first write, so the recorder
    sees every entry the replica appends. Entries arrive through the kernel
    at the time they are appended: run the kernel (`k.run_until(k.now)`
    delivers them and nothing sent over a link) before reading them."""
    recorder = LogRecorder(f"log@{replica.dc_id}")
    k.register(recorder, k.host_of(replica.dc_id))
    replica.subscribe(k, recorder.actor_id, 0)
    return recorder


def run_query(k, client, qpu_id, query, *, drain=True):
    """Sends a query from next to the target QPU and runs until the response
    arrives (or, with drain, until full quiescence)."""
    k.rebind(client.actor_id, k.host_of(qpu_id))
    qid = client.next_qid()
    k.schedule(k.now, qpu_id, QueryMsg(qid, query, client.actor_id))
    if drain:
        k.run_until_empty()
    else:
        for _ in range(1_000_000):
            if qid in client.responses or not k.step():
                break
    return client.responses[qid]


def records_of(k, record_type):
    """The records of one type in the log of the metrics sink attached to k;
    raises when none is attached, so an absence is never read from no log."""
    return [r for r in k.probes.metrics.records if r["type"] == record_type]


def control_actions(k, action):
    return [r for r in records_of(k, "control") if r["action"] == action]


@pytest.fixture
def audited_recheck(monkeypatch):
    """Wraps qpunet.recheck, the filter a QPU applies to a client query's
    answer before it responds: only the unit the client issued the query to
    rechecks, and a sub-query's answer is passed on as joined. The audit
    after a recheck is skipped, so this is what shows a stale row escaping
    an entry unit. Returns `calls`, the number of responses rechecked, and
    `bad`, each kept row that the replica does not hold at that key and
    version or that lies outside the query's region there at that instant.
    The region is checked dimension by dimension with Interval.contains,
    not with the compiled bounds recheck itself uses."""
    audit = SimpleNamespace(calls=0, bad=[])
    original = qpunet.recheck

    def inside(region, attrs):
        return all(iv.is_full or (name in attrs and iv.contains(attrs[name])) for name, iv in region.dims)

    def checked(entries, region, replica):
        out = original(entries, region, replica)
        audit.calls += 1
        for key, _attrs, version in out:
            obj = replica.objects.get(key)
            if obj is None or obj.version != version or not inside(region, obj.attrs):
                audit.bad.append((key, version))
        return out

    monkeypatch.setattr(qpunet, "recheck", checked)
    return audit


def rebuilt_postings(index):
    """A PostingIndex's posting maps recomputed from its registry alone
    (coherence oracle)."""
    indexed = index.region.attrs
    fresh = {a: {} for a in indexed}
    for key, attrs, _v in index.registry.values():
        for a in indexed:
            v = attrs.get(a)
            if v is not None:
                fresh[a].setdefault(v, set()).add(key)
    return fresh


def registry_bytes(index):
    """Canonical serialization of a PostingIndex's registry, for comparing
    converged indexes."""
    rows = []
    for key, attrs, version in sorted(index.registry.values()):  # keys are unique: sorts by key
        rows.append([key, sorted(attrs.items()), [version.ts, version.origin]])
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()


def make_region(**bounds):
    return HyperRegion.of({name: Interval(lo, hi) for name, (lo, hi) in bounds.items()})


@pytest.fixture
def client():
    return Client()


def benchmark_workloads():
    """The benchmark's workload module, benchmarks/workloads.py."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads
