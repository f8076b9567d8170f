"""Query routing: decomposition, federation, caching, timeouts, and the
locality of routing decisions."""

import random

import pytest

import qpusim.qpunet as qpunet
from qpusim.core import (
    Kind,
    Predicate,
    Query,
    Version,
    make_attrs,
    query_to_region,
    region_to_query,
)
from qpusim.indexing import FilterQpu, IndexQpu, IndexUpdate, StampedOp
from qpusim.qpunet import (
    CacheQpu,
    Connection,
    DsQpu,
    FederationQpu,
    QueryMsg,
    dedupe_entries,
    decompose,
)
from qpusim.simkernel import Actor, Kernel
from qpusim.store import PUT, ClientDelete, ClientWrite, DcReplica, WriteOp

from conftest import Client, make_region, run_query

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}
FULL = make_region(size=(None, None), genre=(None, None))


def q_size(lo, hi):
    return Query.of([Predicate.between("size", lo, hi)])


class TestDecompose:
    def test_single_neighbour_covering_everything(self):
        region = make_region(size=(0, 100), genre=(None, None))
        conns = [Connection("a", FULL)]
        plan, leftover = decompose(region, conns)
        assert [(c.to, piece) for c, piece in plan] == [("a", region)]
        assert leftover == []

    def test_region_straddles_two_children(self):
        region = make_region(size=(0, 100), genre=(None, None))
        conns = [
            Connection("a", make_region(size=(0, 50), genre=(None, None))),
            Connection("b", make_region(size=(50, 200), genre=(None, None))),
        ]
        plan, leftover = decompose(region, conns)
        assert [(c.to, piece) for c, piece in plan] == [
            ("a", make_region(size=(0, 50), genre=(None, None))),
            ("b", make_region(size=(50, 100), genre=(None, None))),
        ]
        assert leftover == []

    def test_random_region_vs_three_child_partition_grid_oracle(self):
        rng = random.Random(4)
        for _ in range(120):
            cuts = sorted(rng.sample(range(1, 20), 2))
            children = [
                Connection("c0", make_region(x=(None, cuts[0]), y=(None, None))),
                Connection("c1", make_region(x=(cuts[0], cuts[1]), y=(None, None))),
                Connection("c2", make_region(x=(cuts[1], None), y=(None, None))),
            ]
            if rng.random() < 0.3:
                children = children[:2]  # leave part of the space uncovered
            lo = rng.randrange(0, 18)
            region = make_region(x=(lo, lo + rng.randrange(1, 8)), y=(0, rng.randrange(1, 10)))
            plan, leftover = decompose(region, children)
            pieces = [p for _, p in plan]
            for x in range(-1, 25):
                for y in range(-1, 12):
                    attrs = make_attrs({"x": x, "y": y})
                    hits = sum(p.contains(attrs) for p in pieces)
                    left_hits = sum(p.contains(attrs) for p in leftover)
                    assert hits <= 1 and left_hits <= 1
                    in_region = region.contains(attrs)
                    in_cov = any(c.coverage.contains(attrs) for c in children)
                    assert bool(hits) == (in_region and in_cov)
                    assert bool(left_hits) == (in_region and not in_cov)


class TestDedupe:
    def test_max_version_survives(self):
        entries = [
            ("k", {"size": 1}, Version(3, "dc1")),
            ("k", {"size": 2}, Version(5, "dc2")),
            ("k", {"size": 0}, Version(4, "dc1")),
        ]
        out = dedupe_entries(entries)
        assert out == [("k", {"size": 2}, Version(5, "dc2"))]


def ds_net(seed=0):
    k = Kernel(seed=seed)
    k.add_node("n1")
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n1")
    ds = DsQpu("ds1", SCHEMA, rep)
    k.register(ds, "n1")
    cl = Client()
    k.register(cl, "n1")
    return k, rep, ds, cl


class TestDsQpu:
    def test_empty_dc_gives_empty_complete(self, client):
        k, rep, ds, cl = ds_net()
        resp = run_query(k, cl, "ds1", q_size(0, 10))
        assert resp.entries == () and resp.complete

    def test_scan_oracle(self):
        k, rep, ds, cl = ds_net()
        rng = random.Random(2)
        for i in range(300):
            rep.put(k, f"k{i}", make_attrs({"size": rng.randrange(100)}))
        resp = run_query(k, cl, "ds1", q_size(10, 40))
        expected = {key for key, o in rep.objects.items() if 10 <= o.attrs["size"].value <= 40}
        assert {e[0] for e in resp.entries} == expected

    def test_limit_respected(self):
        k, rep, ds, cl = ds_net()
        for i in range(10):
            rep.put(k, f"k{i}", make_attrs({"size": 5}))
        resp = run_query(k, cl, "ds1", Query.of([Predicate.between("size", 0, 9)], limit=3))
        assert len(resp.entries) == 3

    def test_unindexable_query_is_scannable(self):
        k, rep, ds, cl = ds_net()
        rep.put(k, "k1", make_attrs({"genre": "rock"}))
        resp = run_query(k, cl, "ds1", Query.of([Predicate.equals("genre", "rock")]))
        assert [e[0] for e in resp.entries] == ["k1"]


def federation_net(*, overlap=False, seed=0, with_ds=True):
    """fQPU over two indexed halves of the size axis plus an optional full-
    coverage dsQPU path; one DC feeds the indexes through one filter."""
    k = Kernel(seed=seed)
    k.add_node("n-core")
    k.add_node("n-edge")
    k.add_link("n-core", "n-edge", 2)
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n-core")
    low = make_region(size=(None, 50), genre=(None, None))
    high = make_region(size=(40 if overlap else 50, None), genre=(None, None))
    iq1 = IndexQpu("iq1", low, recheck_replica=rep)
    iq2 = IndexQpu("iq2", high, recheck_replica=rep)
    k.register(iq1, "n-edge")
    k.register(iq2, "n-edge")
    flt = FilterQpu("flt", rep, [("iq1", low), ("iq2", high)])
    k.register(flt, "n-core")
    fq = FederationQpu("fq", SCHEMA, recheck_replica=rep)
    fq.connect(Connection("iq1", low))
    fq.connect(Connection("iq2", high))
    if with_ds:
        ds = DsQpu("ds1", SCHEMA, rep)
        k.register(ds, "n-core")
        fq.connect(Connection("ds1", FULL))
    k.register(fq, "n-edge")
    cl = Client()
    k.register(cl, "n-edge")
    return k, rep, fq, cl


class TestFederation:
    def test_pass_through_single_covering_neighbour(self):
        k, rep, fq, cl = federation_net(with_ds=True)
        fq.connections = [c for c in fq.connections if c.to == "ds1"]
        rep.put(k, "k1", make_attrs({"size": 5}))
        k.run_until_empty()
        resp = run_query(k, cl, "fq", q_size(0, 10))
        assert [e[0] for e in resp.entries] == ["k1"]
        assert resp.complete and "ds1" in resp.source_chain

    def test_disjoint_halves_both_contacted_and_unioned(self):
        k, rep, fq, cl = federation_net()
        rep.put(k, "lowk", make_attrs({"size": 10}))
        rep.put(k, "highk", make_attrs({"size": 80}))
        k.run_until_empty()
        resp = run_query(k, cl, "fq", q_size(0, 100))
        assert {e[0] for e in resp.entries} == {"lowk", "highk"}
        assert resp.complete
        assert {"iq1", "iq2"} <= set(resp.source_chain)

    def test_same_key_at_different_versions_dedupes_to_max(self):
        # iq1 holds a stale coordinate for k, iq2 the current one; both halves
        # of the query return k and only the max version may survive
        k, rep, fq, cl = federation_net()
        # isolate dedupe behaviour from recheck refresh
        iq1, iq2 = k.actor("iq1"), k.actor("iq2")
        for qpu in (fq, iq1, iq2):
            qpu.recheck_enabled = False
        stale = StampedOp(WriteOp("k", PUT, make_attrs({"size": 45}), None, Version(1, "dc1"), "dc1"), 0)
        moved = StampedOp(WriteOp("k", PUT, make_attrs({"size": 55}), make_attrs({"size": 45}), Version(2, "dc1"), "dc1"), 0)
        iq1.handle_update(k, IndexUpdate("t", 1, (stale,)))
        iq2.handle_update(k, IndexUpdate("t", 1, (moved,)))
        resp = run_query(k, cl, "fq", q_size(40, 60))
        assert len(resp.entries) == 1
        assert resp.entries[0][2] == Version(2, "dc1")
        assert resp.entries[0][1]["size"].value == 55

    def test_uncovered_remainder_reported_missing(self):
        k, rep, fq, cl = federation_net(with_ds=False)
        fq.connections = [c for c in fq.connections if c.to == "iq1"]
        resp = run_query(k, cl, "fq", q_size(0, 100))
        assert not resp.complete
        assert resp.missing  # the >=50 half nobody covers

    def test_unindexable_query_falls_back_to_scan_path(self):
        k, rep, fq, cl = federation_net(with_ds=True)
        rep.put(k, "k1", make_attrs({"genre": "rock", "size": 1}))
        k.run_until_empty()
        q = Query.of([Predicate.equals("color", "red")])
        resp = run_query(k, cl, "fq", q)
        assert resp.complete and resp.entries == ()
        q2 = Query.of([Predicate.equals("genre", "rock"), Predicate.equals("color", "red")])
        resp2 = run_query(k, cl, "fq", q2)
        assert resp2.entries == ()  # object lacks 'color', scan says no

    def test_timeout_yields_incomplete_with_missing_region(self):
        class BlackHole(Actor):
            actor_id = "hole"

            def on_message(self, k, msg):
                pass

        k = Kernel(seed=0)
        k.add_node("n1")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n1")
        k.register(BlackHole(), "n1")
        fq = FederationQpu("fq", SCHEMA, recheck_replica=rep, timeout=50)
        fq.connect(Connection("hole", FULL))
        k.register(fq, "n1")
        cl = Client()
        k.register(cl, "n1")
        resp = run_query(k, cl, "fq", q_size(0, 10))
        assert not resp.complete
        assert resp.missing == (query_to_region(q_size(0, 10), ["size", "genre"]),)

    def test_routing_reads_only_own_connection_list(self, monkeypatch):
        k, rep, fq, cl = federation_net()
        seen = []
        original = qpunet.decompose

        def spy(region, connections):
            seen.append(connections)
            return original(region, connections)

        monkeypatch.setattr(qpunet, "decompose", spy)
        run_query(k, cl, "fq", q_size(0, 100))
        assert seen and all(conns is fq.connections for conns in seen)


class TestStaticIndexHierarchy:
    def test_parent_answers_remainder_not_delegated_to_children(self):
        k = Kernel(seed=0)
        k.add_node("n1")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n1")
        child_region = make_region(size=(0, 50), genre=(None, None))
        parent = IndexQpu("parent", FULL, recheck_replica=rep)
        child = IndexQpu("child", child_region, recheck_replica=rep)
        k.register(parent, "n1")
        k.register(child, "n1")
        parent.connect(Connection("child", child_region))
        flt = FilterQpu("flt", rep, [("parent", FULL), ("child", child_region)])
        k.register(flt, "n1")
        cl = Client()
        k.register(cl, "n1")
        rep.put(k, "inchild", make_attrs({"size": 10}))
        rep.put(k, "inparent", make_attrs({"size": 90}))
        k.run_until_empty()
        resp = run_query(k, cl, "parent", q_size(0, 100))
        assert {e[0] for e in resp.entries} == {"inchild", "inparent"}
        assert resp.complete
        assert "child" in resp.source_chain


def cache_net(*, capacity=4, ttl=1000, seed=0):
    k = Kernel(seed=seed)
    k.add_node("n1")
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n1")
    ds = DsQpu("ds1", SCHEMA, rep)
    k.register(ds, "n1")
    cq = CacheQpu("cq", SCHEMA, capacity=capacity, ttl=ttl, recheck_replica=rep)
    cq.connect(Connection("ds1", FULL))
    k.register(cq, "n1")
    cl = Client()
    k.register(cl, "n1")
    return k, rep, cq, cl


class TestResponseCache:
    def test_second_identical_query_served_from_cache(self):
        k, rep, cq, cl = cache_net()
        rep.put(k, "k1", make_attrs({"size": 5}))
        k.run_until_empty()
        run_query(k, cl, "cq", q_size(0, 10))
        misses_before = cq.misses
        resp = run_query(k, cl, "cq", q_size(0, 10))
        assert cq.misses == misses_before  # zero forwarded sub-queries
        assert cq.hits == 1
        assert [e[0] for e in resp.entries] == ["k1"]

    def test_lru_capacity_one_gives_three_misses(self):
        k, rep, cq, cl = cache_net(capacity=1)
        a, b = q_size(0, 10), q_size(20, 30)
        run_query(k, cl, "cq", a)  # miss
        run_query(k, cl, "cq", b)  # miss, evicts a
        run_query(k, cl, "cq", a)  # miss again
        assert cq.misses == 3 and cq.hits == 0

    def test_ttl_expiry_at_t_plus_11(self):
        k, rep, cq, cl = cache_net(ttl=10)
        run_query(k, cl, "cq", q_size(0, 10))
        k.schedule(k.now + 11, "client", "wake")
        k.run_until_empty()
        run_query(k, cl, "cq", q_size(0, 10))
        assert cq.misses == 2 and cq.hits == 0

    def test_hit_within_ttl(self):
        k, rep, cq, cl = cache_net(ttl=10)
        run_query(k, cl, "cq", q_size(0, 10))
        k.schedule(k.now + 5, "client", "wake")
        k.run_until_empty()
        run_query(k, cl, "cq", q_size(0, 10))
        assert cq.hits == 1

    def test_stale_hit_drops_deleted_keys_via_recheck(self):
        k, rep, cq, cl = cache_net()
        rep.put(k, "k1", make_attrs({"size": 5}))
        rep.put(k, "k2", make_attrs({"size": 6}))
        k.run_until_empty()
        first = run_query(k, cl, "cq", q_size(0, 10))
        assert {e[0] for e in first.entries} == {"k1", "k2"}
        rep.delete(k, "k1")
        k.run_until_empty()
        resp = run_query(k, cl, "cq", q_size(0, 10))
        assert cq.hits == 1  # served from cache...
        assert {e[0] for e in resp.entries} == {"k2"}  # ...but rechecked
        assert rep.get("k1") is None


def replica_cache_net(*, pull_interval=None, latency=3, seed=0):
    k = Kernel(seed=seed)
    k.add_node("n-core")
    k.add_node("n-edge")
    k.add_link("n-core", "n-edge", latency)
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n-core")
    iq = IndexQpu("iq", FULL, recheck_replica=rep)
    k.register(iq, "n-core")
    flt = FilterQpu("flt", rep, [("iq", FULL)])
    k.register(flt, "n-core")
    cq = CacheQpu("cq", SCHEMA, mode="replica", pull_interval=pull_interval, recheck_replica=rep)
    cq.connect(Connection("iq", FULL))
    k.register(cq, "n-edge")
    cl = Client()
    k.register(cl, "n-edge")
    return k, rep, iq, cq, cl


class TestReplicaCache:
    def test_without_pull_replica_stays_stale(self):
        k, rep, iq, cq, cl = replica_cache_net()
        rep.put(k, "k1", make_attrs({"size": 5}))
        k.run_until_empty()
        cq.pull_now(k)
        k.run_until_empty()
        assert cq.snapshot_keys() == {"k1"}
        rep.put(k, "k2", make_attrs({"size": 6}))
        k.run_until_empty()
        assert cq.snapshot_keys() == {"k1"}  # no pull, no change

    def test_one_pull_matches_upstream_answers(self):
        k, rep, iq, cq, cl = replica_cache_net()
        for i in range(8):
            rep.put(k, f"k{i}", make_attrs({"size": i * 10}))
        k.run_until_empty()
        cq.pull_now(k)
        k.run_until_empty()
        resp = run_query(k, cl, "cq", q_size(0, 45))
        up, _ = iq.index.lookup(q_size(0, 45))
        assert {e[0] for e in resp.entries} == {e[0] for e in up}

    def test_no_snapshot_means_incomplete(self):
        k, rep, iq, cq, cl = replica_cache_net()
        resp = run_query(k, cl, "cq", q_size(0, 10))
        assert not resp.complete and resp.entries == ()

    def test_staleness_window_bounded_by_interval_plus_round_trip(self):
        interval, latency = 40, 3
        k, rep, iq, cq, cl = replica_cache_net(pull_interval=interval, latency=latency)
        writes = {}
        for i in range(10):
            key = f"k{i}"
            at = 10 + i * 37
            k.schedule(at, "dc1", ClientWrite(key, make_attrs({"size": i})))
            writes[key] = at
        visible = {}
        while k.step() and k.now < 1500:
            for key in cq.snapshot_keys():
                visible.setdefault(key, k.now)
            if len(visible) == len(writes):
                break
        bound = interval + 2 * latency
        assert visible.keys() == writes.keys()
        for key, t_vis in visible.items():
            assert t_vis - writes[key] <= bound

    def test_periodic_pull_stops_when_inactive(self):
        k, rep, iq, cq, cl = replica_cache_net(pull_interval=25)
        k.run_until(100)
        cq.stop()
        k.run_until_empty()
        assert cq.pulls >= 3
        assert k.pending() == 0
