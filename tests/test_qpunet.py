"""Query routing: decomposition, federation, caching, timeouts, and the
locality of routing decisions."""

import random
import sys

import pytest

import qpusim.qpunet as qpunet
from qpusim.core import (
    HyperRegion,
    Kind,
    Predicate,
    Query,
    Version,
    query_to_region,
)
from qpusim.indexing import FilterQpu, IndexQpu, IndexUpdate
from qpusim.metrics import MetricsSink
from qpusim.qpunet import (
    CacheQpu,
    Connection,
    DsQpu,
    FederationQpu,
    SnapshotRequest,
    dedupe_entries,
    decompose,
    recheck,
)
from qpusim.simkernel import Actor, Kernel
from qpusim.store import ClientWrite, DcReplica, LogEntry, WriteOp

from conftest import Client, make_region, records_of, run_query

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}
FULL = make_region(size=(None, None), genre=(None, None))


def q_size(lo, hi):
    return Query.of([Predicate.between("size", lo, hi)])


class BlackHole(Actor):
    """A neighbour that never answers."""

    actor_id = "hole"

    def on_message(self, k, msg):
        pass


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
                    attrs = {"x": x, "y": y}
                    hits = sum(p.contains(attrs) for p in pieces)
                    left_hits = sum(p.contains(attrs) for p in leftover)
                    assert hits <= 1 and left_hits <= 1
                    in_region = region.contains(attrs)
                    in_cov = any(c.coverage.contains(attrs) for c in children)
                    assert bool(hits) == (in_region and in_cov)
                    assert bool(left_hits) == (in_region and not in_cov)


class TestDedupe:
    def test_max_version_survives(self):
        parts = [
            [("k", {"size": 1}, Version(3, "dc1"))],
            [("k", {"size": 2}, Version(5, "dc2"))],
            [("k", {"size": 0}, Version(4, "dc1"))],
        ]
        out = dedupe_entries(parts)
        assert out == [("k", {"size": 2}, Version(5, "dc2"))]

    def test_interleaved_parts_join_in_key_order(self):
        """Two or three key-sorted parts with interleaved keys, with and
        without a key in two parts, its greater version in the first part
        or in a later one: the join is key-sorted and keeps that version."""
        old, new = ("k3", {"size": 1}, Version(2, "dc1")), ("k3", {"size": 7}, Version(9, "dc2"))
        a = [("k1", {"size": 1}, Version(1, "dc1")), new, ("k5", {"size": 5}, Version(1, "dc1"))]
        b = [("k0", {"size": 0}, Version(1, "dc1")), ("k2", {"size": 2}, Version(1, "dc1")), old]
        c = [("k4", {"size": 4}, Version(1, "dc1")), ("k6", {"size": 6}, Version(1, "dc1"))]
        for parts in ([a, c], [a, b], [b, a], [a, c, b], [c, b, a]):
            out = dedupe_entries(parts)
            assert out == sorted([e for part in parts for e in part if e is not old], key=lambda e: e[0])
            assert new in out

    def test_a_single_part_is_returned_as_it_is(self):
        part = [("k1", {"size": 1}, Version(1, "dc1")), ("k2", {"size": 2}, Version(1, "dc1"))]
        assert dedupe_entries([part]) is part


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
            rep.put(k, f"k{i}", {"size": rng.randrange(100)})
        resp = run_query(k, cl, "ds1", q_size(10, 40))
        expected = {key for key, o in rep.objects.items() if 10 <= o.attrs["size"] <= 40}
        assert {e[0] for e in resp.entries} == expected

    def test_limit_respected(self):
        k, rep, ds, cl = ds_net()
        for i in range(10):
            rep.put(k, f"k{i}", {"size": 5})
        resp = run_query(k, cl, "ds1", Query.of([Predicate.between("size", 0, 9)], limit=3))
        assert len(resp.entries) == 3

    def test_text_query_is_scanned(self):
        k, rep, ds, cl = ds_net()
        rep.put(k, "k1", {"genre": "rock"})
        resp = run_query(k, cl, "ds1", Query.of([Predicate.equals("genre", "rock")]))
        assert [e[0] for e in resp.entries] == ["k1"]

    def test_rows_are_the_replicas_stored_objects(self):
        k, rep, ds, cl = ds_net()
        for i in range(5):
            rep.put(k, f"k{i}", {"size": i})
        resp = run_query(k, cl, "ds1", q_size(1, 3))
        assert [e[0] for e in resp.entries] == ["k1", "k2", "k3"]
        assert all(e is rep.objects[e[0]] for e in resp.entries)

    def test_recheck_keeps_the_replicas_object_where_a_version_moved(self):
        k, rep, ds, cl = ds_net()
        rep.put(k, "same", {"size": 1})
        rep.put(k, "moved", {"size": 2})
        held = [rep.objects["moved"], rep.objects["same"]]
        rep.put(k, "moved", {"size": 3})
        kept, refreshed = recheck(held, query_to_region(q_size(0, 10), SCHEMA), rep)[::-1]
        assert kept is held[1] and refreshed is rep.objects["moved"]


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
        rep.put(k, "k1", {"size": 5})
        k.run_until_empty()
        resp = run_query(k, cl, "fq", q_size(0, 10))
        assert [e[0] for e in resp.entries] == ["k1"]
        assert resp.complete and "ds1" in resp.source_chain

    def test_disjoint_halves_both_contacted_and_unioned(self):
        k, rep, fq, cl = federation_net()
        rep.put(k, "lowk", {"size": 10})
        rep.put(k, "highk", {"size": 80})
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
        stale = LogEntry(0, WriteOp("k", {"size": 45}, None, Version(1, "dc1")), 0)
        moved = LogEntry(1, WriteOp("k", {"size": 55}, {"size": 45}, Version(2, "dc1")), 0)
        iq1.handle_update(k, IndexUpdate((stale,)))
        iq2.handle_update(k, IndexUpdate((moved,)))
        resp = run_query(k, cl, "fq", q_size(40, 60))
        assert len(resp.entries) == 1
        assert resp.entries[0][2] == Version(2, "dc1")
        assert resp.entries[0][1]["size"] == 55

    def test_uncovered_remainder_reported_missing(self):
        k, rep, fq, cl = federation_net(with_ds=False)
        fq.connections = [c for c in fq.connections if c.to == "iq1"]
        resp = run_query(k, cl, "fq", q_size(0, 100))
        assert not resp.complete
        assert resp.missing  # the >=50 half nobody covers

    def test_timeout_yields_incomplete_with_missing_region(self):
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
        """Every decompose call, at the federation and at the index QPUs it
        forwards to, reads the calling QPU's own connection list."""
        k, rep, fq, cl = federation_net()
        seen = []
        original = qpunet.decompose

        def spy(region, connections):
            seen.append((sys._getframe(1).f_locals["self"], connections))
            return original(region, connections)

        monkeypatch.setattr(qpunet, "decompose", spy)
        run_query(k, cl, "fq", q_size(0, 100))
        assert all(conns is caller.connections for caller, conns in seen)
        assert any(caller is fq for caller, _conns in seen)


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
        rep.put(k, "inchild", {"size": 10})
        rep.put(k, "inparent", {"size": 90})
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
    def test_a_timed_out_fill_leaves_no_join_state(self):
        """Five distinct queries to a cache whose neighbour never answers
        each time out incomplete, and leave no join or sub-query behind."""
        k = Kernel(seed=0)
        k.add_node("n1")
        k.register(BlackHole(), "n1")
        cq = CacheQpu("cq", SCHEMA, timeout=50)
        cq.connect(Connection("hole", FULL))
        k.register(cq, "n1")
        cl = Client()
        k.register(cl, "n1")
        for lo in range(0, 50, 10):
            assert not run_query(k, cl, "cq", q_size(lo, lo + 5)).complete
        assert cq.misses == 5
        assert cq._pending == {} and cq._sub_parent == {}

    def test_a_fill_answered_after_its_timeout_is_not_stored(self):
        """The neighbour's complete answer arrives after the cache's timeout:
        the client gets the incomplete answer, the late one is dropped
        rather than cached, and the same query misses again."""
        k = Kernel(seed=0)
        k.add_node("n1")
        k.add_node("n2")
        k.add_link("n1", "n2", 100)
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n2")
        k.register(DsQpu("ds1", SCHEMA, rep), "n2")
        cq = CacheQpu("cq", SCHEMA, timeout=50)
        cq.connect(Connection("ds1", FULL))
        k.register(cq, "n1")
        cl = Client()
        k.register(cl, "n1")
        rep.put(k, "k1", {"size": 5})
        k.run_until_empty()
        assert not run_query(k, cl, "cq", q_size(0, 10)).complete
        assert cq._cache == {}
        run_query(k, cl, "cq", q_size(0, 10))
        assert (cq.hits, cq.misses) == (0, 2)

    def test_second_identical_query_served_from_cache(self):
        k, rep, cq, cl = cache_net()
        rep.put(k, "k1", {"size": 5})
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
        rep.put(k, "k1", {"size": 5})
        rep.put(k, "k2", {"size": 6})
        k.run_until_empty()
        first = run_query(k, cl, "cq", q_size(0, 10))
        assert {e[0] for e in first.entries} == {"k1", "k2"}
        rep.delete(k, "k1")
        k.run_until_empty()
        resp = run_query(k, cl, "cq", q_size(0, 10))
        assert cq.hits == 1  # served from cache...
        assert {e[0] for e in resp.entries} == {"k2"}  # ...but rechecked
        assert rep.get("k1") is None


def replica_cache_net(*, pull_interval=None, latency=3, seed=0, region=FULL):
    k = Kernel(seed=seed)
    k.add_node("n-core")
    k.add_node("n-edge")
    k.add_link("n-core", "n-edge", latency)
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n-core")
    iq = IndexQpu("iq", region, recheck_replica=rep)
    k.register(iq, "n-core")
    flt = FilterQpu("flt", rep, [("iq", region)])
    k.register(flt, "n-core")
    cq = CacheQpu("cq", SCHEMA, pull_from="iq", pull_interval=pull_interval, recheck_replica=rep)
    k.register(cq, "n-edge")
    cl = Client()
    k.register(cl, "n-edge")
    return k, rep, iq, cq, cl


class TestReplicaCache:
    def test_without_pull_replica_stays_stale(self):
        k, rep, iq, cq, cl = replica_cache_net()
        rep.put(k, "k1", {"size": 5})
        k.run_until_empty()
        cq.pull_now(k)
        k.run_until_empty()
        assert set(cq.index.registry) == {"k1"}
        rep.put(k, "k2", {"size": 6})
        k.run_until_empty()
        assert set(cq.index.registry) == {"k1"}  # no pull, no change

    def test_one_pull_matches_upstream_answers(self):
        k, rep, iq, cq, cl = replica_cache_net()
        for i in range(8):
            rep.put(k, f"k{i}", {"size": i * 10})
        k.run_until_empty()
        cq.pull_now(k)
        k.run_until_empty()
        resp = run_query(k, cl, "cq", q_size(0, 45))
        up, _ = iq.index.lookup(query_to_region(q_size(0, 45), iq.indexed_attrs))
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
            k.schedule(at, "dc1", ClientWrite(key, {"size": i}))
            writes[key] = at
        visible = {}
        while k.step() and k.now < 1500:
            for key in cq.index.registry if cq.index is not None else ():
                visible.setdefault(key, k.now)
            if len(visible) == len(writes):
                break
        bound = interval + 2 * latency
        assert visible.keys() == writes.keys()
        for key, t_vis in visible.items():
            assert t_vis - writes[key] <= bound

    def test_periodic_pull_stops_when_inactive(self):
        k, rep, iq, cq, cl = replica_cache_net(pull_interval=25)
        requests = []
        handle_other = iq.handle_other

        def spy(k, msg):
            if isinstance(msg, SnapshotRequest):
                requests.append(k.now)
            handle_other(k, msg)

        iq.handle_other = spy
        k.run_until(100)
        k.stop_timers()
        k.run_until_empty()
        assert len(requests) >= 3
        assert k.pending() == 0


def empty_size_query(*extra):
    """Ints strictly between 5 and 6: a valid query that no value satisfies."""
    return Query.of([Predicate("size", 5, 6, lower_inclusive=False, upper_inclusive=False), *extra])


class TestEmptyPredicate:
    """Every QPU class answers a query no value satisfies with a complete
    empty response, with objects on both sides of the empty range."""

    @staticmethod
    def write_both_sides(k, rep):
        rep.put(k, "k5", {"size": 5})
        rep.put(k, "k6", {"size": 6})
        k.run_until_empty()

    @staticmethod
    def assert_empty_complete(resp):
        assert resp.entries == () and resp.complete and resp.missing == ()

    def test_lone_index_qpu(self):
        k = Kernel(seed=0)
        k.add_node("n1")
        iq = IndexQpu("iq", FULL)
        k.register(iq, "n1")
        cl = Client()
        k.register(cl, "n1")
        for ts, size in ((1, 5), (2, 6)):
            op = WriteOp(f"k{size}", {"size": size}, None, Version(ts, "dc1"))
            iq.handle_update(k, IndexUpdate((LogEntry(ts, op, 0),)))
        self.assert_empty_complete(run_query(k, cl, "iq", empty_size_query()))

    def test_federation_qpu(self):
        k, rep, fq, cl = federation_net()
        self.write_both_sides(k, rep)
        self.assert_empty_complete(run_query(k, cl, "fq", empty_size_query()))
        # also when another predicate is on an attribute no index covers
        self.assert_empty_complete(run_query(k, cl, "fq", empty_size_query(Predicate.equals("color", "red"))))

    def test_ds_and_cache_qpus(self):
        k, rep, cq, cl = cache_net()
        self.write_both_sides(k, rep)
        self.assert_empty_complete(run_query(k, cl, "ds1", empty_size_query()))
        self.assert_empty_complete(run_query(k, cl, "cq", empty_size_query()))
        k, rep, iq, cq, cl = replica_cache_net()
        self.write_both_sides(k, rep)
        cq.pull_now(k)
        k.run_until_empty()
        self.assert_empty_complete(run_query(k, cl, "cq", empty_size_query()))


class TestLimitAfterRecheck:
    """A limited query's region reaches its responder without the limit:
    the rows recheck drops could otherwise hide matching rows past the
    limit, and the answer would come back short yet complete."""

    @staticmethod
    def lagging_net(front):
        """dc2 lags dc1: it still holds k1, which dc1 no longer has. `front`
        sends the query's region to a scan of dc2 and rechecks against dc1."""
        k = Kernel(seed=0)
        k.add_node("n")
        dc1, dc2 = DcReplica("dc1", SCHEMA), DcReplica("dc2", SCHEMA)
        for rep in (dc1, dc2):
            k.register(rep, "n")
        for i in (1, 2, 3):
            dc2.put(k, f"k{i}", {"size": i})
        for i in (2, 3):
            dc1.put(k, f"k{i}", {"size": i})
        k.register(DsQpu("ds2", SCHEMA, dc2), "n")
        front.recheck_replica = dc1
        front.connect(Connection("ds2", HyperRegion.full(front.indexed_attrs)))
        k.register(front, "n")
        cl = Client()
        k.register(cl, "n")
        return k, cl

    def limited(self):
        return Query.of([Predicate.between("size", 0, 10)], limit=2)

    def test_response_cache_miss_and_hit_keep_the_limit_after_recheck(self):
        k, cl = self.lagging_net(CacheQpu("cq", SCHEMA))
        for _ in range(2):  # the miss, then the hit
            resp = run_query(k, cl, "cq", self.limited())
            assert [e[0] for e in resp.entries] == ["k2", "k3"] and resp.complete

    def test_federation_keeps_the_limit_after_recheck(self):
        k, cl = self.lagging_net(FederationQpu("fq", SCHEMA))
        resp = run_query(k, cl, "fq", self.limited())
        assert [e[0] for e in resp.entries] == ["k2", "k3"] and resp.complete


class TestRecheckAtTheEntryUnit:
    """Only the unit a client query is issued to rechecks its answer,
    against its own recheck replica; a unit answering a sub-query passes its
    rows on as joined."""

    @staticmethod
    def lagging_intermediate_net():
        """`ent` forwards to `mid`, which forwards to a scan of dc2. dc2 has
        moved k into [0, 10]; dc1, mid's recheck replica, holds only k's
        earlier write, outside it. `ent` rechecks against dc2."""
        k = Kernel(seed=0)
        k.add_node("n")
        dc1, dc2 = DcReplica("dc1", SCHEMA), DcReplica("dc2", SCHEMA)
        for rep in (dc1, dc2):
            k.register(rep, "n")
        first = dc2.put(k, "k", {"size": 50})
        dc1.apply_replicated(k, WriteOp("k", dc2.objects["k"].attrs, None, first))
        dc2.put(k, "k", {"size": 5})
        k.register(DsQpu("ds2", SCHEMA, dc2), "n")
        for qpu_id, rep, to in (("ent", dc2, "mid"), ("mid", dc1, "ds2")):
            fq = FederationQpu(qpu_id, SCHEMA, recheck_replica=rep)
            fq.connect(Connection(to, FULL))
            k.register(fq, "n")
        cl = Client()
        k.register(cl, "n")
        return k, cl

    def test_a_row_the_intermediate_replica_has_not_caught_up_on_is_kept(self):
        k, cl = self.lagging_intermediate_net()
        resp = run_query(k, cl, "ent", q_size(0, 10))
        assert [(e[0], e[1]["size"]) for e in resp.entries] == [("k", 5)]
        assert resp.complete and resp.source_chain == ("ds2", "mid", "ent")

    def test_only_the_entry_unit_rechecks(self, audited_recheck):
        k, cl = self.lagging_intermediate_net()
        run_query(k, cl, "ent", q_size(0, 10))
        assert audited_recheck.calls == 1 and audited_recheck.bad == []

    def test_only_fan_out_marks_a_sub_query(self, monkeypatch):
        k, cl = self.lagging_intermediate_net()
        seen = []
        original = k.send

        def spy(src, dst, msg):
            if isinstance(msg, qpunet.QueryMsg):
                seen.append((src, dst, msg.sub))
            original(src, dst, msg)

        monkeypatch.setattr(k, "send", spy)
        run_query(k, cl, "ent", q_size(0, 10))
        assert seen == [("ent", "mid", True), ("mid", "ds2", True)]


class TestIncompleteNamesWhatIsMissing:
    """An answer is incomplete exactly when it names a missing region, and
    the region says what is absent."""

    def test_replica_cache_before_its_first_pull_misses_the_query_region(self):
        k, rep, iq, cq, cl = replica_cache_net()
        resp = run_query(k, cl, "cq", q_size(0, 10))
        assert not resp.complete and resp.entries == ()
        assert resp.missing == (query_to_region(q_size(0, 10), cq.indexed_attrs),)

    def test_replica_cache_misses_what_lies_outside_its_upstream_region(self):
        """A replica cache pulling from an index over size < 50 once marked
        an answer to size 0-100 complete without the rows at 50 and above:
        validate found 45 key-set mismatches in 60 queries at seed 0."""
        k, rep, iq, cq, cl = replica_cache_net(region=make_region(size=(None, 50), genre=(None, None)))
        rep.put(k, "k1", {"size": 5})
        rep.put(k, "k2", {"size": 70})
        k.run_until_empty()
        cq.pull_now(k)
        k.run_until_empty()
        resp = run_query(k, cl, "cq", q_size(0, 100))
        assert [e[0] for e in resp.entries] == ["k1"] and not resp.complete
        assert resp.missing == tuple(query_to_region(q_size(0, 100), cq.indexed_attrs).subtract(iq.region))

    def test_query_region_outside_the_upstream_region_is_recorded_out_of_region(self):
        """A replica cache answers like an index unit: a query region that
        misses its pulled index's region is missing whole and recorded as
        `out_of_region`. Before the first pull the cache holds no index,
        so the region is missing and nothing is recorded."""
        k, rep, iq, cq, cl = replica_cache_net(region=make_region(size=(None, 50), genre=(None, None)))
        MetricsSink(k)
        region = query_to_region(q_size(60, 100), cq.indexed_attrs)
        resp = run_query(k, cl, "cq", q_size(60, 100))
        assert resp.missing == (region,) and records_of(k, "out_of_region") == []
        rep.put(k, "k1", {"size": 5})
        k.run_until_empty()
        cq.pull_now(k)
        k.run_until_empty()
        resp = run_query(k, cl, "cq", q_size(60, 100))
        assert resp.entries == () and resp.missing == (region,)
        assert [(r["qpu"], r["qid"]) for r in records_of(k, "out_of_region")] == [("cq", resp.qid)]


def pulled_replica_cache_net():
    """replica_cache_net after one pull, with k1 in the cache's index."""
    k, rep, iq, cq, cl = replica_cache_net()
    rep.put(k, "k1", {"size": 5, "genre": "rock"})
    k.run_until_empty()
    cq.pull_now(k)
    k.run_until_empty()
    assert set(cq.index.registry) == {"k1"}
    return k, rep, iq, cq, cl


# (network, the entry unit a query is issued to) for every entry class
ENTRY_UNITS = {
    "ds": (ds_net, "ds1"),
    "federation-with-ds": (lambda: federation_net(with_ds=True), "fq"),
    "federation-without-ds": (lambda: federation_net(with_ds=False), "fq"),
    "index": (replica_cache_net, "iq"),
    "response-cache": (cache_net, "cq"),
    "replica-cache-unpulled": (replica_cache_net, "cq"),
    "replica-cache-pulled": (pulled_replica_cache_net, "cq"),
}


class TestOutOfSchemaQueries:
    """A query naming an attribute outside the schema matches no object,
    since check_attrs rejects such an attribute at every write. The unit
    it is issued to answers it complete and empty at once, whatever its
    class, and records nothing: no unit behind it is asked."""

    @pytest.mark.parametrize("entry", list(ENTRY_UNITS))
    @pytest.mark.parametrize(
        "preds",
        [[Predicate.equals("color", "red")], [Predicate.equals("genre", "rock"), Predicate.equals("color", "red")]],
        ids=["alone", "with-a-schema-attribute"],
    )
    def test_answered_complete_and_empty_at_the_entry_unit(self, entry, preds):
        make, target = ENTRY_UNITS[entry]
        k, rep, *_rest, cl = make()
        rep.put(k, "k0", {"size": 5, "genre": "rock"})
        k.run_until_empty()
        sink = MetricsSink(k)
        before = sink.records
        resp = run_query(k, cl, target, Query.of(preds))
        assert resp.entries == () and resp.complete and resp.source_chain == (target,)
        assert sink.records == before
