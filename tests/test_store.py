"""Replicated store semantics: last-writer-wins convergence against a
sorted-replay oracle, log feeds and state transfer, and weak-consistency
behaviours."""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from qpusim import indexing, qpunet, store, workload
from qpusim.core import (
    HyperRegion,
    IngestError,
    Interval,
    Kind,
    Predicate,
    Query,
    StoredObject,
    Version,
    query_to_region,
)
from qpusim.simkernel import Actor, Kernel, SimError
from qpusim.store import ClientDelete, ClientWrite, DcReplica, LogEntry, PostingIndex, PostingSets, WriteOp

from conftest import LogRecorder, make_region, rebuilt_postings, record_log, registry_bytes

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}


def build(n_dcs=3, latency=5, jitter=0, seed=0):
    k = Kernel(seed=seed)
    dc_ids = [f"dc{i}" for i in range(1, n_dcs + 1)]
    for dc in dc_ids:
        k.add_node(f"node-{dc}")
    for i, a in enumerate(dc_ids):
        for b in dc_ids[i + 1 :]:
            k.add_link(f"node-{a}", f"node-{b}", latency, jitter)
    replicas = {}
    for dc in dc_ids:
        peers = tuple(d for d in dc_ids if d != dc)
        replicas[dc] = DcReplica(dc, SCHEMA, peers=peers)
        k.register(replicas[dc], f"node-{dc}")
    return k, replicas


def lww_replay(ops):
    """Independent oracle: apply every op in strict version order."""
    live = {}
    for op in sorted(ops, key=lambda o: o.version):
        if op.new_attrs is not None:
            live[op.key] = (op.new_attrs, op.version)
        else:
            live.pop(op.key, None)
    return live


def all_ops(recorders):
    seen = {}
    for recorder in recorders.values():
        for op in recorder.ops():
            seen[(op.version, op.key)] = op
    return list(seen.values())


class TestPut:
    def test_read_your_write_at_origin(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", {"size": 5})
        assert reps["dc1"].get("k1").attrs["size"] == 5

    def test_peer_sees_write_only_after_delay(self):
        k, reps = build(latency=5)
        reps["dc1"].put(k, "k1", {"size": 5})
        assert reps["dc2"].get("k1") is None
        k.run_until(4)
        assert reps["dc2"].get("k1") is None
        k.run_until(5)
        assert reps["dc2"].get("k1") is not None

    def test_kind_mismatch_rejected(self):
        k, reps = build()
        for attrs in ({"size": "big"}, {"unknown": 1}, {"size": 5.0}, {"size": True}, {"size": 2**63}):
            with pytest.raises(IngestError):
                reps["dc1"].put(k, "k1", attrs)
        assert reps["dc1"].get("k1") is None and reps["dc1"].position == 0

    def test_thousand_random_puts_converge_to_replay_oracle(self):
        k, reps = build(n_dcs=3, latency=7, jitter=5, seed=11)
        logs = {dc: record_log(k, rep) for dc, rep in reps.items()}
        rng = random.Random(11)
        for i in range(1000):
            dc = rng.choice(["dc1", "dc2", "dc3"])
            key = f"k{rng.randrange(200)}"
            attrs = {"size": rng.randrange(50), "genre": rng.choice("abcdef")}
            k.schedule(rng.randrange(0, 2000), dc, ClientWrite(key, attrs))
        k.run_until_empty()
        prints = {dc: rep.state_fingerprint() for dc, rep in reps.items()}
        assert prints["dc1"] == prints["dc2"] == prints["dc3"]
        oracle = lww_replay(all_ops(logs))
        got = {key: (obj.attrs, obj.version) for key, obj in reps["dc1"].objects.items()}
        assert got == oracle


class TestDelete:
    def test_put_then_delete_reads_absent(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", {"size": 5})
        reps["dc1"].delete(k, "k1")
        assert reps["dc1"].get("k1") is None

    def test_delete_of_absent_key_logs_nothing(self):
        """The delete removes nothing the replica holds, so it only stores a
        tombstone: it is applied and counted as progress, but not logged."""
        k, reps = build()
        log = record_log(k, reps["dc1"])
        progress = k.probes.progress
        version = reps["dc1"].delete(k, "ghost")
        k.run_until(k.now)
        assert log.entries == [] and reps["dc1"].position == 0
        assert reps["dc1"].index.tombstones["ghost"] == version
        assert k.probes.progress == progress + 1

    def test_late_older_put_stays_deleted(self):
        k, reps = build(latency=5)
        v_put = reps["dc1"].put(k, "k1", {"size": 5})
        v_del = reps["dc2"].put(k, "other", {"size": 1})  # advance dc2 clock
        v_del = reps["dc2"].delete(k, "k1")
        assert v_del > v_put
        k.run_until_empty()
        # the delete won at every replica even where the put arrived later
        for rep in reps.values():
            assert rep.get("k1") is None
            assert rep.index.tombstones["k1"] == v_del

    def test_interleaved_put_delete_race_converges_to_max_version(self):
        k, reps = build(n_dcs=2, latency=9, jitter=6, seed=3)
        logs = {dc: record_log(k, rep) for dc, rep in reps.items()}
        rng = random.Random(3)
        for i in range(100):
            dc = rng.choice(["dc1", "dc2"])
            if rng.random() < 0.4:
                k.schedule(rng.randrange(0, 400), dc, ClientDelete("hot"))
            else:
                k.schedule(rng.randrange(0, 400), dc, ClientWrite("hot", {"size": i}))
        k.run_until_empty()
        assert reps["dc1"].state_fingerprint() == reps["dc2"].state_fingerprint()
        oracle = lww_replay(all_ops(logs))
        if "hot" in oracle:
            assert reps["dc1"].objects["hot"].version == oracle["hot"][1]
        else:
            assert reps["dc1"].get("hot") is None


def region_of(*preds):
    """The region of the query of preds, the argument of DcReplica.scan."""
    return query_to_region(Query.of(preds), SCHEMA)


class TestGetScan:
    def test_get_never_written_key_absent(self):
        _, reps = build()
        assert reps["dc1"].get("nope") is None

    def test_scan_empty_store(self):
        _, reps = build()
        assert reps["dc1"].scan(region_of(Predicate.between("size", 0, 100))) == []

    def test_scan_single_match(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", {"size": 5})
        reps["dc1"].put(k, "k2", {"size": 500})
        region = region_of(Predicate.between("size", 0, 100))
        assert [o.key for o in reps["dc1"].scan(region)] == ["k1"]
        assert [o.key for o in reps["dc1"].scan(region)] == ["k1"]  # once more, from the built posting sets

    def test_scan_predicate_of_another_kind_raises_once_values_exist(self):
        k, reps = build()
        region = region_of(Predicate.between("size", "a", "z"))
        assert reps["dc1"].scan(region) == []
        reps["dc1"].put(k, "k1", {"size": 5})
        with pytest.raises(TypeError):
            reps["dc1"].scan(region)

    def test_scan_matches_independent_filter_loop(self):
        k, reps = build()
        rng = random.Random(5)
        for i in range(500):
            reps["dc1"].put(
                k, f"k{i}", {"size": rng.randrange(100), "genre": rng.choice("abcdef")}
            )
        region = region_of(Predicate.between("size", 20, 70), Predicate.between("genre", "b", "d"))
        expected = sorted(
            key
            for key, obj in reps["dc1"].objects.items()
            if 20 <= obj.attrs["size"] <= 70 and "b" <= obj.attrs["genre"] <= "d"
        )
        assert [o.key for o in reps["dc1"].scan(region)] == expected


class TestApplyReplicated:
    def test_older_version_ignored(self):
        k, reps = build()
        log = record_log(k, reps["dc1"])
        reps["dc1"].put(k, "k1", {"size": 5})
        k.run_until_empty()
        newer = reps["dc2"].objects["k1"].version
        old_op = log.entries[0].op
        # bump dc2 ahead, then replay the old op
        reps["dc2"].put(k, "k1", {"size": 9})
        assert reps["dc2"].apply_replicated(k, old_op) is False
        assert reps["dc2"].objects["k1"].attrs["size"] == 9

    def test_duplicate_delivery_ignored(self):
        k, reps = build()
        log1, log2 = record_log(k, reps["dc1"]), record_log(k, reps["dc2"])
        reps["dc1"].put(k, "k1", {"size": 5})
        k.run_until(k.now)
        op = log1.entries[0].op
        assert reps["dc2"].apply_replicated(k, op) is True
        k.run_until(k.now)
        log_len = len(log2.entries)
        assert reps["dc2"].apply_replicated(k, op) is False
        k.run_until(k.now)
        assert len(log2.entries) == log_len

    def test_per_key_versions_strictly_increase_in_each_log(self):
        k, reps = build(n_dcs=3, latency=4, jitter=8, seed=21)
        logs = {dc: record_log(k, rep) for dc, rep in reps.items()}
        rng = random.Random(21)
        for _ in range(300):
            dc = rng.choice(["dc1", "dc2", "dc3"])
            key = f"k{rng.randrange(10)}"
            if rng.random() < 0.2:
                k.schedule(rng.randrange(500), dc, ClientDelete(key))
            else:
                k.schedule(rng.randrange(500), dc, ClientWrite(key, {"size": 1}))
        k.run_until_empty()
        for log in logs.values():
            last = {}
            for entry in log.entries:
                key = entry.op.key
                if key in last:
                    assert entry.op.version > last[key]
                last[key] = entry.op.version


    def test_peer_logs_the_received_op_when_it_held_the_same_write(self):
        """Attrs dicts are shared, never copied, so a full peer that held the
        key at the write the origin overwrote logs the origin's own op. An
        edge replica logs nothing for ops outside its placement of a key it
        does not hold; where neither it nor the origin held the key, it logs
        the origin's op of an in-placement write as it is."""
        placement = HyperRegion.of({"size": Interval(0, 50), "genre": Interval()})
        k = Kernel(seed=0)
        for node in ("n1", "n2", "n3"):
            k.add_node(node)
        k.add_link("n1", "n2", 5)
        k.add_link("n1", "n3", 5)
        origin = DcReplica("dc1", SCHEMA, peers=("dc2", "edge"))
        peer = DcReplica("dc2", SCHEMA, peers=())
        edge = DcReplica("edge", SCHEMA, placement=placement, peers=())
        for rep, node in ((origin, "n1"), (peer, "n2"), (edge, "n3")):
            k.register(rep, node)
        origin_log, peer_log, edge_log = (record_log(k, rep) for rep in (origin, peer, edge))
        origin.put(k, "k", {"size": 70})  # outside the edge's placement
        k.run_until_empty()
        origin.put(k, "k", {"size": 80})
        k.run_until_empty()
        first, second = origin_log.ops()
        assert second.old_attrs is first.new_attrs
        assert peer_log.ops() == [first, second]
        assert peer_log.ops()[0] is first and peer_log.ops()[1] is second
        assert edge_log.ops() == [] and edge.position == 0
        assert edge.get("k") is None and peer.get("k").attrs is second.new_attrs
        origin.put(k, "j", {"size": 10})  # inside it
        k.run_until_empty()
        third = origin_log.ops()[2]
        assert edge_log.ops()[0] is third  # neither held the key: None is None
        assert edge.get("j").attrs is third.new_attrs

    def test_peer_receives_the_origins_op_object(self):
        """A write is built once: the replication message a peer receives is
        the WriteOp the origin appended to its own log, for a put and a
        delete alike."""
        k = Kernel(seed=0)
        k.add_node("n")
        origin = DcReplica("dc1", SCHEMA, peers=("peer",))
        peer = LogRecorder("peer")
        for actor in (origin, peer):
            k.register(actor, "n")
        origin_log = record_log(k, origin)
        origin.put(k, "k", {"size": 1})
        origin.delete(k, "k")
        k.run_until_empty()
        sent = origin_log.ops()
        assert len(peer.entries) == 2
        assert all(got is op for got, op in zip(peer.entries, sent))


# Records built per write, log append, hop or query (see store.py).
RECORDS = [
    store.WriteOp, store.LogEntry, store.ClientWrite, store.ClientDelete, store.IndexSnapshot,
    indexing.IndexUpdate, indexing.SplitCmd, indexing.MergeCmd, indexing.Retire,
    indexing.ControlDone,
    qpunet.QueryMsg, qpunet.ResponseMsg, qpunet.SnapshotRequest, qpunet.QueryTimeout,
    workload.IssueQuery, workload.Heartbeat,
    StoredObject,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_tuples(cls):
    record = cls(*range(len(cls._fields)))
    assert isinstance(record, tuple) and not hasattr(record, "__dict__")
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == tuple(range(len(cls._fields)))


class TestSubscribeLog:
    def test_subscriber_sees_writes_in_order(self):
        """A subscriber from position 0 after writes gets the replica's
        state first: each object a put and each tombstone a delete, in key
        order, at its stored version, with no old attrs, stamped with the
        asked position and the time of subscribing. Then it gets every later
        entry, in log order at its own position."""
        k, reps = build()
        rep = reps["dc1"]
        sink = _Sink("sink")
        k.register(sink, "node-dc1")
        versions = [rep.put(k, f"k{i}", {"size": i}) for i in range(3)]
        versions[1] = rep.delete(k, "k1")
        k.run_until(7)
        rep.subscribe(k, "sink", 0)
        rep.put(k, "k3", {"size": 3})
        rep.put(k, "k0", {"size": 10})
        k.run_until_empty()
        state, suffix = sink.entries[:3], sink.entries[3:]
        assert [(e.op.key, e.op.new_attrs is None) for e in state] == [("k0", False), ("k1", True), ("k2", False)]
        assert [e.op.version for e in state] == versions
        assert state[2].op.new_attrs is rep.objects["k2"].attrs
        assert all((e.seq, e.applied_at, e.op.old_attrs) == (0, 7, None) for e in state)
        assert [(e.seq, e.op.key) for e in suffix] == [(4, "k3"), (5, "k0")]
        assert suffix[1].op.old_attrs is state[0].op.new_attrs
        assert rep.position == 6

    def test_two_subscribers_see_identical_sequences(self):
        k, reps = build()
        s1, s2 = _Sink("s1"), _Sink("s2")
        k.register(s1, "node-dc1")
        k.register(s2, "node-dc1")
        reps["dc1"].subscribe(k, "s1", 0)
        reps["dc1"].subscribe(k, "s2", 0)
        for i in range(5):
            reps["dc1"].put(k, f"k{i}", {"size": i})
        k.run_until_empty()
        assert [e.seq for e in s1.entries] == [e.seq for e in s2.entries]
        assert [e.op for e in s1.entries] == [e.op for e in s2.entries]

    def test_mid_stream_subscription_is_a_suffix(self):
        """Below the current position a subscriber gets the state, then the
        suffix; at the position it gets the suffix alone. Either way the
        suffix is the very entries a subscriber from the start gets."""
        k, reps = build()
        full, late, tail = _Sink("full"), _Sink("late"), _Sink("tail")
        for sink in (full, late, tail):
            k.register(sink, "node-dc1")
        reps["dc1"].subscribe(k, "full", 0)
        for i in range(4):
            reps["dc1"].put(k, f"k{i}", {"size": i})
        reps["dc1"].subscribe(k, "late", 2)
        reps["dc1"].subscribe(k, "tail", 4)
        for i in range(4, 6):
            reps["dc1"].put(k, f"k{i}", {"size": i})
        k.run_until_empty()
        assert [e.seq for e in full.entries] == [0, 1, 2, 3, 4, 5]
        assert [(e.seq, e.op.key) for e in late.entries[:4]] == [(2, f"k{i}") for i in range(4)]
        assert late.entries[4:] == full.entries[4:]
        assert tail.entries == full.entries[4:]
        assert all(a is b for a, b in zip(tail.entries, full.entries[4:]))

    def test_subscribe_beyond_log_length_is_sim_error(self):
        k, reps = build()
        k.register(_Sink("late"), "node-dc1")
        for i in range(2):
            reps["dc1"].put(k, f"k{i}", {"size": i})
        reps["dc1"].subscribe(k, "late", 2)  # the log's end is a valid start
        with pytest.raises(SimError, match="from_seq 3 beyond log length 2"):
            reps["dc1"].subscribe(k, "late", 3)


TRANSFER_ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(["dc1", "dc2"]),
            st.integers(0, 5),
            st.integers(0, 99),
            st.sampled_from("abc"),
        ),
        st.tuples(st.just("delete"), st.sampled_from(["dc1", "dc2"]), st.integers(0, 5)),
        st.just(("deliver",)),
    ),
    max_size=40,
)


def two_full_and_an_edge(placement):
    """Full replicas dc1 and dc2, replicating to each other and to an edge
    replica over `placement`, each on its own node, the nodes linked."""
    k = Kernel(seed=0)
    for node in ("n1", "n2", "n3"):
        k.add_node(node)
    k.add_link("n1", "n2", 3)
    k.add_link("n1", "n3", 2)
    k.add_link("n2", "n3", 4)
    reps = {
        "dc1": DcReplica("dc1", SCHEMA, peers=("dc2", "edge")),
        "dc2": DcReplica("dc2", SCHEMA, peers=("dc1", "edge")),
        "edge": DcReplica("edge", SCHEMA, placement=placement),
    }
    for rep, node in zip(reps.values(), ("n1", "n2", "n3")):
        k.register(rep, node)
    return k, reps


def play(k, reps, action):
    """Performs one TRANSFER_ACTIONS action: a put, a delete, or delivering
    everything in flight."""
    if action[0] == "put":
        _, dc, n, size, genre = action
        reps[dc].put(k, f"k{n}", {"size": size, "genre": genre})
    elif action[0] == "delete":
        reps[action[1]].delete(k, f"k{action[2]}")
    else:
        k.run_until_empty()


class TestStateTransfer:
    @settings(max_examples=200, deadline=None)
    @given(
        TRANSFER_ACTIONS,
        st.sampled_from(["dc1", "edge"]),
        st.integers(0, 40),
        st.integers(0, 10_000),
    )
    def test_state_then_suffix_indexes_like_the_whole_log(self, actions, fed_by, at, pick):
        """Puts, overwrites (in and out of the edge's placement) and deletes
        at two full replicas, replicated to each other and to an edge
        replica. A recorder subscribes to the feeding replica from position
        0 before the first write; a second subscribes after `at` actions,
        from a position drawn up to the replica's current one. Below it, an
        index fed the second recorder's entries (state, then suffix) equals
        one fed the first's (every entry from position 0) by registry_bytes,
        for a full, a placement and a clipped region (on the edge, regions
        inside its placement). The state carries the replica's tombstones,
        and the log only removals of held keys, so the transferred index
        holds each tombstone of the whole-log index at an equal or later
        version, and may hold more. At it, the second recorder gets exactly
        the entries appended after."""
        placement = make_region(size=(0, 50), genre=(None, None))
        k, reps = two_full_and_an_edge(placement)
        fed = reps[fed_by]
        whole = record_log(k, fed)
        late = _Sink("late")
        k.register(late, k.host_of(fed.dc_id))
        for i, action in enumerate([*actions, ("deliver",)]):
            if i == min(at, len(actions)):
                position = fed.position
                from_seq = pick % (position + 1)
                fed.subscribe(k, "late", from_seq)
            play(k, reps, action)
        suffix = [e for e in whole.entries if e.seq >= position]
        if from_seq == position:
            assert late.entries == suffix
            return
        state = late.entries[: len(late.entries) - len(suffix)]
        assert late.entries[len(state) :] == suffix
        assert all(e.seq == from_seq and e.op.old_attrs is None for e in state)
        regions = [placement, make_region(size=(10, 30), genre=("b", None))]
        if fed.placement is None:
            regions.append(make_region(size=(None, None), genre=(None, None)))
        for region in regions:
            from_zero, transferred = PostingIndex(region), PostingIndex(region)
            for entry in whole.entries:
                from_zero.apply(entry.op)
            for entry in late.entries:
                transferred.apply(entry.op)
            assert registry_bytes(transferred) == registry_bytes(from_zero)
            for key, version in from_zero.tombstones.items():
                assert transferred.tombstones[key] >= version

    def test_no_overwritten_attrs_stay_referenced(self):
        """A replica with a subscriber keeps no entry once it is sent, so
        after many overwrites of one key nothing holds an overwritten attrs
        dict."""
        k = Kernel(seed=0)
        k.add_node("n")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n")
        counter = _Counter("sub")
        k.register(counter, "n")
        rep.subscribe(k, "sub", 0)
        overwritten = []
        for i in range(200):
            rep.put(k, "hot", {"size": i})
            overwritten.append(rep.objects["hot"].attrs)
        overwritten.pop()  # the stored object's own attrs
        k.run_until_empty()
        gc.collect()
        assert counter.seen == 200
        assert [type(r).__name__ for r in gc.get_referrers(*overwritten) if r is not overwritten] == []


class TestLogIsTheChangeStream:
    @settings(max_examples=200, deadline=None)
    @given(TRANSFER_ACTIONS)
    def test_the_log_carries_exactly_the_changes_to_the_objects(self, actions):
        """Puts, overwrites (in and out of the edge's placement) and deletes
        at two full replicas, replicated to each other and to an edge
        replica. Replayed in order, each replica's log stores an object
        (attrs inside its placement) or removes one it holds, with old attrs
        that are the held object's own, and ends at the replica's objects.
        An index over a region inside the replica's placement, fed the whole
        log through `route`, holds exactly the replica's objects in that
        region, by key and version."""
        placement = make_region(size=(0, 50), genre=(None, None))
        k, reps = two_full_and_an_edge(placement)
        logs = {dc: record_log(k, rep) for dc, rep in reps.items()}
        for action in [*actions, ("deliver",)]:
            play(k, reps, action)
        for dc, rep in reps.items():
            held = {}
            for entry in logs[dc].entries:
                op = entry.op
                assert op.old_attrs is (held[op.key][0] if op.key in held else None)
                if op.new_attrs is not None and (rep.placement is None or rep.placement.contains(op.new_attrs)):
                    held[op.key] = (op.new_attrs, op.version)
                else:
                    assert op.key in held, f"{dc} logged the removal of {op.key}, which it did not hold"
                    del held[op.key]
            assert held == {key: (obj.attrs, obj.version) for key, obj in rep.objects.items()}
            regions = [placement, make_region(size=(10, 30), genre=("b", None))]
            if rep.placement is None:
                regions.append(make_region(size=(None, None), genre=(None, None)))
            indexers = [_Indexer(f"ix{i}@{dc}", region) for i, region in enumerate(regions)]
            for indexer in indexers:
                k.register(indexer, k.host_of(dc))
            indexing.route(k, logs[dc].actor_id, logs[dc].entries, [(ix.actor_id, ix.index.region) for ix in indexers])
            k.run_until_empty()
            for ix in indexers:
                expected = {key: obj.version for key, obj in rep.objects.items() if ix.index.region.contains(obj.attrs)}
                assert {key: row[2] for key, row in ix.index.registry.items()} == expected


STORE_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 4), st.integers(0, 99)),
        st.tuples(st.just("delete"), st.integers(0, 4)),
        st.tuples(
            st.just("replicated"),
            st.integers(0, 4),
            st.integers(1, 6),
            st.sampled_from(["o1", "o2"]),
            st.one_of(st.none(), st.integers(0, 99)),
        ),
    ),
    max_size=40,
)


class TestOneRowStore:
    @settings(max_examples=200, deadline=None)
    @given(STORE_ACTIONS, st.booleans())
    def test_a_replica_holds_what_an_index_over_its_region_applies(self, actions, scanned):
        """Local puts and deletes, and replicated ops (drawn from few
        versions, so many are duplicates or dominated; a version names one
        write of its key), at a full replica and at an edge replica, with
        sizes in and out of the edge's placement. Each op also goes through
        `PostingIndex.apply` to a bare index over the replica's region (the
        full space, or the placement). The two last-writer-wins rules agree:
        after every step the replica's objects and tombstones are the
        index's, no key is in both, an op lands at the replica exactly when the index applies
        it, and a local write always lands. A replica scanned before the
        first op keeps its posting sets current through every put."""
        placement = make_region(size=(0, 50), genre=(None, None))
        k = Kernel(seed=0)
        k.add_node("n")
        reps = [DcReplica("full", SCHEMA), DcReplica("edge", SCHEMA, placement=placement)]
        bare = [PostingIndex(make_region(size=(None, None), genre=(None, None))), PostingIndex(placement)]
        for rep in reps:
            k.register(rep, "n")
            if scanned:
                assert rep.scan(placement) == []
        history = {}
        for action in actions:
            for rep, index in zip(reps, bare):
                if action[0] == "replicated":
                    _, n, ts, origin, size = action
                    key, version = f"k{n}", Version(ts, origin)
                    attrs = history.setdefault((key, version), None if size is None else {"size": size, "genre": "a"})
                    op = WriteOp(key, attrs, None, version)
                    assert rep.apply_replicated(k, op) == index.apply(op)
                else:
                    key = f"k{action[1]}"
                    attrs = {"size": action[2], "genre": "a"} if action[0] == "put" else None
                    version = rep.put(k, key, attrs) if attrs is not None else rep.delete(k, key)
                    assert index.apply(WriteOp(key, attrs, None, version))
                assert rep.objects == index.registry
                assert rep.index.tombstones == index.tombstones
                assert not rep.objects.keys() & index.tombstones.keys()
        for rep in reps:
            assert rep.index.posting_sets().postings == rebuilt_postings(rep.index)


class TestPlacement:
    def test_edge_replica_keeps_only_placed_objects(self):
        from qpusim.core import HyperRegion, Interval

        placement = HyperRegion.of(
            {"size": Interval(0, 50), "genre": Interval()}
        )
        k = Kernel(seed=0)
        k.add_node("core")
        k.add_node("edge")
        k.add_link("core", "edge", 3)
        core = DcReplica("dc1", SCHEMA, peers=("edge1",))
        edge = DcReplica("edge1", SCHEMA, placement=placement, peers=())
        k.register(core, "core")
        k.register(edge, "edge")
        core.put(k, "in", {"size": 10})
        core.put(k, "out", {"size": 90})
        k.run_until_empty()
        assert edge.get("in") is not None
        assert edge.get("out") is None
        # a later update can move an object out of placement
        core.put(k, "in", {"size": 95})
        k.run_until_empty()
        assert edge.get("in") is None


class _Sink(Actor):
    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.entries = []

    def on_message(self, k, msg):
        assert isinstance(msg, LogEntry)
        self.entries.append(msg)


class _Indexer(Actor):
    """Applies the IndexUpdate batches it is sent to a PostingIndex."""

    def __init__(self, actor_id, region):
        self.actor_id = actor_id
        self.index = PostingIndex(region)

    def on_message(self, k, msg):
        assert isinstance(msg, indexing.IndexUpdate)
        for entry in msg.entries:
            self.index.apply(entry.op)


class _Counter(Actor):
    """Counts the entries it is sent and keeps none."""

    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.seen = 0

    def on_message(self, k, msg):
        assert isinstance(msg, LogEntry)
        self.seen += 1


class TestRawPostingSets:
    """Posting sets key raw values. The schema gives each attribute one kind;
    a value or bound of another kind compares as Python compares it."""

    def test_value_of_another_kind_raises_on_post(self):
        sets = PostingSets(["x"])
        sets.post("a", {"x": 1})
        sets.post("b", {"x": 2})
        with pytest.raises(TypeError):
            sets.post("c", {"x": "one"})
        assert sets.sorted_values["x"] == [1, 2]

    def test_bound_of_another_kind_raises_when_values_present(self):
        sets = PostingSets(["x"])
        sets.post("a", {"x": 1})
        for lo, hi in ((None, "z"), ("a", None)):
            with pytest.raises(TypeError):
                sets.keys_in([("x", lo, hi)])
        assert sets.keys_in([("x", 0, 2)]) == {"a"}
        # an int and a float compare numerically
        assert sets.keys_in([("x", 0.5, None)]) == sets.keys_in([("x", 0, 2.0)]) == {"a"}
        assert sets.keys_in([("x", 1.5, None)]) == set()

    def test_bound_of_another_kind_matches_nothing_when_no_values(self):
        sets = PostingSets(["x"])
        assert sets.keys_in([("x", 0.5, 2.5)]) == set()
        sets.post("a", {"x": 1})
        sets.unpost("a", {"x": 1})
        assert sets.keys_in([("x", "a", None)]) == set()
        assert sets.keys_in([("y", "a", None)]) == set()
