"""Replicated store semantics: last-writer-wins convergence against a
sorted-replay oracle, log feeds, and weak-consistency behaviours."""

import random

import pytest

from qpusim.core import AttrValue, IngestError, Kind, KindMismatch, Predicate, Query, make_attrs
from qpusim.simkernel import Actor, Kernel, SimError
from qpusim.store import ClientDelete, ClientWrite, DcReplica, LogEntry, PostingSets, DELETE, PUT

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
        if op.kind == PUT:
            live[op.key] = (op.new_attrs, op.version)
        else:
            live.pop(op.key, None)
    return live


def all_ops(replicas):
    seen = {}
    for rep in replicas.values():
        for entry in rep.log:
            seen[(entry.op.version, entry.op.key)] = entry.op
    return list(seen.values())


class TestPut:
    def test_read_your_write_at_origin(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        assert reps["dc1"].get("k1").attrs["size"].value == 5

    def test_peer_sees_write_only_after_delay(self):
        k, reps = build(latency=5)
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        assert reps["dc2"].get("k1") is None
        k.run_until(4)
        assert reps["dc2"].get("k1") is None
        k.run_until(5)
        assert reps["dc2"].get("k1") is not None

    def test_kind_mismatch_rejected(self):
        k, reps = build()
        with pytest.raises(IngestError):
            reps["dc1"].put(k, "k1", make_attrs({"size": "big"}))
        with pytest.raises(IngestError):
            reps["dc1"].put(k, "k1", make_attrs({"unknown": 1}))

    def test_thousand_random_puts_converge_to_replay_oracle(self):
        k, reps = build(n_dcs=3, latency=7, jitter=5, seed=11)
        rng = random.Random(11)
        for i in range(1000):
            dc = rng.choice(["dc1", "dc2", "dc3"])
            key = f"k{rng.randrange(200)}"
            attrs = {"size": rng.randrange(50), "genre": rng.choice("abcdef")}
            k.schedule(rng.randrange(0, 2000), dc, ClientWrite(key, make_attrs(attrs)))
        k.run_until_empty()
        prints = {dc: rep.state_fingerprint() for dc, rep in reps.items()}
        assert prints["dc1"] == prints["dc2"] == prints["dc3"]
        oracle = lww_replay(all_ops(reps))
        got = {key: (obj.attrs, obj.version) for key, obj in reps["dc1"].objects.items()}
        assert got == oracle


class TestDelete:
    def test_put_then_delete_reads_absent(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        reps["dc1"].delete(k, "k1")
        assert reps["dc1"].get("k1") is None

    def test_delete_of_absent_key_still_logs_a_tombstone_op(self):
        k, reps = build()
        reps["dc1"].delete(k, "ghost")
        assert len(reps["dc1"].log) == 1
        assert reps["dc1"].log[0].op.kind == DELETE
        assert "ghost" in reps["dc1"].tombstones

    def test_late_older_put_stays_deleted(self):
        k, reps = build(latency=5)
        v_put = reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        v_del = reps["dc2"].put(k, "other", make_attrs({"size": 1}))  # advance dc2 clock
        v_del = reps["dc2"].delete(k, "k1")
        assert v_del > v_put
        k.run_until_empty()
        # the delete won at every replica even where the put arrived later
        for rep in reps.values():
            assert rep.get("k1") is None
            assert rep.tombstones["k1"] == v_del

    def test_interleaved_put_delete_race_converges_to_max_version(self):
        k, reps = build(n_dcs=2, latency=9, jitter=6, seed=3)
        rng = random.Random(3)
        for i in range(100):
            dc = rng.choice(["dc1", "dc2"])
            if rng.random() < 0.4:
                k.schedule(rng.randrange(0, 400), dc, ClientDelete("hot"))
            else:
                k.schedule(rng.randrange(0, 400), dc, ClientWrite("hot", make_attrs({"size": i})))
        k.run_until_empty()
        assert reps["dc1"].state_fingerprint() == reps["dc2"].state_fingerprint()
        oracle = lww_replay(all_ops(reps))
        if "hot" in oracle:
            assert reps["dc1"].objects["hot"].version == oracle["hot"][1]
        else:
            assert reps["dc1"].get("hot") is None


class TestGetScan:
    def test_get_never_written_key_absent(self):
        _, reps = build()
        assert reps["dc1"].get("nope") is None

    def test_scan_empty_store(self):
        _, reps = build()
        q = Query.of([Predicate.between("size", 0, 100)])
        assert reps["dc1"].scan(q) == []

    def test_scan_single_match(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        reps["dc1"].put(k, "k2", make_attrs({"size": 500}))
        q = Query.of([Predicate.between("size", 0, 100)])
        assert [o.key for o in reps["dc1"].scan(q)] == ["k1"]

    def test_scan_empty_predicate_matches_nothing(self):
        k, reps = build()
        for size in (5, 6):
            reps["dc1"].put(k, f"k{size}", make_attrs({"size": size}))
        # the integers strictly between 5 and 6
        q = Query.of([Predicate("size", AttrValue.of(5), AttrValue.of(6), False, False)])
        assert reps["dc1"].scan(q) == []
        assert reps["dc1"].scan(q) == []  # once more, from the built posting sets

    def test_scan_attribute_outside_schema_matches_nothing(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        assert reps["dc1"].scan(Query.of([Predicate.between("colour", 0, 10)])) == []
        q = Query.of([Predicate.between("colour", 0, 10), Predicate.between("size", 0, 10)])
        assert reps["dc1"].scan(q) == []

    def test_scan_predicate_of_another_kind_raises_once_values_exist(self):
        k, reps = build()
        q = Query.of([Predicate.between("size", "a", "z")])
        assert reps["dc1"].scan(q) == []
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        with pytest.raises(KindMismatch):
            reps["dc1"].scan(q)

    def test_scan_matches_independent_filter_loop(self):
        k, reps = build()
        rng = random.Random(5)
        for i in range(500):
            reps["dc1"].put(
                k, f"k{i}", make_attrs({"size": rng.randrange(100), "genre": rng.choice("abcdef")})
            )
        q = Query.of([Predicate.between("size", 20, 70), Predicate.between("genre", "b", "d")])
        expected = sorted(
            key
            for key, obj in reps["dc1"].objects.items()
            if 20 <= obj.attrs["size"].value <= 70 and "b" <= obj.attrs["genre"].value <= "d"
        )
        assert [o.key for o in reps["dc1"].scan(q)] == expected


class TestApplyReplicated:
    def test_older_version_ignored(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        k.run_until_empty()
        newer = reps["dc2"].objects["k1"].version
        old_op = reps["dc1"].log[0].op
        # bump dc2 ahead, then replay the old op
        reps["dc2"].put(k, "k1", make_attrs({"size": 9}))
        assert reps["dc2"].apply_replicated(k, old_op) is False
        assert reps["dc2"].objects["k1"].attrs["size"].value == 9

    def test_duplicate_delivery_ignored(self):
        k, reps = build()
        reps["dc1"].put(k, "k1", make_attrs({"size": 5}))
        op = reps["dc1"].log[0].op
        assert reps["dc2"].apply_replicated(k, op) is True
        log_len = len(reps["dc2"].log)
        assert reps["dc2"].apply_replicated(k, op) is False
        assert len(reps["dc2"].log) == log_len

    def test_per_key_versions_strictly_increase_in_each_log(self):
        k, reps = build(n_dcs=3, latency=4, jitter=8, seed=21)
        rng = random.Random(21)
        for _ in range(300):
            dc = rng.choice(["dc1", "dc2", "dc3"])
            key = f"k{rng.randrange(10)}"
            if rng.random() < 0.2:
                k.schedule(rng.randrange(500), dc, ClientDelete(key))
            else:
                k.schedule(rng.randrange(500), dc, ClientWrite(key, make_attrs({"size": 1})))
        k.run_until_empty()
        for rep in reps.values():
            last = {}
            for entry in rep.log:
                key = entry.op.key
                if key in last:
                    assert entry.op.version > last[key]
                last[key] = entry.op.version


class TestSubscribeLog:
    def test_subscriber_sees_writes_in_order(self):
        k, reps = build()
        sink = _Sink("sink")
        k.register(sink, "node-dc1")
        for i in range(3):
            reps["dc1"].put(k, f"k{i}", make_attrs({"size": i}))
        reps["dc1"].subscribe(k, "sink", 0)
        k.run_until_empty()
        assert [e.op.key for e in sink.entries] == ["k0", "k1", "k2"]
        assert [e.seq for e in sink.entries] == [0, 1, 2]

    def test_two_subscribers_see_identical_sequences(self):
        k, reps = build()
        s1, s2 = _Sink("s1"), _Sink("s2")
        k.register(s1, "node-dc1")
        k.register(s2, "node-dc1")
        reps["dc1"].subscribe(k, "s1", 0)
        reps["dc1"].subscribe(k, "s2", 0)
        for i in range(5):
            reps["dc1"].put(k, f"k{i}", make_attrs({"size": i}))
        k.run_until_empty()
        assert [e.seq for e in s1.entries] == [e.seq for e in s2.entries]
        assert [e.op for e in s1.entries] == [e.op for e in s2.entries]

    def test_mid_stream_subscription_is_a_suffix(self):
        k, reps = build()
        full, suffix = _Sink("full"), _Sink("suffix")
        k.register(full, "node-dc1")
        k.register(suffix, "node-dc1")
        reps["dc1"].subscribe(k, "full", 0)
        for i in range(4):
            reps["dc1"].put(k, f"k{i}", make_attrs({"size": i}))
        reps["dc1"].subscribe(k, "suffix", 2)
        for i in range(4, 6):
            reps["dc1"].put(k, f"k{i}", make_attrs({"size": i}))
        k.run_until_empty()
        assert [e.seq for e in suffix.entries] == [e.seq for e in full.entries][2:]

    def test_subscribe_beyond_log_length_is_sim_error(self):
        k, reps = build()
        k.register(_Sink("late"), "node-dc1")
        for i in range(2):
            reps["dc1"].put(k, f"k{i}", make_attrs({"size": i}))
        reps["dc1"].subscribe(k, "late", 2)  # the log's end is a valid start
        with pytest.raises(SimError, match="from_seq 3 beyond log length 2"):
            reps["dc1"].subscribe(k, "late", 3)


class TestPlacement:
    def test_edge_replica_keeps_only_placed_objects(self):
        from qpusim.core import AttrValue, HyperRegion, Interval

        placement = HyperRegion.of(
            {"size": Interval(AttrValue.of(0), AttrValue.of(50)), "genre": Interval()}
        )
        k = Kernel(seed=0)
        k.add_node("core")
        k.add_node("edge")
        k.add_link("core", "edge", 3)
        core = DcReplica("dc1", SCHEMA, peers=("edge1",))
        edge = DcReplica("edge1", SCHEMA, full_replica=False, placement=placement, peers=())
        k.register(core, "core")
        k.register(edge, "edge")
        core.put(k, "in", make_attrs({"size": 10}))
        core.put(k, "out", make_attrs({"size": 90}))
        k.run_until_empty()
        assert edge.get("in") is not None
        assert edge.get("out") is None
        # a later update can move an object out of placement
        core.put(k, "in", make_attrs({"size": 95}))
        k.run_until_empty()
        assert edge.get("in") is None


class _Sink(Actor):
    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.entries = []

    def on_message(self, k, msg):
        assert isinstance(msg, LogEntry)
        self.entries.append(msg)


class TestRawPostingSets:
    """Posting sets key raw values and guard each attribute's kind."""

    def test_value_of_another_kind_raises_on_post(self):
        sets = PostingSets(["x"])
        sets.post("a", make_attrs({"x": 1}))
        # hash(1) == hash(1.0) and 1 == 1.0: without the guard, b would join a's set
        with pytest.raises(KindMismatch):
            sets.post("b", make_attrs({"x": 1.0}))
        assert sets.postings["x"] == {1: {"a"}}
        assert sets.kinds == {"x": Kind.INT}

    def test_bound_of_another_kind_raises_when_values_present(self):
        sets = PostingSets(["x"])
        sets.post("a", make_attrs({"x": 1}))
        for lo, hi in ((AttrValue.of(0.5), None), (None, AttrValue.of("z")), (AttrValue.of(0), AttrValue.of(2.0))):
            with pytest.raises(KindMismatch):
                sets.keys_in([("x", lo, hi)])
        assert sets.keys_in([("x", AttrValue.of(0), AttrValue.of(2))]) == {"a"}

    def test_bound_of_another_kind_matches_nothing_when_no_values(self):
        sets = PostingSets(["x"])
        assert sets.keys_in([("x", AttrValue.of(0.5), AttrValue.of(2.5))]) == set()
        sets.post("a", make_attrs({"x": 1}))
        sets.unpost("a", make_attrs({"x": 1}))
        assert sets.keys_in([("x", AttrValue.of("a"), None)]) == set()
        assert sets.keys_in([("y", AttrValue.of("a"), None)]) == set()
