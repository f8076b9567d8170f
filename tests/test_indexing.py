"""Posting index semantics, filter routing, merge convergence, recheck, and
staleness measurement, each against an independent oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qpusim.core import AttrValue, Kind, Predicate, Query, Version, make_attrs, query_bounds, query_matches
from qpusim.indexing import (
    FilterQpu,
    IndexQpu,
    IndexUpdate,
    MergeQpu,
    PostingIndex,
    StampedOp,
    filter_targets,
)
from qpusim.qpunet import CacheQpu, Connection, QueryMsg, recheck
from qpusim.simkernel import Kernel
from qpusim.store import DELETE, PUT, ClientDelete, ClientWrite, DcReplica, WriteOp

from conftest import Client, make_region, run_query

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}
FULL = make_region(size=(None, None), genre=(None, None))


def put_op(key, ts, origin="dc1", old=None, **attrs):
    return WriteOp(key, PUT, make_attrs(attrs), make_attrs(old) if old else None, Version(ts, origin), origin)


def del_op(key, ts, origin="dc1", old=None):
    return WriteOp(key, DELETE, None, make_attrs(old) if old else None, Version(ts, origin), origin)


def registry_keys(idx):
    return set(idx.registry)


class TestIndexApply:
    def test_same_op_twice_second_ignored(self):
        idx = PostingIndex(FULL)
        op = put_op("k1", 1, size=5, genre="a")
        assert idx.apply(op) is True
        snapshot = idx.registry_bytes()
        assert idx.apply(op) is False
        assert idx.registry_bytes() == snapshot

    def test_put_then_delete_leaves_no_postings(self):
        idx = PostingIndex(FULL)
        idx.apply(put_op("k1", 1, size=5, genre="a"))
        idx.apply(del_op("k1", 2, old={"size": 5, "genre": "a"}))
        assert registry_keys(idx) == set()
        assert all(not vals for vals in idx.postings.values())
        assert idx.tombstones["k1"] == Version(2, "dc1")

    def test_out_of_region_put_is_a_removal(self):
        idx = PostingIndex(make_region(size=(0, 50), genre=(None, None)))
        idx.apply(put_op("k1", 1, size=10))
        idx.apply(put_op("k1", 2, size=90, old={"size": 10}))
        assert registry_keys(idx) == set()

    def test_stale_op_cannot_resurrect_deleted_key(self):
        idx = PostingIndex(FULL)
        idx.apply(del_op("k1", 5))
        assert idx.apply(put_op("k1", 3, size=1)) is False
        assert registry_keys(idx) == set()

    def test_update_moves_postings(self):
        idx = PostingIndex(FULL)
        idx.apply(put_op("k1", 1, size=5))
        idx.apply(put_op("k1", 2, size=9, old={"size": 5}))
        vals = {v.value for v in idx.sorted_values["size"]}
        assert vals == {9}

    def test_shuffled_200_op_stream_converges(self):
        rng = random.Random(8)
        ops = []
        ts = 0
        for _ in range(200):
            ts += 1
            key = f"k{rng.randrange(30)}"
            if rng.random() < 0.25:
                ops.append(del_op(key, ts))
            else:
                ops.append(put_op(key, ts, size=rng.randrange(40), genre=rng.choice("abc")))
        a, b = PostingIndex(FULL), PostingIndex(FULL)
        for op in ops:
            a.apply(op)
        shuffled = ops[:]
        rng.shuffle(shuffled)
        for op in shuffled:
            b.apply(op)
        assert a.registry_bytes() == b.registry_bytes()
        assert a.tombstones == b.tombstones
        # sorted-replay oracle agrees
        oracle = {}
        for op in sorted(ops, key=lambda o: o.version):
            if op.kind == PUT:
                oracle[op.key] = op.new_attrs
            else:
                oracle.pop(op.key, None)
        assert {k: v[0] for k, v in a.registry.items()} == oracle

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 8), st.booleans(), st.integers(0, 20)), max_size=40), st.randoms())
    def test_state_is_a_pure_function_of_op_set(self, raw, shuffler):
        ops = []
        for ts, (keyn, is_del, size) in enumerate(raw, start=1):
            key = f"k{keyn}"
            ops.append(del_op(key, ts) if is_del else put_op(key, ts, size=size))
        a, b = PostingIndex(FULL), PostingIndex(FULL)
        for op in ops:
            a.apply(op)
        dup = ops + ops[: len(ops) // 2]  # duplicates must not matter either
        shuffler.shuffle(dup)
        for op in dup:
            b.apply(op)
        assert a.registry_bytes() == b.registry_bytes()

    def test_posting_sets_rebuildable_from_registry(self):
        idx = PostingIndex(FULL)
        rng = random.Random(10)
        for ts in range(1, 150):
            key = f"k{rng.randrange(25)}"
            if rng.random() < 0.3:
                idx.apply(del_op(key, ts))
            else:
                idx.apply(put_op(key, ts, size=rng.randrange(20), genre=rng.choice("ab")))
        assert idx.postings == idx.rebuilt_postings()


class TestIndexLookup:
    def test_empty_index(self):
        idx = PostingIndex(FULL)
        entries, in_region = idx.lookup(Query.of([Predicate.between("size", 0, 10)]))
        assert entries == [] and in_region

    def test_lower_boundary_included(self):
        idx = PostingIndex(FULL)
        idx.apply(put_op("k1", 1, size=10))
        entries, _ = idx.lookup(Query.of([Predicate.between("size", 10, 20)]))
        assert [e[0] for e in entries] == ["k1"]

    def test_query_outside_region_flagged(self):
        idx = PostingIndex(make_region(size=(0, 50), genre=(None, None)))
        entries, in_region = idx.lookup(Query.of([Predicate.between("size", 60, 70)]))
        assert entries == [] and not in_region

    def test_thousand_objects_fifty_queries_match_linear_filter(self):
        idx = PostingIndex(FULL)
        rng = random.Random(77)
        for i in range(1000):
            idx.apply(put_op(f"k{i}", i + 1, size=rng.randrange(200), genre=rng.choice("abcdefgh")))
        for _ in range(50):
            lo = rng.randrange(150)
            glo = rng.choice("abcdefg")
            q = Query.of(
                [
                    Predicate.between("size", lo, lo + rng.randrange(1, 60)),
                    Predicate.between("genre", glo, chr(ord(glo) + 1)),
                ]
            )
            entries, _ = idx.lookup(q)
            expected = sorted(k for k, (attrs, _v) in idx.registry.items() if query_matches(q, attrs))
            assert [e[0] for e in entries] == expected


class TestFilterRouting:
    REGIONS = {
        "A": make_region(size=(0, 25), genre=(None, None)),
        "B": make_region(size=(25, 50), genre=(None, None)),
        "C": make_region(size=(50, 75), genre=(None, None)),
        "D": make_region(size=(75, 100), genre=(None, None)),
    }

    def test_put_delivered_to_new_region_only(self):
        targets = list(self.REGIONS.items())
        assert filter_targets(put_op("k", 1, size=10), targets) == ["A"]

    def test_move_delivered_to_old_and_new(self):
        targets = list(self.REGIONS.items())
        op = put_op("k", 2, old={"size": 10}, size=60)
        assert filter_targets(op, targets) == ["A", "C"]

    def test_random_stream_matches_containment_oracle(self):
        targets = list(self.REGIONS.items())
        rng = random.Random(14)
        prev = {}
        for ts in range(1, 400):
            key = f"k{rng.randrange(40)}"
            if rng.random() < 0.2:
                op = del_op(key, ts, old=prev.pop(key, None))
            else:
                old = prev.get(key)
                attrs = {"size": rng.randrange(100), "genre": rng.choice("ab")}
                op = put_op(key, ts, old=old, **attrs)
                prev[key] = attrs
            expected = [
                name
                for name, region in targets
                if (op.new_attrs is not None and region.contains(op.new_attrs))
                or (op.old_attrs is not None and region.contains(op.old_attrs))
            ]
            assert filter_targets(op, targets) == expected


def single_index_net(*, latency=1, batch_interval=0, batch_size=None, jitter=0, seed=0, region=None):
    """One DC, one filter, one index QPU, and a client."""
    k = Kernel(seed=seed)
    k.add_node("n-dc")
    k.add_node("n-idx")
    k.add_link("n-dc", "n-idx", latency, jitter)
    rep = DcReplica("dc1", SCHEMA)
    k.register(rep, "n-dc")
    iq = IndexQpu("iq", region or FULL, recheck_replica=rep)
    k.register(iq, "n-idx")
    flt = FilterQpu("flt", rep, [("iq", iq.region)], batch_interval=batch_interval, batch_size=batch_size)
    k.register(flt, "n-dc")
    cl = Client()
    k.register(cl, "n-idx")
    return k, rep, flt, iq, cl


class TestIndexQpuPipeline:
    def test_write_becomes_queryable_after_propagation(self):
        k, rep, _, iq, cl = single_index_net(latency=5)
        rep.put(k, "k1", make_attrs({"size": 7}))
        k.run_until_empty()
        resp = run_query(k, cl, "iq", Query.of([Predicate.between("size", 0, 10)]))
        assert resp.complete and [e[0] for e in resp.entries] == ["k1"]

    def test_gap_in_source_stream_holds_batch(self):
        k, rep, _, iq, cl = single_index_net()
        op1 = StampedOp(put_op("a", 1, size=1), 0)
        op2 = StampedOp(put_op("b", 2, size=2), 0)
        op3 = StampedOp(put_op("c", 3, size=3), 0)
        iq.handle_update(k, IndexUpdate("src", 1, (op1,)))
        iq.handle_update(k, IndexUpdate("src", 3, (op3,)))  # gap: seq 2 missing
        assert registry_keys(iq.index) == {"a"}
        iq.handle_update(k, IndexUpdate("src", 2, (op2,)))
        assert registry_keys(iq.index) == {"a", "b", "c"}
        assert iq.index.highwater["src"] == 3

    def test_duplicate_batch_ignored(self):
        k, rep, _, iq, cl = single_index_net()
        u = IndexUpdate("src", 1, (StampedOp(put_op("a", 1, size=1), 0),))
        iq.handle_update(k, u)
        iq.handle_update(k, u)
        assert registry_keys(iq.index) == {"a"}


def pull_net(region=FULL):
    """An index QPU and a replica cache pulling from it on one node."""
    k = Kernel(seed=0)
    k.add_node("n")
    iq = IndexQpu("iq", region)
    k.register(iq, "n")
    cq = CacheQpu("cq", SCHEMA, mode="replica")
    cq.connect(Connection("iq", region))
    k.register(cq, "n")
    return k, iq, cq


def pull(k, cq):
    """One pull, run to completion; returns the installed reply and whether
    it ticked progress."""
    before = k.probes.progress
    cq.pull_now(k)
    k.run_until_empty()
    return cq._snapshot, k.probes.progress > before


LOOKUPS = [
    Query.of([Predicate.between("size", 0, 10)]),
    Query.of([Predicate.between("size", 5, 60)]),
    Query.of([Predicate.equals("genre", "a")]),
    Query.of([Predicate.between("size", 20, 45), Predicate.equals("genre", "b")]),
]

PULL_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 7), st.integers(0, 99), st.sampled_from("ab")),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("upgrade"), st.integers(0, 7), st.integers(0, 49), st.booleans()),
        st.tuples(st.just("stale"), st.integers(0, 7)),
        st.just(("clear",)),
        st.just(("pull",)),
    ),
    max_size=60,
)


class TestIncrementalPulls:
    @settings(max_examples=150, deadline=None)
    @given(PULL_ACTIONS)
    def test_delta_fed_cache_equals_upstream(self, actions):
        """Puts, in-place updates, moves out of the region, deletes, stale
        ops, equal-version tombstone->put upgrades and clears, with pulls
        in between: after every pull the cache holds exactly the upstream's
        rows and tombstones, answers lookups as a scan of its snapshot does,
        got only the changed keys, and ticked iff the snapshot changed."""
        k, iq, cq = pull_net(make_region(size=(0, 50), genre=(None, None)))
        up = iq.index
        ts = 0
        changed: set[str] = set()
        cleared = False
        last_entries = None

        def apply(op):
            if up.apply(op):
                changed.add(op.key)

        def check_pull():
            nonlocal changed, cleared, last_entries
            reply, ticked = pull(k, cq)
            keys = {row[0] for row in reply.entries}
            if reply.full:
                assert cleared
                assert keys == set(up.registry) | set(up.tombstones)
            else:
                assert keys == changed
            assert cq._index.registry_bytes() == up.registry_bytes()
            assert cq._index.tombstones == up.tombstones
            assert cq.snapshot_keys() == set(up.registry)
            entries = up.snapshot().entries
            assert ticked == (entries != last_entries)
            for q in LOOKUPS:
                scan = [(key, a, v) for key, a, v in entries if a is not None and query_matches(q, a)]
                assert cq._index.lookup(q)[0] == scan
            changed, cleared, last_entries = set(), False, entries

        for action in actions:
            if action[0] == "put":
                _, n, size, genre = action
                ts += 1
                apply(put_op(f"k{n}", ts, size=size, genre=genre))
            elif action[0] == "delete":
                ts += 1
                apply(del_op(f"k{action[1]}", ts))
            elif action[0] == "upgrade":
                _, n, size, pull_between = action
                ts += 1
                apply(del_op(f"k{n}", ts))
                if pull_between:
                    check_pull()
                apply(put_op(f"k{n}", ts, size=size, genre="a"))
            elif action[0] == "stale":
                apply(put_op(f"k{action[1]}", 0, origin="dc0", size=1, genre="b"))
            elif action[0] == "clear":
                up.clear()
                changed, cleared = set(up.registry), True
            else:
                check_pull()
        check_pull()

    def test_pull_without_writes_is_empty_and_does_not_tick(self):
        k, iq, cq = pull_net()
        iq.index.apply(put_op("k1", 1, size=5, genre="a"))
        first, ticked = pull(k, cq)
        assert ticked and [row[0] for row in first.entries] == ["k1"]
        again, ticked = pull(k, cq)
        assert again.entries == () and not again.full and not ticked
        assert cq.snapshot_keys() == {"k1"}

    def test_pull_after_clear_is_full_and_resets_the_cache(self):
        k, iq, cq = pull_net()
        iq.index.apply(put_op("k1", 1, size=5, genre="a"))
        iq.index.apply(del_op("k2", 2))
        pull(k, cq)
        iq.index.clear()
        reply, ticked = pull(k, cq)
        assert reply.full and reply.entries == () and ticked
        assert cq.snapshot_keys() == set() and cq._index.tombstones == {}
        iq.index.apply(put_op("k3", 3, size=7, genre="b"))
        reply, ticked = pull(k, cq)
        assert not reply.full and [row[0] for row in reply.entries] == ["k3"] and ticked
        assert cq.snapshot_keys() == {"k3"}

    def test_mutating_a_written_dict_changes_neither_index_nor_cache(self):
        k, rep, flt, iq, cl = single_index_net()
        cq = CacheQpu("cq", SCHEMA, mode="replica")
        cq.connect(Connection("iq", FULL))
        k.register(cq, "n-idx")
        attrs = make_attrs({"size": 5, "genre": "a"})
        rep.put(k, "k1", attrs)
        k.run_until_empty()
        pull(k, cq)
        attrs["size"] = AttrValue.of(90)
        q = Query.of([Predicate.between("size", 0, 10)])
        for idx in (iq.index, cq._index):
            assert idx.registry["k1"][0]["size"] == AttrValue.of(5)
            assert [e[0] for e in idx.lookup(q)[0]] == ["k1"]
            assert idx.postings == idx.rebuilt_postings()


MIXED_SCHEMA = {"size": Kind.INT, "weight": Kind.FLOAT, "genre": Kind.TEXT}
MIXED_VALUES = {
    "size": st.integers(0, 9),
    "weight": st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]),
    "genre": st.sampled_from(["a", "ab", "b", "c"]),
}


@st.composite
def mixed_predicate(draw, attr):
    """Two-sided or one-sided, each bound inclusive or exclusive; two-sided
    int predicates such as (5, 6) exclusive hold no value at all."""
    lo, hi = sorted([draw(MIXED_VALUES[attr]), draw(MIXED_VALUES[attr])])
    lo_inc, hi_inc = draw(st.booleans()), draw(st.booleans())
    side = draw(st.sampled_from(["both", "lower", "upper"]))
    if side == "lower":
        return Predicate(attr, AttrValue.of(lo), None, lo_inc)
    if side == "upper":
        return Predicate(attr, None, AttrValue.of(hi), upper_inclusive=hi_inc)
    if lo == hi:
        lo_inc = hi_inc = True
    return Predicate(attr, AttrValue.of(lo), AttrValue.of(hi), lo_inc, hi_inc)


MIXED_QUERIES = st.lists(
    st.lists(st.sampled_from(sorted(MIXED_SCHEMA)), min_size=1, max_size=3, unique=True).flatmap(
        lambda attrs: st.tuples(*[mixed_predicate(a) for a in attrs]).map(Query.of)
    ),
    min_size=1,
    max_size=4,
)

EXACT_ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(["dc1", "dc2"]),
            st.integers(0, 7),
            st.fixed_dictionaries({}, optional=MIXED_VALUES),
        ),
        st.tuples(st.just("delete"), st.sampled_from(["dc1", "dc2"]), st.integers(0, 7)),
        st.just(("deliver",)),
        st.just(("scan",)),
    ),
    max_size=50,
)


class TestExactPostingSets:
    @settings(max_examples=200, deadline=None)
    @given(EXACT_ACTIONS, MIXED_QUERIES)
    def test_scans_and_lookups_equal_a_matching_loop(self, actions, queries):
        """Puts (in place, with missing attributes, in and out of the edge
        placement), deletes and replicated ops at two full replicas and an
        edge replica. The first "scan" action builds each replica's posting
        sets from the objects written so far; from then on the queries run
        after every action, so every later write goes through posting
        maintenance. Every scan, and every lookup of a full and a clipped
        index fed by dc1's log, returns exactly the key-ordered rows a
        query_matches loop selects."""
        k = Kernel(seed=0)
        for node in ("n1", "n2", "n3"):
            k.add_node(node)
        k.add_link("n1", "n2", 3)
        k.add_link("n1", "n3", 2)
        k.add_link("n2", "n3", 4)
        placement = make_region(size=(0, 6), weight=(None, None), genre=(None, None))
        reps = [
            DcReplica("dc1", MIXED_SCHEMA, peers=("dc2", "edge")),
            DcReplica("dc2", MIXED_SCHEMA, peers=("dc1", "edge")),
            DcReplica("edge", MIXED_SCHEMA, full_replica=False, placement=placement),
        ]
        for rep, node in zip(reps, ("n1", "n2", "n3")):
            k.register(rep, node)
        by_id = {rep.dc_id: rep for rep in reps}
        dc1 = by_id["dc1"]
        indexes = [
            PostingIndex(make_region(size=(None, None), weight=(None, None), genre=(None, None))),
            PostingIndex(make_region(size=(2, 8), weight=(0.5, 3.0), genre=(None, None))),
        ]
        fed = 0

        def check():
            nonlocal fed
            for entry in dc1.log[fed:]:
                for idx in indexes:
                    idx.apply(entry.op)
            fed = len(dc1.log)
            for q in queries:
                for rep in reps:
                    expected = [o for _key, o in sorted(rep.objects.items()) if query_matches(q, o.attrs)]
                    assert rep.scan(q) == expected
                if any(lo is not None and hi is not None and not lo < hi for _a, lo, hi in query_bounds(q)):
                    continue  # lookup maps q to a region first, which rejects an empty predicate
                for idx in indexes:
                    expected = [
                        (key, o.attrs, o.version)
                        for key, o in sorted(dc1.objects.items())
                        if idx.region.contains(o.attrs) and query_matches(q, o.attrs)
                    ]
                    assert idx.lookup(q)[0] == expected

        built = False
        for action in actions:
            if action[0] == "put":
                _, dc, n, raw = action
                by_id[dc].put(k, f"k{n}", make_attrs(raw))
            elif action[0] == "delete":
                by_id[action[1]].delete(k, f"k{action[2]}")
            elif action[0] == "deliver":
                k.run_until_empty()
            built = built or action[0] == "scan"
            if built:
                check()
        k.run_until_empty()
        check()


class TestMergeIngest:
    def build_merge(self):
        k = Kernel(seed=0)
        k.add_node("n")
        m = MergeQpu("mq", FULL)
        k.register(m, "n")
        return k, m

    def test_disjoint_sources_union(self):
        k, m = self.build_merge()
        m.handle_update(k, IndexUpdate("s1", 1, (StampedOp(put_op("a", 1, origin="s1", size=1), 0),)))
        m.handle_update(k, IndexUpdate("s2", 1, (StampedOp(put_op("b", 1, origin="s2", size=2), 0),)))
        assert registry_keys(m.index) == {"a", "b"}

    def test_conflicting_key_max_version_wins_either_order(self):
        lo = StampedOp(put_op("k", 3, origin="s1", size=1), 0)
        hi = StampedOp(put_op("k", 5, origin="s2", size=2), 0)
        for first, second in (((("s1", lo), ("s2", hi))), ((("s2", hi), ("s1", lo)))):
            k, m = self.build_merge()
            for src, op in (first, second):
                m.handle_update(k, IndexUpdate(src, 1, (op,)))
            assert m.index.registry["k"][1] == Version(5, "s2")

    def test_three_sources_five_interleavings_identical(self):
        rng = random.Random(30)
        streams = {}
        for s in ("s1", "s2", "s3"):
            ops = []
            for ts in range(1, 301):
                key = f"k{rng.randrange(60)}"
                if rng.random() < 0.2:
                    ops.append(del_op(key, ts, origin=s))
                else:
                    ops.append(put_op(key, ts, origin=s, size=rng.randrange(99), genre=rng.choice("abc")))
            streams[s] = ops
        results = set()
        for trial in range(5):
            k, m = self.build_merge()
            trial_rng = random.Random(trial)
            cursors = {s: 0 for s in streams}
            seqs = {s: 0 for s in streams}
            while any(cursors[s] < len(streams[s]) for s in streams):
                s = trial_rng.choice([s for s in streams if cursors[s] < len(streams[s])])
                n = min(trial_rng.randint(1, 7), len(streams[s]) - cursors[s])
                batch = tuple(StampedOp(op, 0) for op in streams[s][cursors[s] : cursors[s] + n])
                cursors[s] += n
                seqs[s] += 1
                m.handle_update(k, IndexUpdate(s, seqs[s], batch))
            results.add(m.index.registry_bytes())
        assert len(results) == 1


class TestRecheck:
    def test_deleted_candidate_dropped(self):
        k, rep, _, iq, cl = single_index_net()
        rep.put(k, "k1", make_attrs({"size": 7}))
        k.run_until_empty()
        rep.delete(k, "k1")
        q = Query.of([Predicate.between("size", 0, 10)])
        entries, _ = iq.index.lookup(q)
        assert entries, "index is briefly stale by construction"
        assert recheck(entries, q, rep) == []

    def test_updated_but_still_matching_kept_with_fresh_snapshot(self):
        k, rep, _, iq, cl = single_index_net()
        rep.put(k, "k1", make_attrs({"size": 7}))
        k.run_until_empty()
        v2 = rep.put(k, "k1", make_attrs({"size": 9}))
        q = Query.of([Predicate.between("size", 0, 10)])
        entries, _ = iq.index.lookup(q)
        out = recheck(entries, q, rep)
        assert [(e[0], e[2]) for e in out] == [("k1", v2)]
        assert out[0][1]["size"].value == 9

    def test_no_returned_entry_ever_violates_query_at_recheck_time(self):
        k, rep, _, iq, cl = single_index_net(latency=6, jitter=4, seed=5)
        rng = random.Random(5)
        q = Query.of([Predicate.between("size", 0, 50)])
        for trial in range(100):
            key = f"k{rng.randrange(12)}"
            t = k.now + rng.randrange(1, 15)
            if rng.random() < 0.4:
                k.schedule(t, "dc1", ClientDelete(key))
            else:
                k.schedule(t, "dc1", ClientWrite(key, make_attrs({"size": rng.randrange(100)})))
            k.schedule(t + rng.randrange(0, 8), "iq", QueryMsg(f"adv{trial}", q, "client"))
            k.run_until(t + rng.randrange(0, 20))
        k.run_until_empty()
        assert k.probes.type2_violations() == []


class TestStaleness:
    def test_zero_latency_links_give_zero_deltas(self):
        k, rep, *_ = single_index_net(latency=1)
        # co-locate everything: rebind index onto the DC node
        k.rebind("iq", "n-dc")
        for i in range(5):
            rep.put(k, f"k{i}", make_attrs({"size": i}))
        k.run_until_empty()
        assert [d for _, d in k.probes.staleness] == [0] * 5

    def test_fixed_link_latency_unloaded_every_delta_equals_latency(self):
        k, rep, *_ = single_index_net(latency=7)
        for i in range(10):
            rep.put(k, f"k{i}", make_attrs({"size": i}))
            k.run_until_empty()
        assert [d for _, d in k.probes.staleness] == [7] * 10

    def test_halving_batch_interval_strictly_reduces_median_staleness(self):
        import statistics

        def run(batch_interval):
            k, rep, flt, iq, _ = single_index_net(
                latency=1, batch_interval=batch_interval, batch_size=5, seed=42
            )
            rng = k.rng("writes")
            for i in range(400):  # 8 ops per 50ms >> 5-per-flush capacity
                k.schedule(i * 6, "dc1", ClientWrite(f"k{i}", make_attrs({"size": rng.randrange(99)})))
            k.run_until(3000)
            flt.drain(k)
            flt.stop()
            k.run_until_empty()
            return statistics.median(d for _, d in k.probes.staleness)

        assert run(25) < run(50)
