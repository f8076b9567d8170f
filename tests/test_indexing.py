"""Posting index semantics, filter routing, merge convergence, recheck, and
staleness measurement, each against an independent oracle."""

import math
import random
from bisect import bisect_left

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpusim.core import (
    HyperRegion,
    Kind,
    Predicate,
    Query,
    Version,
    query_bounds,
    query_is_empty,
    query_matcher,
    query_matches,
    query_to_region,
    region_to_query,
)
from qpusim.indexing import (
    FilterQpu,
    IndexQpu,
    IndexUpdate,
    MergeCmd,
    MergeQpu,
    SplitCmd,
    route,
)
from qpusim.metrics import MetricsSink
from qpusim.runner import run_scenario
from qpusim.scenarios import scenario
from qpusim.qpunet import CacheQpu, Connection, QueryMsg, decompose, dedupe_entries, recheck
from qpusim.simkernel import Actor, Kernel
from qpusim.store import ClientDelete, ClientWrite, DcReplica, LogEntry, PostingIndex, PostingSets, WriteOp

from conftest import (
    Client,
    LogRecorder,
    make_region,
    rebuilt_postings,
    record_log,
    records_of,
    registry_bytes,
    run_query,
)

SCHEMA = {"size": Kind.INT, "genre": Kind.TEXT}
FULL = make_region(size=(None, None), genre=(None, None))


def region_of(q, attrs=SCHEMA):
    """q's region of the indexed space, the argument of PostingIndex.lookup."""
    return query_to_region(q, attrs)


def put_op(key, ts, origin="dc1", old=None, **attrs):
    return WriteOp(key, attrs, old or None, Version(ts, origin))


def del_op(key, ts, origin="dc1", old=None):
    return WriteOp(key, None, old or None, Version(ts, origin))


def registry_keys(idx):
    return set(idx.registry)


class TestIndexApply:
    def test_same_op_twice_second_ignored(self):
        idx = PostingIndex(FULL)
        op = put_op("k1", 1, size=5, genre="a")
        assert idx.apply(op) is True
        snapshot = registry_bytes(idx)
        assert idx.apply(op) is False
        assert registry_bytes(idx) == snapshot

    def test_put_then_delete_leaves_no_postings(self):
        idx = PostingIndex(FULL)
        sets = idx.posting_sets()  # built before the ops, so apply keeps them current
        idx.apply(put_op("k1", 1, size=5, genre="a"))
        idx.apply(del_op("k1", 2, old={"size": 5, "genre": "a"}))
        assert registry_keys(idx) == set()
        assert all(not vals for vals in sets.postings.values())
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
        sets = idx.posting_sets()  # built before the ops, so apply keeps them current
        idx.apply(put_op("k1", 1, size=5))
        idx.apply(put_op("k1", 2, size=9, old={"size": 5}))
        assert sets.sorted_values["size"] == [9]

    def test_sorted_values_are_raw_values_of_the_stored_kind(self):
        idx = PostingIndex(make_region(size=(None, None), weight=(None, None)))
        sets = idx.posting_sets()  # built before the ops, so apply keeps them current
        for ts, (size, weight) in enumerate([(9, 2.5), (5, 0.5), (9, 1.0)], start=1):
            idx.apply(put_op(f"k{ts}", ts, size=size, weight=weight))
        assert sets.sorted_values["size"] == [5, 9]
        assert sets.sorted_values["weight"] == [0.5, 1.0, 2.5]
        assert [type(v) for v in sets.sorted_values["weight"]] == [float] * 3

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
        assert registry_bytes(a) == registry_bytes(b)
        assert a.tombstones == b.tombstones
        # sorted-replay oracle agrees
        oracle = {}
        for op in sorted(ops, key=lambda o: o.version):
            if op.new_attrs is not None:
                oracle[op.key] = op.new_attrs
            else:
                oracle.pop(op.key, None)
        assert {k: v[1] for k, v in a.registry.items()} == oracle

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
        assert registry_bytes(a) == registry_bytes(b)

    def test_posting_sets_rebuildable_from_registry(self):
        idx = PostingIndex(FULL)
        sets = idx.posting_sets()  # built before the ops, so apply keeps them current
        rng = random.Random(10)
        for ts in range(1, 150):
            key = f"k{rng.randrange(25)}"
            if rng.random() < 0.3:
                idx.apply(del_op(key, ts))
            else:
                idx.apply(put_op(key, ts, size=rng.randrange(20), genre=rng.choice("ab")))
        assert sets is idx.posting_sets()
        assert sets.postings == rebuilt_postings(idx)


class TestPostingSetsAtFirstLookup:
    def test_an_ingest_run_builds_posting_sets_only_where_queries_are_answered(self):
        """In the client-cache scenario (a write stream through iq1-iq3 into
        mq, queries at the replica caches rc1 and rc2), the units that
        answer no query hold no posting sets, and the caches do."""
        res = run_scenario(*scenario("client-cache"), seed=0)
        qpus = res.network.qpus
        assert all(qpus[q].index.registry for q in ("iq1", "iq2", "iq3", "mq"))
        assert [q for q in ("iq1", "iq2", "iq3", "mq") if qpus[q].index._sets is not None] == []
        assert [q for q in ("rc1", "rc2") if qpus[q].index._sets is None] == []

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 8), st.booleans(), st.integers(0, 20), st.sampled_from("abc")), max_size=40),
        st.integers(0, 40),
    )
    def test_sets_built_mid_stream_equal_sets_kept_from_the_start(self, raw, built_at):
        """One index keeps its sets from before the first op, another builds
        them at a lookup after `built_at` ops; after every later op both
        give the registry's posting maps and the same lookups."""
        early, late = PostingIndex(FULL), PostingIndex(FULL)
        early.posting_sets()
        region = region_of(Query.of([Predicate.between("size", 5, 15)]))
        for n, (keyn, is_del, size, genre) in enumerate(raw):
            op = del_op(f"k{keyn}", n + 1) if is_del else put_op(f"k{keyn}", n + 1, size=size, genre=genre)
            early.apply(op)
            late.apply(op)
            if n + 1 >= built_at:
                assert late.lookup(region) == early.lookup(region)
                assert late.posting_sets().postings == early.posting_sets().postings == rebuilt_postings(early)

    def test_no_sets_before_the_first_lookup(self):
        idx = PostingIndex(FULL)
        idx.apply(put_op("k1", 1, size=5, genre="a"))
        assert idx._sets is None
        found, _ = idx.lookup(region_of(Query.of([Predicate.between("size", 0, 10)])))
        assert [row[0] for row in found] == ["k1"] and idx._sets is not None


class TestIndexLookup:
    def test_empty_index(self):
        idx = PostingIndex(FULL)
        region = region_of(Query.of([Predicate.between("size", 0, 10)]))
        entries, inside = idx.lookup(region)
        assert entries == [] and inside is region

    def test_lower_boundary_included(self):
        idx = PostingIndex(FULL)
        idx.apply(put_op("k1", 1, size=10))
        entries, _ = idx.lookup(region_of(Query.of([Predicate.between("size", 10, 20)])))
        assert [e[0] for e in entries] == ["k1"]

    def test_query_outside_region_flagged(self):
        idx = PostingIndex(make_region(size=(0, 50), genre=(None, None)))
        entries, inside = idx.lookup(region_of(Query.of([Predicate.between("size", 60, 70)])))
        assert entries == [] and inside is None

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
            entries, _ = idx.lookup(region_of(q))
            expected = sorted(k for k, attrs, _v in idx.registry.values() if query_matches(q, attrs))
            assert [e[0] for e in entries] == expected

    def test_rows_are_the_registry_rows(self):
        """lookup, snapshot and changes_since return the rows apply stored
        and build a row only for a tombstone."""
        idx = PostingIndex(FULL)
        for i in range(6):
            idx.apply(put_op(f"k{i}", i + 1, size=i))
        idx.apply(del_op("k5", 9))
        found, _ = idx.lookup(region_of(Query.of([Predicate.between("size", 1, 3)])))
        assert [row[0] for row in found] == ["k1", "k2", "k3"]
        rows = [*found, *idx.snapshot().entries, *idx.changes_since(0).entries]
        live = [row for row in rows if row[1] is not None]
        assert len(live) == 3 + 5 + 5
        assert all(row is idx.registry[row[0]] for row in live)


class SendRecorder:
    """Stands in for the kernel in `route`: keeps each send in order."""

    def __init__(self):
        self.sent = []

    def send(self, source, target, msg):
        self.sent.append((source, target, msg))


def routed(entries, targets):
    """(target, entries) of each IndexUpdate `route` sends, in send order."""
    k = SendRecorder()
    route(k, "flt", entries, targets)
    assert all(source == "flt" and isinstance(u, IndexUpdate) for source, _t, u in k.sent)
    return [(target, u.entries) for _s, target, u in k.sent]


def routed_to(op, targets):
    """The targets `route` sends a one-entry batch of op to, in send order."""
    return [target for target, _entries in routed((LogEntry(0, op, 0),), targets)]


class UpdateSpy(Actor):
    """Appends (its id, the keys of each IndexUpdate it receives) to a list
    that several spies share, so the list shows the order of delivery."""

    def __init__(self, actor_id, sent):
        self.actor_id = actor_id
        self.sent = sent

    def on_message(self, k, msg):
        self.sent.append((self.actor_id, [e.op.key for e in msg.entries]))


class TestFilterRouting:
    REGIONS = {
        "A": make_region(size=(0, 25), genre=(None, None)),
        "B": make_region(size=(25, 50), genre=(None, None)),
        "C": make_region(size=(50, 75), genre=(None, None)),
        "D": make_region(size=(75, 100), genre=(None, None)),
    }

    def test_put_delivered_to_new_region_only(self):
        targets = list(self.REGIONS.items())
        assert routed_to(put_op("k", 1, size=10), targets) == ["A"]

    def test_move_delivered_to_old_and_new(self):
        targets = list(self.REGIONS.items())
        op = put_op("k", 2, old={"size": 10}, size=60)
        assert routed_to(op, targets) == ["A", "C"]

    def test_random_stream_matches_containment_oracle(self):
        """Each op alone, and the whole stream as one batch: every target
        gets one update of exactly the entries whose new or old coordinates
        fall in its region, in log order, and a target no entry touches
        gets none."""
        targets = list(self.REGIONS.items())
        rng = random.Random(14)
        prev = {}
        entries, hits = [], []
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
            assert routed_to(op, targets) == expected
            entries.append(LogEntry(ts, op, 0))
            hits.append(expected)
        touching = {name: tuple(e for e, hit in zip(entries, hits) if name in hit) for name, _region in targets}
        assert routed(entries, targets) == [(name, touching[name]) for name, _r in targets if touching[name]]

    @pytest.mark.parametrize("batch_interval", [0, 5])
    def test_filter_sends_in_target_id_order(self, batch_interval):
        """A filter whose targets are configured out of id order (zz before
        aa) sends each instant's updates in id order, one write at a time
        and batched alike, each target its own entries."""
        k = Kernel(seed=0)
        k.add_node("n")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "n")
        sent = []
        for name in ("zz", "aa", "mm"):
            k.register(UpdateSpy(name, sent), "n")
        low = make_region(size=(0, 50), genre=(None, None))
        high = make_region(size=(50, None), genre=(None, None))
        k.register(FilterQpu("flt", rep, [("zz", FULL), ("aa", low), ("mm", high)], batch_interval=batch_interval), "n")
        k.run_until(k.now)  # the filter subscribes before the first write
        rep.put(k, "k1", {"size": 10})
        rep.put(k, "k2", {"size": 60})
        k.run_until(20)
        if batch_interval:
            assert sent == [("aa", ["k1"]), ("mm", ["k2"]), ("zz", ["k1", "k2"])]
        else:
            assert sent == [("aa", ["k1"]), ("zz", ["k1"]), ("mm", ["k2"]), ("zz", ["k2"])]


def single_index_net(*, latency=1, batch_interval=0, batch_size=None, jitter=0, seed=0, region=None):
    """One DC, one filter, one index QPU, and a client, with a metrics sink."""
    k = Kernel(seed=seed)
    MetricsSink(k)
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
        rep.put(k, "k1", {"size": 7})
        k.run_until_empty()
        resp = run_query(k, cl, "iq", Query.of([Predicate.between("size", 0, 10)]))
        assert resp.complete and [e[0] for e in resp.entries] == ["k1"]

    def test_duplicate_batch_ignored(self):
        k, rep, _, iq, cl = single_index_net()
        u = IndexUpdate((LogEntry(0, put_op("a", 1, size=1), 0),))
        iq.handle_update(k, u)
        iq.handle_update(k, u)
        assert registry_keys(iq.index) == {"a"}

    def test_index_receives_the_replicas_log_entries(self):
        """The filter routes the LogEntry objects its replica sent, and the
        index pushes the ones it applied on as they are."""
        k, rep, _, iq, cl = single_index_net()
        log = record_log(k, rep)
        spy = LogRecorder("spy")
        k.register(spy, "n-idx")
        iq.push_to = "spy"
        k.run_until(k.now)  # the filter subscribes before the first write
        rep.put(k, "k1", {"size": 7})
        rep.put(k, "k2", {"size": 8})
        rep.delete(k, "k1")
        k.run_until_empty()
        pushed = [entry for update in spy.entries for entry in update.entries]
        assert len(pushed) == len(log.entries) == 3
        assert all(got is sent for got, sent in zip(pushed, log.entries))


def pull_net(region=FULL):
    """An index QPU and a replica cache pulling from it on one node."""
    k = Kernel(seed=0)
    k.add_node("n")
    iq = IndexQpu("iq", region)
    k.register(iq, "n")
    cq = CacheQpu("cq", SCHEMA, pull_from="iq")
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
        st.just(("pull",)),
    ),
    max_size=60,
)


class TestIncrementalPulls:
    @settings(max_examples=150, deadline=None)
    @given(PULL_ACTIONS)
    def test_delta_fed_cache_equals_upstream(self, actions):
        """Puts, in-place updates, moves out of the region, deletes, stale
        ops and equal-version tombstone->put upgrades, with pulls in
        between: after every pull the cache holds exactly the upstream's
        rows and tombstones, answers lookups as a scan of its snapshot does,
        got only the changed keys, and ticked iff the snapshot changed."""
        k, iq, cq = pull_net(make_region(size=(0, 50), genre=(None, None)))
        up = iq.index
        ts = 0
        changed: set[str] = set()
        last_entries = None

        def apply(op):
            if up.apply(op):
                changed.add(op.key)

        def check_pull():
            nonlocal changed, last_entries
            reply, ticked = pull(k, cq)
            assert {row[0] for row in reply.entries} == changed
            assert registry_bytes(cq.index) == registry_bytes(up)
            assert cq.index.tombstones == up.tombstones
            assert set(cq.index.registry) == set(up.registry)
            entries = up.snapshot().entries
            assert ticked == (entries != last_entries)
            for q in LOOKUPS:
                scan = [(key, a, v) for key, a, v in entries if a is not None and query_matches(q, a)]
                assert cq.index.lookup(region_of(q))[0] == scan
            changed, last_entries = set(), entries

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
            else:
                check_pull()
        check_pull()

    def test_pull_without_writes_is_empty_and_does_not_tick(self):
        k, iq, cq = pull_net()
        iq.index.apply(put_op("k1", 1, size=5, genre="a"))
        first, ticked = pull(k, cq)
        assert ticked and [row[0] for row in first.entries] == ["k1"]
        again, ticked = pull(k, cq)
        assert again.entries == () and not ticked
        assert set(cq.index.registry) == {"k1"}

    def test_mutating_a_written_dict_changes_neither_index_nor_cache(self):
        k, rep, flt, iq, cl = single_index_net()
        cq = CacheQpu("cq", SCHEMA, pull_from="iq")
        k.register(cq, "n-idx")
        attrs = {"size": 5, "genre": "a"}
        iq.index.posting_sets()  # built before the write, so apply posts it
        rep.put(k, "k1", attrs)
        k.run_until_empty()
        pull(k, cq)
        attrs["size"] = 90
        q = Query.of([Predicate.between("size", 0, 10)])
        for idx in (iq.index, cq.index):
            assert idx.registry["k1"][1]["size"] == 5
            assert [e[0] for e in idx.lookup(region_of(q))[0]] == ["k1"]
            assert idx.posting_sets().postings == rebuilt_postings(idx)


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
        return Predicate(attr, lo, None, lo_inc)
    if side == "upper":
        return Predicate(attr, None, hi, upper_inclusive=hi_inc)
    if lo == hi:
        lo_inc = hi_inc = True
    return Predicate(attr, lo, hi, lo_inc, hi_inc)


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


@st.composite
def mixed_regions(draw):
    """Regions over MIXED_SCHEMA, each dimension full, half-bounded or
    bounded by MIXED_VALUES."""
    bounds = {}
    for name in sorted(MIXED_SCHEMA):
        lo, hi = sorted([draw(MIXED_VALUES[name]), draw(MIXED_VALUES[name])])
        shape = draw(st.sampled_from(["full", "lo", "hi", "both"]))
        if shape == "full":
            bounds[name] = (None, None)
        elif shape == "lo" or (shape == "both" and lo == hi):
            bounds[name] = (lo, None)
        else:
            bounds[name] = (None, hi) if shape == "hi" else (lo, hi)
    return make_region(**bounds)


class TestLookupByRegion:
    @settings(max_examples=300, deadline=None)
    @given(
        mixed_regions(),
        st.lists(
            st.tuples(
                st.integers(0, 11),
                st.integers(1, 30),
                st.none() | st.fixed_dictionaries(MIXED_VALUES) | st.fixed_dictionaries({}, optional=MIXED_VALUES),
            ),
            max_size=40,
        ),
        st.lists(mixed_regions(), min_size=1, max_size=4),
    )
    def test_lookup_returns_the_rows_of_the_region_and_its_clip(self, index_region, history, drawn):
        """Over a history of puts (some missing attributes, some stale) and
        deletes, lookup(region) returns the registry rows that match
        region_to_query(region), in key order, and region.clip(index.region).
        The regions are drawn at random (so some are clipped by the index's
        region and some miss it), plus the index's region, a drawn region
        clipped to it, and a drawn region whose intervals on the index's
        bounded dimensions are the index's own: the piece decompose hands a
        leaf, which lookup narrows by its other sides only."""
        idx = PostingIndex(index_region)
        for n, ts, attrs in history:
            idx.apply(del_op(f"k{n}", ts) if attrs is None else put_op(f"k{n}", ts, **attrs))
        clipped = drawn[0].clip(index_region)
        leaf_piece = HyperRegion(
            tuple((name, iv if own.is_full else own) for (name, iv), (_name, own) in zip(drawn[-1], index_region))
        )
        regions = [*drawn, index_region, leaf_piece] + ([] if clipped is None else [clipped])
        for region in regions:
            if all(iv.is_full for _name, iv in region):
                continue  # no query maps to it, and region_to_query refuses it
            q = region_to_query(region)
            expected = [row for _key, row in sorted(idx.registry.items()) if query_matches(q, row[1])]
            assert idx.lookup(region) == (expected, region.clip(index_region))


class TestLookupNarrowsByCuttingSides:
    REGION = make_region(size=(0, 10), genre=(None, None))

    @pytest.mark.parametrize(
        "bounds,narrowed_by",
        [
            # the index's own size bound, as a piece clipped to its coverage carries it
            ({"size": (0, 10), "genre": ("a", "c")}, [("genre", "a", "c")]),
            # a wider bound is clipped to the index's own, which filters nothing
            ({"size": (None, 20), "genre": ("b", None)}, [("genre", "b", None)]),
            ({"size": (2, 20), "genre": (None, None)}, [("size", 2, 10)]),
            ({"size": (2, 8), "genre": (None, "b")}, [("genre", None, "b"), ("size", 2, 8)]),
            # sides that cut nothing off the index's region: it is covered
            ({"size": (0, 10), "genre": (None, None)}, None),
            ({"size": (-5, None), "genre": (None, None)}, None),
        ],
    )
    def test_keys_in_gets_only_the_sides_that_cut_the_index_region(self, monkeypatch, bounds, narrowed_by):
        """The rows still equal the query's matching rows; keys_in is not
        called at all for a region that covers the index."""
        idx = PostingIndex(self.REGION)
        for n in range(15):
            idx.apply(put_op(f"k{n:02}", 1, size=n % 12, genre="abc"[n % 3]))
        calls = []
        keys_in = PostingSets.keys_in
        monkeypatch.setattr(PostingSets, "keys_in", lambda sets, sides: calls.append(list(sides)) or keys_in(sets, sides))
        region = make_region(**bounds)
        expected = [row for _key, row in sorted(idx.registry.items()) if query_matches(region_to_query(region), row[1])]
        assert idx.lookup(region) == (expected, region.clip(self.REGION))
        assert calls == ([] if narrowed_by is None else [narrowed_by])

    def test_an_unbounded_index_narrows_by_the_region_itself(self, monkeypatch):
        idx = PostingIndex(FULL)
        idx.apply(put_op("k1", 1, size=5, genre="a"))
        calls = []
        keys_in = PostingSets.keys_in
        monkeypatch.setattr(PostingSets, "keys_in", lambda sets, sides: calls.append(sides) or keys_in(sets, sides))
        region = make_region(size=(0, 10), genre=(None, None))
        assert idx.lookup(region)[0] == [idx.registry["k1"]]
        assert calls == [region.sides] and calls[0] is region.sides

    def test_a_region_without_sides_matches_nothing(self):
        idx = PostingIndex(self.REGION)
        idx.apply(put_op("k1", 1, size=5, genre="a"))
        assert idx.lookup(FULL) == ([], self.REGION)


def lookup_posting_keys(monkeypatch, name):
    """Runs a bundled scenario at seed 0 and counts the posting keys its
    index lookups union (not its replica scans): for each side
    PostingIndex.lookup gives keys_in, the keys posted under the values in
    that side's range."""
    counted, in_lookup = [0], [False]
    keys_in, lookup = PostingSets.keys_in, PostingIndex.lookup

    def counting_keys_in(sets, sides):
        if in_lookup[0]:
            for attr, lo, hi in sides:
                vals = sets.sorted_values[attr]
                i = 0 if lo is None else bisect_left(vals, lo)
                j = len(vals) if hi is None else bisect_left(vals, hi)
                counted[0] += sum(len(sets.postings[attr][v]) for v in vals[i:j])
        return keys_in(sets, sides)

    def flagged_lookup(index, region):
        in_lookup[0] = True
        try:
            return lookup(index, region)
        finally:
            in_lookup[0] = False

    monkeypatch.setattr(PostingSets, "keys_in", counting_keys_in)
    monkeypatch.setattr(PostingIndex, "lookup", flagged_lookup)
    run_scenario(*scenario(name), seed=0)
    return counted[0]


# Posting keys unioned by index lookups at scale 1 and seed 0. A lookup
# narrows only by the sides that cut its index's region; narrowing by a
# leaf's own partition bound as well read 20,172 on cdn (120 of its sides
# equal iq1's or iq2's own genre bound) and 2,414 on adaptive-skew (15
# lookups covered a split child's whole region).
@pytest.mark.parametrize("name,keys", [("cdn", 4_017), ("adaptive-skew", 2_309)])
def test_lookups_union_the_recorded_posting_keys(monkeypatch, name, keys):
    assert lookup_posting_keys(monkeypatch, name) == keys


def other_spelling(q):
    """q, whose bounds are closed-open, with each int or float bound spelled
    the other way: a lower bound exclusive at the value below it, an upper
    bound inclusive at the value below it. A text bound has no value right
    below it, so it stays."""

    def below(raw):
        return raw - 1 if type(raw) is int else math.nextafter(raw, -math.inf)

    preds = []
    for p in q.predicates:
        if MIXED_SCHEMA[p.attr] is Kind.TEXT:
            preds.append(p)
            continue
        lower = None if p.lower is None else below(p.lower)
        upper = None if p.upper is None else below(p.upper)
        preds.append(Predicate(p.attr, lower, upper, lower_inclusive=False, upper_inclusive=True))
    return Query.of(preds, q.limit)


class TestRegionPathEqualsPredicatePath:
    @settings(max_examples=300, deadline=None)
    @given(
        mixed_regions(),
        st.lists(st.fixed_dictionaries({}, optional=MIXED_VALUES), max_size=12),
    )
    def test_region_reads_as_its_predicates(self, region, objects):
        """A query travels as its region from the unit it is issued to on.
        The region's matcher and keys_in bounds must answer as its
        predicates, region_to_query(region), do, over objects that hold each
        attribute or lack it. A response cache keys a query by its region's
        sides and its limit: the inclusive and the exclusive spelling of one
        query share that key, and a limit separates two keys."""
        assume(region.sides)  # no query maps to the full space, and region_to_query refuses it
        q = region_to_query(region)
        matches = query_matcher(q)
        for attrs in objects:
            assert region.contains(attrs) == matches(attrs)
        postings = PostingSets(MIXED_SCHEMA)
        for n, attrs in enumerate(objects):
            postings.post(f"k{n}", attrs)
        assert postings.keys_in(region.sides) == postings.keys_in(query_bounds(q))

        def cache_key(query):
            return (query_to_region(query, MIXED_SCHEMA).sides, query.limit)

        assert cache_key(q) == cache_key(other_spelling(q)) == (region.sides, None)
        assert cache_key(Query.of(q.predicates, limit=3)) != cache_key(q)


class TestExactPostingSets:
    @settings(max_examples=200, deadline=None)
    @given(EXACT_ACTIONS, MIXED_QUERIES)
    def test_scans_and_lookups_equal_a_matching_loop(self, actions, queries):
        """Puts (in place, with missing attributes, in and out of the edge
        placement), deletes and replicated ops at two full replicas and an
        edge replica. The first "scan" action builds each replica's posting
        sets from the objects written so far; from then on the queries run
        after every action, so every later write goes through posting
        maintenance. Every scan of a query's region, and every lookup of it
        in a full and a clipped index fed by dc1's log, returns exactly the
        key-ordered rows a query_matches loop selects."""
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
            DcReplica("edge", MIXED_SCHEMA, placement=placement),
        ]
        for rep, node in zip(reps, ("n1", "n2", "n3")):
            k.register(rep, node)
        by_id = {rep.dc_id: rep for rep in reps}
        dc1 = by_id["dc1"]
        indexes = [
            PostingIndex(make_region(size=(None, None), weight=(None, None), genre=(None, None))),
            PostingIndex(make_region(size=(2, 8), weight=(0.5, 3.0), genre=(None, None))),
        ]
        log = record_log(k, dc1)
        fed = 0

        def check():
            nonlocal fed
            k.run_until(k.now)  # delivers dc1's entries to its recorder, nothing over a link
            for entry in log.entries[fed:]:
                for idx in indexes:
                    idx.apply(entry.op)
            fed = len(log.entries)
            for q in queries:
                if query_is_empty(q):  # no value satisfies q: it has no region to scan or look up
                    assert not any(query_matches(q, o.attrs) for rep in reps for o in rep.objects.values())
                    continue
                region = region_of(q, MIXED_SCHEMA)
                for rep in reps:
                    expected = [o for _key, o in sorted(rep.objects.items()) if query_matches(q, o.attrs)]
                    assert rep.scan(region) == expected
                for idx in indexes:
                    expected = [
                        (key, o.attrs, o.version)
                        for key, o in sorted(dc1.objects.items())
                        if idx.region.contains(o.attrs) and query_matches(q, o.attrs)
                    ]
                    assert idx.lookup(region)[0] == expected

        built = False
        for action in actions:
            if action[0] == "put":
                _, dc, n, raw = action
                by_id[dc].put(k, f"k{n}", raw)
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
        m.handle_update(k, IndexUpdate((LogEntry(0, put_op("a", 1, origin="s1", size=1), 0),)))
        m.handle_update(k, IndexUpdate((LogEntry(0, put_op("b", 1, origin="s2", size=2), 0),)))
        assert registry_keys(m.index) == {"a", "b"}

    def test_conflicting_key_max_version_wins_either_order(self):
        lo = LogEntry(0, put_op("k", 3, origin="s1", size=1), 0)
        hi = LogEntry(0, put_op("k", 5, origin="s2", size=2), 0)
        for first, second in ((lo, hi), (hi, lo)):
            k, m = self.build_merge()
            for entry in (first, second):
                m.handle_update(k, IndexUpdate((entry,)))
            assert m.index.registry["k"][2] == Version(5, "s2")

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
            while any(cursors[s] < len(streams[s]) for s in streams):
                s = trial_rng.choice([s for s in streams if cursors[s] < len(streams[s])])
                n = min(trial_rng.randint(1, 7), len(streams[s]) - cursors[s])
                batch = tuple(LogEntry(0, op, 0) for op in streams[s][cursors[s] : cursors[s] + n])
                cursors[s] += n
                m.handle_update(k, IndexUpdate(batch))
            results.add(registry_bytes(m.index))
        assert len(results) == 1


class TestMergeAfterRebind:
    def test_update_in_flight_arrives_before_the_retire(self):
        """A child is rebound to a node behind a 100 ms link, an update is
        routed to it over that link, and while the update is in flight the
        child is rebound behind a 1 ms link and its parent merges. The
        kernel keeps each pair of actors FIFO across rebind, so the update
        reaches the child while it is still a leaf, before its Retire; the
        merge absorbs it, and the parent unregisters the child. The adaptive
        controller can reach this case: `_rebalance` rebinds leaves in the
        same control step that issues a merge."""
        k = Kernel(seed=0)
        for node in ("A", "B", "C"):
            k.add_node(node)
        k.add_link("A", "B", 1)
        k.add_link("A", "C", 100)
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "A")
        root = IndexQpu("root", FULL, recheck_replica=rep)
        k.register(root, "A")
        k.register(FilterQpu("flt", rep, [("root", FULL)]), "A")
        rep.put(k, "k1", {"size": 5, "genre": "a"})
        rep.put(k, "k2", {"size": 150, "genre": "b"})
        k.run_until_empty()
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        children = root.split_children()
        low = k.actor(children[0])
        for child in children:
            k.rebind(child, "C")
        t0 = k.now
        rep.put(k, "k3", {"size": 20, "genre": "a"})  # routed to low over the 100 ms link
        k.run_until(t0 + 5)
        for child in children:
            k.rebind(child, "B")
        k.schedule(k.now, "root", MergeCmd("root", tuple(children)))
        seen = []
        on_message = low.on_message

        def spy(k, msg):
            seen.append((k.now, type(msg).__name__, low.mode))
            on_message(k, msg)

        low.on_message = spy
        k.run_until_empty()
        assert seen == [(t0 + 100, "IndexUpdate", IndexQpu.LEAF), (t0 + 100, "Retire", IndexQpu.LEAF)]
        assert root.mode == IndexQpu.LEAF and root.connections == []
        assert registry_keys(root.index) == {"k1", "k2", "k3"}
        assert [a.actor_id for a in k.actors()] == ["dc1", "root", "flt"]


class TestRetiredUnitTimeouts:
    def test_a_unit_retired_before_its_query_timeout_leaves_nothing_queued(self):
        """A split child inherits its parent's query timeout and queues one
        for itself on every fan-out, even when every sub-answer arrives. A
        child that splits, answers a query through its children, merges
        them back and is retired by its parent before that timeout comes
        still has it queued; the kernel drops it with the child."""
        k = Kernel(seed=0)
        k.add_node("A")
        rep = DcReplica("dc1", SCHEMA)
        k.register(rep, "A")
        root = IndexQpu("root", FULL, recheck_replica=rep, timeout=1_000)
        k.register(root, "A")
        k.register(FilterQpu("flt", rep, [("root", FULL)]), "A")
        cl = Client()
        k.register(cl, "A")
        rep.put(k, "k1", {"size": 5, "genre": "a"})
        rep.put(k, "k2", {"size": 150, "genre": "b"})
        k.run_until_empty()
        k.schedule(k.now, "root", SplitCmd("root", "size", 100))
        k.run_until_empty()
        low = root.split_children()[0]
        k.schedule(k.now, low, SplitCmd(low, "size", 50))
        k.run_until_empty()
        resp = run_query(k, cl, "root", Query.of([Predicate.between("size", 0, 10)]), drain=False)
        assert resp.complete and [e[0] for e in resp.entries] == ["k1"]
        t0 = k.now
        k.schedule(k.now, low, MergeCmd(low, tuple(k.actor(low).split_children())))
        k.run_until(t0 + 10)
        k.schedule(k.now, "root", MergeCmd("root", tuple(root.split_children())))
        assert k.run_until_empty() == t0 + 1_000  # the clock still reaches the dropped timeouts
        assert root.mode == IndexQpu.LEAF and registry_keys(root.index) == {"k1", "k2"}
        assert [a.actor_id for a in k.actors()] == ["dc1", "root", "flt", "client"]


class TestRecheck:
    def test_deleted_candidate_dropped(self):
        k, rep, _, iq, cl = single_index_net()
        rep.put(k, "k1", {"size": 7})
        k.run_until_empty()
        rep.delete(k, "k1")
        region = region_of(Query.of([Predicate.between("size", 0, 10)]))
        entries, _ = iq.index.lookup(region)
        assert entries, "index is briefly stale by construction"
        assert recheck(entries, region, rep) == []

    def test_updated_but_still_matching_kept_with_fresh_snapshot(self):
        k, rep, _, iq, cl = single_index_net()
        rep.put(k, "k1", {"size": 7})
        k.run_until_empty()
        v2 = rep.put(k, "k1", {"size": 9})
        region = region_of(Query.of([Predicate.between("size", 0, 10)]))
        entries, _ = iq.index.lookup(region)
        out = recheck(entries, region, rep)
        assert [(e[0], e[2]) for e in out] == [("k1", v2)]
        assert out[0][1]["size"] == 9

    def test_no_returned_entry_ever_violates_query_at_recheck_time(self, audited_recheck):
        k, rep, _, iq, cl = single_index_net(latency=6, jitter=4, seed=5)
        rng = random.Random(5)
        q = Query.of([Predicate.between("size", 0, 50)])
        for trial in range(100):
            key = f"k{rng.randrange(12)}"
            t = k.now + rng.randrange(1, 15)
            if rng.random() < 0.4:
                k.schedule(t, "dc1", ClientDelete(key))
            else:
                k.schedule(t, "dc1", ClientWrite(key, {"size": rng.randrange(100)}))
            k.schedule(t + rng.randrange(0, 8), "iq", QueryMsg(f"adv{trial}", q, "client"))
            k.run_until(t + rng.randrange(0, 20))
        k.run_until_empty()
        assert audited_recheck.calls == 100
        assert audited_recheck.bad == []
        assert k.probes.type2_violations() == []


# (key number, ts, origin, attrs or None for a delete). Keys and timestamps
# are few, so writes of one key at one ts from both origins are common:
# versions that a comparison of `ts` alone cannot tell apart. Most writes set
# every attribute, so that most rows match some query.
RECHECK_WRITES = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(1, 3),
        st.sampled_from(["dc1", "dc2"]),
        st.one_of(
            st.none(),
            st.fixed_dictionaries(MIXED_VALUES),
            st.fixed_dictionaries({}, optional=MIXED_VALUES),
        ),
    ),
    min_size=4,
    max_size=24,
)


@st.composite
def coverage(draw):
    """Half of the space on one side of a cut through one attribute."""
    attr = draw(st.sampled_from(sorted(MIXED_SCHEMA)))
    cut = draw(MIXED_VALUES[attr])
    bounds = {a: (None, None) for a in MIXED_SCHEMA}
    bounds[attr] = (cut, None) if draw(st.booleans()) else (None, cut)
    return make_region(**bounds)


class TestRecheckFastPath:
    @settings(max_examples=400, deadline=None)
    @given(
        writes=RECHECK_WRITES,
        q=MIXED_QUERIES.map(lambda qs: qs[0]),
        coverages=st.lists(coverage(), max_size=3),
        edge=st.booleans(),
        data=st.data(),
    )
    def test_fast_path_equals_matcher_reference(self, writes, q, coverages, edge, data):
        """Candidates come from a random decomposition of q's region (or q's
        whole region, as at a unit answering from its own rows and on a
        cache hit): for each
        piece, a key-sorted part of rows, each row one write of its key whose
        attrs match the piece's sub-query. The recheck replica, full or an
        edge placement, holds a random subset of the writes, so a row's
        version may be the replica's, older, newer, or of a key it does not
        hold. recheck must return, row by row, what matching every candidate
        against the replica returns."""
        assume(not query_is_empty(q))
        history: dict[tuple[str, Version], dict | None] = {}
        for n, ts, origin, raw in writes:
            # a Version names one write of its key
            history.setdefault((f"k{n}", Version(ts, origin)), raw)
        placement = make_region(size=(0, 6), weight=(None, None), genre=(None, None)) if edge else None
        rep = DcReplica("dc1", MIXED_SCHEMA, placement=placement)
        k = Kernel(seed=0)
        k.add_node("n")
        k.register(rep, "n")
        for (key, version), attrs in history.items():
            if not data.draw(st.booleans(), label=f"replica misses {key}@{version}"):
                rep.apply_replicated(k, WriteOp(key, attrs, None, version))

        region = query_to_region(q, MIXED_SCHEMA)
        plan, _missing = decompose(region, [Connection(f"c{i}", c) for i, c in enumerate(coverages)])
        pieces = [piece for _conn, piece in plan] or [region]
        parts = []
        for piece in pieces:
            sub = region_to_query(piece)
            by_key: dict[str, list] = {}
            for (key, version), attrs in history.items():
                if attrs is not None and query_matches(sub, attrs):
                    by_key.setdefault(key, []).append((key, attrs, version))
            part = [data.draw(st.sampled_from([*rows, None])) for _key, rows in sorted(by_key.items())]
            part = [row for row in part if row is not None]
            if part:
                parts.append(part)
        entries = dedupe_entries(parts)

        expected = []
        for key, _attrs, _version in entries:
            obj = rep.objects.get(key)
            if obj is not None and query_matches(q, obj.attrs):
                expected.append((key, obj.attrs, obj.version))
        assert recheck(entries, region, rep) == expected


class TestStaleness:
    def test_zero_latency_links_give_zero_deltas(self):
        k, rep, *_ = single_index_net(latency=1)
        # co-locate everything: rebind index onto the DC node
        k.rebind("iq", "n-dc")
        for i in range(5):
            rep.put(k, f"k{i}", {"size": i})
        k.run_until_empty()
        assert [r["delta"] for r in records_of(k, "staleness")] == [0] * 5

    def test_fixed_link_latency_unloaded_every_delta_equals_latency(self):
        k, rep, *_ = single_index_net(latency=7)
        for i in range(10):
            rep.put(k, f"k{i}", {"size": i})
            k.run_until_empty()
        assert [r["delta"] for r in records_of(k, "staleness")] == [7] * 10

    def test_halving_batch_interval_strictly_reduces_median_staleness(self):
        import statistics

        def run(batch_interval):
            k, rep, flt, iq, _ = single_index_net(
                latency=1, batch_interval=batch_interval, batch_size=5, seed=42
            )
            rng = k.rng("writes")
            for i in range(400):  # 8 ops per 50ms >> 5-per-flush capacity
                k.schedule(i * 6, "dc1", ClientWrite(f"k{i}", {"size": rng.randrange(99)}))
            k.run_until(3000)
            flt.drain(k)
            k.stop_timers()
            k.run_until_empty()
            return statistics.median(r["delta"] for r in records_of(k, "staleness"))

        assert run(25) < run(50)
