"""Region algebra and predicate semantics, checked against brute-force oracles."""

import math
import random
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpusim.core import (
    INT64_MAX,
    INT64_MIN,
    AttrValue,
    HyperRegion,
    IngestError,
    Interval,
    Kind,
    KindMismatch,
    Predicate,
    Query,
    RegionError,
    StoredObject,
    Version,
    ZERO_VERSION,
    canonical_query,
    make_attrs,
    predicate_matches,
    query_matcher,
    query_matches,
    query_to_region,
    region_to_query,
)


def obj(key, **attrs):
    return StoredObject(key, make_attrs(attrs), Version(1, "dc1"))


def iv(lo, hi):
    return Interval(
        None if lo is None else AttrValue.of(lo),
        None if hi is None else AttrValue.of(hi),
    )


def region(**bounds):
    return HyperRegion.of({name: iv(lo, hi) for name, (lo, hi) in bounds.items()})


class TestAttrValue:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(IngestError):
            AttrValue.of(float("nan"))
        with pytest.raises(IngestError):
            AttrValue.of(float("inf"))

    def test_rejects_bool_and_out_of_range_int(self):
        with pytest.raises(IngestError):
            AttrValue.of(True)
        with pytest.raises(IngestError):
            AttrValue.of(2**63)

    def test_cross_kind_comparison_raises(self):
        with pytest.raises(KindMismatch):
            AttrValue.of(1) < AttrValue.of(1.0)

    def test_successors(self):
        assert AttrValue.of(10).successor() == AttrValue.of(11)
        assert AttrValue.of("rock").successor().value == "rock\x00"
        f = AttrValue.of(1.5).successor()
        assert f.value > 1.5
        # nothing representable sits between a float and its successor
        assert f == AttrValue.of(1.5).successor()

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=3, max_size=3))
    def test_int_order_is_total(self, raw):
        a, b, c = (AttrValue.of(v) for v in raw)
        assert (a < b) == (a.value < b.value)
        if a < b and b < c:
            assert a < c
        assert not (a < b and b < a)

    @given(st.lists(st.text(max_size=8), min_size=3, max_size=3))
    def test_text_order_is_total(self, raw):
        a, b, c = (AttrValue.of(v) for v in raw)
        if a < b and b < c:
            assert a < c
        assert (a < b) or (b < a) or (a == b)


class TestPredicates:
    def test_point_predicate_matches_itself(self):
        p = Predicate.equals("size", 10)
        assert predicate_matches(p, obj("k", size=10).attrs)

    def test_out_of_range(self):
        p = Predicate.between("size", 10, 20)
        assert not predicate_matches(p, obj("k", size=25).attrs)

    def test_missing_attribute_never_matches(self):
        p = Predicate.between("genre", "a", "m")
        assert not predicate_matches(p, obj("k", size=5).attrs)

    def test_kind_mismatch_is_an_error(self):
        p = Predicate.between("size", 10, 20)
        with pytest.raises(KindMismatch):
            predicate_matches(p, obj("k", size="ten").attrs)

    def test_exclusive_bounds(self):
        p = Predicate.between("size", 10, 20)
        p = Predicate(p.attr, p.lower, p.upper, lower_inclusive=False, upper_inclusive=False)
        assert not predicate_matches(p, obj("k", size=10).attrs)
        assert not predicate_matches(p, obj("k", size=20).attrs)
        assert predicate_matches(p, obj("k", size=11).attrs)

    def test_invalid_predicates_rejected(self):
        with pytest.raises(RegionError):
            Predicate.between("size", 20, 10)
        with pytest.raises(RegionError):
            Predicate("size")
        with pytest.raises(RegionError):
            Predicate("size", AttrValue.of(5), AttrValue.of(5), upper_inclusive=False)


class TestQuery:
    def test_conjunction(self):
        q = Query.of([Predicate.between("size", 10, 20), Predicate.equals("genre", "rock")])
        assert query_matches(q, obj("k", size=15, genre="rock").attrs)
        assert not query_matches(q, obj("k", size=15, genre="jazz").attrs)

    def test_duplicate_attrs_rejected(self):
        with pytest.raises(RegionError):
            Query.of([Predicate.equals("a", 1), Predicate.equals("a", 2)])

    def test_random_objects_match_brute_force_loop(self):
        rng = random.Random(42)
        q = Query.of([Predicate.between("size", 10, 60), Predicate.between("genre", "c", "p")])
        objects = [
            obj(f"k{i}", size=rng.randrange(100), genre=rng.choice("abcdefghijklmnopqrstuvwxyz"))
            for i in range(200)
        ]
        expected = {
            o.key
            for o in objects
            if 10 <= o.attrs["size"].value <= 60 and "c" <= o.attrs["genre"].value <= "p"
        }
        got = {o.key for o in objects if query_matches(q, o.attrs)}
        assert got == expected


# Raw values per kind, dense enough that bounds and values often coincide.
RAW_VALUES = {
    Kind.INT: st.one_of(
        st.integers(-4, 4), st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX])
    ),
    Kind.FLOAT: st.one_of(
        st.sampled_from([-0.0, 0.0, 5e-324, 1.0, math.nextafter(1.0, math.inf), sys.float_info.max, -sys.float_info.max]),
        st.floats(-3, 3, allow_nan=False),
    ),
    Kind.TEXT: st.text(alphabet="ab\x00", max_size=3),
}
MATCH_ATTRS = ("a", "b", "c")


@st.composite
def predicates(draw, attr):
    kind = draw(st.sampled_from(list(Kind)))
    value = RAW_VALUES[kind].map(AttrValue.of)
    if draw(st.booleans()):
        return Predicate(attr, *[draw(value)] * 2)  # point predicate
    lower = draw(st.one_of(st.none(), value))
    upper = draw(st.one_of(st.none(), value))
    try:
        return Predicate(attr, lower, upper, draw(st.booleans()), draw(st.booleans()))
    except RegionError:
        assume(False)


@st.composite
def match_queries(draw):
    attrs = draw(st.lists(st.sampled_from(MATCH_ATTRS), min_size=1, max_size=3, unique=True))
    return Query.of([draw(predicates(a)) for a in attrs])


@st.composite
def attr_maps(draw):
    """Attribute maps with missing attributes and values of any kind."""
    out = {}
    for name in draw(st.lists(st.sampled_from(MATCH_ATTRS), max_size=3, unique=True)):
        kind = draw(st.sampled_from(list(Kind)))
        out[name] = AttrValue.of(draw(RAW_VALUES[kind]))
    return out


def _outcome(fn):
    try:
        return fn()
    except KindMismatch as exc:
        return ("KindMismatch", str(exc))


class TestCompiledMatcher:
    @settings(max_examples=400, deadline=None)
    @given(match_queries(), st.lists(attr_maps(), min_size=1, max_size=4))
    def test_compiled_matcher_equals_reference(self, q, maps):
        matches = query_matcher(q)
        for attrs in maps:
            assert _outcome(lambda: matches(attrs)) == _outcome(lambda: query_matches(q, attrs))

    def test_predicate_with_no_integer_inside_matches_nothing(self):
        p = Predicate("size", AttrValue.of(5), AttrValue.of(6), lower_inclusive=False, upper_inclusive=False)
        matches = query_matcher(Query.of([p]))
        assert not any(matches(make_attrs({"size": v})) for v in (4, 5, 6, 7))

    def test_kind_mismatch_raised_with_reference_message(self):
        q = Query.of([Predicate.between("size", 10, 20)])
        with pytest.raises(KindMismatch, match="attribute 'size': object holds text, predicate int"):
            query_matcher(q)(make_attrs({"size": "ten"}))


@st.composite
def membership_regions(draw):
    """Regions over MATCH_ATTRS whose dimensions are full, half-bounded or
    bounded, each bounded dimension of a random kind."""
    bounds = {}
    for name in MATCH_ATTRS:
        shape = draw(st.sampled_from(["full", "lo", "hi", "both"]))
        values = RAW_VALUES[draw(st.sampled_from(list(Kind)))].map(AttrValue.of)
        if shape == "full":
            bounds[name] = Interval()
        elif shape == "lo":
            bounds[name] = Interval(draw(values), None)
        elif shape == "hi":
            bounds[name] = Interval(None, draw(values))
        else:
            lo, hi = draw(values), draw(values)
            assume(lo.value != hi.value)
            bounds[name] = Interval(min(lo, hi), max(lo, hi))
    return HyperRegion.of(bounds)


def reference_contains(r, attrs):
    """Membership from per-dimension Interval.contains: a missing attribute is
    inside a full dimension only."""
    for name, dim in r:
        v = attrs.get(name)
        if v is None:
            if not dim.is_full:
                return False
        elif not dim.contains(v):
            return False
    return True


class TestCompiledMembership:
    @settings(max_examples=400, deadline=None)
    @given(membership_regions(), st.lists(attr_maps(), min_size=1, max_size=4))
    def test_contains_equals_per_dimension_reference(self, r, maps):
        for attrs in maps:
            assert _outcome(lambda: r.contains(attrs)) == _outcome(lambda: reference_contains(r, attrs))

    def test_other_kind_raises_in_a_bounded_dimension_only(self):
        r = region(x=(0, 10), y=(None, None))
        with pytest.raises(KindMismatch):
            r.contains(make_attrs({"x": 1.0}))
        with pytest.raises(KindMismatch):
            region(x=(None, 10)).contains(make_attrs({"x": "a"}))
        assert r.contains(make_attrs({"x": 1, "y": "anything"}))


class TestVersion:
    def test_orders_by_ts_then_origin(self):
        versions = [Version(2, "dc2"), Version(1, "dc9"), Version(2, "dc1"), Version(2, "")]
        assert sorted(versions) == [Version(1, "dc9"), Version(2, ""), Version(2, "dc1"), Version(2, "dc2")]
        assert Version(2, "dc1") < Version(2, "dc2") < Version(3, "dc1")
        assert max(Version(5, "a"), Version(5, "b")) == Version(5, "b")

    def test_equals_and_hashes_as_a_plain_tuple(self):
        assert Version(3, "dc1") == (3, "dc1") and hash(Version(3, "dc1")) == hash((3, "dc1"))
        assert Version(3, "dc1") != Version(3, "dc2")
        assert ZERO_VERSION == (0, "") and ZERO_VERSION < Version(1, "")


class TestQueryToRegion:
    def test_integer_successor(self):
        q = Query.of([Predicate.between("size", 10, 20)])
        r = query_to_region(q, ["size"])
        assert r.interval("size") == iv(10, 21)

    def test_unconstrained_dimension_unbounded(self):
        q = Query.of([Predicate.between("size", 10, 20)])
        r = query_to_region(q, ["size", "genre"])
        assert r.interval("size") == iv(10, 21)
        assert r.interval("genre").is_full

    def test_text_point_query(self):
        q = Query.of([Predicate.equals("genre", "rock")])
        r = query_to_region(q, ["genre"])
        assert r.interval("genre") == iv("rock", "rock\x00")

    def test_unindexed_attribute_marks_unindexable(self):
        q = Query.of([Predicate.equals("color", "red")])
        assert query_to_region(q, ["size"]) is None

    def test_round_trip_region_to_query(self):
        r = region(size=(10, 21), genre=(None, None))
        q = region_to_query(r)
        assert q.attrs == ("size",)
        assert query_to_region(q, ["size", "genre"]) == r

    @given(
        lo=st.integers(min_value=-50, max_value=50),
        width=st.integers(min_value=0, max_value=40),
        probe=st.integers(min_value=-60, max_value=110),
    )
    def test_query_equals_region_membership(self, lo, width, probe):
        q = Query.of([Predicate.between("x", lo, lo + width)])
        r = query_to_region(q, ["x"])
        o = obj("k", x=probe)
        assert query_matches(q, o.attrs) == r.contains(o.attrs)

    def test_inclusive_upper_boundary(self):
        q = Query.of([Predicate.between("x", 0, 7)])
        r = query_to_region(q, ["x"])
        assert r.contains(make_attrs({"x": 7}))
        assert not r.contains(make_attrs({"x": 8}))


class TestRegions:
    def test_intersects_overlap_and_adjacency(self):
        a = region(x=(0, 10))
        b = region(x=(5, 15))
        c = region(x=(10, 20))
        assert a.clip(b) is not None
        assert a.clip(c) is None  # closed-open adjacency is disjoint

    def test_full_region_contains_everything(self):
        r = HyperRegion.full(["x", "y"])
        assert r.contains(make_attrs({"x": 1}))
        assert r.contains({})

    def test_open_upper_bound(self):
        r = region(x=(0, 10))
        assert not r.contains(make_attrs({"x": 10}))
        assert r.contains(make_attrs({"x": 9}))

    def test_missing_dim_outside_bounded_inside_unbounded(self):
        r = region(x=(0, 10), y=(None, None))
        assert not r.contains(make_attrs({"y": 3}))
        r2 = region(x=(None, None), y=(None, None))
        assert r2.contains(make_attrs({"y": 3}))

    def test_clip_examples(self):
        a = region(x=(0, 10))
        b = region(x=(5, 15))
        assert a.clip(b) == region(x=(5, 10))
        assert a.clip(region(x=(10, 20))) is None

    def test_subtract_self_is_empty(self):
        a = region(x=(0, 10))
        assert a.subtract(a) == []

    def test_subtract_disjoint_returns_self(self):
        a = region(x=(0, 10))
        assert a.subtract(region(x=(20, 30))) == [a]

    def test_mismatched_attr_sets_rejected(self):
        with pytest.raises(RegionError):
            region(x=(0, 10)).clip(region(y=(0, 10)))

    def test_split(self):
        a = region(x=(0, 100))
        low, high = a.split("x", AttrValue.of(40))
        assert low == region(x=(0, 40))
        assert high == region(x=(40, 100))
        with pytest.raises(RegionError):
            a.split("x", AttrValue.of(0))


def reference_interval_clip(a, b):
    """Interval intersection on AttrValue's own operators."""
    lo = a.lo if b.lo is None else b.lo if a.lo is None else max(a.lo, b.lo)
    hi = a.hi if b.hi is None else b.hi if a.hi is None else min(a.hi, b.hi)
    if lo is not None and hi is not None and not lo < hi:
        return None
    return Interval(lo, hi)


def reference_covers(a, b):
    if a.lo is not None and (b.lo is None or b.lo < a.lo):
        return False
    if a.hi is not None and (b.hi is None or a.hi < b.hi):
        return False
    return True


def reference_clip(a, b):
    out = {}
    for name, dim in a:
        c = reference_interval_clip(dim, b.interval(name))
        if c is None:
            return None
        out[name] = c
    return HyperRegion.of(out)


def reference_subtract(a, b):
    core = reference_clip(a, b)
    if core is None:
        return [a]
    pieces, rem = [], a.bounds()
    for name in sorted(rem):
        x, y = rem[name], core.interval(name)
        if y.lo is not None and (x.lo is None or x.lo < y.lo):
            pieces.append(HyperRegion.of({**rem, name: Interval(x.lo, y.lo)}))
        if y.hi is not None and (x.hi is None or y.hi < x.hi):
            pieces.append(HyperRegion.of({**rem, name: Interval(y.hi, x.hi)}))
        rem[name] = y
    return pieces


def _result_or_kind_mismatch(fn):
    try:
        return fn()
    except KindMismatch:
        return KindMismatch


class TestRawRegionAlgebra:
    """Clip, covers and subtract compare raw values once the kinds are
    checked; they answer as the same algebra on AttrValue's operators does,
    KindMismatch included, across regions whose dimensions differ in kind."""

    @settings(max_examples=400, deadline=None)
    @given(membership_regions(), membership_regions())
    def test_equals_attrvalue_operator_reference(self, a, b):
        for x, y in ((a, b), (b, a), (a, a)):
            clipped = _result_or_kind_mismatch(lambda: x.clip(y))
            assert clipped == _result_or_kind_mismatch(lambda: reference_clip(x, y))
            if clipped == x:
                assert clipped is x  # nothing cut: the region itself
            expected = _result_or_kind_mismatch(lambda: reference_subtract(x, y))
            assert _result_or_kind_mismatch(lambda: x.subtract(y)) == expected
            for (name, dx), (_, dy) in zip(x, y):
                assert _result_or_kind_mismatch(lambda: dx.covers(dy)) == _result_or_kind_mismatch(
                    lambda: reference_covers(dx, dy)
                )

    def test_mixed_kinds_raise_and_malformed_bounds_are_region_errors(self):
        with pytest.raises(KindMismatch):
            iv(0, 10).clip(iv(0.5, None))
        with pytest.raises(KindMismatch):
            region(x=(0, None)).clip(region(x=(None, 2.5)))
        with pytest.raises(RegionError):
            iv(5, 5)
        with pytest.raises(RegionError):
            Interval(AttrValue.of(1), AttrValue.of(2.0))
        with pytest.raises(RegionError):
            Predicate.between("x", 2.0, 1.0)


def random_region(rng, dims, lo=0, hi=12):
    bounds = {}
    for d in dims:
        a = rng.randrange(lo, hi)
        b = rng.randrange(lo, hi)
        if a == b:
            bounds[d] = (None, None) if rng.random() < 0.5 else (a, a + 1)
        else:
            bounds[d] = (min(a, b), max(a, b))
        if rng.random() < 0.15:
            bounds[d] = (None, bounds[d][1])
        if rng.random() < 0.15:
            bounds[d] = (bounds[d][0], None)
        if bounds[d] == (None, None):
            bounds[d] = (None, None)
    return region(**bounds)


def grid_points(dims, hi=12):
    if len(dims) == 1:
        return [{dims[0]: v} for v in range(-1, hi + 1)]
    out = []
    for v in range(-1, hi + 1):
        for rest in grid_points(dims[1:], hi):
            out.append({dims[0]: v, **rest})
    return out


class TestRegionFuzzOracle:
    """Random region pairs vs direct per-point interval checks on an integer grid."""

    def test_intersects_matches_per_dimension_overlap(self):
        rng = random.Random(7)
        for _ in range(300):
            a = random_region(rng, ["x", "y"])
            b = random_region(rng, ["x", "y"])
            expected = all(
                a.interval(d).clip(b.interval(d)) is not None for d in ("x", "y")
            )
            assert (a.clip(b) is not None) == expected
            assert (b.clip(a) is not None) == expected

    def test_clip_and_subtract_partition_on_grid(self):
        rng = random.Random(13)
        points = grid_points(["x", "y"])
        for _ in range(150):
            a = random_region(rng, ["x", "y"])
            b = random_region(rng, ["x", "y"])
            clipped = a.clip(b)
            pieces = a.subtract(b)
            assert len(pieces) <= 4  # 2 per dimension
            for pt in points:
                attrs = make_attrs(pt)
                in_a, in_b = a.contains(attrs), b.contains(attrs)
                covered = sum(p.contains(attrs) for p in pieces)
                assert covered <= 1  # pieces pairwise disjoint
                assert bool(covered) == (in_a and not in_b)
                clip_hit = clipped is not None and clipped.contains(attrs)
                assert clip_hit == (in_a and in_b)

    def test_contains_point_oracle_500_objects(self):
        rng = random.Random(99)
        r = random_region(rng, ["x", "y"])
        for i in range(500):
            attrs = {}
            if rng.random() < 0.9:
                attrs["x"] = rng.randrange(-2, 14)
            if rng.random() < 0.9:
                attrs["y"] = rng.randrange(-2, 14)
            amap = make_attrs(attrs)
            expected = True
            for d in ("x", "y"):
                dim = r.interval(d)
                if d not in amap:
                    expected = expected and dim.is_full
                else:
                    expected = expected and dim.contains(amap[d])
            assert r.contains(amap) == expected


class TestCanonicalQuery:
    def test_predicate_order_does_not_matter(self):
        a = Query.of([Predicate.between("x", 0, 5), Predicate.equals("g", "a")])
        b = Query.of([Predicate.equals("g", "a"), Predicate.between("x", 0, 5)])
        assert canonical_query(a) == canonical_query(b)

    def test_inclusive_and_exclusive_forms_normalize_equal(self):
        inclusive = Query.of([Predicate.between("x", 0, 5)])
        exclusive = Query.of([Predicate("x", AttrValue.of(0), AttrValue.of(6), upper_inclusive=False)])
        assert canonical_query(inclusive) == canonical_query(exclusive)

    def test_kind_distinguishes_equal_raw_bounds(self):
        ints = Query.of([Predicate.between("x", 1, 2)])  # [1, 3)
        floats = Query.of([Predicate("x", AttrValue.of(1.0), AttrValue.of(3.0), upper_inclusive=False)])
        assert canonical_query(ints) != canonical_query(floats)
        assert len({canonical_query(ints), canonical_query(floats)}) == 2

    def test_limit_distinguishes(self):
        q = [Predicate.between("x", 0, 5)]
        assert canonical_query(Query.of(q, limit=3)) != canonical_query(Query.of(q))
