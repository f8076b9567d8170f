"""Region algebra and predicate semantics, checked against brute-force oracles."""

import functools
import math
import random
import re
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from qpusim.core import (
    INT64_MAX,
    INT64_MIN,
    HyperRegion,
    IngestError,
    Interval,
    Kind,
    Predicate,
    Query,
    RegionError,
    StoredObject,
    Version,
    ZERO_VERSION,
    check_attrs,
    check_value,
    predicate_matches,
    query_matcher,
    query_matches,
    query_to_region,
    region_to_query,
    successor,
)


def obj(key, **attrs):
    return StoredObject(key, attrs, Version(1, "dc1"))


iv = Interval


def region(**bounds):
    return HyperRegion.of({name: iv(lo, hi) for name, (lo, hi) in bounds.items()})


class TestAttrValue:
    """Attribute values are plain ints, floats and strs; check_value holds
    each to its schema kind where it enters."""

    def test_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(IngestError, match="non-finite float"):
                check_value(Kind.FLOAT, bad)
            with pytest.raises(IngestError, match="attribute 'w': non-finite float"):
                check_attrs({"w": Kind.FLOAT}, {"w": bad})
        check_value(Kind.FLOAT, 1.5)

    def test_rejects_bool_and_out_of_range_int(self):
        for kind, bad in ((Kind.INT, True), (Kind.FLOAT, False), (Kind.TEXT, True)):
            with pytest.raises(IngestError, match=f"expected a {kind.value} value, got"):
                check_value(kind, bad)
        for bad in (INT64_MAX + 1, INT64_MIN - 1):
            with pytest.raises(IngestError, match="integer out of 64-bit range"):
                check_attrs({"size": Kind.INT}, {"size": bad})
        check_attrs({"size": Kind.INT}, {"size": INT64_MAX})
        check_attrs({"size": Kind.INT}, {"size": INT64_MIN})

    def test_cross_kind_comparison_raises(self):
        """Ingest rejects a value of another kind, an int for a float
        included. Past ingest, raw values compare as Python compares them:
        a str against a number raises TypeError, an int and a float compare
        numerically."""
        schema = {"size": Kind.INT, "weight": Kind.FLOAT, "genre": Kind.TEXT}
        for name, bad in (("size", 1.0), ("size", "1"), ("weight", 1), ("genre", 1)):
            with pytest.raises(IngestError, match=f"attribute {name!r}: expected a"):
                check_attrs(schema, {name: bad})
        with pytest.raises(IngestError, match="attribute 'colour' is not configured"):
            check_attrs(schema, {"colour": "red"})
        check_attrs(schema, {"size": 1, "weight": 1.0, "genre": "1"})
        with pytest.raises(TypeError):
            predicate_matches(Predicate.between("size", 1, 5), {"size": "ten"})
        assert predicate_matches(Predicate.between("size", 1, 5), {"size": 1.0})

    def test_successors(self):
        assert successor(10) == 11
        assert successor("rock") == "rock\x00"
        f = successor(1.5)
        assert type(f) is float and f > 1.5
        # nothing representable sits between a float and its successor
        assert math.nextafter(f, -math.inf) == 1.5
        assert successor(-0.0) == 5e-324

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), min_size=3, max_size=3))
    def test_int_order_is_total(self, raw):
        """Ints order totally, and successor(a) is the least int above a."""
        a, b, c = raw
        if a < b and b < c:
            assert a < c
        assert (a < b) == (successor(a) <= b)

    @given(st.lists(st.text(max_size=8), min_size=3, max_size=3))
    def test_text_order_is_total(self, raw):
        """Strs order totally, and successor(a) is the least str above a."""
        a, b, c = raw
        if a < b and b < c:
            assert a < c
        assert (a < b) or (b < a) or (a == b)
        assert (a < b) == (successor(a) <= b)


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
        with pytest.raises(TypeError):
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
            Predicate("size", 5, 5, upper_inclusive=False)


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
            if 10 <= o.attrs["size"] <= 60 and "c" <= o.attrs["genre"] <= "p"
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
def schemas(draw):
    """One kind per attribute, as a topology's schema fixes it."""
    return {name: draw(st.sampled_from(list(Kind))) for name in MATCH_ATTRS}


@st.composite
def predicates(draw, attr, kind):
    value = RAW_VALUES[kind]
    if draw(st.booleans()):
        return Predicate(attr, *[draw(value)] * 2)  # point predicate
    lower = draw(st.one_of(st.none(), value))
    upper = draw(st.one_of(st.none(), value))
    try:
        return Predicate(attr, lower, upper, draw(st.booleans()), draw(st.booleans()))
    except RegionError:
        assume(False)


@st.composite
def match_queries(draw, schema):
    attrs = draw(st.lists(st.sampled_from(MATCH_ATTRS), min_size=1, max_size=3, unique=True))
    return Query.of([draw(predicates(a, schema[a])) for a in attrs])


@st.composite
def attr_maps(draw, schema):
    """Attribute maps with missing attributes, each value of its attribute's kind."""
    names = draw(st.lists(st.sampled_from(MATCH_ATTRS), max_size=3, unique=True))
    return {name: draw(RAW_VALUES[schema[name]]) for name in names}


class TestCompiledMatcher:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_compiled_matcher_equals_reference(self, data):
        schema = data.draw(schemas())
        q = data.draw(match_queries(schema))
        matches = query_matcher(q)
        for attrs in data.draw(st.lists(attr_maps(schema), min_size=1, max_size=4)):
            assert matches(attrs) == query_matches(q, attrs)

    def test_predicate_with_no_integer_inside_matches_nothing(self):
        p = Predicate("size", 5, 6, lower_inclusive=False, upper_inclusive=False)
        matches = query_matcher(Query.of([p]))
        assert not any(matches({"size": v}) for v in (4, 5, 6, 7))

    def test_kind_mismatch_raised_with_reference_message(self):
        """A str held where an int query compares raises Python's TypeError,
        the same one the reference matcher raises."""
        q = Query.of([Predicate.between("size", 10, 20)])
        with pytest.raises(TypeError) as reference:
            query_matches(q, {"size": "ten"})
        with pytest.raises(TypeError, match=re.escape(str(reference.value))):
            query_matcher(q)({"size": "ten"})


@st.composite
def membership_regions(draw, schema):
    """Regions over MATCH_ATTRS whose dimensions are full, half-bounded or
    bounded, each bounded dimension of its attribute's kind."""
    bounds = {}
    for name in MATCH_ATTRS:
        shape = draw(st.sampled_from(["full", "lo", "hi", "both"]))
        values = RAW_VALUES[schema[name]]
        if shape == "full":
            bounds[name] = Interval()
        elif shape == "lo":
            bounds[name] = Interval(draw(values), None)
        elif shape == "hi":
            bounds[name] = Interval(None, draw(values))
        else:
            lo, hi = draw(values), draw(values)
            assume(lo != hi)
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
    @given(st.data())
    def test_contains_equals_per_dimension_reference(self, data):
        schema = data.draw(schemas())
        r = data.draw(membership_regions(schema))
        for attrs in data.draw(st.lists(attr_maps(schema), min_size=1, max_size=4)):
            assert r.contains(attrs) == reference_contains(r, attrs)

    def test_other_kind_raises_in_a_bounded_dimension_only(self):
        """A str in a bounded int dimension raises TypeError; an int and a
        float compare numerically; a full dimension compares nothing."""
        r = region(x=(0, 10), y=(None, None))
        with pytest.raises(TypeError):
            r.contains({"x": "a"})
        with pytest.raises(TypeError):
            region(x=(None, 10)).contains({"x": "a"})
        assert r.contains({"x": 1.0}) and not r.contains({"x": 10.0})
        assert r.contains({"x": 1, "y": "anything"})


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

    def test_unindexed_attribute_has_no_region(self):
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
        assert r.contains({"x": 7})
        assert not r.contains({"x": 8})


class TestRegions:
    def test_intersects_overlap_and_adjacency(self):
        a = region(x=(0, 10))
        b = region(x=(5, 15))
        c = region(x=(10, 20))
        assert a.clip(b) is not None
        assert a.clip(c) is None  # closed-open adjacency is disjoint

    def test_derived_views_are_computed_once_without_a_lock(self):
        """sides, attrs and _intervals are kept in the instance __dict__ on
        first read, as functools.cached_property keeps them, but are not
        cached_property, whose first read takes a lock on Python 3.11."""
        r = region(x=(0, 10), y=(None, None))
        for name in ("sides", "attrs", "_intervals"):
            assert not isinstance(vars(HyperRegion)[name], functools.cached_property)
            assert name not in vars(r)
            first = getattr(r, name)
            assert vars(r)[name] is first and getattr(r, name) is first
        assert r.sides == (("x", 0, 10),) and r.attrs == ("x", "y")

    def test_full_region_contains_everything(self):
        r = HyperRegion.full(["x", "y"])
        assert r.contains({"x": 1})
        assert r.contains({})

    def test_open_upper_bound(self):
        r = region(x=(0, 10))
        assert not r.contains({"x": 10})
        assert r.contains({"x": 9})

    def test_missing_dim_outside_bounded_inside_unbounded(self):
        r = region(x=(0, 10), y=(None, None))
        assert not r.contains({"y": 3})
        r2 = region(x=(None, None), y=(None, None))
        assert r2.contains({"y": 3})

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
        # clip compares names while it zips the dimensions, so sets of
        # another size and a mismatch after the first dimension count too
        with pytest.raises(RegionError):
            region(x=(0, 10)).clip(region(x=(0, 10), y=(0, 10)))
        with pytest.raises(RegionError):
            region(x=(0, 10), y=(0, 10)).clip(region(x=(0, 10)))
        with pytest.raises(RegionError):
            region(x=(0, 10), y=(0, 10)).clip(region(x=(0, 10), z=(0, 10)))

    def test_split(self):
        a = region(x=(0, 100))
        low, high = a.split("x", 40)
        assert low == region(x=(0, 40))
        assert high == region(x=(40, 100))
        with pytest.raises(RegionError):
            a.split("x", 0)


def reference_interval_clip(a, b):
    """Interval intersection from min and max of the bounds."""
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


class TestRawRegionAlgebra:
    """Clip, covers and subtract answer as a plain reference algebra, built
    from min, max and comparisons of the bounds, does, across regions whose
    dimensions differ in kind."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_reference_algebra(self, data):
        schema = data.draw(schemas())
        a, b = data.draw(membership_regions(schema)), data.draw(membership_regions(schema))
        for x, y in ((a, b), (b, a), (a, a)):
            clipped = x.clip(y)
            assert clipped == reference_clip(x, y)
            if clipped == x:
                assert clipped is x  # nothing cut: the region itself
            assert x.subtract(y) == reference_subtract(x, y)
            for (name, dx), (_, dy) in zip(x, y):
                assert dx.covers(dy) == reference_covers(dx, dy)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_pieces_carved_from_a_held_clip_equal_subtract(self, data):
        """A hop that holds x.clip(y) passes it to subtract, which then
        carves the same pieces without clipping again."""
        schema = data.draw(schemas())
        a, b = data.draw(membership_regions(schema)), data.draw(membership_regions(schema))
        for x, y in ((a, b), (b, a), (a, a)):
            held = x.clip(y)
            if held is not None:
                assert x.subtract(y, held) == x.subtract(y) == reference_subtract(x, y)

    def test_mixed_kinds_raise_and_malformed_bounds_are_region_errors(self):
        """Bounds compare as Python compares them: a str against a number
        raises TypeError, an int and a float compare numerically."""
        with pytest.raises(TypeError):
            iv(0, 10).clip(iv("a", None))
        with pytest.raises(TypeError):
            region(x=(0, None)).clip(region(x=(None, "m")))
        assert iv(0, 10).clip(iv(0.5, None)) == iv(0.5, 10)
        assert Interval(1, 2.0).contains(1.5)
        with pytest.raises(RegionError):
            iv(5, 5)
        with pytest.raises(RegionError):
            Interval(2, 1.0)
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
                attrs = pt
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
            amap = attrs
            expected = True
            for d in ("x", "y"):
                dim = r.interval(d)
                if d not in amap:
                    expected = expected and dim.is_full
                else:
                    expected = expected and dim.contains(amap[d])
            assert r.contains(amap) == expected


def cache_key(q):
    """A response cache's key for q: the sides of its region, and its limit."""
    return (query_to_region(q, ["g", "x"]).sides, q.limit)


class TestCacheKey:
    def test_predicate_order_does_not_matter(self):
        a = Query.of([Predicate.between("x", 0, 5), Predicate.equals("g", "a")])
        b = Query.of([Predicate.equals("g", "a"), Predicate.between("x", 0, 5)])
        assert cache_key(a) == cache_key(b)

    def test_inclusive_and_exclusive_forms_normalize_equal(self):
        inclusive = Query.of([Predicate.between("x", 0, 5)])
        exclusive = Query.of([Predicate("x", 0, 6, upper_inclusive=False)])
        assert cache_key(inclusive) == cache_key(exclusive)

    def test_limit_distinguishes(self):
        q = [Predicate.between("x", 0, 5)]
        assert cache_key(Query.of(q, limit=3)) != cache_key(Query.of(q))
