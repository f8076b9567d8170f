"""Domain types and the region algebra: attribute values, predicates, queries,
and closed-open hyper-rectangles of the attribute space."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Kind(str, Enum):
    INT = "int"
    FLOAT = "float"
    TEXT = "text"


class IngestError(ValueError):
    """Attribute data rejected at ingestion (bad kind, NaN, out-of-range int)."""


class RegionError(ValueError):
    """Malformed interval or region bounds."""


RawValue = int | float | str
# A value of an attribute is held as it is, never wrapped: the schema fixes
# each attribute's kind, and check_value enforces it where values enter.
AttrMap = Mapping[str, RawValue]
_TYPE_OF_KIND = {Kind.INT: int, Kind.FLOAT: float, Kind.TEXT: str}


def check_value(kind: Kind, raw: object) -> None:
    """Rejects a raw value that is not of the schema kind: a bool, an int
    for a float, a NaN or infinite float, or an int outside 64 bits."""
    if type(raw) is not _TYPE_OF_KIND[kind]:
        raise IngestError(f"expected a {kind.value} value, got {raw!r}")
    if kind is Kind.INT and not INT64_MIN <= raw <= INT64_MAX:  # type: ignore[operator]
        raise IngestError(f"integer out of 64-bit range: {raw!r}")
    if kind is Kind.FLOAT and not math.isfinite(raw):  # type: ignore[arg-type]
        raise IngestError(f"non-finite float rejected: {raw!r}")


def check_attrs(schema: Mapping[str, Kind], attrs: AttrMap) -> None:
    """Reject attributes unknown to the schema or holding a value that is not
    of its kind (check_value)."""
    for name, v in attrs.items():
        kind = schema.get(name)
        if kind is None:
            raise IngestError(f"attribute {name!r} is not configured")
        try:
            check_value(kind, v)
        except IngestError as exc:
            raise IngestError(f"attribute {name!r}: {exc}") from None


def successor(raw: RawValue) -> RawValue:
    """Smallest representable value strictly greater than raw, of its type.

    Converts an inclusive upper bound into its exclusive (closed-open) form."""
    if type(raw) is int:
        return raw + 1
    if type(raw) is float:
        return math.nextafter(raw, math.inf)
    return raw + "\x00"  # type: ignore[operator]


class Version(NamedTuple):
    """Logical write version: totally ordered by (ts, origin). A plain tuple,
    so last-writer-wins comparisons, hashing and equality run in C; a Version
    therefore also equals the bare tuple (ts, origin)."""

    ts: int
    origin: str


# Older than every write: the version of a key nothing has written yet.
ZERO_VERSION = Version(0, "")


class StoredObject(NamedTuple):
    """An object as a replica holds it. `attrs` is the dict of the write that
    set it, shared with that write's op, the replica logs and index
    registries; no code mutates one in place. The only copy is taken where a
    client's dict enters the store (DcReplica.put). A NamedTuple, as are the
    per-event records (see store.py), so the object is itself a row of the
    replica's index and a result row (store.Entry): scans answer with it,
    and recheck keeps it."""

    key: str
    attrs: dict[str, RawValue]
    version: Version


@dataclass(frozen=True)
class Interval:
    """Closed-open interval [lo, hi); None means unbounded on that side.

    Bounds are raw values and compare as Python compares them; a schema
    fixes one kind per attribute, so the bounds and values of one dimension
    share it."""

    lo: RawValue | None = None
    hi: RawValue | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:  # type: ignore[operator]
            raise RegionError(f"empty or inverted interval [{self.lo!r}, {self.hi!r})")

    @property
    def is_full(self) -> bool:
        return self.lo is None and self.hi is None

    def contains(self, v: RawValue) -> bool:
        return (self.lo is None or self.lo <= v) and (self.hi is None or v < self.hi)  # type: ignore[operator]

    def clip(self, other: "Interval") -> "Interval | None":
        """Intersection, or None when disjoint; self when other cuts nothing
        off it."""
        lo, hi = self.lo, self.hi
        if other.lo is not None and (lo is None or lo < other.lo):  # type: ignore[operator]
            lo = other.lo
        if other.hi is not None and (hi is None or other.hi < hi):  # type: ignore[operator]
            hi = other.hi
        if lo is self.lo and hi is self.hi:
            return self
        if lo is not None and hi is not None and not lo < hi:  # type: ignore[operator]
            return None
        return Interval(lo, hi)

    def covers(self, other: "Interval") -> bool:
        """True when every point of `other` lies in self."""
        if self.lo is not None and (other.lo is None or other.lo < self.lo):  # type: ignore[operator]
            return False
        if self.hi is not None and (other.hi is None or self.hi < other.hi):  # type: ignore[operator]
            return False
        return True


FULL_INTERVAL = Interval(None, None)


class _cached:
    """A property computed on its first read and stored in the instance
    __dict__, which later reads find first, as functools.cached_property
    does, but without the lock (shared by all instances) that its first
    read takes on Python 3.11: query hops read fresh regions all the time."""

    def __init__(self, func: Callable) -> None:
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class HyperRegion:
    """A box of the attribute space: one closed-open interval per indexed attribute.

    The attribute set is fixed by configuration; unbounded dimensions are
    represented explicitly so the full space is a valid region.
    """

    dims: tuple[tuple[str, Interval], ...]

    @staticmethod
    def of(bounds: Mapping[str, Interval]) -> "HyperRegion":
        return HyperRegion(tuple(sorted(bounds.items())))

    @staticmethod
    def full(attrs: Iterable[str]) -> "HyperRegion":
        return HyperRegion(tuple((a, FULL_INTERVAL) for a in sorted(attrs)))

    @_cached
    def attrs(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    @_cached
    def _intervals(self) -> dict[str, Interval]:
        return dict(self.dims)

    def interval(self, attr: str) -> Interval:
        return self._intervals[attr]

    def bounds(self) -> dict[str, Interval]:
        return dict(self.dims)

    def __iter__(self) -> Iterator[tuple[str, Interval]]:
        return iter(self.dims)

    def _check(self, other: "HyperRegion") -> None:
        if self.attrs != other.attrs:
            raise RegionError(f"regions over different attribute sets: {self.attrs} vs {other.attrs}")

    @_cached
    def sides(self) -> tuple[tuple[str, RawValue | None, RawValue | None], ...]:
        """(attr, lo, hi), None unbounded, for every dimension bounded on at
        least one side, in attribute order; full dimensions drop out. These
        are the closed-open bounds query_bounds gives for
        region_to_query(self). The query path reads them as a region's
        bounds: for contains, for a scan's posting-set lookup
        (store.DcReplica.scan), and, with the query's limit, as a response
        cache's key."""
        return tuple((name, iv.lo, iv.hi) for name, iv in self.dims if not iv.is_full)

    def contains(self, attrs: AttrMap) -> bool:
        """Point membership. A missing attribute is outside every bounded
        dimension and inside every unbounded one. Answers as a per-dimension
        Interval.contains would, with the bounds compiled once per region,
        the way query_matcher compiles a query."""
        for attr, lo, hi in self.sides:
            v = attrs.get(attr)
            if v is None or (lo is not None and v < lo) or (hi is not None and v >= hi):  # type: ignore[operator]
                return False
        return True

    def clip(self, other: "HyperRegion") -> "HyperRegion | None":
        """Intersection box, or None when disjoint; self when other cuts
        nothing off it."""
        if len(self.dims) != len(other.dims):
            self._check(other)
        dims = []
        cut = False
        for (name, iv), (oname, oiv) in zip(self.dims, other.dims):
            if name != oname:
                self._check(other)
            c = iv.clip(oiv)
            if c is None:
                return None
            cut = cut or c is not iv
            dims.append((name, c))
        return HyperRegion(tuple(dims)) if cut else self

    def covers(self, other: "HyperRegion") -> bool:
        self._check(other)
        return all(iv.covers(other.interval(name)) for name, iv in self.dims)

    def subtract(self, other: "HyperRegion", core: "HyperRegion | None" = None) -> "list[HyperRegion]":
        """Guillotine decomposition of self minus other: at most two disjoint
        pieces per dimension, carved in lexicographic attribute order.

        `core` is self.clip(other) when the caller already holds it, not
        None; the pieces are then carved from it and nothing is clipped
        again. A query hop clips its region against a box once, and takes
        both what lies inside (the clip) and what lies outside (these
        pieces) from that one clip."""
        if core is None:
            core = self.clip(other)
            if core is None:
                return [self]
        pieces: list[HyperRegion] = []
        rem = list(self.dims)
        for i, ((name, a), (_, b)) in enumerate(zip(self.dims, core.dims)):
            if b is a:
                continue
            if b.lo is not None and (a.lo is None or a.lo < b.lo):  # type: ignore[operator]
                rem[i] = (name, Interval(a.lo, b.lo))
                pieces.append(HyperRegion(tuple(rem)))
            if b.hi is not None and (a.hi is None or b.hi < a.hi):  # type: ignore[operator]
                rem[i] = (name, Interval(b.hi, a.hi))
                pieces.append(HyperRegion(tuple(rem)))
            rem[i] = (name, b)
        return pieces

    def split(self, attr: str, plane: RawValue) -> "tuple[HyperRegion, HyperRegion]":
        """Cut into [lo, plane) and [plane, hi) along one dimension."""
        iv = self.interval(attr)
        if not iv.contains(plane) or (iv.lo is not None and not iv.lo < plane):  # type: ignore[operator]
            raise RegionError(f"split plane {plane!r} not interior to {iv} on {attr!r}")
        low, high = self.bounds(), self.bounds()
        low[attr] = Interval(iv.lo, plane)
        high[attr] = Interval(plane, iv.hi)
        return HyperRegion.of(low), HyperRegion.of(high)


@dataclass(frozen=True)
class Predicate:
    """Range constraint on one attribute of a client query. A missing bound is
    unbounded on that side; a sub-query is a region, not predicates."""

    attr: str
    lower: RawValue | None = None
    upper: RawValue | None = None
    lower_inclusive: bool = True
    upper_inclusive: bool = True

    def __post_init__(self) -> None:
        if not self.attr:
            raise RegionError("predicate attribute name must be non-empty")
        if self.lower is None and self.upper is None:
            raise RegionError(f"predicate on {self.attr!r} has no bounds")
        if self.lower is not None and self.upper is not None:
            lo, hi = self.lower, self.upper
            if hi < lo:  # type: ignore[operator]
                raise RegionError(f"inverted predicate bounds on {self.attr!r}")
            if lo == hi and not (self.lower_inclusive and self.upper_inclusive):
                raise RegionError(f"empty predicate on {self.attr!r}")

    @staticmethod
    def between(attr: str, lo: RawValue, hi: RawValue) -> "Predicate":
        return Predicate(attr, lo, hi)

    @staticmethod
    def equals(attr: str, v: RawValue) -> "Predicate":
        return Predicate(attr, v, v)


@dataclass(frozen=True)
class Query:
    """Conjunction of per-attribute range predicates, at most one per attribute.

    Bounds are raw values, and nothing checks them against a schema. A
    generated workload draws every bound from a distribution that
    check-config has checked against the attribute's kind, so its queries
    hold the kind of the values they meet. A query built by hand with a bound
    of another kind compares as Python does: an int and a float numerically,
    once an exclusive bound has become the next value of its own type, and a
    str against a number raises TypeError."""

    predicates: tuple[Predicate, ...]
    limit: int | None = None

    def __post_init__(self) -> None:
        if not self.predicates:
            raise RegionError("query needs at least one predicate")
        names = [p.attr for p in self.predicates]
        if len(set(names)) != len(names):
            raise RegionError(f"duplicate query attributes: {sorted(names)}")
        if self.limit is not None and self.limit < 0:
            raise RegionError("query limit must be non-negative")

    @staticmethod
    def of(predicates: Iterable[Predicate], limit: int | None = None) -> "Query":
        return Query(tuple(sorted(predicates, key=lambda p: p.attr)), limit)

    @property
    def attrs(self) -> tuple[str, ...]:
        return tuple(p.attr for p in self.predicates)


def predicate_matches(p: Predicate, attrs: AttrMap) -> bool:
    v = attrs.get(p.attr)
    if v is None:
        return False
    if p.lower is not None:
        if v < p.lower or (v == p.lower and not p.lower_inclusive):  # type: ignore[operator]
            return False
    if p.upper is not None:
        if p.upper < v or (v == p.upper and not p.upper_inclusive):  # type: ignore[operator]
            return False
    return True


def query_matches(q: Query, attrs: AttrMap) -> bool:
    return all(predicate_matches(p, attrs) for p in q.predicates)


def _predicate_bounds(p: Predicate) -> tuple[str, RawValue | None, RawValue | None]:
    """(attr, lo, hi): closed-open bounds [lo, hi) holding exactly the values
    p accepts; None is unbounded. The pair is empty (lo >= hi) when no value
    is accepted, as for the integers strictly between 5 and 6."""
    lo = p.lower if p.lower is None or p.lower_inclusive else successor(p.lower)
    hi = None
    if p.upper is not None:
        hi = successor(p.upper) if p.upper_inclusive else p.upper
    return p.attr, lo, hi


def query_is_empty(q: Query) -> bool:
    """True when some predicate accepts no value, as for the integers strictly
    between 5 and 6; such a query matches nothing anywhere."""
    for p in q.predicates:
        if p.lower is not None and p.upper is not None and not (p.lower_inclusive and p.upper_inclusive):
            _attr, lo, hi = _predicate_bounds(p)
            if not lo < hi:  # type: ignore[operator]
                return True
    return False


def query_bounds(q: Query) -> Sequence[tuple[str, RawValue | None, RawValue | None]]:
    """(attr, lo, hi) per predicate: the closed-open bounds of
    _predicate_bounds, which may be empty but never raise."""
    return [_predicate_bounds(p) for p in q.predicates]


def query_matcher(q: Query) -> Callable[[AttrMap], bool]:
    """Compiles q once into closed-open bounds per attribute. The returned
    function answers as query_matches(q, attrs) does for values of the
    bounds' type. The query path matches rows against regions
    (HyperRegion.contains); this is the client-side oracle that `validate`
    checks answers with."""
    bounds = query_bounds(q)

    def matches(attrs: AttrMap) -> bool:
        for attr, lo, hi in bounds:
            v = attrs.get(attr)
            if v is None or (lo is not None and v < lo) or (hi is not None and v >= hi):  # type: ignore[operator]
                return False
        return True

    return matches


def query_to_region(q: Query, indexed_attrs: Iterable[str]) -> HyperRegion | None:
    """Map a query onto the indexed attribute space, normalizing every bound to
    closed-open form. Returns None when the query constrains an attribute that
    is not an indexed dimension: no object holds one, so the unit the query
    is issued to answers it complete and empty (qpunet.QpuBase.on_message)."""
    indexed = set(indexed_attrs)
    bounds: dict[str, Interval] = {}
    for p in q.predicates:
        if p.attr not in indexed:
            return None
        attr, lo, hi = _predicate_bounds(p)
        bounds[attr] = Interval(lo, hi)
    for attr in indexed:
        bounds.setdefault(attr, FULL_INTERVAL)
    return HyperRegion.of(bounds)


def region_to_query(region: HyperRegion, limit: int | None = None) -> Query:
    """Inverse of query_to_region: every bounded side becomes a closed-open
    predicate, fully unbounded dimensions drop out. Queries travel as
    their regions from the unit they are issued to on, so only tests use
    it, as the predicate reference that a region's matcher and bounds must
    agree with."""
    preds = []
    for name, iv in region:
        if iv.is_full:
            continue
        preds.append(
            Predicate(name, iv.lo, iv.hi, lower_inclusive=True, upper_inclusive=False)
        )
    if not preds:
        raise RegionError("region is unbounded on every dimension; cannot form a query")
    return Query.of(preds, limit)
