"""Domain types and the region algebra: attribute values, predicates, queries,
and closed-open hyper-rectangles of the attribute space."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Kind(str, Enum):
    INT = "int"
    FLOAT = "float"
    TEXT = "text"


class KindMismatch(TypeError):
    """Two values of different kinds were compared; signals config or data corruption."""


class IngestError(ValueError):
    """Attribute data rejected at ingestion (bad kind, NaN, out-of-range int)."""


class RegionError(ValueError):
    """Malformed interval or region bounds."""


@dataclass(frozen=True)
class AttrValue:
    """A typed attribute value. Totally ordered within a kind, never across kinds."""

    kind: Kind
    value: int | float | str

    @staticmethod
    def of(raw: int | float | str) -> "AttrValue":
        if isinstance(raw, bool):
            raise IngestError(f"boolean attribute values are not supported: {raw!r}")
        if isinstance(raw, int):
            if not (INT64_MIN <= raw <= INT64_MAX):
                raise IngestError(f"integer out of 64-bit range: {raw!r}")
            return AttrValue(Kind.INT, raw)
        if isinstance(raw, float):
            if not math.isfinite(raw):
                raise IngestError(f"non-finite float rejected: {raw!r}")
            return AttrValue(Kind.FLOAT, raw)
        if isinstance(raw, str):
            return AttrValue(Kind.TEXT, raw)
        raise IngestError(f"unsupported attribute value type: {type(raw).__name__}")

    def _check(self, other: "AttrValue") -> None:
        if self.kind is not other.kind:
            raise KindMismatch(f"cannot compare {self.kind.value} with {other.kind.value}")

    def __lt__(self, other: "AttrValue") -> bool:
        self._check(other)
        return self.value < other.value  # type: ignore[operator]

    def __le__(self, other: "AttrValue") -> bool:
        self._check(other)
        return self.value <= other.value  # type: ignore[operator]

    def __gt__(self, other: "AttrValue") -> bool:
        self._check(other)
        return self.value > other.value  # type: ignore[operator]

    def __ge__(self, other: "AttrValue") -> bool:
        self._check(other)
        return self.value >= other.value  # type: ignore[operator]

    def successor(self) -> "AttrValue":
        """Smallest representable value strictly greater than this one.

        Converts an inclusive upper bound into its exclusive (closed-open) form.
        """
        if self.kind is Kind.INT:
            return AttrValue(Kind.INT, self.value + 1)  # type: ignore[operator]
        if self.kind is Kind.FLOAT:
            return AttrValue(Kind.FLOAT, math.nextafter(self.value, math.inf))
        return AttrValue(Kind.TEXT, self.value + "\x00")  # type: ignore[operator]

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.value!r}"


AttrMap = Mapping[str, AttrValue]


def make_attrs(raw: Mapping[str, int | float | str]) -> dict[str, AttrValue]:
    """Build an attribute map from plain values, validating each."""
    out: dict[str, AttrValue] = {}
    for name in sorted(raw):
        if not name:
            raise IngestError("attribute names must be non-empty")
        out[name] = AttrValue.of(raw[name])
    return out


def check_attrs(schema: Mapping[str, Kind], attrs: AttrMap) -> None:
    """Reject attributes unknown to the schema or holding the wrong kind."""
    for name, v in attrs.items():
        kind = schema.get(name)
        if kind is None:
            raise IngestError(f"attribute {name!r} is not configured")
        if v.kind is not kind:
            raise IngestError(f"attribute {name!r} expects {kind.value}, got {v.kind.value}")


@dataclass(frozen=True, order=True)
class Version:
    """Logical write version: totally ordered by (ts, origin)."""

    ts: int
    origin: str


@dataclass(frozen=True)
class StoredObject:
    key: str
    attrs: dict[str, AttrValue]
    version: Version


@dataclass(frozen=True)
class Interval:
    """Closed-open interval [lo, hi); None means unbounded on that side."""

    lo: AttrValue | None = None
    hi: AttrValue | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None:
            if self.lo.kind is not self.hi.kind:
                raise RegionError(f"interval bounds of mixed kind: {self.lo!r}, {self.hi!r}")
            if not self.lo < self.hi:
                raise RegionError(f"empty or inverted interval [{self.lo!r}, {self.hi!r})")

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_full(self) -> bool:
        return self.lo is None and self.hi is None

    def contains(self, v: AttrValue) -> bool:
        if self.lo is not None and v < self.lo:
            return False
        if self.hi is not None and not (v < self.hi):
            return False
        return True

    def clip(self, other: "Interval") -> "Interval | None":
        """Intersection, or None when disjoint."""
        lo = self.lo if other.lo is None else other.lo if self.lo is None else max(self.lo, other.lo)
        hi = self.hi if other.hi is None else other.hi if self.hi is None else min(self.hi, other.hi)
        if lo is not None and hi is not None and not lo < hi:
            return None
        return Interval(lo, hi)

    def intersects(self, other: "Interval") -> bool:
        return self.clip(other) is not None

    def covers(self, other: "Interval") -> bool:
        """True when every point of `other` lies in self."""
        if self.lo is not None and (other.lo is None or other.lo < self.lo):
            return False
        if self.hi is not None and (other.hi is None or self.hi < other.hi):
            return False
        return True


FULL_INTERVAL = Interval(None, None)


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

    @property
    def attrs(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    def interval(self, attr: str) -> Interval:
        for name, iv in self.dims:
            if name == attr:
                return iv
        raise KeyError(attr)

    def bounds(self) -> dict[str, Interval]:
        return dict(self.dims)

    def __iter__(self) -> Iterator[tuple[str, Interval]]:
        return iter(self.dims)

    def _check(self, other: "HyperRegion") -> None:
        if self.attrs != other.attrs:
            raise RegionError(f"regions over different attribute sets: {self.attrs} vs {other.attrs}")

    def contains(self, attrs: AttrMap) -> bool:
        """Point membership. A missing attribute is outside every bounded
        dimension and inside every unbounded one."""
        for name, iv in self.dims:
            v = attrs.get(name)
            if v is None:
                if not iv.is_full:
                    return False
            elif not iv.contains(v):
                return False
        return True

    def intersects(self, other: "HyperRegion") -> bool:
        self._check(other)
        return all(iv.intersects(other.interval(name)) for name, iv in self.dims)

    def clip(self, other: "HyperRegion") -> "HyperRegion | None":
        """Intersection box, or None when disjoint."""
        self._check(other)
        out: dict[str, Interval] = {}
        for name, iv in self.dims:
            c = iv.clip(other.interval(name))
            if c is None:
                return None
            out[name] = c
        return HyperRegion.of(out)

    def covers(self, other: "HyperRegion") -> bool:
        self._check(other)
        return all(iv.covers(other.interval(name)) for name, iv in self.dims)

    def subtract(self, other: "HyperRegion") -> "list[HyperRegion]":
        """Guillotine decomposition of self minus other: at most two disjoint
        pieces per dimension, carved in lexicographic attribute order."""
        core = self.clip(other)
        if core is None:
            return [self]
        pieces: list[HyperRegion] = []
        rem = self.bounds()
        for name in sorted(rem):
            a, b = rem[name], core.interval(name)
            if b.lo is not None and (a.lo is None or a.lo < b.lo):
                below = dict(rem)
                below[name] = Interval(a.lo, b.lo)
                pieces.append(HyperRegion.of(below))
            if b.hi is not None and (a.hi is None or b.hi < a.hi):
                above = dict(rem)
                above[name] = Interval(b.hi, a.hi)
                pieces.append(HyperRegion.of(above))
            rem[name] = b
        return pieces

    def split(self, attr: str, plane: AttrValue) -> "tuple[HyperRegion, HyperRegion]":
        """Cut into [lo, plane) and [plane, hi) along one dimension."""
        iv = self.interval(attr)
        if not iv.contains(plane) or (iv.lo is not None and not iv.lo < plane):
            raise RegionError(f"split plane {plane!r} not interior to {iv} on {attr!r}")
        low, high = self.bounds(), self.bounds()
        low[attr] = Interval(iv.lo, plane)
        high[attr] = Interval(plane, iv.hi)
        return HyperRegion.of(low), HyperRegion.of(high)


@dataclass(frozen=True)
class Predicate:
    """Range constraint on one attribute. A missing bound is unbounded on that
    side; client queries normally bound both sides, decomposed sub-queries may not."""

    attr: str
    lower: AttrValue | None = None
    upper: AttrValue | None = None
    lower_inclusive: bool = True
    upper_inclusive: bool = True

    def __post_init__(self) -> None:
        if not self.attr:
            raise RegionError("predicate attribute name must be non-empty")
        if self.lower is None and self.upper is None:
            raise RegionError(f"predicate on {self.attr!r} has no bounds")
        if self.lower is not None and self.upper is not None:
            if self.lower.kind is not self.upper.kind:
                raise RegionError(f"predicate bounds of mixed kind on {self.attr!r}")
            if self.upper < self.lower:
                raise RegionError(f"inverted predicate bounds on {self.attr!r}")
            if self.lower == self.upper and not (self.lower_inclusive and self.upper_inclusive):
                raise RegionError(f"empty predicate on {self.attr!r}")

    @staticmethod
    def between(attr: str, lo: int | float | str, hi: int | float | str) -> "Predicate":
        return Predicate(attr, AttrValue.of(lo), AttrValue.of(hi))

    @staticmethod
    def equals(attr: str, v: int | float | str) -> "Predicate":
        value = AttrValue.of(v)
        return Predicate(attr, value, value)


@dataclass(frozen=True)
class Query:
    """Conjunction of per-attribute range predicates, at most one per attribute."""

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
        if v.kind is not p.lower.kind:
            raise KindMismatch(f"attribute {p.attr!r}: object holds {v.kind.value}, predicate {p.lower.kind.value}")
        if v < p.lower or (v == p.lower and not p.lower_inclusive):
            return False
    if p.upper is not None:
        if v.kind is not p.upper.kind:
            raise KindMismatch(f"attribute {p.attr!r}: object holds {v.kind.value}, predicate {p.upper.kind.value}")
        if p.upper < v or (v == p.upper and not p.upper_inclusive):
            return False
    return True


def eval_predicate(p: Predicate, obj: StoredObject) -> bool:
    return predicate_matches(p, obj.attrs)


def query_matches(q: Query, attrs: AttrMap) -> bool:
    return all(predicate_matches(p, attrs) for p in q.predicates)


def eval_query(q: Query, obj: StoredObject) -> bool:
    return query_matches(q, obj.attrs)


def _predicate_bounds(p: Predicate) -> tuple[AttrValue | None, AttrValue | None]:
    """Closed-open bounds [lo, hi) holding exactly the values p accepts; None is
    unbounded. The pair is empty (lo >= hi) when no value is accepted, as for
    the integers strictly between 5 and 6."""
    lo = p.lower if p.lower is None or p.lower_inclusive else p.lower.successor()
    hi = None
    if p.upper is not None:
        hi = p.upper.successor() if p.upper_inclusive else p.upper
    return lo, hi


def _predicate_interval(p: Predicate) -> Interval:
    return Interval(*_predicate_bounds(p))


def query_matcher(q: Query) -> Callable[[AttrMap], bool]:
    """Compiles q once into raw closed-open bounds per attribute. The returned
    function answers as query_matches(q, attrs) does, raising KindMismatch on
    the same inputs, but compares plain values instead of AttrValues."""
    compiled = []
    for p in q.predicates:
        lo, hi = _predicate_bounds(p)
        kind = (p.lower if p.lower is not None else p.upper).kind  # type: ignore[union-attr]
        compiled.append((p.attr, kind, None if lo is None else lo.value, None if hi is None else hi.value))
    bounds = tuple(compiled)

    def matches(attrs: AttrMap) -> bool:
        for attr, kind, lo, hi in bounds:
            v = attrs.get(attr)
            if v is None:
                return False
            if v.kind is not kind:
                raise KindMismatch(f"attribute {attr!r}: object holds {v.kind.value}, predicate {kind.value}")
            raw = v.value
            if (lo is not None and raw < lo) or (hi is not None and raw >= hi):
                return False
        return True

    return matches


def query_to_region(q: Query, indexed_attrs: Iterable[str]) -> HyperRegion | None:
    """Map a query onto the indexed attribute space, normalizing every bound to
    closed-open form. Returns None when the query constrains an attribute that
    is not an indexed dimension (caller falls back to a scan)."""
    indexed = set(indexed_attrs)
    bounds: dict[str, Interval] = {}
    for p in q.predicates:
        if p.attr not in indexed:
            return None
        bounds[p.attr] = _predicate_interval(p)
    for attr in indexed:
        bounds.setdefault(attr, FULL_INTERVAL)
    return HyperRegion.of(bounds)


def region_to_query(region: HyperRegion, limit: int | None = None) -> Query:
    """Inverse of query_to_region for sub-query routing: every bounded side
    becomes a closed-open predicate, fully unbounded dimensions drop out."""
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


CanonicalQuery = tuple


def canonical_query(q: Query) -> CanonicalQuery:
    """Stable hashable form: predicates sorted by attribute, bounds normalized
    closed-open. Used as the cache key."""
    dims = []
    for p in sorted(q.predicates, key=lambda p: p.attr):
        iv = _predicate_interval(p)
        dims.append((p.attr, iv.lo, iv.hi))
    return (tuple(dims), q.limit)
