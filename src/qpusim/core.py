"""Domain types and the region algebra: attribute values, predicates, queries,
and closed-open hyper-rectangles of the attribute space."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

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
RawValue = int | float | str  # AttrValue.value


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
    set it, shared with that write's op, the replica logs, index registries
    and every result row built from it; no code mutates one in place. The only
    copy is taken where a client's dict enters the store (DcReplica.put).
    A NamedTuple, as are the per-event records (see store.py)."""

    key: str
    attrs: dict[str, AttrValue]
    version: Version


@dataclass(frozen=True)
class Interval:
    """Closed-open interval [lo, hi); None means unbounded on that side.

    Like HyperRegion.contains and query_matcher, the region algebra checks
    the kinds of the bounds it compares, raising KindMismatch where
    AttrValue's operators would, and then compares their raw values."""

    lo: AttrValue | None = None
    hi: AttrValue | None = None

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None:
            if self.lo.kind is not self.hi.kind:
                raise RegionError(f"interval bounds of mixed kind: {self.lo!r}, {self.hi!r}")
            if not self.lo.value < self.hi.value:  # type: ignore[operator]
                raise RegionError(f"empty or inverted interval [{self.lo!r}, {self.hi!r})")

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_full(self) -> bool:
        return self.lo is None and self.hi is None

    def contains(self, v: AttrValue) -> bool:
        if self.lo is not None and _less(v, self.lo):
            return False
        if self.hi is not None and not _less(v, self.hi):
            return False
        return True

    def clip(self, other: "Interval") -> "Interval | None":
        """Intersection, or None when disjoint; self when other cuts nothing
        off it."""
        lo, hi = self.lo, self.hi
        if other.lo is not None and (lo is None or _less(lo, other.lo)):
            lo = other.lo
        if other.hi is not None and (hi is None or _less(other.hi, hi)):
            hi = other.hi
        if lo is self.lo and hi is self.hi:
            return self
        if lo is not None and hi is not None and not _less(lo, hi):
            return None
        return Interval(lo, hi)

    def covers(self, other: "Interval") -> bool:
        """True when every point of `other` lies in self."""
        if self.lo is not None and (other.lo is None or _less(other.lo, self.lo)):
            return False
        if self.hi is not None and (other.hi is None or _less(self.hi, other.hi)):
            return False
        return True


def _less(a: AttrValue, b: AttrValue) -> bool:
    """a < b on raw values, raising KindMismatch across kinds as a < b would."""
    if a.kind is not b.kind:
        raise KindMismatch(f"cannot compare {a.kind.value} with {b.kind.value}")
    return a.value < b.value  # type: ignore[operator]


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

    @cached_property
    def attrs(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.dims)

    @cached_property
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

    @cached_property
    def _membership(self) -> tuple[tuple[str, Kind, RawValue | None, RawValue | None], ...]:
        """(attr, kind, lo, hi) with raw bounds, None unbounded, for every
        dimension bounded on at least one side; full dimensions drop out."""
        out = []
        for name, iv in self.dims:
            if iv.is_full:
                continue
            kind = (iv.lo if iv.lo is not None else iv.hi).kind  # type: ignore[union-attr]
            out.append((name, kind, None if iv.lo is None else iv.lo.value, None if iv.hi is None else iv.hi.value))
        return tuple(out)

    def contains(self, attrs: AttrMap) -> bool:
        """Point membership. A missing attribute is outside every bounded
        dimension and inside every unbounded one. Answers as a per-dimension
        Interval.contains would, raising KindMismatch on a value of another
        kind than a bounded dimension, but compares raw values, compiled once
        per region, the way query_matcher compiles a query."""
        for attr, kind, lo, hi in self._membership:
            v = attrs.get(attr)
            if v is None:
                return False
            if v.kind is not kind:
                raise KindMismatch(f"cannot compare {v.kind.value} with {kind.value}")
            raw = v.value
            if (lo is not None and raw < lo) or (hi is not None and raw >= hi):
                return False
        return True

    def clip(self, other: "HyperRegion") -> "HyperRegion | None":
        """Intersection box, or None when disjoint; self when other cuts
        nothing off it."""
        self._check(other)
        dims = []
        cut = False
        for (name, iv), (_, oiv) in zip(self.dims, other.dims):
            c = iv.clip(oiv)
            if c is None:
                return None
            cut = cut or c is not iv
            dims.append((name, c))
        return HyperRegion(tuple(dims)) if cut else self

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
        rem = list(self.dims)
        # clip kept self's intervals or cut them: a and b share a kind
        for i, ((name, a), (_, b)) in enumerate(zip(self.dims, core.dims)):
            if b is a:
                continue
            if b.lo is not None and (a.lo is None or a.lo.value < b.lo.value):  # type: ignore[operator]
                rem[i] = (name, Interval(a.lo, b.lo))
                pieces.append(HyperRegion(tuple(rem)))
            if b.hi is not None and (a.hi is None or b.hi.value < a.hi.value):  # type: ignore[operator]
                rem[i] = (name, Interval(b.hi, a.hi))
                pieces.append(HyperRegion(tuple(rem)))
            rem[i] = (name, b)
        return pieces

    def split(self, attr: str, plane: AttrValue) -> "tuple[HyperRegion, HyperRegion]":
        """Cut into [lo, plane) and [plane, hi) along one dimension."""
        iv = self.interval(attr)
        if not iv.contains(plane) or (iv.lo is not None and not _less(iv.lo, plane)):
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
            lo, hi = self.lower.value, self.upper.value
            if hi < lo:  # type: ignore[operator]
                raise RegionError(f"inverted predicate bounds on {self.attr!r}")
            if lo == hi and not (self.lower_inclusive and self.upper_inclusive):
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


def query_matches(q: Query, attrs: AttrMap) -> bool:
    return all(predicate_matches(p, attrs) for p in q.predicates)


def _predicate_bounds(p: Predicate) -> tuple[AttrValue | None, AttrValue | None]:
    """Closed-open bounds [lo, hi) holding exactly the values p accepts; None is
    unbounded. The pair is empty (lo >= hi) when no value is accepted, as for
    the integers strictly between 5 and 6."""
    lo = p.lower if p.lower is None or p.lower_inclusive else p.lower.successor()
    hi = None
    if p.upper is not None:
        hi = p.upper.successor() if p.upper_inclusive else p.upper
    return lo, hi


def _raw_bounds(p: Predicate) -> tuple[str, Kind, RawValue | None, RawValue | None]:
    """(attr, kind, lo, hi): _predicate_bounds as raw values, with the one
    kind the predicate's bounds share."""
    lo, hi = _predicate_bounds(p)
    kind = (p.lower if p.lower is not None else p.upper).kind  # type: ignore[union-attr]
    return p.attr, kind, None if lo is None else lo.value, None if hi is None else hi.value


def query_is_empty(q: Query) -> bool:
    """True when some predicate accepts no value, as for the integers strictly
    between 5 and 6; such a query matches nothing anywhere."""
    for p in q.predicates:
        if p.lower is not None and p.upper is not None and not (p.lower_inclusive and p.upper_inclusive):
            _attr, _kind, lo, hi = _raw_bounds(p)
            if not lo < hi:  # type: ignore[operator]
                return True
    return False


def query_bounds(q: Query) -> list[tuple[str, AttrValue | None, AttrValue | None]]:
    """(attr, lo, hi) per predicate: the closed-open bounds of
    _predicate_bounds, which may be empty but never raise."""
    return [(p.attr, *_predicate_bounds(p)) for p in q.predicates]


def query_matcher(q: Query) -> Callable[[AttrMap], bool]:
    """Compiles q once into raw closed-open bounds per attribute. The returned
    function answers as query_matches(q, attrs) does, raising KindMismatch on
    the same inputs, but compares plain values instead of AttrValues."""
    bounds = tuple(_raw_bounds(p) for p in q.predicates)

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
        bounds[p.attr] = Interval(*_predicate_bounds(p))
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
    closed-open as raw (attr, kind, lo, hi), so the response caches hash and
    compare plain values; the kind keeps int 1 and float 1.0 apart. Used as
    the cache key."""
    return (tuple(sorted(_raw_bounds(p) for p in q.predicates)), q.limit)
