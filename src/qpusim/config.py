"""Topology and workload configuration: typed specs read from JSON documents,
and the rules between them, each violation reported with its path into the
document.

Each spec dataclass below declares one config entity; these declarations are
the reference for the keys a document may hold. A field is a key of the kind
`_key` names, its default is the key's default, and a field with none is
required; null reads as absent. `_Reader.entity` reports an unknown key, a
missing required key and a value of the wrong kind; `validate_topology` and
`parse_workload` check what relates one entity to another."""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from .core import HyperRegion, IngestError, Interval, Kind, RawValue, check_value


class ConfigError(ValueError):
    """One or more configuration violations, each tagged with its path."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = errors
        super().__init__("\n".join(errors))


# -- kinds ----------------------------------------------------------------------
# A kind reads one present value: kind(reader, raw, path) returns the typed
# value, or _BAD after an error line. A spec class is read as a kind too.

_BAD = object()


def _int(r: _Reader, raw: Any, path: str) -> Any:
    return raw if type(raw) is int else r.bad(path, "an integer", raw)


def _number(r: _Reader, raw: Any, path: str) -> Any:
    """A finite int or float, as a float."""
    if type(raw) is float and math.isfinite(raw) or type(raw) is int and abs(raw) <= sys.float_info.max:
        return float(raw)
    return r.bad(path, "a number", raw)


def _bool(r: _Reader, raw: Any, path: str) -> Any:
    """JSON true or false; bool() would read "no" as true."""
    return raw if type(raw) is bool else r.bad(path, "true or false", raw)


def _id(r: _Reader, raw: Any, path: str) -> Any:
    """A string. Ids are hashed and compared where they are read, so a list
    or a map must stop here rather than raise a TypeError there."""
    return raw if isinstance(raw, str) else r.bad(path, "a string id", raw)


def _any(r: _Reader, raw: Any, path: str) -> Any:
    """Any value, for a key that a rule checks against an attribute's kind."""
    return raw


def _one_of(options: Any) -> Any:
    """The kind that reads one of options by name, or of an Enum by value."""
    by_name = {getattr(o, "value", o): o for o in options}

    def read(r: _Reader, raw: Any, path: str) -> Any:
        if isinstance(raw, str) and raw in by_name:
            return by_name[raw]
        return r.fail(f"{path}: {raw!r} is not one of {'/'.join(by_name)}")

    return read


def _list(item: Any) -> Any:
    """The kind that reads a list of `item`s, leaving out those that fail.
    A string is no list: "iq" is not the ids i, q."""
    item = _kind(item)

    def read(r: _Reader, raw: Any, path: str) -> Any:
        if not isinstance(raw, list):
            return r.bad(path, "a list", raw)
        return [v for i, x in enumerate(raw) if (v := item(r, x, f"{path}[{i}]")) is not _BAD]

    return read


def _map(item: Any) -> Any:
    """The kind that reads a map of names to `item`s, leaving out those that fail."""
    item = _kind(item)

    def read(r: _Reader, raw: Any, path: str) -> Any:
        if not isinstance(raw, dict):
            return r.bad(path, "a map", raw)
        return {name: v for name, x in raw.items() if (v := item(r, x, f"{path}.{name}")) is not _BAD}

    return read


def _parse_value(raw: Any, kind: Kind, errors: list[str], path: str) -> RawValue | None:
    """raw when check_value accepts it for kind, an int for a float attribute
    made a float; else an error line and None."""
    if kind is Kind.FLOAT and type(raw) is int:
        try:
            raw = float(raw)
        except OverflowError:
            errors.append(f"{path}: integer beyond the float range")
            return None
    try:
        check_value(kind, raw)
    except IngestError as exc:
        errors.append(f"{path}: {exc}")
        return None
    return raw


def _region(r: _Reader, raw: Any, path: str) -> Any:
    """A region document maps attribute names of the schema to [lo, hi]
    pairs; null bounds are unbounded and omitted attributes span their whole
    axis."""
    if not isinstance(raw, dict):
        return r.bad(path, "a map", raw)
    bounds: dict[str, Interval] = {}
    start = len(r.errors)
    for name, pair in raw.items():
        before = len(r.errors)
        if name not in r.schema:
            r.errors.append(f"{path}.{name}: unknown attribute")
        elif not isinstance(pair, (list, tuple)) or len(pair) != 2:
            r.errors.append(f"{path}.{name}: bounds must be a [lo, hi] pair")
        else:
            lo, hi = (
                None if v is None else _parse_value(v, r.schema[name], r.errors, f"{path}.{name}[{j}]")
                for j, v in enumerate(pair)
            )
            if len(r.errors) == before:
                try:
                    bounds[name] = Interval(lo, hi)
                except ValueError as exc:
                    r.errors.append(f"{path}.{name}: {exc}")
    if len(r.errors) > start:
        return _BAD
    for name in r.schema:
        bounds.setdefault(name, Interval())
    return HyperRegion.of(bounds)


# -- declarations -----------------------------------------------------------------


def _key(kind: Any, default: Any = MISSING, *, name: str | None = None, factory: Any = MISSING) -> Any:
    """A spec field read from the document key `name`, the field's own name
    by default; with neither default nor factory it is required."""
    return field(default=default, default_factory=factory, metadata={"kind": kind, "key": name})


def _kind(kind: Any) -> Any:
    """kind, or for a spec class the kind that reads the entity it declares."""
    return (lambda r, raw, path: r.entity(kind, raw, path)) if isinstance(kind, type) else kind


def _declares(name: str, tag: str | None = None, variants: Mapping[str, tuple[str, ...]] | None = None) -> Any:
    """Makes a class a keyword-only dataclass that declares the entity
    `name`. With a tag, the tag key's value names the variant read, and
    `name` stands for an entity whose tag is missing or unknown, of which
    only the keys no variant lists are read. An instance's `at`, not a
    field, is the document path it was read from, the QPU it lies in named
    by its id (`_Reader.entity`), so a rule names an entity by its place in
    the document even when an entity before it was left out."""

    def declare(cls: type) -> type:
        cls = dataclass(kw_only=True)(cls)
        cls.at = ""
        keys = {  # document key -> (field, kind, required)
            f.metadata["key"] or f.name: (f.name, _kind(f.metadata["kind"]), f.default is MISSING and f.default_factory is MISSING)
            for f in fields(cls)
        }
        listed = {key for own in (variants or {}).values() for key in own}
        cls.TAG = tag
        cls.READS = {None: (name, {k: v for k, v in keys.items() if k not in listed}, keys)}
        for value, own in (variants or {}).items():
            read = {k: v for k, v in keys.items() if k not in listed or k in own}
            cls.READS[value] = (value, read, read)
        return cls

    return declare


def _declared(cls: type, raw: Mapping[str, Any]) -> tuple[str, dict, dict]:
    """(entity name, keys read, keys known) for the map raw of cls: its
    variant's when the tag names one."""
    tag = raw.get(cls.TAG) if cls.TAG else None
    return cls.READS.get(tag if isinstance(tag, str) else None, cls.READS[None])


class _Reader:
    """Reads one document's maps into specs against their declarations,
    with an error line for each violation."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.schema: dict[str, Kind] = {}  # set once the attributes are read

    def fail(self, line: str) -> Any:
        self.errors.append(line)
        return _BAD

    def bad(self, path: str, what: str, raw: Any) -> Any:
        return self.fail(f"{path}: must be {what}, got {raw!r}")

    @staticmethod
    def label(cls: type, raw: dict, path: str) -> str:
        """The path of the entity raw in lines: a QPU's names it by its
        string id, as validate_topology's lines do."""
        if cls is QpuSpec and isinstance(raw.get("id"), str):
            return f"{path}({raw['id']})"
        return path

    def entity(self, cls: type, raw: Any, path: str) -> Any:
        """The cls spec read from the map raw; _BAD when raw is no map or a
        required key is missing or bad. A bad optional key keeps its default.
        Its `at`, and every line about its keys and what lies in them,
        name it by its label."""
        if not isinstance(raw, dict):
            return self.bad(path, "a map", raw)
        at = self.label(cls, raw, path)
        name, keys, known = _declared(cls, raw)
        prefix = f"{at}." if at else ""
        for key in raw:
            if key not in known:
                self.fail(f"{prefix}{key}: not {'an' if name[0] in 'aeio' else 'a'} {name} key")
        values, ok = {}, True
        for key, (attr, kind, required) in keys.items():  # in declaration order: attributes fix the schema first
            raw_value = raw.get(key)
            value = _BAD if raw_value is None else kind(self, raw_value, prefix + key)
            if value is not _BAD:
                values[attr] = value
            elif required:
                if raw_value is None:
                    self.fail(f"{prefix}{key}: missing")
                ok = False
        if not ok:
            return _BAD
        spec = cls(**values)
        spec.at = at
        return spec


# -- topology -----------------------------------------------------------------------


@_declares("attribute")
class AttributeSpec:
    name: str = _key(_id)
    kind: Kind = _key(_one_of(Kind))


def _attributes(r: _Reader, raw: Any, path: str) -> Any:
    """The attribute list, which fixes the schema of every region read after it."""
    attributes = _read_attribute_list(r, raw, path)
    if attributes is not _BAD:
        r.schema = {a.name: a.kind for a in attributes}
    return attributes


_read_attribute_list = _list(AttributeSpec)


@_declares("node")
class NodeSpec:
    id: str = _key(_id)
    capacity: float = _key(_number, 1.0)


@_declares("link")
class LinkSpec:
    src: str = _key(_id, name="from")
    dst: str = _key(_id, name="to")
    base_latency: int = _key(_int)
    jitter: int = _key(_int, 0)


@_declares("DC")
class DcSpec:
    id: str = _key(_id)
    node: str = _key(_id)
    full_replica: bool = _key(_bool, True)
    placement: HyperRegion | None = _key(_region, None)


@_declares("target")
class TargetSpec:
    qpu: str = _key(_id)
    region: HyperRegion | None = _key(_region, None)  # None: the target QPU's own region


QPU_KEYS = {
    "ds": ("dc", "timeout"),
    "index": ("region", "recheck_dc", "push_to", "timeout"),
    "merge": ("region", "recheck_dc", "push_to", "timeout"),
    "federation": ("recheck_dc", "timeout"),
    "cache": ("recheck_dc", "pull_from", "capacity", "ttl", "pull_interval", "timeout"),
    "filter": ("dc", "targets", "batch_interval", "batch_size"),
}


@_declares("QPU", tag="class", variants=QPU_KEYS)
class QpuSpec:
    """A QPU of any class; QPU_KEYS lists the keys each class reads beyond
    id, class and node. A replica cache is a cache that names pull_from."""

    id: str = _key(_id)
    cls: str = _key(_one_of(QPU_KEYS), name="class")
    node: str = _key(_id)
    dc: str | None = _key(_id, None)
    region: HyperRegion | None = _key(_region, None)  # None: the full space
    targets: list[TargetSpec] = _key(_list(TargetSpec), factory=list)
    recheck_dc: str | None = _key(_id, None)  # None: the nearest full replica
    push_to: str | None = _key(_id, None)
    pull_from: str | None = _key(_id, None)
    capacity: float = _key(_number, 128)
    ttl: float = _key(_number, 10_000)
    pull_interval: int | None = _key(_int, None)
    timeout: int | None = _key(_int, None)
    batch_interval: int = _key(_int, 0)
    batch_size: int | None = _key(_int, None)


@_declares("connection")
class ConnectionSpec:
    src: str = _key(_id, name="from")
    dst: str = _key(_id, name="to")
    coverage: HyperRegion | None = _key(_region, None)  # None advertises the full space


@_declares("adaptive")
class AdaptiveSpec:
    enabled: bool = _key(_bool, False)
    t_split: int = _key(_int, 100)
    t_merge: int = _key(_int, 20)
    window_buckets: int = _key(_int, 20)
    bucket_ms: int = _key(_int, 100)
    period_buckets: int = _key(_int, 10)
    rebalance: bool = _key(_bool, False)
    roots: list[str] = _key(_list(_id), factory=list)


@_declares("debug")
class DebugSpec:
    disable_recheck: bool = _key(_bool, False)


@_declares("topology")
class TopologyConfig:
    attributes: list[AttributeSpec] = _key(_attributes, factory=list)
    nodes: list[NodeSpec] = _key(_list(NodeSpec), factory=list)
    links: list[LinkSpec] = _key(_list(LinkSpec), factory=list)
    dcs: list[DcSpec] = _key(_list(DcSpec), factory=list)
    qpus: list[QpuSpec] = _key(_list(QpuSpec), factory=list)
    connections: list[ConnectionSpec] = _key(_list(ConnectionSpec), factory=list)
    adaptive: AdaptiveSpec = _key(AdaptiveSpec, factory=AdaptiveSpec)
    debug: DebugSpec = _key(DebugSpec, factory=DebugSpec)

    @property
    def schema(self) -> dict[str, Kind]:
        return {a.name: a.kind for a in self.attributes}

    @property
    def disable_recheck(self) -> bool:
        return self.debug.disable_recheck


# -- workload -----------------------------------------------------------------------

DIST_KEYS = {"uniform": ("lo", "hi"), "zipf": ("s", "n", "lo"), "choice": ("values",)}


@_declares("distribution", tag="dist", variants=DIST_KEYS)
class DistSpec:
    """An attribute's value distribution. parse_workload checks lo, hi and
    values against the attribute's kind, and sets a zipf's lo."""

    dist: str = _key(_one_of(DIST_KEYS))
    lo: Any = _key(_any, None)  # a zipf's defaults to 0
    hi: Any = _key(_any, None)
    s: float = _key(_number, 0.0)
    n: int = _key(_int, 0)
    values: list | None = _key(_any, None)


@_declares("query shape")
class QueryShape:
    attrs: list[str] = _key(_list(_id), factory=list)
    selectivity: float = _key(_number, 0.0)
    weight: float = _key(_number, 1.0)


@_declares("write_origin")
class WriteOriginSpec:
    mode: str = _key(_one_of(("round_robin", "fixed", "by_placement")), "round_robin")
    dcs: list[str] = _key(_list(_id), factory=list)


@_declares("phase")
class PhaseSpec:
    duration: int = _key(_int, 0)
    write_rate: float = _key(_number, 0.0)
    query_rate: float = _key(_number, 0.0)
    delete_fraction: float = _key(_number, 0.0)
    key_space: int = _key(_int, 100)
    key_mode: str = _key(_one_of(("random", "sequential")), "random")  # sequential assigns k0..kN in order
    attributes: dict[str, DistSpec] = _key(_map(DistSpec), factory=dict)
    query_shapes: list[QueryShape] = _key(_list(QueryShape), factory=list)
    write_origin: WriteOriginSpec = _key(WriteOriginSpec, factory=WriteOriginSpec)
    query_origin: list[str] = _key(_list(_id), factory=list)
    limit: int | None = _key(_int, None)


@_declares("workload")
class WorkloadSpec:
    phases: list[PhaseSpec] = _key(_list(PhaseSpec), factory=list)
    seed: int | None = _key(_int, None)


# -- parsing and the rules between entities ------------------------------------------


def parse_topology(doc: Mapping[str, Any]) -> TopologyConfig:
    if not isinstance(doc, dict):
        raise ConfigError([f"topology: must be a map, got {doc!r}"])
    r = _Reader()
    cfg = r.entity(TopologyConfig, doc, "")
    if not cfg.attributes:
        r.errors.append("attributes: at least one indexed attribute is required")
    r.errors.extend(validate_topology(cfg))
    if r.errors:
        raise ConfigError(r.errors)
    return cfg


def _find_cycle(edges: dict[str, list[str]]) -> list[str] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(edges, WHITE)
    stack: list[str] = []

    def visit(u: str) -> list[str] | None:
        color[u] = GRAY
        stack.append(u)
        for v in edges.get(u, ()):
            if color.get(v, WHITE) == GRAY:
                return stack[stack.index(v) :] + [v]
            if color.get(v, WHITE) == WHITE:
                found = visit(v)
                if found:
                    return found
        stack.pop()
        color[u] = BLACK
        return None

    for u in sorted(edges):
        if color[u] == WHITE:
            found = visit(u)
            if found:
                return found
    return None


def nearest_full_dc(cfg: TopologyConfig, node: str) -> str | None:
    """Fewest-hops full replica from a node over the topology's links; ties
    break on DC id. None when no full replica is reachable."""
    adj: dict[str, set[str]] = {}
    for l in cfg.links:
        adj.setdefault(l.src, set()).add(l.dst)
        adj.setdefault(l.dst, set()).add(l.src)
    dist = {node: 0}
    frontier = deque([node])
    while frontier:
        cur = frontier.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                frontier.append(nxt)
    candidates = [(dist[d.node], d.id) for d in cfg.dcs if d.full_replica and d.node in dist]
    return min(candidates)[1] if candidates else None


def adaptive_roots(cfg: TopologyConfig) -> list[str]:
    """The index trees the adaptive controller manages: adaptive.roots, or
    every index and merge QPU when none are named."""
    return list(cfg.adaptive.roots) or [q.id for q in cfg.qpus if q.cls in ("index", "merge")]


def controller_node(cfg: TopologyConfig) -> str | None:
    """The adaptive controller's node: the first node, in sorted order, that
    is the same as or linked to every root's node, since the controller
    exchanges messages with every root. None when no node is."""
    linked = {frozenset((l.src, l.dst)) for l in cfg.links}
    roots = set(adaptive_roots(cfg))
    root_nodes = {q.node for q in cfg.qpus if q.id in roots}
    for node in sorted(n.id for n in cfg.nodes):
        if all(node == r or frozenset((node, r)) in linked for r in root_nodes):
            return node
    return None


def validate_topology(cfg: TopologyConfig) -> list[str]:
    """The rules between entities. Each line names an entity by its path in
    the document (`at`), not by its place in cfg's lists, which leave out
    the entities that failed to read."""
    errors: list[str] = []
    node_ids = {n.id for n in cfg.nodes}
    dc_ids = {d.id for d in cfg.dcs}
    qpu_ids = {q.id for q in cfg.qpus}

    for coll, name in ((cfg.nodes, "nodes"), (cfg.dcs, "dcs"), (cfg.qpus, "qpus")):
        ids = [x.id for x in coll]
        for dup in sorted({i for i in ids if ids.count(i) > 1}):
            errors.append(f"{name}: duplicate id {dup!r}")
    if dc_ids & qpu_ids:
        errors.append(f"dcs/qpus: ids shared between replicas and QPUs: {sorted(dc_ids & qpu_ids)}")

    linked: set[frozenset[str]] = set()
    for l in cfg.links:
        if l.src not in node_ids or l.dst not in node_ids:
            errors.append(f"{l.at}: unknown node {l.src!r} or {l.dst!r}")
        if l.base_latency <= 0:
            errors.append(f"{l.at}.base_latency: must be positive")
        if l.jitter < 0:
            errors.append(f"{l.at}.jitter: must be non-negative")
        if frozenset((l.src, l.dst)) in linked:
            # the kernel keeps one link per node pair, so a second would replace the first
            errors.append(f"{l.at}: duplicate link between {l.src!r} and {l.dst!r}")
        linked.add(frozenset((l.src, l.dst)))

    for d in cfg.dcs:
        if d.node not in node_ids:
            errors.append(f"{d.at}.node: unknown node {d.node!r}")
        if not d.full_replica and d.placement is None:
            errors.append(f"{d.at}: partial replicas need a placement region")
        if d.full_replica and d.placement is not None:
            # a placement is what makes a replica partial: it would hold only that region
            errors.append(f"{d.at}.placement: a full replica holds every object and takes no placement")
    # replication is all-to-all between DCs, so their nodes must be connected
    for a in cfg.dcs:
        for b in cfg.dcs:
            if a.id < b.id and a.node != b.node and frozenset((a.node, b.node)) not in linked:
                errors.append(f"dcs: no link between nodes of {a.id!r} and {b.id!r} for replication")

    full_dcs = {d.id for d in cfg.dcs if d.full_replica}
    by_dc = {d.id: d for d in cfg.dcs}
    node_of = {d.id: d.node for d in cfg.dcs}
    node_of.update((q.id, q.node) for q in cfg.qpus)

    def unlinked(a: str, b: str) -> bool:
        """Messages between replicas or QPUs a and b need their nodes to be
        one node or directly linked; kernel sends take one link, no route."""
        na, nb = node_of.get(a), node_of.get(b)
        return na is not None and nb is not None and na != nb and frozenset((na, nb)) not in linked
    index_like = {q.id for q in cfg.qpus if q.cls in ("index", "merge")}
    qpu_region = {q.id: q.region for q in cfg.qpus}
    roots = set(adaptive_roots(cfg)) if cfg.adaptive.enabled else set()

    for q in cfg.qpus:
        path = q.at
        if q.node not in node_ids:
            errors.append(f"{path}.node: unknown node {q.node!r}")
        if q.timeout is not None and q.timeout <= 0:
            errors.append(f"{path}.timeout: must be a positive integer, got {q.timeout!r}")
        if q.cls == "ds":
            if q.dc not in dc_ids:
                errors.append(f"{path}.dc: a ds QPU must name its single data centre")
        if q.cls == "cache":
            if q.capacity < 1:
                errors.append(f"{path}.capacity: must be a number >= 1, got {q.capacity!r}")
            if q.ttl <= 0:
                errors.append(f"{path}.ttl: must be a positive number, got {q.ttl!r}")
            pull_from, pull = q.pull_from, q.pull_interval
            degree = sum(c.src == q.id for c in cfg.connections)
            if pull_from is None:
                if degree != 1:
                    errors.append(f"{path}: a response cache needs exactly one downstream connection")
                if pull is not None:
                    errors.append(f"{path}.pull_interval: only a replica cache, one that names pull_from, pulls")
            else:
                if degree:
                    errors.append(f"{path}: a replica cache answers from what it pulls and takes no connections")
                if pull_from not in index_like:
                    errors.append(f"{path}.pull_from: {pull_from!r} is not an indexing QPU")
                elif unlinked(q.id, pull_from):
                    errors.append(f"{path}.pull_from: no link between nodes of {q.id!r} and {pull_from!r}")
                elif pull_from in roots:
                    # a split clears the root's index, and the root still answers pulls from it
                    errors.append(f"{path}: a replica cache cannot pull from adaptive root {pull_from!r}")
                if pull is None or pull <= 0:
                    # without one it never pulls, or at 0 re-pulls at one instant forever
                    errors.append(f"{path}.pull_interval: a replica cache needs a positive integer, got {pull!r}")
        if q.cls == "filter":
            if q.dc not in dc_ids:
                errors.append(f"{path}.dc: a filter subscribes to exactly one DC log")
            elif unlinked(q.id, q.dc):
                errors.append(f"{path}.dc: no link between nodes of {q.id!r} and {q.dc!r}")
            # a partial DC logs no op for a key it does not hold, so it feeds
            # only indexes whose regions it holds in full
            placement = by_dc[q.dc].placement if q.dc in by_dc else None
            for i, t in enumerate(q.targets):
                if any(u.qpu == t.qpu for u in q.targets[:i]):  # route would send it each write twice
                    errors.append(f"{t.at}: duplicate target {t.qpu!r}")
                if t.qpu not in index_like:
                    errors.append(f"{t.at}: {t.qpu!r} is not an indexing QPU")
                elif unlinked(q.id, t.qpu):
                    errors.append(f"{t.at}: no link between nodes of {q.id!r} and {t.qpu!r}")
                region = t.region or qpu_region.get(t.qpu) or HyperRegion.full(cfg.schema)
                if placement is not None and not placement.covers(region):
                    errors.append(f"{t.at}: region is not inside the placement of partial DC {q.dc!r}")
            if q.batch_interval < 0:
                # flushes are scheduled on the integer clock
                errors.append(f"{path}.batch_interval: must be an integer >= 0, got {q.batch_interval!r}")
            if q.batch_size is not None and q.batch_size < 1:
                errors.append(f"{path}.batch_size: must be an integer >= 1, got {q.batch_size!r}")
        if q.cls in ("index", "merge", "federation", "cache"):
            rd = q.recheck_dc
            if rd is None:
                if q.node in node_ids and nearest_full_dc(cfg, q.node) is None:
                    errors.append(f"{path}: no recheck_dc and no full replica reachable from node {q.node!r}")
            elif rd not in dc_ids:
                errors.append(f"{path}.recheck_dc: unknown DC {rd!r}")
            elif rd not in full_dcs:
                # a partial replica can recheck only a region it fully holds
                region = HyperRegion.full(cfg.schema) if q.region is None else q.region
                placement = by_dc[rd].placement
                indexed = q.cls in ("index", "merge") and placement is not None
                if not (indexed and placement.covers(region)):
                    errors.append(f"{path}.recheck_dc: {rd!r} is partial and does not cover the QPU's region")
        if q.push_to is not None:
            if q.push_to not in index_like:
                errors.append(f"{path}.push_to: {q.push_to!r} is not an indexing QPU")
            elif unlinked(q.id, q.push_to):
                errors.append(f"{path}.push_to: no link between nodes of {q.id!r} and {q.push_to!r}")

    for c in cfg.connections:
        if c.src not in qpu_ids:
            errors.append(f"{c.at}.from: unknown QPU {c.src!r}")
        if c.dst not in qpu_ids:
            errors.append(f"{c.at}.to: unknown QPU {c.dst!r}")
        if unlinked(c.src, c.dst):
            errors.append(f"{c.at}: no link between nodes of {c.src!r} and {c.dst!r}")

    edges: dict[str, list[str]] = {q.id: [] for q in cfg.qpus}
    for c in cfg.connections:
        if c.src in edges and c.dst in qpu_ids:
            edges[c.src].append(c.dst)
    for q in cfg.qpus:
        if q.push_to in qpu_ids:
            edges[q.id].append(q.push_to)
    cycle = _find_cycle(edges)
    if cycle:
        errors.append(f"connections: routing graph has a cycle: {' -> '.join(cycle)}")

    if cfg.adaptive.enabled:
        a = cfg.adaptive
        if a.t_merge * 2 >= a.t_split:
            errors.append(f"adaptive: hysteresis requires t_merge < t_split/2 ({a.t_merge} vs {a.t_split})")
        if a.window_buckets < 1 or a.bucket_ms < 1 or a.period_buckets < 1:
            errors.append("adaptive: window_buckets, bucket_ms and period_buckets must be >= 1")
        for r in a.roots:
            if r not in index_like:
                errors.append(f"adaptive.roots: {r!r} is not an indexing QPU")
        if controller_node(cfg) is None:
            errors.append("adaptive: no node is linked to every index root")
        for c in cfg.connections:
            if c.src in roots:
                # a split replaces a root's connections with its children
                errors.append(f"adaptive: root {c.src!r} has a connection to {c.dst!r}, which a split would drop")

    return errors


def parse_workload(doc: Mapping[str, Any], topology: TopologyConfig | None = None) -> WorkloadSpec:
    if not isinstance(doc, dict):
        raise ConfigError([f"workload: must be a map, got {doc!r}"])
    r = _Reader()
    spec = r.entity(WorkloadSpec, doc, "")
    errors = r.errors
    schema = topology.schema if topology else None
    dc_ids = {d.id for d in topology.dcs} if topology else None
    qpu_ids = {q.id for q in topology.qpus} if topology else None
    for p in spec.phases:
        path = p.at
        if p.duration <= 0:
            errors.append(f"{path}.duration: must be positive")
        for rate_key, rate in (("write_rate", p.write_rate), ("query_rate", p.query_rate)):
            if rate < 0:
                errors.append(f"{path}.{rate_key}: must be >= 0")
        if not 0.0 <= p.delete_fraction <= 1.0:
            errors.append(f"{path}.delete_fraction: must be in [0, 1]")
        if p.limit is not None and p.limit < 0:
            errors.append(f"{path}.limit: must be a non-negative integer, got {p.limit!r}")
        if p.key_space < 1:
            errors.append(f"{path}.key_space: must be >= 1")
        dists = {}
        for name, d in p.attributes.items():
            dpath = f"{path}.attributes.{name}"
            if schema is not None and name not in schema:
                errors.append(f"{dpath}: unknown attribute")
                continue
            attr_kind = schema[name] if schema is not None else None
            # every value a distribution can draw must be a value of the
            # attribute's kind (check_value), so a run never draws one that
            # the sampler cannot make or ingest rejects
            if d.dist == "uniform":
                numbers = all(type(v) is int or type(v) is float and math.isfinite(v) for v in (d.lo, d.hi)) and d.lo < d.hi
                if not numbers:
                    errors.append(f"{dpath}: uniform needs numbers lo < hi, got {d.lo!r} and {d.hi!r}")
                if attr_kind is Kind.TEXT:
                    errors.append(f"{dpath}: uniform needs a numeric attribute, {name!r} is text")
                elif numbers and attr_kind is not None:
                    # draws lie in [lo, hi], a float one at lo + (hi - lo) * r
                    d.lo = _parse_value(d.lo, attr_kind, errors, f"{dpath}.lo")
                    d.hi = _parse_value(d.hi, attr_kind, errors, f"{dpath}.hi")
                    if attr_kind is Kind.FLOAT and d.lo is not None and d.hi is not None and not math.isfinite(d.hi - d.lo):
                        errors.append(f"{dpath}: uniform width hi - lo is beyond the float range")
            elif d.dist == "zipf":
                if d.s <= 0 or d.n < 1:
                    errors.append(f"{dpath}: zipf needs s > 0 and n >= 1")
                if attr_kind not in (None, Kind.INT):
                    errors.append(f"{dpath}: zipf needs an int attribute, {name!r} is {attr_kind.value}")
                elif d.n >= 1:
                    # draws run from lo to lo + n - 1
                    d.lo = _parse_value(0 if d.lo is None else d.lo, Kind.INT, errors, f"{dpath}.lo")
                    if d.lo is not None:
                        _parse_value(d.lo + d.n - 1, Kind.INT, errors, f"{dpath}: greatest draw lo + n - 1")
            elif not (isinstance(d.values, list) and d.values):
                errors.append(f"{dpath}: choice needs a non-empty values list")
            elif attr_kind is not None:
                # the sampler draws these as they are: an int for a float attribute is made a float
                d.values = [_parse_value(v, attr_kind, errors, f"{dpath}.values[{j}]") for j, v in enumerate(d.values)]
            dists[name] = d
        p.attributes = dists
        for s in p.query_shapes:
            spath = s.at
            if not s.attrs:
                errors.append(f"{spath}.attrs: must name at least one attribute")
            for a in s.attrs:
                if a not in dists:
                    errors.append(f"{spath}.attrs: {a!r} has no value distribution in this phase")
            if not 0.0 <= s.selectivity <= 1.0:
                errors.append(f"{spath}.selectivity: must be in [0, 1]")
            if s.weight <= 0:
                errors.append(f"{spath}.weight: must be positive")
        if p.write_rate > 0 and not p.write_origin.dcs:
            errors.append(f"{path}.write_origin.dcs: required when writes flow")
        for dc in p.write_origin.dcs:
            if dc_ids is not None and dc not in dc_ids:
                errors.append(f"{path}.write_origin.dcs: unknown DC {dc!r}")
        if p.query_rate > 0:
            if not p.query_shapes:
                errors.append(f"{path}.query_shapes: required when queries flow")
            if not p.query_origin:
                errors.append(f"{path}.query_origin: required when queries flow")
        for origin in p.query_origin:
            if qpu_ids is not None and origin not in qpu_ids:
                errors.append(f"{path}.query_origin: unknown QPU {origin!r}")
    if not spec.phases:
        errors.append("phases: at least one phase is required")
    if errors:
        raise ConfigError(errors)
    return spec


def _read_json(path: str | Path) -> Any:
    """The JSON document at path, or a ConfigError."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        reason = exc.strerror if isinstance(exc, OSError) else f"not a JSON document: {exc}"
        raise ConfigError([f"{path}: {reason}"]) from None


def load_topology(path: str | Path) -> TopologyConfig:
    return parse_topology(_read_json(path))


def load_workload(path: str | Path, topology: TopologyConfig | None = None) -> WorkloadSpec:
    return parse_workload(_read_json(path), topology)
