"""Topology and workload configuration: dataclasses, JSON parsing, and
validation that reports every violation with its path into the document."""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .core import HyperRegion, IngestError, Interval, Kind, RawValue, check_value

QPU_CLASSES = ("ds", "index", "merge", "federation", "cache", "filter")


class ConfigError(ValueError):
    """One or more configuration violations, each tagged with its path."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = errors
        super().__init__("\n".join(errors))


@dataclass
class AttributeSpec:
    name: str
    kind: Kind


@dataclass
class NodeSpec:
    id: str
    capacity: float = 1.0


@dataclass
class LinkSpec:
    src: str
    dst: str
    base_latency: int
    jitter: int = 0


@dataclass
class DcSpec:
    id: str
    node: str
    full_replica: bool = True
    placement: HyperRegion | None = None


@dataclass
class QpuSpec:
    id: str
    cls: str
    node: str
    params: dict = field(default_factory=dict)


@dataclass
class ConnectionSpec:
    src: str
    dst: str
    coverage: HyperRegion | None = None  # None advertises the full space


@dataclass
class AdaptiveSpec:
    enabled: bool = False
    t_split: int = 100
    t_merge: int = 20
    window_buckets: int = 20
    bucket_ms: int = 100
    period_buckets: int = 10
    rebalance: bool = False
    roots: tuple[str, ...] = ()


@dataclass
class TopologyConfig:
    attributes: list[AttributeSpec]
    nodes: list[NodeSpec]
    links: list[LinkSpec]
    dcs: list[DcSpec]
    qpus: list[QpuSpec]
    connections: list[ConnectionSpec]
    adaptive: AdaptiveSpec
    disable_recheck: bool = False

    @property
    def schema(self) -> dict[str, Kind]:
        return {a.name: a.kind for a in self.attributes}

    def qpu(self, qpu_id: str) -> QpuSpec:
        for q in self.qpus:
            if q.id == qpu_id:
                return q
        raise KeyError(qpu_id)


@dataclass
class DistSpec:
    dist: str  # uniform | zipf | choice
    params: dict


@dataclass
class QueryShape:
    attrs: tuple[str, ...]
    selectivity: float
    weight: float = 1.0


@dataclass
class PhaseSpec:
    duration: int
    write_rate: float = 0.0
    query_rate: float = 0.0
    delete_fraction: float = 0.0
    key_space: int = 100
    key_mode: str = "random"  # sequential assigns k0..kN in order
    attributes: dict[str, DistSpec] = field(default_factory=dict)
    query_shapes: list[QueryShape] = field(default_factory=list)
    write_origin_mode: str = "round_robin"  # or fixed | by_placement
    write_origin_dcs: tuple[str, ...] = ()
    query_origin: tuple[str, ...] = ()
    limit: int | None = None


@dataclass
class WorkloadSpec:
    phases: list[PhaseSpec]
    seed: int | None = None


# -- parsing ------------------------------------------------------------------


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


def parse_region(
    raw: Mapping[str, Any] | None, schema: Mapping[str, Kind], errors: list[str], path: str
) -> HyperRegion | None:
    """A region document maps attribute names to [lo, hi] pairs; null bounds are
    unbounded and omitted attributes span their whole axis."""
    if raw is None:
        return HyperRegion.full(schema)
    if _shaped(raw, dict, errors, path) is not raw:
        return None
    bounds: dict[str, Interval] = {}
    ok = True
    for name, pair in raw.items():
        if name not in schema:
            errors.append(f"{path}.{name}: unknown attribute")
            ok = False
            continue
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            errors.append(f"{path}.{name}: bounds must be a [lo, hi] pair")
            ok = False
            continue
        lo = None if pair[0] is None else _parse_value(pair[0], schema[name], errors, f"{path}.{name}[0]")
        hi = None if pair[1] is None else _parse_value(pair[1], schema[name], errors, f"{path}.{name}[1]")
        if (pair[0] is not None and lo is None) or (pair[1] is not None and hi is None):
            ok = False
            continue
        try:
            bounds[name] = Interval(lo, hi)
        except ValueError as exc:
            errors.append(f"{path}.{name}: {exc}")
            ok = False
    if not ok:
        return None
    for name in schema:
        bounds.setdefault(name, Interval())
    return HyperRegion.of(bounds)


def _shaped(raw: Any, kind: type, errors: list[str], path: str) -> Any:
    """raw when it is a `kind`, list or dict; else an error line, and an empty
    one so parsing goes on. A string is no list: "iq" is not the ids i, q."""
    if isinstance(raw, kind):
        return raw
    errors.append(f"{path}: must be {'a list' if kind is list else 'a map'}, got {raw!r}")
    return kind()


def _optional_map(raw: Any, errors: list[str], path: str) -> dict:
    """_shaped for a map that null leaves out: None reads as {}."""
    return {} if raw is None else _shaped(raw, dict, errors, path)


def _maps(raw: Any, errors: list[str], path: str) -> list[tuple[int, dict]]:
    """The (index, item) pairs of the list raw whose items are maps."""
    items = enumerate(_shaped(raw, list, errors, path))
    return [(i, item) for i, item in items if _shaped(item, dict, errors, f"{path}[{i}]") is item]


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _convert(raw: Any, conv: type, errors: list[str], path: str, fallback: Any) -> Any:
    """conv(raw), or an error line and `fallback` when conv rejects raw; the
    fallback only lets parsing go on to collect the other errors."""
    try:
        return conv(raw)
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{path}: must be {'an integer' if conv is int else 'a number'}, got {raw!r}")
        return fallback


def _is_id(raw: Any, errors: list[str], path: str) -> bool:
    """True when raw is a string, or None for an id left out; else an error
    line. Ids are hashed and compared where they are read, so a list or a
    map must stop here rather than raise a TypeError there."""
    if raw is None or isinstance(raw, str):
        return True
    errors.append(f"{path}: must be a string id, got {raw!r}")
    return False


def _ids_ok(doc: Mapping[str, Any], keys: tuple[str, ...], errors: list[str], path: str) -> bool:
    """_is_id for each of the keys of doc, with an error line for each bad one."""
    return all([_is_id(doc.get(key), errors, f"{path}.{key}") for key in keys])


def _flag(doc: Mapping[str, Any], name: str, default: bool, errors: list[str], path: str) -> bool:
    """doc[name] when it is JSON true or false, `default` when absent; any
    other value is an error line, since bool() would read "no" as true."""
    raw = doc.get(name, default)
    if isinstance(raw, bool):
        return raw
    errors.append(f"{path}: must be true or false, got {raw!r}")
    return default


def parse_topology(doc: Mapping[str, Any]) -> TopologyConfig:
    errors: list[str] = []
    if _shaped(doc, dict, errors, "topology") is not doc:
        raise ConfigError(errors)
    attributes = []
    for i, a in _maps(doc.get("attributes", []), errors, "attributes"):
        name, kind = a.get("name"), a.get("kind")
        if not name:
            errors.append(f"attributes[{i}].name: missing")
            continue
        if kind not in (k.value for k in Kind):
            errors.append(f"attributes[{i}].kind: {kind!r} is not one of int/float/text")
            continue
        attributes.append(AttributeSpec(name, Kind(kind)))
    if not attributes:
        errors.append("attributes: at least one indexed attribute is required")
    schema = {a.name: a.kind for a in attributes}

    nodes = []
    for i, n in _maps(doc.get("nodes", []), errors, "nodes"):
        if "id" not in n:
            errors.append(f"nodes[{i}]: needs an id")
            continue
        if not _ids_ok(n, ("id",), errors, f"nodes[{i}]"):
            continue
        capacity = n.get("capacity", 1.0)
        if not _is_number(capacity):
            errors.append(f"nodes[{i}].capacity: must be a number, got {capacity!r}")
            capacity = 1.0
        nodes.append(NodeSpec(n["id"], float(capacity)))

    links = []
    for i, l in _maps(doc.get("links", []), errors, "links"):
        if not _ids_ok(l, ("from", "to"), errors, f"links[{i}]"):
            continue
        try:
            links.append(LinkSpec(l["from"], l["to"], int(l["base_latency"]), int(l.get("jitter", 0))))
        except (KeyError, TypeError, ValueError):
            errors.append(f"links[{i}]: needs from, to, base_latency")

    dcs = []
    for i, d in _maps(doc.get("dcs", []), errors, "dcs"):
        if "id" not in d or "node" not in d:
            errors.append(f"dcs[{i}]: needs id and node")
            continue
        if not _ids_ok(d, ("id", "node"), errors, f"dcs[{i}]"):
            continue
        raw = d.get("placement")
        placement = None if raw is None else parse_region(raw, schema, errors, f"dcs[{i}].placement")
        full_replica = _flag(d, "full_replica", True, errors, f"dcs[{i}].full_replica")
        dcs.append(DcSpec(d["id"], d["node"], full_replica, placement))

    qpus = []
    for i, q in _maps(doc.get("qpus", []), errors, "qpus"):
        if "id" not in q or "class" not in q or "node" not in q:
            errors.append(f"qpus[{i}]: needs id, class and node")
            continue
        if q["class"] not in QPU_CLASSES:
            errors.append(f"qpus[{i}].class: {q['class']!r} is not one of {'/'.join(QPU_CLASSES)}")
            continue
        ids_ok = _ids_ok(q, ("id", "node", "dc", "recheck_dc", "pull_from", "push_to"), errors, f"qpus[{i}]")
        targets = q.get("targets", [])
        if _shaped(targets, list, errors, f"qpus[{i}].targets") is not targets:
            continue
        for j, t in enumerate(targets):
            if isinstance(t, dict):
                ids_ok = _ids_ok(t, ("qpu",), errors, f"qpus[{i}].targets[{j}]") and ids_ok
        if not ids_ok:
            continue
        params = {key: v for key, v in q.items() if key not in ("id", "class", "node")}
        qpus.append(QpuSpec(q["id"], q["class"], q["node"], params))

    connections = []
    for i, c in _maps(doc.get("connections", []), errors, "connections"):
        if "from" not in c or "to" not in c:
            errors.append(f"connections[{i}]: needs from and to")
            continue
        if not _ids_ok(c, ("from", "to"), errors, f"connections[{i}]"):
            continue
        coverage = parse_region(c.get("coverage"), schema, errors, f"connections[{i}].coverage")
        connections.append(ConnectionSpec(c["from"], c["to"], coverage))

    a = _optional_map(doc.get("adaptive"), errors, "adaptive")

    def count(name: str, default: int) -> int:
        return _convert(a.get(name, default), int, errors, f"adaptive.{name}", default)

    roots = _shaped(a.get("roots", []), list, errors, "adaptive.roots")
    adaptive = AdaptiveSpec(
        enabled=_flag(a, "enabled", False, errors, "adaptive.enabled"),
        t_split=count("t_split", 100),
        t_merge=count("t_merge", 20),
        window_buckets=count("window_buckets", 20),
        bucket_ms=count("bucket_ms", 100),
        period_buckets=count("period_buckets", 10),
        rebalance=_flag(a, "rebalance", False, errors, "adaptive.rebalance"),
        roots=tuple(r for j, r in enumerate(roots) if _is_id(r, errors, f"adaptive.roots[{j}]")),
    )

    debug = _shaped(doc.get("debug", {}), dict, errors, "debug")
    cfg = TopologyConfig(
        attributes=attributes,
        nodes=nodes,
        links=links,
        dcs=dcs,
        qpus=qpus,
        connections=connections,
        adaptive=adaptive,
        disable_recheck=_flag(debug, "disable_recheck", False, errors, "debug.disable_recheck"),
    )
    errors.extend(validate_topology(cfg))
    if errors:
        raise ConfigError(errors)
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
    errors: list[str] = []
    schema = cfg.schema
    node_ids = {n.id for n in cfg.nodes}
    dc_ids = {d.id for d in cfg.dcs}
    qpu_ids = {q.id for q in cfg.qpus}

    for coll, name in ((cfg.nodes, "nodes"), (cfg.dcs, "dcs"), (cfg.qpus, "qpus")):
        ids = [x.id for x in coll]
        for dup in sorted({i for i in ids if ids.count(i) > 1}):
            errors.append(f"{name}: duplicate id {dup!r}")
    if dc_ids & qpu_ids:
        errors.append(f"dcs/qpus: ids shared between replicas and QPUs: {sorted(dc_ids & qpu_ids)}")

    for i, l in enumerate(cfg.links):
        if l.src not in node_ids or l.dst not in node_ids:
            errors.append(f"links[{i}]: unknown node {l.src!r} or {l.dst!r}")
        if l.base_latency <= 0:
            errors.append(f"links[{i}].base_latency: must be positive")
        if l.jitter < 0:
            errors.append(f"links[{i}].jitter: must be non-negative")

    linked = {frozenset((l.src, l.dst)) for l in cfg.links}
    for i, d in enumerate(cfg.dcs):
        if d.node not in node_ids:
            errors.append(f"dcs[{i}].node: unknown node {d.node!r}")
        if not d.full_replica and d.placement is None:
            errors.append(f"dcs[{i}]: partial replicas need a placement region")
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
    roots = set(adaptive_roots(cfg)) if cfg.adaptive.enabled else set()

    for i, q in enumerate(cfg.qpus):
        path = f"qpus[{i}]({q.id})"
        if q.node not in node_ids:
            errors.append(f"{path}.node: unknown node {q.node!r}")
        p = q.params
        timeout = p.get("timeout")
        if timeout is not None and not (_is_int(timeout) and timeout > 0):
            errors.append(f"{path}.timeout: must be a positive integer, got {timeout!r}")
        if q.cls == "ds":
            if p.get("dc") not in dc_ids:
                errors.append(f"{path}.dc: a ds QPU must name its single data centre")
        if q.cls in ("index", "merge"):
            parse_region(p.get("region"), schema, errors, f"{path}.region")
        if q.cls == "cache":
            if "mode" in p:
                # an old file's replica cache would otherwise load as a response cache
                errors.append(f"{path}.mode: not a cache key; a replica cache names pull_from")
            capacity, ttl = p.get("capacity", 128), p.get("ttl", 10_000)
            if not (_is_number(capacity) and capacity >= 1):
                errors.append(f"{path}.capacity: must be a number >= 1, got {capacity!r}")
            if not (_is_number(ttl) and ttl > 0):
                errors.append(f"{path}.ttl: must be a positive number, got {ttl!r}")
            pull_from, pull = p.get("pull_from"), p.get("pull_interval")
            degree = sum(c.src == q.id for c in cfg.connections)
            if pull_from is None:
                if degree != 1:
                    errors.append(f"qpus({q.id}): a response cache needs exactly one downstream connection")
                if pull is not None:
                    errors.append(f"{path}.pull_interval: only a replica cache, one that names pull_from, pulls")
            else:
                if degree:
                    errors.append(f"qpus({q.id}): a replica cache answers from what it pulls and takes no connections")
                if pull_from not in index_like:
                    errors.append(f"{path}.pull_from: {pull_from!r} is not an indexing QPU")
                elif unlinked(q.id, pull_from):
                    errors.append(f"{path}.pull_from: no link between nodes of {q.id!r} and {pull_from!r}")
                elif pull_from in roots:
                    # a split clears the root's index, and the root still answers pulls from it
                    errors.append(f"qpus({q.id}): a replica cache cannot pull from adaptive root {pull_from!r}")
                if not (_is_int(pull) and pull > 0):
                    # without one it never pulls, or at 0 re-pulls at one instant forever
                    errors.append(f"{path}.pull_interval: a replica cache needs a positive integer, got {pull!r}")
        if q.cls == "filter":
            if p.get("dc") not in dc_ids:
                errors.append(f"{path}.dc: a filter subscribes to exactly one DC log")
            elif unlinked(q.id, p["dc"]):
                errors.append(f"{path}.dc: no link between nodes of {q.id!r} and {p['dc']!r}")
            for j, t in enumerate(p.get("targets", [])):
                tid = t.get("qpu") if isinstance(t, dict) else None
                if tid not in index_like:
                    errors.append(f"{path}.targets[{j}]: {tid!r} is not an indexing QPU")
                elif isinstance(t, dict):
                    parse_region(t.get("region"), schema, errors, f"{path}.targets[{j}].region")
                    if unlinked(q.id, tid):
                        errors.append(f"{path}.targets[{j}]: no link between nodes of {q.id!r} and {tid!r}")
            interval, size = p.get("batch_interval", 0), p.get("batch_size")
            if not (_is_int(interval) and interval >= 0):
                # flushes are scheduled on the integer clock
                errors.append(f"{path}.batch_interval: must be an integer >= 0, got {interval!r}")
            if size is not None and not (_is_int(size) and size >= 1):
                errors.append(f"{path}.batch_size: must be an integer >= 1, got {size!r}")
        if q.cls in ("index", "merge", "federation", "cache"):
            rd = p.get("recheck_dc")
            if rd is None:
                if q.node in node_ids and nearest_full_dc(cfg, q.node) is None:
                    errors.append(f"{path}: no recheck_dc and no full replica reachable from node {q.node!r}")
            elif rd not in dc_ids:
                errors.append(f"{path}.recheck_dc: unknown DC {rd!r}")
            elif rd not in full_dcs:
                # a partial replica can recheck only a region it fully holds;
                # a region that does not parse is reported on its own
                region = parse_region(p.get("region"), schema, [], f"{path}.region")
                placement = by_dc[rd].placement
                indexed = q.cls in ("index", "merge") and placement is not None
                if region is not None and not (indexed and placement.covers(region)):
                    errors.append(f"{path}.recheck_dc: {rd!r} is partial and does not cover the QPU's region")
        if q.cls in ("index", "merge"):
            push = p.get("push_to")
            if push is not None and push not in index_like:
                errors.append(f"{path}.push_to: {push!r} is not an indexing QPU")
            elif push is not None and unlinked(q.id, push):
                errors.append(f"{path}.push_to: no link between nodes of {q.id!r} and {push!r}")

    for i, c in enumerate(cfg.connections):
        if c.src not in qpu_ids:
            errors.append(f"connections[{i}].from: unknown QPU {c.src!r}")
        if c.dst not in qpu_ids:
            errors.append(f"connections[{i}].to: unknown QPU {c.dst!r}")
        if unlinked(c.src, c.dst):
            errors.append(f"connections[{i}]: no link between nodes of {c.src!r} and {c.dst!r}")

    edges: dict[str, list[str]] = {q.id: [] for q in cfg.qpus}
    for c in cfg.connections:
        if c.src in edges and c.dst in qpu_ids:
            edges[c.src].append(c.dst)
    for q in cfg.qpus:
        push = q.params.get("push_to")
        if push in qpu_ids:
            edges[q.id].append(push)
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
    errors: list[str] = []
    if _shaped(doc, dict, errors, "workload") is not doc:
        raise ConfigError(errors)
    phases = []
    schema = topology.schema if topology else None
    dc_ids = {d.id for d in topology.dcs} if topology else None
    qpu_ids = {q.id for q in topology.qpus} if topology else None
    for i, p in _maps(doc.get("phases", []), errors, "phases"):
        path = f"phases[{i}]"
        duration = _convert(p.get("duration", 0), int, errors, f"{path}.duration", 1)
        if duration <= 0:
            errors.append(f"{path}.duration: must be positive")
        write_rate = _convert(p.get("write_rate", 0.0), float, errors, f"{path}.write_rate", 0.0)
        query_rate = _convert(p.get("query_rate", 0.0), float, errors, f"{path}.query_rate", 0.0)
        for rate_key, rate in (("write_rate", write_rate), ("query_rate", query_rate)):
            if rate < 0:
                errors.append(f"{path}.{rate_key}: must be >= 0")
        frac = _convert(p.get("delete_fraction", 0.0), float, errors, f"{path}.delete_fraction", 0.0)
        if not 0.0 <= frac <= 1.0:
            errors.append(f"{path}.delete_fraction: must be in [0, 1]")
        limit = p.get("limit")
        if limit is not None and not (_is_int(limit) and limit >= 0):
            errors.append(f"{path}.limit: must be a non-negative integer, got {limit!r}")
        key_space = _convert(p.get("key_space", 100), int, errors, f"{path}.key_space", 1)
        if key_space < 1:
            errors.append(f"{path}.key_space: must be >= 1")
        if p.get("key_mode", "random") not in ("random", "sequential"):
            errors.append(f"{path}.key_mode: must be random or sequential")
        dists = {}
        for name, d in _optional_map(p.get("attributes"), errors, f"{path}.attributes").items():
            dpath = f"{path}.attributes.{name}"
            if _shaped(d, dict, errors, dpath) is not d:
                continue
            if schema is not None and name not in schema:
                errors.append(f"{dpath}: unknown attribute")
                continue
            kind = d.get("dist")
            attr_kind = schema[name] if schema is not None else None
            # every value a distribution can draw must be a value of the
            # attribute's kind (check_value), so a run never draws one that
            # the sampler cannot make or ingest rejects
            if kind == "uniform":
                lo, hi = d.get("lo"), d.get("hi")
                numbers = _is_number(lo) and _is_number(hi) and lo < hi
                if not numbers:
                    errors.append(f"{dpath}: uniform needs numbers lo < hi, got {lo!r} and {hi!r}")
                if attr_kind is Kind.TEXT:
                    errors.append(f"{dpath}: uniform needs a numeric attribute, {name!r} is text")
                elif numbers and attr_kind is not None:
                    # draws lie in [lo, hi], a float one at lo + (hi - lo) * r
                    lo = _parse_value(lo, attr_kind, errors, f"{dpath}.lo")
                    hi = _parse_value(hi, attr_kind, errors, f"{dpath}.hi")
                    if attr_kind is Kind.FLOAT and lo is not None and hi is not None and not math.isfinite(hi - lo):
                        errors.append(f"{dpath}: uniform width hi - lo is beyond the float range")
                    d = {**d, "lo": lo, "hi": hi}
            elif kind == "zipf":
                s_exp = _convert(d.get("s", 0), float, errors, f"{dpath}.s", 1.0)
                n = _convert(d.get("n", 0), int, errors, f"{dpath}.n", 1)
                if s_exp <= 0 or n < 1:
                    errors.append(f"{dpath}: zipf needs s > 0 and n >= 1")
                if attr_kind not in (None, Kind.INT):
                    errors.append(f"{dpath}: zipf needs an int attribute, {name!r} is {attr_kind.value}")
                elif n >= 1:
                    # draws run from lo to lo + n - 1
                    lo = _parse_value(d.get("lo", 0), Kind.INT, errors, f"{dpath}.lo")
                    if lo is not None:
                        _parse_value(lo + n - 1, Kind.INT, errors, f"{dpath}: greatest draw lo + n - 1")
            elif kind == "choice":
                values = d.get("values")
                if not (isinstance(values, list) and values):
                    errors.append(f"{dpath}: choice needs a non-empty values list")
                elif attr_kind is not None:
                    # the sampler draws these as they are: an int for a float attribute is made a float
                    values = [_parse_value(v, attr_kind, errors, f"{dpath}.values[{j}]") for j, v in enumerate(values)]
                    d = {**d, "values": values}
            else:
                errors.append(f"{dpath}.dist: {kind!r} is not uniform/zipf/choice")
                continue
            dists[name] = DistSpec(kind, {key: v for key, v in d.items() if key != "dist"})
        shapes = []
        for j, s in _maps(p.get("query_shapes", []), errors, f"{path}.query_shapes"):
            spath = f"{path}.query_shapes[{j}]"
            attrs = tuple(_shaped(s.get("attrs", []), list, errors, f"{spath}.attrs"))
            if not attrs:
                errors.append(f"{spath}.attrs: must name at least one attribute")
            for a in attrs:
                if a not in dists:
                    errors.append(f"{spath}.attrs: {a!r} has no value distribution in this phase")
            sel = _convert(s.get("selectivity", 0.0), float, errors, f"{spath}.selectivity", 0.0)
            if not 0.0 <= sel <= 1.0:
                errors.append(f"{spath}.selectivity: must be in [0, 1]")
            weight = _convert(s.get("weight", 1.0), float, errors, f"{spath}.weight", 1.0)
            if weight <= 0:
                errors.append(f"{spath}.weight: must be positive")
            shapes.append(QueryShape(attrs, sel, weight))
        wo = _optional_map(p.get("write_origin"), errors, f"{path}.write_origin")
        wo_mode = wo.get("mode", "round_robin")
        wo_dcs = tuple(_shaped(wo.get("dcs", []), list, errors, f"{path}.write_origin.dcs"))
        if wo_mode not in ("fixed", "round_robin", "by_placement"):
            errors.append(f"{path}.write_origin.mode: {wo_mode!r} unknown")
        if write_rate > 0 and not wo_dcs:
            errors.append(f"{path}.write_origin.dcs: required when writes flow")
        for j, dc in enumerate(wo_dcs):
            if _is_id(dc, errors, f"{path}.write_origin.dcs[{j}]") and dc_ids is not None and dc not in dc_ids:
                errors.append(f"{path}.write_origin.dcs: unknown DC {dc!r}")
        qo = tuple(_shaped(p.get("query_origin", []), list, errors, f"{path}.query_origin"))
        if query_rate > 0:
            if not shapes:
                errors.append(f"{path}.query_shapes: required when queries flow")
            if not qo:
                errors.append(f"{path}.query_origin: required when queries flow")
        for j, origin in enumerate(qo):
            if _is_id(origin, errors, f"{path}.query_origin[{j}]") and qpu_ids is not None and origin not in qpu_ids:
                errors.append(f"{path}.query_origin: unknown QPU {origin!r}")
        phases.append(
            PhaseSpec(
                duration=duration,
                write_rate=write_rate,
                query_rate=query_rate,
                delete_fraction=frac,
                key_space=key_space,
                key_mode=p.get("key_mode", "random"),
                attributes=dists,
                query_shapes=shapes,
                write_origin_mode=wo_mode,
                write_origin_dcs=wo_dcs,
                query_origin=qo,
                limit=p.get("limit"),
            )
        )
    if not phases:
        errors.append("phases: at least one phase is required")
    seed = doc.get("seed")
    if seed is not None:
        seed = _convert(seed, int, errors, "seed", None)
    if errors:
        raise ConfigError(errors)
    return WorkloadSpec(phases, seed)


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
