"""Topology and workload configuration: dataclasses, JSON parsing, and
validation that reports every violation with its path into the document."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .core import AttrValue, HyperRegion, Interval, Kind

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

    @property
    def total_duration(self) -> int:
        return sum(p.duration for p in self.phases)


# -- parsing ------------------------------------------------------------------


def _parse_value(raw: Any, kind: Kind, errors: list[str], path: str) -> AttrValue | None:
    expected = {Kind.INT: int, Kind.FLOAT: (int, float), Kind.TEXT: str}[kind]
    if isinstance(raw, bool) or not isinstance(raw, expected):
        errors.append(f"{path}: expected a {kind.value} value, got {raw!r}")
        return None
    if kind is Kind.FLOAT:
        raw = float(raw)
    try:
        return AttrValue.of(raw)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def parse_region(
    raw: Mapping[str, Any] | None, schema: Mapping[str, Kind], errors: list[str], path: str
) -> HyperRegion | None:
    """A region document maps attribute names to [lo, hi] pairs; null bounds are
    unbounded and omitted attributes span their whole axis."""
    if raw is None:
        return HyperRegion.full(schema)
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


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def parse_topology(doc: Mapping[str, Any]) -> TopologyConfig:
    errors: list[str] = []
    attributes = []
    for i, a in enumerate(doc.get("attributes", [])):
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
    for i, n in enumerate(doc.get("nodes", [])):
        if "id" not in n:
            continue
        capacity = n.get("capacity", 1.0)
        if not _is_number(capacity):
            errors.append(f"nodes[{i}].capacity: must be a number, got {capacity!r}")
            capacity = 1.0
        nodes.append(NodeSpec(n["id"], float(capacity)))
    if len(nodes) != len(doc.get("nodes", [])):
        errors.append("nodes: every node needs an id")

    links = []
    for i, l in enumerate(doc.get("links", [])):
        try:
            links.append(LinkSpec(l["from"], l["to"], int(l["base_latency"]), int(l.get("jitter", 0))))
        except (KeyError, TypeError, ValueError):
            errors.append(f"links[{i}]: needs from, to, base_latency")

    dcs = []
    for i, d in enumerate(doc.get("dcs", [])):
        if "id" not in d or "node" not in d:
            errors.append(f"dcs[{i}]: needs id and node")
            continue
        placement = None
        if d.get("placement") is not None:
            placement = parse_region(d["placement"], schema, errors, f"dcs[{i}].placement")
        dcs.append(DcSpec(d["id"], d["node"], bool(d.get("full_replica", True)), placement))

    qpus = []
    for i, q in enumerate(doc.get("qpus", [])):
        if "id" not in q or "class" not in q or "node" not in q:
            errors.append(f"qpus[{i}]: needs id, class and node")
            continue
        if q["class"] not in QPU_CLASSES:
            errors.append(f"qpus[{i}].class: {q['class']!r} is not one of {'/'.join(QPU_CLASSES)}")
            continue
        params = {key: v for key, v in q.items() if key not in ("id", "class", "node")}
        qpus.append(QpuSpec(q["id"], q["class"], q["node"], params))

    connections = []
    for i, c in enumerate(doc.get("connections", [])):
        if "from" not in c or "to" not in c:
            errors.append(f"connections[{i}]: needs from and to")
            continue
        coverage = parse_region(c.get("coverage"), schema, errors, f"connections[{i}].coverage")
        connections.append(ConnectionSpec(c["from"], c["to"], coverage))

    a = doc.get("adaptive", {}) or {}
    adaptive = AdaptiveSpec(
        enabled=bool(a.get("enabled", False)),
        t_split=int(a.get("t_split", 100)),
        t_merge=int(a.get("t_merge", 20)),
        window_buckets=int(a.get("window_buckets", 20)),
        bucket_ms=int(a.get("bucket_ms", 100)),
        period_buckets=int(a.get("period_buckets", 10)),
        rebalance=bool(a.get("rebalance", False)),
        roots=tuple(a.get("roots", ())),
    )

    cfg = TopologyConfig(
        attributes=attributes,
        nodes=nodes,
        links=links,
        dcs=dcs,
        qpus=qpus,
        connections=connections,
        adaptive=adaptive,
        disable_recheck=bool(doc.get("debug", {}).get("disable_recheck", False)),
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
    index_like = {q.id for q in cfg.qpus if q.cls in ("index", "merge")}

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
            mode = p.get("mode", "response")
            if mode not in ("response", "replica"):
                errors.append(f"{path}.mode: {mode!r} is not response/replica")
            capacity, ttl = p.get("capacity", 128), p.get("ttl", 10_000)
            if not (_is_number(capacity) and capacity >= 1):
                errors.append(f"{path}.capacity: must be a number >= 1, got {capacity!r}")
            if not (_is_number(ttl) and ttl > 0):
                errors.append(f"{path}.ttl: must be a positive number, got {ttl!r}")
            pull = p.get("pull_interval")
            if mode == "replica" and not (_is_int(pull) and pull > 0):
                # without one it never pulls, or at 0 re-pulls at one instant forever
                errors.append(f"{path}.pull_interval: a replica cache needs a positive integer, got {pull!r}")
        if q.cls == "filter":
            if p.get("dc") not in dc_ids:
                errors.append(f"{path}.dc: a filter subscribes to exactly one DC log")
            for j, t in enumerate(p.get("targets", [])):
                tid = t.get("qpu") if isinstance(t, dict) else None
                if tid not in index_like:
                    errors.append(f"{path}.targets[{j}]: {tid!r} is not an indexing QPU")
                elif isinstance(t, dict):
                    parse_region(t.get("region"), schema, errors, f"{path}.targets[{j}].region")
            interval, size = p.get("batch_interval", 0), p.get("batch_size")
            if not (_is_number(interval) and interval >= 0):
                errors.append(f"{path}.batch_interval: must be a number >= 0, got {interval!r}")
            if size is not None and not (_is_int(size) and size >= 1):
                errors.append(f"{path}.batch_size: must be an integer >= 1, got {size!r}")
        if q.cls in ("index", "merge", "federation", "cache"):
            rd = p.get("recheck_dc")
            if rd is not None and rd not in dc_ids:
                errors.append(f"{path}.recheck_dc: unknown DC {rd!r}")
            elif rd is not None and rd not in full_dcs:
                # a partial replica can recheck only a region it fully holds
                region = parse_region(p.get("region"), schema, [], f"{path}.region")
                placement = by_dc[rd].placement
                if q.cls not in ("index", "merge") or placement is None or not placement.covers(region):
                    errors.append(f"{path}.recheck_dc: {rd!r} is partial and does not cover the QPU's region")
        if q.cls in ("index", "merge"):
            push = p.get("push_to")
            if push is not None and push not in index_like:
                errors.append(f"{path}.push_to: {push!r} is not an indexing QPU")

    out_degree: dict[str, int] = {}
    for i, c in enumerate(cfg.connections):
        if c.src not in qpu_ids:
            errors.append(f"connections[{i}].from: unknown QPU {c.src!r}")
        if c.dst not in qpu_ids:
            errors.append(f"connections[{i}].to: unknown QPU {c.dst!r}")
        out_degree[c.src] = out_degree.get(c.src, 0) + 1
    for q in cfg.qpus:
        if q.cls == "cache" and out_degree.get(q.id, 0) != 1:
            errors.append(f"qpus({q.id}): a cache QPU needs exactly one downstream connection")

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

    return errors


def parse_workload(doc: Mapping[str, Any], topology: TopologyConfig | None = None) -> WorkloadSpec:
    errors: list[str] = []
    phases = []
    schema = topology.schema if topology else None
    dc_ids = {d.id for d in topology.dcs} if topology else None
    qpu_ids = {q.id for q in topology.qpus} if topology else None
    for i, p in enumerate(doc.get("phases", [])):
        path = f"phases[{i}]"
        duration = int(p.get("duration", 0))
        if duration <= 0:
            errors.append(f"{path}.duration: must be positive")
        for rate_key in ("write_rate", "query_rate"):
            if float(p.get(rate_key, 0.0)) < 0:
                errors.append(f"{path}.{rate_key}: must be >= 0")
        frac = float(p.get("delete_fraction", 0.0))
        if not 0.0 <= frac <= 1.0:
            errors.append(f"{path}.delete_fraction: must be in [0, 1]")
        limit = p.get("limit")
        if limit is not None and not (_is_int(limit) and limit >= 0):
            errors.append(f"{path}.limit: must be a non-negative integer, got {limit!r}")
        if int(p.get("key_space", 100)) < 1:
            errors.append(f"{path}.key_space: must be >= 1")
        if p.get("key_mode", "random") not in ("random", "sequential"):
            errors.append(f"{path}.key_mode: must be random or sequential")
        dists = {}
        for name, d in (p.get("attributes") or {}).items():
            dpath = f"{path}.attributes.{name}"
            if schema is not None and name not in schema:
                errors.append(f"{dpath}: unknown attribute")
                continue
            kind = d.get("dist")
            if kind == "uniform":
                if "lo" not in d or "hi" not in d or not d["lo"] < d["hi"]:
                    errors.append(f"{dpath}: uniform needs lo < hi")
            elif kind == "zipf":
                if float(d.get("s", 0)) <= 0 or int(d.get("n", 0)) < 1:
                    errors.append(f"{dpath}: zipf needs s > 0 and n >= 1")
            elif kind == "choice":
                if not d.get("values"):
                    errors.append(f"{dpath}: choice needs a non-empty values list")
            else:
                errors.append(f"{dpath}.dist: {kind!r} is not uniform/zipf/choice")
                continue
            dists[name] = DistSpec(kind, {key: v for key, v in d.items() if key != "dist"})
        shapes = []
        for j, s in enumerate(p.get("query_shapes", [])):
            spath = f"{path}.query_shapes[{j}]"
            attrs = tuple(s.get("attrs", ()))
            if not attrs:
                errors.append(f"{spath}.attrs: must name at least one attribute")
            for a in attrs:
                if a not in dists:
                    errors.append(f"{spath}.attrs: {a!r} has no value distribution in this phase")
            sel = float(s.get("selectivity", 0.0))
            if not 0.0 <= sel <= 1.0:
                errors.append(f"{spath}.selectivity: must be in [0, 1]")
            weight = float(s.get("weight", 1.0))
            if weight <= 0:
                errors.append(f"{spath}.weight: must be positive")
            shapes.append(QueryShape(attrs, sel, weight))
        wo = p.get("write_origin", {}) or {}
        wo_mode = wo.get("mode", "round_robin")
        wo_dcs = tuple(wo.get("dcs", ()))
        if wo_mode not in ("fixed", "round_robin", "by_placement"):
            errors.append(f"{path}.write_origin.mode: {wo_mode!r} unknown")
        if float(p.get("write_rate", 0.0)) > 0 and not wo_dcs:
            errors.append(f"{path}.write_origin.dcs: required when writes flow")
        if dc_ids is not None:
            for dc in wo_dcs:
                if dc not in dc_ids:
                    errors.append(f"{path}.write_origin.dcs: unknown DC {dc!r}")
        qo = tuple(p.get("query_origin", ()))
        if float(p.get("query_rate", 0.0)) > 0:
            if not shapes:
                errors.append(f"{path}.query_shapes: required when queries flow")
            if not qo:
                errors.append(f"{path}.query_origin: required when queries flow")
        if qpu_ids is not None:
            for origin in qo:
                if origin not in qpu_ids:
                    errors.append(f"{path}.query_origin: unknown QPU {origin!r}")
        phases.append(
            PhaseSpec(
                duration=duration,
                write_rate=float(p.get("write_rate", 0.0)),
                query_rate=float(p.get("query_rate", 0.0)),
                delete_fraction=frac,
                key_space=int(p.get("key_space", 100)),
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
    if errors:
        raise ConfigError(errors)
    seed = doc.get("seed")
    return WorkloadSpec(phases, None if seed is None else int(seed))


def load_topology(path: str | Path) -> TopologyConfig:
    with open(path) as f:
        return parse_topology(json.load(f))


def load_workload(path: str | Path, topology: TopologyConfig | None = None) -> WorkloadSpec:
    with open(path) as f:
        return parse_workload(json.load(f), topology)
