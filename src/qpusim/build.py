"""Turns a validated topology into a wired simulation: kernel, replicas, QPUs,
filters, load tracking, and the adaptive controller."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .adapt import AdaptiveController, LoadTracker, RegionNode
from .config import ConfigError, TopologyConfig, parse_region
from .core import HyperRegion
from .indexing import FilterQpu, IndexQpu, MergeQpu
from .qpunet import CacheQpu, Connection, DsQpu, FederationQpu, QpuBase
from .simkernel import Kernel
from .store import DcReplica

CONTROLLER_ID = "adaptive-controller"


@dataclass
class Network:
    kernel: Kernel
    topology: TopologyConfig
    replicas: dict[str, DcReplica]
    qpus: dict[str, object]
    tracker: LoadTracker
    controller: AdaptiveController | None = None
    filters: list[FilterQpu] = field(default_factory=list)
    caches: list[CacheQpu] = field(default_factory=list)

    @property
    def schema(self):
        return self.topology.schema

    def full_replicas(self) -> list[DcReplica]:
        return [self.replicas[d.id] for d in sorted(self.topology.dcs, key=lambda d: d.id) if d.full_replica]

    def stop_periodic(self) -> None:
        """Stops every self-rescheduling actor so the event queue can drain."""
        for f in self.filters:
            f.drain(self.kernel)
            f.stop()
        for c in self.caches:
            c.stop()
        if self.controller is not None:
            self.controller.stop()

    def max_cache_ttl(self) -> int:
        return max((c.ttl for c in self.caches if c.mode == "response"), default=0)

    def settle_horizon(self) -> int:
        """A conservative virtual-time chunk by which in-flight work makes
        progress: the longest link round trip across the QPU graph plus every
        periodic interval in play."""
        max_link = max((l.base_latency + l.jitter for l in self.topology.links), default=1)
        depth = len(self.topology.qpus) + 2
        pulls = max((c.pull_interval or 0 for c in self.caches), default=0)
        batches = max((f.batch_interval for f in self.filters), default=0)
        period = self.controller.period_ms if self.controller else 0
        return 2 * max_link * depth + 2 * (pulls + batches + period) + 100


def _nearest_full_dc(cfg: TopologyConfig, node: str) -> str | None:
    """Fewest-hops full replica from a node; ties break on DC id."""
    adj: dict[str, set[str]] = {n.id: set() for n in cfg.nodes}
    for l in cfg.links:
        adj[l.src].add(l.dst)
        adj[l.dst].add(l.src)
    dist = {node: 0}
    frontier = deque([node])
    while frontier:
        cur = frontier.popleft()
        for nxt in sorted(adj[cur]):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                frontier.append(nxt)
    candidates = [
        (dist[d.node], d.id) for d in cfg.dcs if d.full_replica and d.node in dist
    ]
    if not candidates:
        return None
    return min(candidates)[1]


def build(cfg: TopologyConfig, seed: int | str = 0) -> Network:
    k = Kernel(seed=seed)
    schema = cfg.schema
    errors: list[str] = []

    for n in cfg.nodes:
        k.add_node(n.id)
    for l in cfg.links:
        k.add_link(l.src, l.dst, l.base_latency, l.jitter)

    replicas: dict[str, DcReplica] = {}
    dc_ids = [d.id for d in cfg.dcs]
    for d in cfg.dcs:
        peers = tuple(x for x in dc_ids if x != d.id)
        rep = DcReplica(d.id, schema, full_replica=d.full_replica, placement=d.placement, peers=peers)
        replicas[d.id] = rep
        k.register(rep, d.node)

    def recheck_replica(spec) -> DcReplica | None:
        rd = spec.params.get("recheck_dc") or _nearest_full_dc(cfg, spec.node)
        if rd is None:
            errors.append(f"qpus({spec.id}): no reachable full replica to recheck against")
            return None
        return replicas[rd]

    qpus: dict[str, object] = {}
    filters: list[FilterQpu] = []
    caches: list[CacheQpu] = []
    adaptive_on = cfg.adaptive.enabled
    recheck_enabled = not cfg.disable_recheck

    for spec in cfg.qpus:
        p = spec.params
        timeout = p.get("timeout")
        if spec.cls == "ds":
            qpu: object = DsQpu(spec.id, schema, replicas[p["dc"]], recheck_enabled=recheck_enabled, timeout=timeout)
        elif spec.cls in ("index", "merge"):
            region = parse_region(p.get("region"), schema, errors, f"qpus({spec.id}).region")
            cls = IndexQpu if spec.cls == "index" else MergeQpu
            qpu = cls(
                spec.id,
                region if region is not None else HyperRegion.full(schema),
                push_to=p.get("push_to"),
                controller=CONTROLLER_ID if adaptive_on else None,
                recheck_replica=recheck_replica(spec),
                recheck_enabled=recheck_enabled,
                timeout=timeout,
            )
        elif spec.cls == "federation":
            qpu = FederationQpu(
                spec.id, schema, recheck_replica=recheck_replica(spec), recheck_enabled=recheck_enabled, timeout=timeout
            )
        elif spec.cls == "cache":
            qpu = CacheQpu(
                spec.id,
                schema,
                mode=p.get("mode", "response"),
                capacity=int(p.get("capacity", 128)),
                ttl=int(p.get("ttl", 10_000)),
                pull_interval=p.get("pull_interval"),
                recheck_replica=recheck_replica(spec),
                recheck_enabled=recheck_enabled,
                timeout=timeout,
            )
            caches.append(qpu)
        elif spec.cls == "filter":
            qpu = FilterQpu(
                spec.id,
                replicas[p["dc"]],
                [],  # wired below once every target QPU exists
                batch_interval=int(p.get("batch_interval", 0)),
                batch_size=p.get("batch_size"),
            )
            filters.append(qpu)
        else:  # pragma: no cover - classes validated at parse time
            raise ConfigError([f"qpus({spec.id}): unknown class {spec.cls!r}"])
        qpus[spec.id] = qpu
        k.register(qpu, spec.node)

    # a filter target's region defaults to the target QPU's own region
    for spec in cfg.qpus:
        if spec.cls != "filter":
            continue
        flt: FilterQpu = qpus[spec.id]  # type: ignore[assignment]
        for t in spec.params.get("targets", []):
            target = qpus[t["qpu"]]
            if t.get("region") is None:
                region = target.region  # type: ignore[attr-defined]
            else:
                region = parse_region(t["region"], schema, errors, f"qpus({spec.id}).targets.region")
                region = region if region is not None else HyperRegion.full(schema)
            flt.targets.append((t["qpu"], region))

    for c in cfg.connections:
        coverage = c.coverage if c.coverage is not None else HyperRegion.full(schema)
        qpus[c.src].connect(Connection(c.dst, coverage))  # type: ignore[attr-defined]

    tracker = LoadTracker(cfg.adaptive.window_buckets, cfg.adaptive.bucket_ms)
    k.probes.load_hook = tracker.record

    controller = None
    if adaptive_on:
        roots = list(cfg.adaptive.roots)
        if not roots:
            roots = [q.id for q in cfg.qpus if q.cls in ("index", "merge")]
        root_nodes = [RegionNode(r, qpus[r].region) for r in roots]  # type: ignore[attr-defined]
        controller = AdaptiveController(
            CONTROLLER_ID,
            tracker,
            root_nodes,
            t_split=cfg.adaptive.t_split,
            t_merge=cfg.adaptive.t_merge,
            period_ms=cfg.adaptive.period_buckets * cfg.adaptive.bucket_ms,
            rebalance=cfg.adaptive.rebalance,
            capacities={n.id: n.capacity for n in cfg.nodes},
        )
        hosts = sorted({q.node for q in cfg.qpus if q.id in roots}) or [cfg.nodes[0].id]
        k.register(controller, hosts[0])

    if errors:
        raise ConfigError(errors)
    return Network(k, cfg, replicas, qpus, tracker, controller, filters, caches)
