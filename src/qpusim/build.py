"""Turns a validated topology into a wired simulation: kernel, replicas, QPUs,
filters, load tracking, and the adaptive controller."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .adapt import AdaptiveController, LoadTracker
from .config import TopologyConfig, adaptive_roots, controller_node, nearest_full_dc
from .core import HyperRegion
from .indexing import FilterQpu, IndexQpu, MergeQpu
from .qpunet import CacheQpu, Connection, DsQpu, FederationQpu
from .simkernel import Kernel
from .store import DcReplica

CONTROLLER_ID = "adaptive-controller"


@dataclass
class Network:
    kernel: Kernel
    topology: TopologyConfig
    replicas: dict[str, DcReplica]
    qpus: dict[str, object]
    controller: AdaptiveController | None = None
    filters: list[FilterQpu] = field(default_factory=list)
    caches: list[CacheQpu] = field(default_factory=list)

    @property
    def schema(self):
        return self.topology.schema

    def full_replicas(self) -> list[DcReplica]:
        return [self.replicas[d.id] for d in sorted(self.topology.dcs, key=lambda d: d.id) if d.full_replica]

    def stop_periodic(self) -> None:
        """Forwards what the filters still hold and stops the kernel's
        timers, so the event queue can drain."""
        for f in self.filters:
            f.drain(self.kernel)
        self.kernel.stop_timers()

    def max_cache_ttl(self) -> int:
        """The longest response-cache TTL, rounded up to the integer clock."""
        return math.ceil(max((c.ttl for c in self.caches if c.mode == "response"), default=0))

    def settle_horizon(self) -> int:
        """A conservative virtual-time chunk by which in-flight work makes
        progress: the longest link round trip across the QPU graph plus, for
        each kind of timer armed on the kernel, its longest period."""
        max_link = max((l.base_latency + l.jitter for l in self.topology.links), default=1)
        depth = len(self.topology.qpus) + 2
        return 2 * max_link * depth + 2 * sum(self.kernel.timers.values()) + 100


def build(cfg: TopologyConfig, seed: int | str = 0) -> Network:
    """Wires a topology that parse_topology returned."""
    k = Kernel(seed=seed)
    schema = cfg.schema

    for n in cfg.nodes:
        k.add_node(n.id)
    for l in cfg.links:
        k.add_link(l.src, l.dst, l.base_latency, l.jitter)

    replicas: dict[str, DcReplica] = {}
    dc_ids = [d.id for d in cfg.dcs]
    for d in cfg.dcs:
        peers = tuple(x for x in dc_ids if x != d.id)
        rep = DcReplica(d.id, schema, placement=d.placement, peers=peers)
        replicas[d.id] = rep
        k.register(rep, d.node)

    def recheck_replica(spec) -> DcReplica:
        # validate_topology rejects a QPU with no recheck_dc and no reachable full replica
        return replicas[spec.recheck_dc or nearest_full_dc(cfg, spec.node)]

    qpus: dict[str, object] = {}
    filters: list[FilterQpu] = []
    caches: list[CacheQpu] = []
    adaptive_on = cfg.adaptive.enabled
    recheck_enabled = not cfg.disable_recheck

    for spec in cfg.qpus:
        if spec.cls == "ds":
            qpu: object = DsQpu(spec.id, schema, replicas[spec.dc], timeout=spec.timeout)
        elif spec.cls in ("index", "merge"):
            cls = IndexQpu if spec.cls == "index" else MergeQpu
            qpu = cls(
                spec.id,
                HyperRegion.full(schema) if spec.region is None else spec.region,
                push_to=spec.push_to,
                controller=CONTROLLER_ID if adaptive_on else None,
                recheck_replica=recheck_replica(spec),
                recheck_enabled=recheck_enabled,
                timeout=spec.timeout,
            )
        elif spec.cls == "federation":
            qpu = FederationQpu(
                spec.id, schema, recheck_replica=recheck_replica(spec), recheck_enabled=recheck_enabled, timeout=spec.timeout
            )
        elif spec.cls == "cache":
            qpu = CacheQpu(
                spec.id,
                schema,
                pull_from=spec.pull_from,
                capacity=spec.capacity,
                ttl=spec.ttl,
                pull_interval=spec.pull_interval,
                recheck_replica=recheck_replica(spec),
                recheck_enabled=recheck_enabled,
                timeout=spec.timeout,
            )
            caches.append(qpu)
        else:  # filter: the classes were checked at parse time
            qpu = FilterQpu(
                spec.id,
                replicas[spec.dc],
                [],  # wired below once every target QPU exists
                batch_interval=spec.batch_interval,
                batch_size=spec.batch_size,
            )
            filters.append(qpu)
        qpus[spec.id] = qpu
        k.register(qpu, spec.node)

    # a filter target's region defaults to the target QPU's own region
    for spec in cfg.qpus:
        for t in spec.targets:
            region = qpus[t.qpu].region if t.region is None else t.region  # type: ignore[attr-defined]
            qpus[spec.id].targets.append((t.qpu, region))  # type: ignore[attr-defined]

    for c in cfg.connections:
        coverage = c.coverage if c.coverage is not None else HyperRegion.full(schema)
        qpus[c.src].connect(Connection(c.dst, coverage))  # type: ignore[attr-defined]

    controller = None
    if adaptive_on:
        tracker = LoadTracker(cfg.adaptive.window_buckets, cfg.adaptive.bucket_ms)
        k.probes.load_hook = tracker.record
        controller = AdaptiveController(
            CONTROLLER_ID,
            k,
            tracker,
            adaptive_roots(cfg),
            t_split=cfg.adaptive.t_split,
            t_merge=cfg.adaptive.t_merge,
            period_ms=cfg.adaptive.period_buckets * cfg.adaptive.bucket_ms,
            rebalance=cfg.adaptive.rebalance,
            capacities={n.id: n.capacity for n in cfg.nodes},
        )
        # validate_topology rejects an adaptive topology without such a node
        k.register(controller, controller_node(cfg))

    return Network(k, cfg, replicas, qpus, controller, filters, caches)
