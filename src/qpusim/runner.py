"""Scenario execution: drive a workload through the simulation, drain to
quiescence, emit metrics, and (in validation mode) replay every query against
a brute-force scan of a converged replica."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .build import Network, build
from .config import TopologyConfig, WorkloadSpec, parse_topology, parse_workload
from .core import Query, query_matcher
from .metrics import MetricsSink
from .qpunet import QueryMsg
from .simkernel import Actor, Kernel
from .workload import WorkloadDriver


class RuntimeInvariantViolation(RuntimeError):
    """A property that must never fail did; the run aborts with diagnostics."""


@dataclass
class RunResult:
    summary: dict
    sink: MetricsSink
    network: Network
    journal: Any
    workload_end: int


@dataclass
class ValidationReport:
    ok: bool
    queries_checked: int
    converged: bool
    mismatches: list[dict] = field(default_factory=list)
    type2_violations: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"queries checked: {self.queries_checked}",
            f"replicas converged: {'yes' if self.converged else 'NO'}",
            f"key-set mismatches: {len(self.mismatches)}",
            f"type-2 violations: {len(self.type2_violations)}",
            f"result: {'PASS' if self.ok else 'FAIL'}",
        ]
        for m in self.mismatches[:5]:
            lines.append(f"  mismatch at {m['origin']}: missing={sorted(m['missing'])} extra={sorted(m['extra'])}")
        return "\n".join(lines)


def _coerce(topology, workload) -> tuple[TopologyConfig, WorkloadSpec]:
    cfg = topology if isinstance(topology, TopologyConfig) else parse_topology(topology)
    wl = workload if isinstance(workload, WorkloadSpec) else parse_workload(workload, cfg)
    return cfg, wl


def drain_to_quiescence(net: Network, *, max_chunks: int = 200) -> None:
    """Runs in settle-horizon chunks until a whole chunk makes no state
    progress (periodic no-op traffic does not count), then stops every
    periodic actor and empties the queue."""
    k = net.kernel
    horizon = net.settle_horizon()
    last = -1
    for _ in range(max_chunks):
        if k.probes.progress == last:
            break
        last = k.probes.progress
        k.run_until(k.now + horizon)
    else:
        raise RuntimeInvariantViolation("drain did not reach quiescence; something keeps making progress")
    net.stop_periodic()
    k.run_until_empty()


def run_scenario(
    topology,
    workload,
    *,
    seed: int | str = 0,
    out: str | Path | None = None,
    until: int | None = None,
    scenario_name: str | None = None,
) -> RunResult:
    cfg, wl = _coerce(topology, workload)
    net = build(cfg, seed)
    meta = {"seed": str(seed)}
    if scenario_name:
        meta["scenario"] = scenario_name
    sink = MetricsSink(net.kernel, meta)
    driver = WorkloadDriver(net, wl, seed)
    end = driver.schedule_all()
    if until is not None:
        net.kernel.run_until(until)
    else:
        net.kernel.run_until(end)
        drain_to_quiescence(net)
    _check_runtime_invariants(net)
    summary = sink.finish()
    if out is not None:
        sink.write(out)
    return RunResult(summary, sink, net, driver.journal, end)


def _check_runtime_invariants(net: Network) -> None:
    if not net.topology.disable_recheck:
        violations = net.kernel.probes.type2_violations()
        if violations:
            first = violations[0]
            raise RuntimeInvariantViolation(
                f"type-2 inconsistency escaped recheck at {first['qpu']} (qid {first['qid']}): {first['violations']}"
            )


class _Validator(Actor):
    actor_id = "oracle-validator"

    def __init__(self) -> None:
        self.responses: dict[str, Any] = {}

    def on_message(self, k: Kernel, msg: Any) -> None:
        self.responses[msg.qid] = msg


def validate_scenario(topology, workload, *, seed: int | str = 0) -> ValidationReport:
    """Runs the workload, drains to quiescence, then replays every issued
    query through the QPU network and against a converged full replica,
    matched object by object so that the expected keys share no code with
    the posting sets the QPUs answer from; any key-set difference fails the
    validation."""
    cfg, wl = _coerce(topology, workload)
    net = build(cfg, seed)
    sink = MetricsSink(net.kernel, {"seed": str(seed), "mode": "validate"})
    driver = WorkloadDriver(net, wl, seed)
    end = driver.schedule_all()
    k = net.kernel
    k.run_until(end)
    drain_to_quiescence(net)
    # response caches may hold pre-quiescence entries; let them age out
    ttl = net.max_cache_ttl()
    if ttl:
        k.run_until(k.now + ttl + 1)

    full = net.full_replicas()
    prints = {rep.dc_id: rep.state_fingerprint() for rep in full}
    converged = len(set(prints.values())) <= 1
    oracle = full[0]

    validator = _Validator()
    k.register(validator, k.nodes()[0])
    mismatches: list[dict] = []
    for i, (query, origin) in enumerate(driver.journal.queries):
        if query.limit is not None:
            continue  # truncated responses are not set-comparable
        k.rebind(validator.actor_id, k.host_of(origin))
        qid = f"oracle-{i}"
        k.schedule(k.now, origin, QueryMsg(qid, query, validator.actor_id))
        k.run_until_empty()
        resp = validator.responses.pop(qid)
        got = {e[0] for e in resp.entries}
        matches = query_matcher(query)
        expected = {key for key, o in oracle.objects.items() if matches(o.attrs)}
        if got != expected:
            mismatches.append(
                {
                    "origin": origin,
                    "query": query,
                    "missing": expected - got,
                    "extra": got - expected,
                    "complete": resp.complete,
                }
            )
    type2 = k.probes.type2_violations()
    summary = sink.finish()
    ok = converged and not mismatches and not type2
    return ValidationReport(ok, len(driver.journal.queries), converged, mismatches, type2, summary)
