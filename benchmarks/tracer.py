"""Per-layer tracing from outside the simulator.

`install` wraps the layer-boundary functions and methods of the qpusim modules
in place, before any simulation object exists, and edits nothing on disk. A
timed wrapper records a span on one shared stack: its duration, and its self
time, which is the duration minus the time of the spans nested in it. Calls
too frequent to time (predicate matching, region algebra) only count.

Each layer is named after its module. `layer_metrics` turns what the wrappers
recorded, plus the finished run's state, into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# Spans that run before the first event; excluded from the run's self-time sum.
SETUP_SPANS = ("config.parse", "build.build", "workload.schedule")

# QPU classes of the query-hop view, by the name used in the metric.
QPU_CLASSES = {
    "ds": "DsQpu",
    "index": "IndexQpu",
    "merge": "MergeQpu",
    "federation": "FederationQpu",
    "cache": "CacheQpu",
}


class Tracer:
    """Span and counter bookkeeping shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [0.0]  # per open span: time of the spans nested in it

    def span(self, fn: Callable, name: str | Callable[[Any], str], observe: Callable | None = None) -> Callable:
        """Wraps fn in a span. name is a label, or a function of the first
        argument (the instance) that returns one; observe(counts, args,
        result) runs after each call to record sizes."""
        label_of = name if callable(name) else (lambda _obj: name)
        calls, total, own, stack, clock = self.calls, self.total, self.self_time, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                label = label_of(args[0] if args else None)
                calls[label] += 1
                total[label] += elapsed
                own[label] += elapsed - nested
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def counter(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        """Wraps fn so each call is counted, without timing it."""
        calls, counts = self.calls, self.counts

        if observe is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                observe(counts, args, result)
                return result

        return wrapper

    def run_self_time(self) -> float:
        """Sum of the self times of every span that ran after set-up."""
        return sum(t for label, t in self.self_time.items() if label not in SETUP_SPANS)


def _qpusim_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "qpusim" or name.startswith("qpusim.")]


def _patch_function(module, fname: str, wrapper: Callable) -> None:
    """Replaces a module-level function in its own module and in every qpusim
    module that imported it by name; patching only the defining module would
    miss calls made through those bindings."""
    original = getattr(module, fname)
    for mod in _qpusim_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _patch_method(cls: type, mname: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, mname, make(cls.__dict__[mname]))


def _add(key: str, amount: Callable[[tuple, Any], int]) -> Callable:
    def observe(counts, args, result):
        counts[key] += amount(args, result)

    return observe


def _observe_scan(counts, args, result) -> None:
    counts["scan_rows_examined"] += len(args[0].objects)
    counts["scan_rows_returned"] += len(result)


def _observe_recheck(counts, args, result) -> None:
    counts["recheck_rows_in"] += len(args[0])
    counts["recheck_rows_dropped"] += len(args[0]) - len(result)


def _observe_cache_query(counts, args, result) -> None:
    cache = args[0]
    if cache.mode == "replica" and cache._snapshot is not None:
        counts["replica_rows_examined"] += len(cache._snapshot.entries)


def install(tracer: Tracer) -> None:
    """Wraps every traced boundary. Call once per process, before the run's
    objects are built: build() and MetricsSink capture bound methods."""
    from qpusim import adapt, build, config, core, indexing, metrics, qpunet, runner, simkernel, store, workload

    span, counter = tracer.span, tracer.counter

    # simkernel: dispatch loop, and one span per delivered message, labelled by
    # the receiving actor's class (QpuBase.on_message is inherited).
    _patch_method(simkernel.Kernel, "run_until", lambda f: span(f, "simkernel.run_until"))
    for mod in _qpusim_modules():
        for cls in list(vars(mod).values()):
            if (
                isinstance(cls, type)
                and cls.__module__ == mod.__name__
                and issubclass(cls, simkernel.Actor)
                and cls is not simkernel.Actor
                and "on_message" in cls.__dict__
            ):
                _patch_method(cls, "on_message", lambda f: span(f, lambda actor: "on_message." + type(actor).__name__))

    # store
    _patch_method(store.DcReplica, "scan", lambda f: span(f, "store.scan", _observe_scan))

    # core: counted only
    _patch_function(core, "query_matches", counter(core.query_matches, "core.query_matches"))
    for mname in ("clip", "subtract"):
        _patch_method(core.HyperRegion, mname, lambda f: counter(f, "core.region"))

    # indexing
    pi = indexing.PostingIndex
    _patch_method(pi, "apply", lambda f: span(f, "indexing.apply", _add("apply_effective", lambda a, r: int(bool(r)))))
    _patch_method(pi, "lookup", lambda f: span(f, "indexing.lookup", _add("lookup_rows", lambda a, r: len(r[0]))))
    _patch_method(
        pi, "snapshot", lambda f: span(f, "indexing.snapshot", _add("snapshot_rows", lambda a, r: len(r.entries)))
    )

    # qpunet
    _patch_function(qpunet, "decompose", span(qpunet.decompose, "qpunet.decompose"))
    _patch_function(qpunet, "recheck", span(qpunet.recheck, "qpunet.recheck", _observe_recheck))
    _patch_function(qpunet, "audit_response", span(qpunet.audit_response, "qpunet.audit"))
    _patch_method(
        qpunet.QpuBase, "fan_out", lambda f: counter(f, "qpunet.fan_out", _add("fan_out_subqueries", lambda a, r: len(a[3])))
    )
    _patch_method(qpunet.CacheQpu, "handle_query", lambda f: counter(f, "qpunet.cache_query", _observe_cache_query))

    # adapt
    _patch_method(adapt.LoadTracker, "record", lambda f: span(f, "adapt.load_record"))
    _patch_method(adapt.AdaptiveController, "control_step", lambda f: span(f, "adapt.control_step"))

    # metrics
    _patch_method(metrics.MetricsSink, "emit", lambda f: span(f, "metrics.emit"))
    _patch_method(metrics.MetricsSink, "finish", lambda f: span(f, "metrics.finish"))

    # set-up layers and the runner
    _patch_method(workload.WorkloadDriver, "schedule_all", lambda f: span(f, "workload.schedule"))
    _patch_function(build, "build", span(build.build, "build.build"))
    _patch_function(config, "parse_topology", span(config.parse_topology, "config.parse"))
    _patch_function(config, "parse_workload", span(config.parse_workload, "config.parse"))
    _patch_function(runner, "drain_to_quiescence", span(runner.drain_to_quiescence, "runner.drain"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, net, sink) -> dict[str, float]:
    """Per-layer metrics of one finished traced run. Times ending in `_s` are
    inclusive span durations, except `self_s`, `dispatch_self_s`,
    `filter_s` and `write_s`, which are self times of message handling."""
    calls, total, own, counts = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    # only response-mode caches look queries up, and each miss forwards one
    responses = [c for c in net.caches if c.mode == "response"]
    hits = sum(c.hits for c in responses)
    misses = sum(c.misses for c in responses)
    controls = [r.get("action") for r in sink.records if r.get("type") == "control"]
    out: dict[str, float] = {
        "simkernel.events": sum(n for label, n in calls.items() if label.startswith("on_message.")),
        "simkernel.dispatch_self_s": own["simkernel.run_until"],
        "store.scan_calls": calls["store.scan"],
        "store.scan_s": total["store.scan"],
        "store.scan_rows_examined": counts["scan_rows_examined"],
        "store.scan_rows_returned": counts["scan_rows_returned"],
        "store.scan_yield": _ratio(counts["scan_rows_returned"], counts["scan_rows_examined"]),
        "store.write_s": own["on_message.DcReplica"],
        "store.msgs": calls["on_message.DcReplica"],
        "core.query_matches_calls": calls["core.query_matches"],
        "core.region_calls": calls["core.region"],
        "indexing.apply_calls": calls["indexing.apply"],
        "indexing.apply_s": total["indexing.apply"],
        "indexing.apply_effective": _ratio(counts["apply_effective"], calls["indexing.apply"]),
        "indexing.lookup_calls": calls["indexing.lookup"],
        "indexing.lookup_s": total["indexing.lookup"],
        "indexing.lookup_rows_returned": counts["lookup_rows"],
        "indexing.snapshot_calls": calls["indexing.snapshot"],
        "indexing.snapshot_s": total["indexing.snapshot"],
        "indexing.snapshot_rows": counts["snapshot_rows"],
        "indexing.filter_s": own["on_message.FilterQpu"],
        "qpunet.subqueries": counts["fan_out_subqueries"] + misses,
        "qpunet.decompose_s": total["qpunet.decompose"],
        "qpunet.recheck_s": total["qpunet.recheck"],
        "qpunet.recheck_rows_in": counts["recheck_rows_in"],
        "qpunet.recheck_rows_dropped": counts["recheck_rows_dropped"],
        "qpunet.audit_s": total["qpunet.audit"],
        "qpunet.cache_hit_ratio": _ratio(hits, hits + misses),
        "qpunet.replica_rows_examined": counts["replica_rows_examined"],
        "adapt.load_record_s": total["adapt.load_record"],
        "adapt.control_step_s": total["adapt.control_step"],
        "adapt.splits": controls.count("split"),
        "adapt.merges": controls.count("merge"),
        "metrics.records": len(sink.records),
        "metrics.emit_s": total["metrics.emit"],
        "metrics.finish_s": total["metrics.finish"],
        "workload.schedule_s": total["workload.schedule"],
        "build.build_s": total["build.build"],
        "config.parse_s": total["config.parse"],
        "runner.drain_s": total["runner.drain"],
    }
    for short, cls in QPU_CLASSES.items():
        out[f"qpunet.self_s.{short}"] = own["on_message." + cls]
        out[f"qpunet.msgs.{short}"] = calls["on_message." + cls]
    return out
