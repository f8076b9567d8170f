"""The workload driver's lazily built source against the eager build it
replaced, and what scheduling a workload leaves held."""

import tracemalloc
from operator import itemgetter

import pytest

from qpusim.build import build
from qpusim.config import parse_topology, parse_workload
from qpusim.scenarios import SCENARIOS, scenario
from qpusim.store import ClientDelete, ClientWrite
from qpusim.workload import Heartbeat, IssueQuery, Pulse, Sampler, WorkloadDriver

from conftest import benchmark_workloads

# -- the reference: every event built up front, then one stable sort ---------


def eager_events(driver):
    """Every phase's (at, target, msg), drawn with the driver's generators in
    the order it draws them, built up front and sorted once, stably, by time."""
    events = []
    start = 0
    for phase in driver.spec.phases:
        _draw_phase(driver, events, phase, start)
        start += phase.duration
    events.sort(key=itemgetter(0))
    return events


def _op_times(start, duration, rate):
    n = int(round(duration * rate / 1000.0))
    return [start + int(round(i * 1000.0 / rate)) for i in range(n)]


def _draw_phase(driver, events, phase, start):
    schema = driver.net.schema
    samplers = {name: Sampler(schema[name], dist, driver._write_rng) for name, dist in sorted(phase.attributes.items())}
    qsamplers = {name: Sampler(schema[name], dist, driver._query_rng) for name, dist in sorted(phase.attributes.items())}
    if phase.write_rate > 0:
        keys = driver._keys
        keys.extend(f"k{n}" for n in range(len(keys), phase.key_space))
        for i, t in enumerate(_op_times(start, phase.duration, phase.write_rate)):
            events.append(_make_write(driver, phase, samplers, t, i))
    if phase.query_rate > 0:
        origins = phase.query_origin
        for i, t in enumerate(_op_times(start, phase.duration, phase.query_rate)):
            origin = origins[i % len(origins)]
            query = driver._make_query(phase, qsamplers)
            events.append((t, driver.issuers[origin].actor_id, IssueQuery(query)))
    events.extend((t, Pulse.actor_id, Heartbeat()) for t in range(start, start + phase.duration, 1000))


def _make_write(driver, phase, samplers, t, i):
    rng, journal = driver._write_rng, driver.journal
    if phase.key_mode == "sequential":
        key = driver._keys[i % phase.key_space]
    else:
        key = driver._keys[rng.randrange(phase.key_space)]
    if rng.random() < phase.delete_fraction and key in journal.written_keys:
        journal.deletes += 1
        return t, _route_write(driver, phase, None, i), ClientDelete(key)
    attrs = {name: s.sample() for name, s in samplers.items()}
    journal.writes += 1
    journal.written_keys.add(key)
    return t, _route_write(driver, phase, attrs, i), ClientWrite(key, attrs)


def _route_write(driver, phase, attrs, i):
    dcs, mode = phase.write_origin.dcs, phase.write_origin.mode
    if mode == "fixed":
        return dcs[0]
    if mode == "by_placement" and attrs is not None:
        for dc in dcs:
            placement = driver.net.replicas[dc].placement
            if placement is None or placement.contains(attrs):
                return dc
    return dcs[i % len(dcs)]


# -- the driver under test -------------------------------------------------------


def configs(name):
    """A bundled scenario, or a benchmark workload at its 4x scale."""
    return scenario(name) if name in SCENARIOS else benchmark_workloads().configs(name)


def driver_for(name, seed):
    topology, workload = configs(name)
    cfg = parse_topology(topology)
    net = build(cfg, seed)
    return WorkloadDriver(net, parse_workload(workload, cfg), seed)


def fed_by(driver):
    """Runs schedule_all, keeping what it feeds the kernel instead of
    feeding it: the times column and the source."""
    fed = []
    driver.net.kernel.feed = lambda times, events: fed.append((times, events))
    driver.schedule_all()
    [(times, events)] = fed
    return times, events


@pytest.mark.parametrize("seed", [0, 4242])
@pytest.mark.parametrize("name", [*SCENARIOS, *benchmark_workloads().NAMES])
def test_the_lazy_source_yields_the_eager_build(name, seed):
    """The fed times and the (target, msg) the source yields for them are the
    eager build's events, in its order, each attrs dict equal and in the same
    key order; the journals agree."""
    reference = driver_for(name, seed)
    expected = eager_events(reference)
    lazy = driver_for(name, seed)
    times, events = fed_by(lazy)
    pulled = list(events)
    assert len(pulled) == len(times) == len(expected)
    assert [(at, *event) for at, event in zip(times, pulled)] == expected
    writes = [(m.attrs, e[2].attrs) for (_, m), e in zip(pulled, expected) if type(m) is ClientWrite]
    assert writes and all(list(got) == list(want) for got, want in writes)
    assert (lazy.journal.writes, lazy.journal.deletes) == (reference.journal.writes, reference.journal.deletes)
    assert lazy.journal.written_keys == reference.journal.written_keys


def test_a_phase_ending_on_the_next_phase_start_is_delivered_first():
    """Two 1 ms phases at 1,500 writes and queries per second each place their
    second write and query at the next phase's start: at that time the
    earlier phase's write and query come before the later phase's write,
    query and heartbeat, and the lazy source agrees with the eager build."""
    topology, workload = scenario("single-index")
    churn = workload["phases"][1]
    squeezed = {**churn, "duration": 1, "write_rate": 1500.0, "query_rate": 1500.0}
    workload["phases"] = [squeezed, squeezed, churn]
    cfg = parse_topology(topology)
    spec = parse_workload(workload, cfg)
    expected = eager_events(WorkloadDriver(build(cfg, 0), spec, 0))
    times, events = fed_by(WorkloadDriver(build(cfg, 0), spec, 0))
    lazy = [(at, *event) for at, event in zip(times, events)]
    assert lazy == expected
    kinds = ["write" if type(msg) in (ClientWrite, ClientDelete) else type(msg).__name__ for at, _, msg in lazy if at == 1]
    assert kinds == ["write", "IssueQuery", "write", "IssueQuery", "Heartbeat"]


def test_scheduling_holds_at_most_64_bytes_per_op():
    """Before the run, each scheduled event of the ingest configs at scale 1
    (writes, deletes, queries and heartbeats) costs at most 64 bytes of
    traced heap: its time, its write's columns, and its share of the key
    names and the journal's written keys. No write's message is built."""
    topology, workload = benchmark_workloads().configs("ingest", 1)
    cfg = parse_topology(topology)
    spec = parse_workload(workload, cfg)
    WorkloadDriver(build(cfg, 0), spec, 0).schedule_all()  # first-call caches stay out of the count
    net = build(cfg, 0)
    driver = WorkloadDriver(net, spec, 0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        driver.schedule_all()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ops = net.kernel.pending()
    assert ops > 2000
    assert held / ops <= 64, f"{held / ops:.1f} B per scheduled op"
