"""Dormant routers in a fabric: traces, checkpoints, an old checkpoint.

``tests/core/test_dormancy.py`` compares one router with the reference
chip (``tests/reference.py``), which never sleeps, byte by byte.  Here
the same comparison is made at the level users see — delivery records
and the packet-lifecycle trace of a loaded mesh — across the oracle
loop, the event scheduler and the reference chip; and across a
checkpoint that lands
inside a wait, including one written by the commit before routers
learnt to wait (``fixtures/parent_checkpoint.json``).
"""

import functools
import json
import pathlib

import pytest

from repro import TrafficSpec
from repro.checkpoint.codec import LoadContext
from repro.core.params import OUTPUT_PORTS
from repro.network.network import MeshNetwork
from tests import reference
from tests.reference import assert_oracle_ran, assert_scheduler_skipped, save
from tests.sends import Traffic, bursty, periodic, poisson

FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
           / "parent_checkpoint.json")


def build(engine="event", *, trace=False):
    """A 4x4 mesh whose channels have slack to spare, so every hop
    after the first holds each packet in Queue 3 for a while.  Returns
    the network's :class:`Traffic`."""
    net = MeshNetwork(4, 4, engine=engine)
    slot = net.params.slot_cycles
    c0 = net.establish_channel((0, 0), (3, 2), TrafficSpec(i_min=24),
                               deadline=60, label="wait-c0")
    c1 = net.establish_channel((3, 3), (0, 1), TrafficSpec(i_min=40),
                               deadline=80, label="wait-c1")
    if trace:
        net.enable_tracing(capacity=1 << 17)
    return Traffic(net, periodic(c0, 24, slot=slot),
                   bursty(c1, 40, slot=slot, burst=2),
                   poisson((1, 2), [(3, 0), (0, 3)], 0.004, seed=9))


def records(net):
    """Delivery records, as the parent's fixture holds them."""
    return [(r.traffic_class, r.connection_label, r.sequence, r.source,
             r.injected_cycle, r.delivered_cycle, r.delivered_node,
             r.deadline_met)
            for r in net.log.records]


def events(net, until=None):
    """The trace without packet ids (a process-wide counter: three
    meshes built in one interpreter draw different ones)."""
    assert net.tracer.dropped == 0
    return [tuple(sorted((key, repr(value)) for key, value in event.items()
                         if key != "packet_id"))
            for event in net.tracer.events()
            if until is None or event["cycle"] < until]


def deferral(entry):
    return ("event", repr("horizon_defer")) in entry


def deferrals(net):
    """(node, port) -> [((label, sequence), cycle), ...] in ring order."""
    by_port = {}
    for entry in net.tracer.events():
        if entry["event"] == "horizon_defer":
            by_port.setdefault((entry["node"], entry["port"]), []).append(
                ((entry["label"], entry["sequence"]), entry["cycle"]))
    return by_port


CYCLES = 6_000


class TestTracedRuns:
    def test_one_trace_under_every_way_of_waiting(self):
        runs = [build("exact", trace=True), build("event", trace=True),
                reference.build(functools.partial(build, trace=True),
                                reference=True)]
        for traffic in runs:
            traffic.run(CYCLES)
        oracle, event, awake = (traffic.net for traffic in runs)
        assert_oracle_ran(oracle.engine)
        assert_scheduler_skipped(event.engine)
        assert records(oracle) == records(event) == records(awake)
        assert len(records(event)) > 30
        # Event for event, in emission order, across the two engines,
        # and the ring is in cycle order.
        assert events(oracle) == events(event)
        for net in (oracle, event, awake):
            stamps = [entry["cycle"] for entry in net.tracer.events()]
            assert stamps == sorted(stamps)
        # Against routers that sit through every tournament everything
        # but the deferrals is the same trace...
        assert ([e for e in events(event) if not deferral(e)]
                == [e for e in events(awake) if not deferral(e)])
        # ...and the deferrals are the same ones, port by port in the
        # same order: a router going dormant reports what it waits on
        # in the cycle it decides to, the awake one when the first
        # tournament to defer completes — no earlier, and within one
        # round of the pipeline.
        slept, sat = deferrals(event), deferrals(awake)
        assert sum(map(len, slept.values())) > 80
        assert ({where: [packet for packet, _ in log]
                 for where, log in slept.items()}
                == {where: [packet for packet, _ in log]
                    for where, log in sat.items()})
        pipeline = next(iter(event.routers.values())).pipeline
        round_cycles = (pipeline.latency + 1
                        + OUTPUT_PORTS * pipeline.initiation_interval)
        gaps = [late - early
                for where in slept
                for (_, early), (_, late) in zip(slept[where], sat[where])]
        assert all(0 <= gap <= round_cycles for gap in gaps), gaps
        assert any(gaps)
        assert (awake.engine.cycles_stepped
                > event.engine.cycles_stepped + 2_000)

    def test_counters_read_inside_a_wait(self):
        # A dormant router's tree.evaluations and bus.total_cycles
        # stand still until it works again; `lagging` is what a reader
        # in between adds, and the metrics snapshot does.
        runs = [build(), reference.build(build, reference=True)]
        event, awake = (traffic.net for traffic in runs)
        seen_lagging = 0
        for stop in range(500, CYCLES, 500):
            for traffic in runs:
                traffic.run_to(stop)
            seen_lagging += bool(lagging(event))
            for node, router in event.routers.items():
                tournaments, cycles = router.lagging(event.cycle)
                twin = awake.routers[node]
                assert (router.tree.evaluations + tournaments,
                        router.bus.total_cycles + cycles) == (
                    twin.tree.evaluations, twin.bus.total_cycles), (
                    stop, node)
                assert (tournaments, cycles) == (0, 0) or (
                    router._pipeline_lag is not None)
            assert (event.metrics.snapshot()["scheduler.evaluations"]
                    == sum(r.tree.evaluations
                           for r in awake.routers.values()))
        assert seen_lagging >= 3

    def test_a_deferral_is_traced_once(self):
        traffic = build(trace=True)
        traffic.run(CYCLES)
        net = traffic.net
        deferrals = [event for event in net.tracer.events()
                     if event["event"] == "horizon_defer"]
        assert len(deferrals) > 50
        last = {}
        for event in deferrals:
            where = (event["node"], event["port"])
            assert last.get(where) != event["packet_id"], event
            last[where] = event["packet_id"]
        tournaments = sum(router.tree.evaluations
                          for router in net.routers.values())
        assert tournaments > 10 * len(deferrals)

    def test_tracing_does_not_change_the_schedule(self):
        runs = [build(trace=True), build()]
        for traffic in runs:
            traffic.run(CYCLES)
        traced, plain = (traffic.net for traffic in runs)
        assert records(traced) == records(plain)
        assert (traced.engine.cycles_stepped
                == plain.engine.cycles_stepped)
        assert (traced.engine.cycles_fast_forwarded
                == plain.engine.cycles_fast_forwarded)


def lagging(net):
    return [node for node, router in net.routers.items()
            if router._pipeline_lag is not None]


class TestCheckpointInsideAWait:
    @pytest.mark.parametrize("writer,reader", [
        ("event", "event"), ("event", "exact"),
        ("exact", "exact"), ("exact", "event")])
    def test_resume_equals_the_uninterrupted_run(self, writer, reader):
        uninterrupted = build(reader, trace=True)
        uninterrupted.run(CYCLES)
        reference = uninterrupted.net

        writing = build(writer, trace=True)
        first = writing.net
        # A cadence of 700 cycles: some checkpoint must land while a
        # router is dormant, and the run resumes from each of them.
        inside_a_wait = 0
        for stop in range(700, CYCLES, 700):
            writing.run_to(stop)
            state = save(first)
            if not lagging(first):
                continue
            inside_a_wait += 1
            assert any(
                router["pipeline_lag"] is not None
                for router in state["network"]["routers"])
            resuming = build(reader, trace=True)
            resumed = resuming.net
            resumed.load_state(state["network"],
                               LoadContext(state["metas"]))
            assert lagging(resumed) == lagging(first)
            resuming.run_to(CYCLES)
            assert records(resumed) == records(reference), stop
            assert events(resumed) == events(reference), stop
            assert resumed.engine.audit_schedule() == []
            for node, router in resumed.routers.items():
                twin = reference.routers[node]
                assert (router.tree.evaluations, router.bus.total_cycles,
                        router.tc_transmitted) == (
                    twin.tree.evaluations, twin.bus.total_cycles,
                    twin.tc_transmitted), (stop, node)
        assert inside_a_wait >= 3


def build_fixture_network(engine="event"):
    net = MeshNetwork(3, 2, engine=engine)
    slot = net.params.slot_cycles
    channel = net.establish_channel((0, 0), (2, 1), TrafficSpec(i_min=16),
                                    deadline=48, label="old-c0")
    return Traffic(net, periodic(channel, 16, slot=slot),
                   poisson((2, 0), [(0, 1)], 0.003, seed=4))


#: Where the fixture was taken and where its run ended.
FIXTURE_CYCLE, FIXTURE_END = 900, 4_000


def write_fixture(path=FIXTURE):
    """How ``fixtures/parent_checkpoint.json`` was made — run from a
    checkout of the parent commit (9fd073e, PR 19):

        PYTHONPATH=<parent>/src:<this repo> python -c "from \\
            tests.integration.test_dormant_network import write_fixture; \\
            write_fixture()"
    """
    traffic = build_fixture_network()
    net = traffic.net
    traffic.run_to(FIXTURE_CYCLE)
    state = save(net)
    traffic.run_to(FIXTURE_END)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"state": state, "records": records(net),
         "evaluations": sorted(
             (list(node), router.tree.evaluations, router.bus.total_cycles)
             for node, router in net.routers.items())},
        sort_keys=True, separators=(",", ":")) + "\n")


class TestParentWrittenCheckpoint:
    @pytest.mark.parametrize("engine", ["event", "exact"])
    def test_resumes_to_the_parents_records(self, engine):
        fixture = json.loads(FIXTURE.read_text())
        state = fixture["state"]
        routers = state["network"]["routers"]
        # Written before the field existed, with packets held early.
        assert all("pipeline_lag" not in router for router in routers)
        assert any(router["leaves"]["leaves"] for router in routers)
        traffic = build_fixture_network(engine)
        net = traffic.net
        net.load_state(state["network"], LoadContext(state["metas"]))
        assert net.cycle == FIXTURE_CYCLE
        # The sends due from here on are pushed after the restore.
        traffic.run(1)
        assert lagging(net), "the checkpoint was taken inside a wait"
        traffic.run_to(FIXTURE_END)
        assert ([list(map(_listed, record)) for record in records(net)]
                == fixture["records"])
        # The model's own counters too, wherever nothing lags at the end.
        settled = [[list(node), router.tree.evaluations,
                    router.bus.total_cycles]
                   for node, router in sorted(net.routers.items())
                   if router._pipeline_lag is None]
        assert len(settled) >= 4
        assert all(entry in fixture["evaluations"] for entry in settled)
        if engine == "event":
            assert net.engine.cycles_fast_forwarded > 1_000


def _listed(value):
    """JSON has no tuples."""
    return list(value) if isinstance(value, tuple) else value
