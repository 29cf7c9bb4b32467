"""The best-effort byte path against the oracle and against the parent.

Seeded scenarios that each put one wormhole mechanism under load — two
worms contending for an output, a worm stalled on zero credits, a tail
and the next head in one flit buffer, adaptive routing, flit-level
preemption by time-constrained traffic, corruption, loss and a link
flap mid-worm — run on the event scheduler and on the bare per-cycle
loop, and must agree on every delivery record and on each router's
per-port service counts, credits and orphan drops.

One scenario is also pinned against the commit *before* the byte path
was rewritten (``fixtures/parent_be_checkpoints.json``): every router
document of a run checkpointed every 50 cycles hashes to what the
parent wrote, and a restore from a document taken mid-worm finishes
with the parent's records.
"""

import hashlib
import json
import pathlib

import pytest

from repro import TrafficSpec
from repro.checkpoint.codec import LoadContext
from repro.core.params import MESH_LINKS, OUTPUT_PORTS
from repro.core.ports import EAST
from repro.faults import FaultInjector
from repro.faults.injector import BitFlipCorruptor, PacketDropCorruptor
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from tests.reference import assert_oracle_ran, records, save
from tests.sends import Traffic, periodic

FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
           / "parent_be_checkpoints.json")


def router_view(net):
    """What each chip did and holds, read through its public face."""
    return {
        node: ([router.output_service(port) for port in range(OUTPUT_PORTS)],
               [router.output_credit_debt(port)
                for port in range(MESH_LINKS)],
               router.be_orphan_drops, router.be_corrupt_dropped,
               router.be_worms_routed, router.bus.total_cycles,
               router.bus.grants)
        for node, router in net.routers.items()
    }


def payload(seed, length):
    return bytes((seed * 37 + i * 11) & 0xFF for i in range(length))


# -- scenarios: build(engine) -> Traffic, the network and its sends --------

def contended_output(engine):
    """Four worms want (1, 1)'s EAST output at once: two through its
    WEST input, two from its own host (x before y: all four go east)."""
    net = MeshNetwork(3, 3, engine=engine)
    net.send_best_effort((0, 1), (2, 1), payload(1, 90))
    net.send_best_effort((1, 1), (2, 1), payload(2, 70))
    net.send_best_effort((0, 1), (2, 2), payload(3, 40))
    net.send_best_effort((1, 1), (2, 0), payload(4, 25))
    return Traffic(net)


def stalled_on_credits(engine):
    """Four sources stream to one reception port down a 5x1 row: the
    worms behind the one that holds it back up link by link until the
    senders sit at zero credits."""
    net = MeshNetwork(5, 1, engine=engine)
    for round_ in range(2):
        for x in range(4):
            net.send_best_effort((x, 0), (4, 0),
                                 payload(10 * round_ + x, 60 + 8 * x))
    return Traffic(net)


def tail_and_head_share_a_buffer(engine):
    """Short worms queue behind a long one: a 6-byte worm's tail and
    the next worm's head sit in one 10-byte flit buffer."""
    net = MeshNetwork(3, 1, engine=engine)
    net.send_best_effort((1, 0), (2, 0), payload(5, 120))
    for index in range(4):
        net.send_best_effort((0, 0), (2, 0), payload(6 + index, 2))
    return Traffic(net)


def west_first(engine):
    """Adaptive routing picks by local pressure; every worm that may
    choose sees other worms on its productive outputs."""
    net = MeshNetwork(3, 3, engine=engine, be_routing="west-first")
    for index, (source, destination) in enumerate([
            ((0, 0), (2, 2)), ((0, 0), (2, 1)), ((1, 0), (2, 2)),
            ((0, 1), (2, 2)), ((2, 0), (0, 2)), ((2, 2), (0, 0)),
            ((0, 0), (1, 2)), ((1, 1), (2, 2))]):
        net.send_best_effort(source, destination,
                             payload(20 + index, 30 + 9 * index))
    return Traffic(net)


def tc_preempts_be(engine):
    """A periodic channel and a stream of long worms share two links:
    on-time packets interrupt the worms flit by flit."""
    net = MeshNetwork(3, 2, engine=engine)
    slot = net.params.slot_cycles
    channel = net.establish_channel((0, 0), (2, 0), TrafficSpec(i_min=4),
                                    deadline=12, label="be-path-tc")
    cross = net.establish_channel((1, 1), (2, 0), TrafficSpec(i_min=6),
                                  deadline=18, label="be-path-cross")
    for index in range(5):
        net.send_best_effort((0, 0), (2, 0), payload(30 + index, 100))
        net.send_best_effort((1, 0), (2, 1), payload(40 + index, 45))
    return Traffic(net, periodic(channel, 4, slot=slot, count=24),
                   periodic(cross, 6, slot=slot, count=16))


def mangled_and_dropped(engine):
    """One link flips a payload bit of one worm, another swallows a
    whole worm; the worms around them must arrive untouched."""
    net = MeshNetwork(3, 2, engine=engine)
    net.set_link_corruptor((0, 0), EAST, BitFlipCorruptor(packets=1))
    net.set_link_corruptor((1, 1), EAST,
                           PacketDropCorruptor(packets=1, vc="BE"))
    for index in range(3):
        net.send_best_effort((0, 0), (2, 0), payload(50 + index, 33))
        net.send_best_effort((0, 1), (2, 1), payload(60 + index, 21))
    return Traffic(net)


def flap_mid_worm(engine):
    """A link dies under one worm's body and under the next worm's
    head, and comes back: what arrives downstream afterwards is a
    truncated worm and orphan flits."""
    net = MeshNetwork(3, 1, engine=engine)
    plan = FaultPlan(events=[
        FaultEvent(cycle=70, kind=CUT, node=(1, 0), direction=EAST),
        FaultEvent(cycle=200, kind=REPAIR, node=(1, 0), direction=EAST),
    ])
    net.engine.add_component(FaultInjector(net, plan))
    for index in range(3):
        net.send_best_effort((0, 0), (2, 0), payload(70 + index, 110))
    net.send_best_effort((2, 0), (0, 0), payload(80, 60))
    return Traffic(net)


SCENARIOS = {
    "contended-output": (contended_output, 900),
    "stalled-on-credits": (stalled_on_credits, 1_600),
    "tail-and-head-share-a-buffer": (tail_and_head_share_a_buffer, 700),
    "west-first": (west_first, 1_200),
    "tc-preempts-be": (tc_preempts_be, 2_400),
    "mangled-and-dropped": (mangled_and_dropped, 900),
    "flap-mid-worm": (flap_mid_worm, 1_500),
}


def run_watched(build, engine, cycles, watch):
    """Run in spans of seven cycles; ``watch(net)`` is evaluated at
    every span boundary and its truthy answers are counted."""
    traffic = build(engine)
    net = traffic.net
    seen = 0
    while net.cycle < cycles:
        traffic.run(min(7, cycles - net.cycle))
        seen += bool(watch(net))
    return net, seen


def zero_credits(net):
    return any(router.output_credit_debt(port)
               == router.params.flit_buffer_bytes
               for router in net.routers.values()
               for port in range(MESH_LINKS))


def two_worms_in_a_buffer(net):
    return any(len(state.headers) >= 2 and state.buffer.occupancy
               for router in net.routers.values()
               for state in router.inputs.ports)


def unbound_worm_waiting(net):
    """Some routed worm waits for an output another worm holds."""
    return any(state.out_port is not None and not state.bound
               for router in net.routers.values()
               for state in router.inputs.ports)


WATCH = {
    "contended-output": unbound_worm_waiting,
    "stalled-on-credits": zero_credits,
    "tail-and-head-share-a-buffer": two_worms_in_a_buffer,
}


class TestAgainstTheOracle:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_event_equals_exact(self, name):
        build, cycles = SCENARIOS[name]
        watch = WATCH.get(name, lambda net: False)
        event, seen = run_watched(build, "event", cycles, watch)
        exact, seen_exact = run_watched(build, "exact", cycles, watch)
        assert_oracle_ran(exact.engine)
        assert event.engine.audit_schedule() == []
        assert records(event) == records(exact)
        assert router_view(event) == router_view(exact)
        assert seen == seen_exact
        if name in WATCH:
            assert seen > 0, "the scenario never reached its condition"
        assert all(router.idle for router in event.routers.values())

    def test_contention_serialises_the_worms(self):
        net = contended_output("event").net
        net.run(900)
        assert net.log.be_delivered == 4
        east = net.routers[(1, 1)].output_service(EAST)
        assert east == (0, 4 * 4 + 90 + 70 + 40 + 25)
        assert net.routers[(1, 1)].be_worms_routed == 4

    def test_every_stalled_worm_arrives_whole(self):
        net = stalled_on_credits("event").net
        net.run(1_600)
        assert net.log.be_delivered == 8
        assert all(router.output_credit_debt(port) == 0
                   for router in net.routers.values()
                   for port in range(MESH_LINKS))

    def test_preemption_interleaves_both_classes(self):
        traffic = tc_preempts_be("event")
        traffic.run(2_400)
        net = traffic.net
        tc_bytes, be_bytes = net.routers[(0, 0)].output_service(EAST)
        assert (tc_bytes, be_bytes) == (24 * 20, 5 * 104)
        assert net.log.be_delivered == 10
        assert net.log.deadline_misses == 0

    def test_corruption_and_loss_are_counted_once_each(self):
        net = mangled_and_dropped("event").net
        net.run(900)
        faults = net.fault_counters()
        assert (faults.be_corrupted, faults.link_bytes_corrupted,
                faults.link_packets_dropped) == (1, 1, 1)
        assert net.log.be_delivered == 4
        assert all(router.output_credit_debt(port) == 0
                   for router in net.routers.values()
                   for port in range(MESH_LINKS))

    def test_flap_leaves_orphans_and_a_live_link(self):
        net = flap_mid_worm("event").net
        net.run(1_500)
        faults = net.fault_counters()
        assert faults.be_orphan_drops > 0 and faults.link_bytes_lost > 0
        # The reverse worm and whatever was sent whole got through.
        assert 1 <= net.log.be_delivered < 4
        assert net.routers[(1, 0)].output_credit_debt(EAST) == 0


# -- the parent's checkpoints ---------------------------------------------

CHECKPOINT_EVERY, CHECKPOINT_END, RESUME_AT = 50, 1_000, 300


def build_checkpointed(engine="event"):
    """Mixed traffic on a 3x2 mesh: worms contend, stall and are
    preempted while documents are taken every 50 cycles."""
    traffic = tc_preempts_be(engine)
    net = traffic.net
    net.send_best_effort((2, 1), (0, 0), payload(90, 64))
    net.send_best_effort((0, 1), (2, 0), payload(91, 7))
    net.send_best_effort((0, 1), (2, 0), payload(92, 3))
    return traffic


def router_hashes(state):
    return [hashlib.sha256(json.dumps(
        router, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        for router in state["network"]["routers"]]


def checkpointed_run(engine="event"):
    """(documents by cycle, final records) of the checkpointed run."""
    traffic = build_checkpointed(engine)
    net = traffic.net
    documents = {}
    while net.cycle < CHECKPOINT_END:
        traffic.run(CHECKPOINT_EVERY)
        documents[net.cycle] = save(net)
    return documents, records(net)


def write_fixture(path=FIXTURE):
    """How ``fixtures/parent_be_checkpoints.json`` was made — run from a
    checkout of the parent commit (9fa06e6, PR 21), before ``src/`` was
    touched:

        PYTHONPATH=<parent>/src:<this repo> python -c "from \\
            tests.integration.test_be_byte_path import write_fixture; \\
            write_fixture()"
    """
    documents, final = checkpointed_run()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"router_sha256": {str(cycle): router_hashes(state)
                           for cycle, state in documents.items()},
         "records": final},
        sort_keys=True, indent=1) + "\n")


def _listed(value):
    """JSON has no tuples."""
    return list(value) if isinstance(value, tuple) else value


class TestAgainstTheParent:
    def test_every_router_document_hashes_as_the_parents(self):
        fixture = json.loads(FIXTURE.read_text())
        documents, final = checkpointed_run()
        assert ({str(cycle): router_hashes(state)
                 for cycle, state in documents.items()}
                == fixture["router_sha256"])
        assert ([list(map(_listed, record)) for record in final]
                == fixture["records"])
        # The documents cover the states the byte path passes through.
        routers = [router for state in documents.values()
                   for router in state["network"]["routers"]]
        assert sum(any(output["be_staging"] for output in r["outputs"])
                   for r in routers) >= 10
        assert sum(any(port["buffer"]["phits"] for port in r["be_inputs"])
                   for r in routers) >= 10
        assert sum(any(r["sync_queues"]) for r in routers) >= 10
        assert any(entry[3] is not None for r in routers
                   for output in r["outputs"]
                   for entry in output["be_staging"]), "a staged tail"

    @pytest.mark.parametrize("engine", ["event", "exact"])
    def test_restore_mid_worm_finishes_with_the_parents_records(
            self, engine):
        fixture = json.loads(FIXTURE.read_text())
        documents, _ = checkpointed_run()
        state = documents[RESUME_AT]
        assert any(output["be_staging"] and output["bound_input"] is not None
                   for router in state["network"]["routers"]
                   for output in router["outputs"]), "taken mid-worm"
        traffic = build_checkpointed(engine)
        net = traffic.net
        net.load_state(state["network"], LoadContext(state["metas"]))
        assert net.cycle == RESUME_AT
        while net.cycle < CHECKPOINT_END:
            traffic.run(CHECKPOINT_EVERY)
            # The oracle steps routers the scheduler leaves alone, so
            # only the scheduler's documents are the parent's bytes.
            assert (engine == "exact" or router_hashes(save(net))
                    == fixture["router_sha256"][str(net.cycle)])
        assert ([list(map(_listed, record)) for record in records(net)]
                == fixture["records"])
