"""Router documents of a mixed run, pinned against the parent commit.

``fixtures/parent_be_checkpoints.json`` pins the best-effort byte path
and ``fixtures/parent_checkpoint.json`` packets held early.  This third
set covers what neither run passes through: virtual cut-through, a
multicast packet read out of the memory by staggered output ports, a
router whose scheduler clock is skewed, and a silent link cut that
leaves half a time-constrained frame in the downstream input — with
best-effort worms crossing the same links.  Every router document of
the run, checkpointed every 50 cycles, must hash to what the parent's
``src/`` wrote (``fixtures/parent_mixed_checkpoints.json``), on both
engines and across a restore taken mid-packet.
"""

import hashlib
import json
import pathlib

import pytest

from repro import TrafficSpec
from repro.checkpoint.codec import LoadContext, SaveContext
from repro.core import port_mask
from repro.core.params import OUTPUT_PORTS
from repro.core.ports import EAST, WEST
from repro.faults import FaultInjector
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from repro.traffic.generators import (
    BurstySource,
    PeriodicSource,
    PoissonBestEffortSource,
)
from tests.oracle import assert_oracle_ran

FIXTURE = (pathlib.Path(__file__).parent / "fixtures"
           / "parent_mixed_checkpoints.json")

CHECKPOINT_EVERY, CHECKPOINT_END, RESUME_AT = 50, 2_000, 1_100
#: The silent cut of (1, 0)'s EAST link and its repair.
CUT_AT, REPAIR_AT = 945, 1_130
SKEWED = (1, 1)


def build(engine="event"):
    """A 3x3 mesh with cut-through routers, one of them two ticks
    ahead: a unicast channel along the bottom row (its middle link is
    cut while a packet is on it), a three-way multicast from the top
    left corner, a bursty channel through the skewed node, and seeded
    best-effort datagrams from two hosts."""
    net = MeshNetwork(3, 3, engine=engine, cut_through=True,
                      clock_skews={SKEWED: 2})
    slot = net.params.slot_cycles
    row = net.establish_channel((0, 0), (2, 0), TrafficSpec(i_min=3),
                                deadline=12, label="mix-row")
    net.attach_source((0, 0), PeriodicSource(row, period=3, count=60,
                                             slot_cycles=slot))
    fan = net.establish_channel((0, 2), [(2, 2), (1, 0), (2, 1)],
                                TrafficSpec(i_min=6), deadline=30,
                                label="mix-fan")
    net.attach_source((0, 2), PeriodicSource(fan, period=6, count=30,
                                             slot_cycles=slot))
    skew = net.establish_channel((0, 1), (2, 1), TrafficSpec(i_min=8),
                                 deadline=24, label="mix-skew")
    net.attach_source((0, 1), BurstySource(skew, period=8, burst=2,
                                           count=40, slot_cycles=slot))
    # A horizon on every link lets early packets leave ahead of time —
    # which is when an idle output lets an arriving one cut through.
    for router in net.routers.values():
        router.control.write_horizon(
            port_mask(*range(OUTPUT_PORTS)), 4)
    net.attach_source((0, 0), PoissonBestEffortSource(
        destinations=[(2, 0), (2, 2)], rate=0.01, seed=23))
    net.attach_source((2, 1), PoissonBestEffortSource(
        destinations=[(0, 0), (0, 2)], rate=0.008, seed=24))
    net.engine.add_component(FaultInjector(net, FaultPlan(events=[
        FaultEvent(cycle=CUT_AT, kind=CUT, node=(1, 0), direction=EAST),
        FaultEvent(cycle=REPAIR_AT, kind=REPAIR, node=(1, 0),
                   direction=EAST),
    ])))
    return net


def records(net):
    return [(r.traffic_class, r.connection_label, r.sequence, r.source,
             r.destination, r.injected_cycle, r.delivered_cycle,
             r.delivered_node, r.deadline_met)
            for r in net.log.records]


def save(net):
    ctx = SaveContext()
    state = {"network": net.state(ctx)}
    state["metas"] = ctx.metas_state()
    return json.loads(json.dumps(state))


def router_hashes(state):
    return [hashlib.sha256(json.dumps(
        router, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        for router in state["network"]["routers"]]


def checkpointed_run(engine="event"):
    """(documents by cycle, final records) of the checkpointed run."""
    net = build(engine)
    documents = {}
    while net.cycle < CHECKPOINT_END:
        net.run(CHECKPOINT_EVERY)
        documents[net.cycle] = save(net)
    return documents, records(net), net


def write_fixture(path=FIXTURE):
    """How ``fixtures/parent_mixed_checkpoints.json`` was made — run
    from a checkout of the parent commit (3d564df, PR 22), before
    ``src/`` was touched:

        PYTHONPATH=<parent>/src:<this repo> python -c "from \\
            tests.integration.test_mixed_documents import write_fixture; \\
            write_fixture()"
    """
    documents, final, _ = checkpointed_run()
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(
        {"router_sha256": _hashes_by_cycle(documents), "records": final},
        sort_keys=True, indent=1) + "\n")


def _listed(value):
    """JSON has no tuples."""
    return list(value) if isinstance(value, tuple) else value


def _hashes_by_cycle(documents):
    return {str(cycle): router_hashes(state)
            for cycle, state in documents.items()}


class TestAgainstTheParent:
    def test_every_router_document_hashes_as_the_parents(self):
        fixture = json.loads(FIXTURE.read_text())
        documents, final, net = checkpointed_run()
        assert _hashes_by_cycle(documents) == fixture["router_sha256"]
        assert ([list(map(_listed, record)) for record in final]
                == fixture["records"])
        # The documents cover what the run was built to pass through.
        routers = [router for state in documents.values()
                   for router in state["network"]["routers"]]
        assert sum(any(port["cut_port"] is not None
                       for port in r["tc_inputs"])
                   for r in routers) >= 10, "a cut-through in progress"
        assert sum(any(output["tc_stream"] is not None
                       and output["tc_stream"]["slot"] == -1
                       for output in r["outputs"])
                   for r in routers) >= 10, "a cut-through stream"
        assert sum(any(count > 1 for count in r["slot_readers"])
                   for r in routers) >= 5, "two ports reading one slot"
        assert sum(r["pipeline_lag"] is not None for r in routers) >= 10
        assert sum(any(r["sync_queues"]) for r in routers) >= 10
        assert sum(any(port["buffer"]["phits"] for port in r["be_inputs"])
                   for r in routers) >= 10
        # Half a frame sits in (2, 0)'s WEST input from the cut until
        # the first byte of a packet sent after the repair evicts it.
        downstream = list(net.routers).index((2, 0))
        held = {cycle: len(state["network"]["routers"][downstream]
                           ["tc_inputs"][WEST]["rx_bytes"])
                for cycle, state in documents.items()}
        assert all(0 < held[cycle] < net.params.tc_packet_bytes
                   for cycle in held if CUT_AT < cycle <= REPAIR_AT)
        assert net.routers[(2, 0)].tc_resync_drops == 1
        assert net.routers[SKEWED].tc_transmitted > 10
        assert net.log.be_delivered > 10

    def test_the_oracle_loop_writes_the_same_documents(self):
        fixture = json.loads(FIXTURE.read_text())
        documents, final, net = checkpointed_run("exact")
        assert_oracle_ran(net.engine)
        assert ([list(map(_listed, record)) for record in final]
                == fixture["records"])
        # But for each chip's own cycle counter: the loop steps (on
        # the fast path) the routers the scheduler leaves alone.
        scheduled, _, _ = checkpointed_run("event")
        assert (_hashes_by_cycle(_without_cycle(documents))
                == _hashes_by_cycle(_without_cycle(scheduled)))

    @pytest.mark.parametrize("engine", ["event", "exact"])
    def test_restore_mid_packet_finishes_with_the_parents_records(
            self, engine):
        fixture = json.loads(FIXTURE.read_text())
        documents, _, _ = checkpointed_run()
        state = documents[RESUME_AT]
        routers = state["network"]["routers"]
        assert any(port["rx_bytes"] for r in routers
                   for port in r["tc_inputs"]), "taken mid-frame"
        assert any(port["cut_port"] is not None for r in routers
                   for port in r["tc_inputs"]), "and mid-cut-through"
        assert any(output["be_staging"] for r in routers
                   for output in r["outputs"]), "and mid-worm"
        assert any(r["pipeline_lag"] is not None for r in routers)
        net = build(engine)
        net.load_state(state["network"], LoadContext(state["metas"]))
        assert net.cycle == RESUME_AT
        while net.cycle < CHECKPOINT_END:
            net.run(CHECKPOINT_EVERY)
            assert (engine == "exact" or router_hashes(save(net))
                    == fixture["router_sha256"][str(net.cycle)])
        assert ([list(map(_listed, record)) for record in records(net)]
                == fixture["records"])


def _without_cycle(documents):
    stripped = json.loads(json.dumps(documents))
    for state in stripped.values():
        for router in state["network"]["routers"]:
            del router["counters"]["cycle"]
    return stripped
