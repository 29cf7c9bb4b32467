"""The dormant router against the router that never sleeps.

A router that holds nothing but early packets none of which may leave
before cycle D stops working until D: it skips its steps, and the first
working step afterwards replays what the scheduler pipeline did in
between (``SchedulerPipeline.replay``).  ``_NeverDormantRouter`` is the
behaviour that replaces — every tournament of every wait really run —
and, fed the same seeded script cycle by cycle, the two must drive the
same bytes on every link, deliver the same packets on the same cycles
and, whenever nothing lags, hold equal state documents (the key cache
and its two traffic counters excepted: they count the simulator's
effort, not the chip's).  While the shipped router lags, replaying a
*copy* of its pipeline up to the present must give the reference's.

The pipeline replay itself is checked against per-cycle stepping from
generated queue states, split at an arbitrary cycle.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint.codec import SaveContext
from repro.core import (
    BestEffortPacket,
    RouterParams,
    TimeConstrainedPacket,
    port_mask,
)
from repro.core.comparator_tree import SchedulerPipeline
from repro.core.invariants import check_router_invariants
from repro.core.params import OUTPUT_PORTS
from repro.core.ports import EAST, NORTH, RECEPTION, SOUTH, WEST
from repro.core.router import RealTimeRouter
from tests.core.test_phase_guards import _SparseUpstream, _apply


class _NeverDormantRouter(RealTimeRouter):
    """Waiting the old way: a tournament every few cycles, all deferred."""

    def _dormancy_deadline(self):
        return 0


def _program(router):
    control = router.control
    control.program_connection(0, 0, delay=20, port_mask=port_mask(RECEPTION))
    control.program_connection(1, 1, delay=10, port_mask=port_mask(EAST))
    control.program_connection(
        2, 2, delay=15, port_mask=port_mask(NORTH, WEST, RECEPTION))
    control.program_connection(3, 3, delay=6, port_mask=port_mask(SOUTH))
    # Horizon 0 (hold until on time) on EAST and SOUTH, positive and
    # different elsewhere: a multicast leaf wakes for its widest port.
    control.write_horizon(port_mask(NORTH), 3)
    control.write_horizon(port_mask(WEST), 1)
    control.write_horizon(port_mask(RECEPTION), 6)


def _document(router):
    ctx = SaveContext()
    state = router.state(ctx)
    for key in ("keys_computed", "keys_reused", "key_cache"):
        del state["tree"][key]
    return json.dumps([state, ctx.metas_state()], sort_keys=True,
                      default=repr)


def _wire(signal):
    phit = signal.phit
    return (None if phit is None
            else (phit.vc, phit.byte, phit.index, phit.last), signal.ack)


def _delivery(packet):
    return (type(packet).__name__, packet.meta.packet_id,
            packet.meta.delivered_cycle, bytes(packet.payload))


def _replayed_copy(router, cycle):
    """The lagging pipeline of ``router`` settled up to ``cycle`` on a
    copy, with the tournaments that stands for."""
    pipeline = SchedulerPipeline(router.params, tree=None)
    pipeline.load_state(router.pipeline.state())
    completed = pipeline.replay(
        router._pipeline_lag, cycle,
        [port for port in range(OUTPUT_PORTS)
         if router.eligible_count[port] > 0])
    return pipeline, len(completed)


#: (seed, clock skew in ticks, cut-through).  7,000 cycles is 350
#: ticks: every run crosses the 8-bit clock's rollover.
RUNS = [(1, 0, False), (2, 5, False), (3, -3, True), (4, 0, True)]
CYCLES = 7_000


@pytest.mark.parametrize("seed,skew,cut_through", RUNS)
def test_dormant_router_equals_the_one_that_never_sleeps(seed, skew,
                                                         cut_through):
    params = RouterParams()
    options = dict(router_id="dut", on_memory_full="drop",
                   clock_skew_ticks=skew, cut_through=cut_through)
    shipped = RealTimeRouter(params, **options)
    reference = _NeverDormantRouter(params, **options)
    for router in (shipped, reference):
        _program(router)
    script = _SparseUpstream(seed, params, skew)
    dormant_cycles = 0
    woken_by = {"byte": 0, "ack": 0, "injection": 0, "deadline": 0}
    for cycle in range(CYCLES):
        signals, injections, collect = script.offer(cycle)
        claim = shipped.next_event_cycle(cycle)
        asleep = claim is not None and claim > cycle
        assert reference.next_event_cycle(cycle) == cycle or not asleep
        _apply(shipped, 0, signals, injections, False)
        _apply(reference, 1, signals, injections, False)
        if asleep:
            dormant_cycles += 1
            woken_by["byte"] += any(p[0] is not None for p, _ in signals)
            woken_by["ack"] += any(ack for _, ack in signals)
            woken_by["injection"] += bool(injections)
        elif claim == cycle and shipped._pipeline_lag is not None:
            woken_by["deadline"] += 1
        shipped.step()
        reference.step()
        where = f"seed {seed}, cycle {cycle}"
        assert ([_wire(s) for s in shipped.link_out]
                == [_wire(s) for s in reference.link_out]), where
        assert ([_delivery(p) for p in shipped.delivered]
                == [_delivery(p) for p in reference.delivered]), where
        if collect:
            assert ([_delivery(p) for p in shipped.take_delivered()]
                    == [_delivery(p) for p in reference.take_delivered()])
        if shipped._pipeline_lag is None:
            assert _document(shipped) == _document(reference), where
        else:
            pipeline, tournaments = _replayed_copy(shipped, cycle + 1)
            assert pipeline.state() == reference.pipeline.state(), where
            assert pipeline.wake_cycle == reference.pipeline.wake_cycle
            assert (shipped.tree.evaluations + tournaments
                    == reference.tree.evaluations), where
            assert (shipped.bus.total_cycles
                    + cycle + 1 - shipped._pipeline_lag
                    == reference.bus.total_cycles), where
        check_router_invariants(shipped)
        script.observe(shipped)
    # The run really waited, really woke every way there is, and the
    # tree was really spared.
    assert dormant_cycles > CYCLES // 4
    assert all(woken_by.values()), woken_by
    assert shipped.tc_transmitted > 15 and shipped.be_worms_routed > 3
    assert cut_through == (shipped.cut_through_count > 0)
    lagging = (0 if shipped._pipeline_lag is None
               else _replayed_copy(shipped, CYCLES)[1])
    assert shipped.tree.evaluations + lagging == reference.tree.evaluations
    assert (shipped.tree.keys_computed + shipped.tree.keys_reused
            < (reference.tree.keys_computed
               + reference.tree.keys_reused) // 2)


def test_a_step_past_the_deadline_is_an_ordinary_step():
    # Nobody has to honour the claim: a caller that steps a dormant
    # router late (or on every cycle, like the oracle loop) gets the
    # same bytes, because the deadline only gates the fast path.
    params = RouterParams()
    routers = [cls(params, router_id="late")
               for cls in (RealTimeRouter, _NeverDormantRouter)]
    for router in routers:
        _program(router)
        router.inject_tc(TimeConstrainedPacket(1, header_deadline=12))
    sent = [[], []]
    for cycle in range(600):
        for router, wire in zip(routers, sent):
            router.step()
            wire.append(_wire(router.link_out[EAST]))
    assert sent[0] == sent[1]
    assert any(phit is not None for phit, _ in sent[0])
    assert _document(routers[0]) == _document(routers[1])


# ----------------------------------------------------------------------
# SchedulerPipeline.replay against per-cycle stepping
# ----------------------------------------------------------------------

class _AlwaysDefers:
    """A tree whose every tournament returns something to defer."""

    def select_for_port(self, port, clock, horizon):
        return object()


def _per_cycle(pipeline, start, end, ports):
    """What the router does on every cycle of a wait: one pipeline
    step, then each eligible port without a request asks again."""
    completed = []
    for cycle in range(start, end):
        completed += [(cycle, port)
                      for port, _ in pipeline.step(cycle, None, [0] * 5)]
        for port in ports:
            pipeline.request(port)
    return completed


def _observable(pipeline):
    return pipeline.state(), pipeline.wake_cycle, pipeline.busy


@settings(max_examples=300, deadline=None)
@given(
    history=st.lists(st.tuples(st.integers(0, 3),
                               st.sets(st.integers(0, 4), max_size=2)),
                     max_size=30),
    ports=st.sets(st.integers(0, 4), min_size=1).map(sorted),
    first=st.integers(0, 40),
    second=st.integers(0, 40),
)
def test_replay_equals_per_cycle_stepping(history, ports, first, second):
    # A reachable queue state: requests trickling in from any ports
    # over stepped cycles, then (as every working step ends) a request
    # outstanding for each eligible port.
    seed_pipeline = SchedulerPipeline(RouterParams(), _AlwaysDefers())
    cycle = 0
    for gap, requesters in history:
        for _ in range(gap):
            seed_pipeline.step(cycle, None, [0] * 5)
            cycle += 1
        for port in sorted(requesters):
            seed_pipeline.request(port)
    for port in ports:
        seed_pipeline.request(port)
    start, middle, end = cycle, cycle + first, cycle + first + second

    stepped = copy.deepcopy(seed_pipeline)
    expected = _per_cycle(stepped, start, end, ports)
    whole = copy.deepcopy(seed_pipeline)
    assert whole.replay(start, end, ports) == expected
    assert _observable(whole) == _observable(stepped)
    split = copy.deepcopy(seed_pipeline)
    assert (split.replay(start, middle, ports)
            + split.replay(middle, end, ports)) == expected
    assert _observable(split) == _observable(stepped)
    # ...and either side can carry on per cycle from where it stands.
    assert (_per_cycle(whole, end, end + 25, ports)
            == _per_cycle(stepped, end, end + 25, ports))
    assert _observable(whole) == _observable(stepped)
