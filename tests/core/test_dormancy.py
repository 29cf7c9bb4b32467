"""The dormant router against the reference chip, which never sleeps.

A router that holds nothing but early packets none of which may leave
before cycle D stops working until D: it skips its steps, and the first
working step afterwards replays what the scheduler pipeline did in
between (``SchedulerPipeline.replay``).  The reference chip
(``tests/reference.py``) really runs every tournament of every wait;
fed the same seeded script cycle by cycle, the two must drive the same
bytes on every link, deliver the same packets on the same cycles and
hold equal documents, a lagging pipeline compared through a copy
replayed up to the present.

The pipeline replay itself is checked against per-cycle stepping from
generated queue states, cut at every cycle of the span, and its cost
against the span's length.
"""

import copy
import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RouterParams, TimeConstrainedPacket
from repro.core.comparator_tree import SchedulerPipeline
from repro.core.ports import EAST
from repro.core.router import RealTimeRouter
from tests.reference import (
    ChipPair,
    ReferenceRouter,
    SparseUpstream,
    compare,
    document,
    program,
)

#: (seed, clock skew in ticks, cut-through).  7,000 cycles is 350
#: ticks: every run crosses the 8-bit clock's rollover.
RUNS = [(1, 0, False), (2, 5, False), (3, -3, True), (4, 0, True)]
CYCLES = 7_000


@pytest.mark.parametrize("seed,skew,cut_through", RUNS)
def test_dormant_router_equals_the_one_that_never_sleeps(seed, skew,
                                                         cut_through):
    pair = ChipPair(SparseUpstream(seed, skew=skew),
                    functools.partial(program, horizons=True),
                    clock_skew_ticks=skew, cut_through=cut_through)
    counts = compare(pair, range(1, CYCLES + 1))
    shipped, reference = pair.routers
    # The run really waited, really woke every way there is, and the
    # tree was really spared.
    assert counts["dormant"] > CYCLES // 4
    assert all(counts[f"woken by {cause}"]
               for cause in ("byte", "ack", "injection", "deadline")), counts
    assert shipped.tc_transmitted > 15 and shipped.be_worms_routed > 3
    assert cut_through == (shipped.cut_through_count > 0)
    assert (shipped.tree.keys_computed + shipped.tree.keys_reused
            < (reference.tree.keys_computed
               + reference.tree.keys_reused) // 2)


def test_a_step_past_the_deadline_is_an_ordinary_step():
    # Nobody has to honour the claim: a caller that steps a dormant
    # router late (or on every cycle, like the oracle loop) gets the
    # same bytes, because the deadline only gates the fast path.
    params = RouterParams()
    routers = [cls(params, router_id="late")
               for cls in (RealTimeRouter, ReferenceRouter)]
    for router in routers:
        program(router, horizons=True)
        router.inject_tc(TimeConstrainedPacket(1, header_deadline=12))
    sent = [[], []]
    for cycle in range(600):
        for router, wire in zip(routers, sent):
            router.step()
            signal = router.link_out[EAST]
            wire.append(None if signal.phit is None
                        else (signal.phit.byte, signal.phit.index))
    assert sent[0] == sent[1]
    assert any(sent[0])
    assert document(routers[0]) == document(routers[1])


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


def _seeded(history, ports):
    """A reachable queue state: requests trickling in from any ports
    over stepped cycles, then (as every working step ends) a request
    outstanding for each eligible port.  Returns it and its cycle."""
    pipeline = SchedulerPipeline(RouterParams(), _AlwaysDefers())
    cycle = 0
    for gap, requesters in history:
        for _ in range(gap):
            pipeline.step(cycle, None, [0] * 5)
            cycle += 1
        for port in sorted(requesters):
            pipeline.request(port)
    for port in ports:
        pipeline.request(port)
    return pipeline, cycle


HISTORY = st.lists(st.tuples(st.integers(0, 3),
                             st.sets(st.integers(0, 4), max_size=2)),
                   max_size=30)
PORTS = st.sets(st.integers(0, 4), min_size=1).map(sorted)


@settings(max_examples=300, deadline=None)
@given(history=HISTORY, ports=PORTS,
       first=st.integers(0, 2_000), second=st.integers(0, 2_000))
def test_replay_equals_per_cycle_stepping(history, ports, first, second):
    # Spans of up to 4,000 cycles: a replay skips many whole periods.
    seed_pipeline, start = _seeded(history, ports)
    middle, end = start + first, start + first + second

    stepped = copy.deepcopy(seed_pipeline)
    completions = [cycle for cycle, _ in _per_cycle(stepped, start, end,
                                                     ports)]
    # Every cut: the count before it says on which cycle each
    # tournament completed.
    seed_state = seed_pipeline.state()
    done = 0
    for cut in range(start, end + 1):
        while done < len(completions) and completions[done] < cut:
            done += 1
        cut_pipeline = SchedulerPipeline(RouterParams(), _AlwaysDefers())
        cut_pipeline.load_state(seed_state)
        assert cut_pipeline.replay(start, cut, ports) == done, cut
    whole = copy.deepcopy(seed_pipeline)
    assert whole.replay(start, end, ports) == len(completions)
    assert _observable(whole) == _observable(stepped)
    split = copy.deepcopy(seed_pipeline)
    assert (split.replay(start, middle, ports)
            + split.replay(middle, end, ports)) == len(completions)
    assert _observable(split) == _observable(stepped)
    # ...and either side can carry on per cycle from where it stands.
    assert (_per_cycle(whole, end, end + 25, ports)
            == _per_cycle(stepped, end, end + 25, ports))
    assert _observable(whole) == _observable(stepped)


#: Upper bound on the ``_advance`` calls one replay makes: the
#: transient plus two periods, never the span.
REPLAY_ADVANCES = 40


@settings(max_examples=100, deadline=None)
@given(history=HISTORY, ports=PORTS)
def test_replay_cost_does_not_grow_with_the_span(history, ports):
    seed_pipeline, start = _seeded(history, ports)
    seed_state = seed_pipeline.state()
    costs = []
    for span in (1_000, 10_000, 100_000):
        pipeline = SchedulerPipeline(RouterParams(), _AlwaysDefers())
        pipeline.load_state(seed_state)
        calls = []
        advance = pipeline._advance
        pipeline._advance = lambda cycle: calls.append(cycle) or advance(
            cycle)
        pipeline.replay(start, start + span, ports)
        costs.append(len(calls))
    assert max(costs) <= REPLAY_ADVANCES, costs
    # Longer spans cost the same: only the stretch after the last whole
    # period may differ, and it is shorter than a period.
    assert max(costs) - min(costs) <= len(ports) + 1, costs
