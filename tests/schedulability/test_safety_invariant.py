"""Property-style suite for the safety invariant ``observed <= predicted``.

For randomly generated admitted channel sets on 4x4 and 8x8 meshes,
driven adversarially (aligned phases, full bursts up front) on both
scheduling engines, every fault-free run must deliver every message by
its deadline and never observe a latency above the engine's predicted
bound — and the engine's admission verdicts must match the simulator's
exactly (no prediction mismatches).
"""

import pytest

from repro.schedulability import (
    TopologySpec,
    adversarial_channel_demands,
    measure_tightness,
    random_channel_demands,
)
from tests.oracle import assert_oracle_ran, assert_ran_as

MESHES = [(4, 4), (8, 8)]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("engine", ["exact", "event"])
@pytest.mark.parametrize("width,height", MESHES)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_sets_stay_under_their_bounds(width, height, seed,
                                             engine):
    topology = TopologySpec(width, height)
    demands = random_channel_demands(width, height, 10, seed)
    net, report = measure_tightness(topology, demands, ticks=100,
                                    engine=engine)
    assert_ran_as(net.engine, engine)
    assert report.mismatches == []
    assert report.violations == []
    assert report.total_misses == 0
    assert net.log.deadline_misses == 0
    assert report.ok
    # Every admitted channel actually delivered something: the
    # invariant is not vacuous.
    assert all(entry.deliveries > 0 for entry in report.channels)
    assert all(entry.gap >= 0 for entry in report.channels)


@pytest.mark.parametrize("engine", ["exact", "event"])
@pytest.mark.parametrize("seed", SEEDS)
def test_adversarial_sets_stay_under_their_bounds(seed, engine):
    # Bursty multi-packet demands (the generator's whole point): the
    # set sizes keep every cell feasible so the drive covers all
    # channels rather than exercising rejection paths.
    topology = TopologySpec(4, 4)
    demands = adversarial_channel_demands(4, 4, 8, seed)
    net, report = measure_tightness(topology, demands, ticks=120,
                                    engine=engine)
    assert_ran_as(net.engine, engine)
    assert report.mismatches == []
    assert report.violations == []
    assert report.total_misses == 0
    assert report.ok
    assert all(entry.deliveries > 0 for entry in report.channels)


def test_engines_agree_on_the_observed_worst_case():
    topology = TopologySpec(4, 4)
    demands = random_channel_demands(4, 4, 8, seed=42)
    oracle_net, exact = measure_tightness(topology, demands, ticks=100,
                                          engine="exact")
    event_net, event = measure_tightness(topology, demands, ticks=100,
                                         engine="event")
    assert_oracle_ran(oracle_net.engine)
    assert event_net.engine.mode == "event"
    assert [entry.as_dict() for entry in exact.channels] == [
        entry.as_dict() for entry in event.channels]


def test_report_serialises_and_signs_stably():
    topology = TopologySpec(4, 4)
    demands = random_channel_demands(4, 4, 6, seed=9)
    _, first = measure_tightness(topology, demands, ticks=80)
    _, second = measure_tightness(topology, demands, ticks=80)
    assert first.signature() == second.signature()
    payload = first.as_dict()
    assert payload["ok"] is True
    assert payload["total_misses"] == 0
    assert len(payload["channels"]) == len(first.channels)
    rows = first.gap_rows()
    assert len(rows) == len(first.channels)
    assert all(row[-1] == "yes" for row in rows)
