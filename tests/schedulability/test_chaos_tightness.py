"""Chaos-tightness gate: fault-aware bounds versus real injected runs.

The degraded-but-guaranteed verdict is only worth its name if a real
chaos run — actual FaultInjector, actual watchdog detection, actual
reroute and retransmission — stays inside the predicted envelope.
These runs drive admitted sets adversarially through their fault plan
on both scheduling engines and gate ``observed <= predicted`` for
every guaranteed and degraded-guaranteed channel, with no recorded
misses and nothing left undelivered.
"""

import pytest

from repro.faults.plan import CUT, DROP, FaultEvent, FaultPlan
from repro.schedulability import (
    AT_RISK,
    DEGRADED_GUARANTEED,
    TopologySpec,
    measure_chaos_tightness,
    random_channel_demands,
)
from tests.oracle import assert_ran_as

ENGINES = ["exact", "event"]


@pytest.mark.parametrize("engine", ENGINES)
def test_cut_stays_inside_the_degraded_envelope(engine):
    topology = TopologySpec(4, 4)
    demands = random_channel_demands(4, 4, 4, 1)
    plan = FaultPlan(events=[
        FaultEvent(cycle=600, kind=CUT, node=(1, 1), direction=0)])
    net, report = measure_chaos_tightness(topology, demands, plan,
                                          ticks=120, engine=engine)
    assert_ran_as(net.engine, engine)
    assert report.mismatches == []
    assert report.violations == []
    assert report.total_misses == 0
    assert report.ok
    degraded = [entry for entry in report.channels
                if entry.status == DEGRADED_GUARANTEED]
    assert degraded, "the cut must actually degrade a channel"
    for entry in degraded:
        # The fault fired, recovery ran, and the envelope held — with
        # real deliveries behind it, not a vacuous gate.
        assert entry.deliveries > 0
        assert entry.observed is not None
        assert entry.observed <= entry.predicted
        assert entry.undelivered == 0
    counters = net.fault_counters()
    assert counters.links_detected >= 1
    assert counters.channels_rerouted >= 1
    assert counters.tc_retransmitted >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_mixed_plan_gates_every_non_at_risk_channel(engine):
    topology = TopologySpec(4, 4)
    demands = random_channel_demands(4, 4, 5, 7)
    plan = FaultPlan.random(1003, 4, 4, cuts=2, flaps=1, corruptions=1,
                            drops=1, window=(200, 1800))
    net, report = measure_chaos_tightness(topology, demands, plan,
                                          ticks=120, engine=engine)
    assert_ran_as(net.engine, engine)
    assert report.mismatches == []
    assert report.violations == []
    assert report.ok
    for entry in report.channels:
        if entry.status == AT_RISK:
            assert entry.predicted is None      # reported, never gated
        else:
            assert entry.predicted is not None
            assert entry.safe


def test_engines_agree_on_the_chaos_signature():
    topology = TopologySpec(4, 4)
    demands = random_channel_demands(4, 4, 4, 1)
    plan = FaultPlan(events=[
        FaultEvent(cycle=600, kind=CUT, node=(1, 1), direction=0)])
    signatures = set()
    for engine in ENGINES:
        net, report = measure_chaos_tightness(topology, demands, plan,
                                              ticks=120, engine=engine)
        assert_ran_as(net.engine, engine)
        payload = report.as_dict()
        payload.pop("engine")
        from repro.campaign.spec import canonical_dumps
        signatures.add(canonical_dumps(payload))
    assert len(signatures) == 1
