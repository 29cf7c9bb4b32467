"""Schedulability engine validation: pre-filter skips and bound tightness.

Not a paper table — acceptance gates for the analytic engine
(see ``docs/schedulability.md``).  Three claims are demonstrated:

* the campaign feasibility pre-filter skips at least one provably
  infeasible sweep cell, and the skip is *recorded* in the campaign
  report and its summary output rather than silently dropped;
* driving every analytically admitted channel set adversarially
  (aligned phases, full bursts up front) never observes an end-to-end
  latency above the engine's predicted bound on a fault-free run —
  and the per-channel tightness gap is quantified in the artefact;
* under injected faults, every channel the fault model calls
  guaranteed or degraded-guaranteed stays inside its recovery
  envelope on both scheduling engines, with the degraded gap
  quantified per channel.
"""

from conftest import fmt_table

from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.faults.plan import CUT, DROP, FaultEvent, FaultPlan
from repro.schedulability import (
    DEGRADED_GUARANTEED,
    TopologySpec,
    adversarial_channel_demands,
    measure,
    random_channel_demands,
)

#: Fixed seed on a 4x4 mesh: 4 adversarial channels are analytically
#: feasible, 24 are not (link-schedulability) — see the prefilter tests.
SEED = 123
SWEEP_CHANNELS = [4, 24]

TIGHTNESS_CASES = [
    ("random-4x4", (4, 4), random_channel_demands, 10, 0),
    ("random-8x8", (8, 8), random_channel_demands, 12, 1),
    ("adversarial-4x4", (4, 4), adversarial_channel_demands, 8, 2),
]
TICKS = 150


def test_prefilter_skips_infeasible_cells(report, tmp_path):
    spec = CampaignSpec(
        name="tightness", mode="grid",
        base={"workload": "adversarial", "width": 4, "height": 4,
              "ticks": 60, "seed": SEED},
        axes={"channels": SWEEP_CHANNELS},
    )
    runner = CampaignRunner(spec, ResultCache(tmp_path / "cache"),
                            backoff_base=0.01)
    campaign = runner.run()

    summary = campaign.summary_lines()
    report("schedulability_prefilter", summary)

    # Gate: at least one provably infeasible cell was skipped, the
    # skip is recorded, and the run still accounts for every cell.
    assert campaign.ok
    assert len(campaign.infeasible) >= 1
    assert len(campaign.results) == len(SWEEP_CHANNELS) - len(
        campaign.infeasible)
    assert any("INFEASIBLE" in line for line in summary)
    for verdict in campaign.infeasible.values():
        assert verdict["rejected"] >= 1
        assert verdict["reject_reasons"]


def test_tightness_gap_is_quantified_and_safe(report):
    rows = []
    for name, (width, height), generator, channels, seed in (
            TIGHTNESS_CASES):
        topology = TopologySpec(width, height)
        demands = generator(width, height, channels, seed)
        net, tightness = measure(topology, demands, ticks=TICKS)

        # Gates: verdicts mirror the simulator exactly, and every
        # fault-free measured worst case stays at or under the bound.
        assert tightness.mismatches == []
        assert tightness.violations == []
        assert tightness.total_misses == 0
        assert net.log.deadline_misses == 0
        assert all(entry.deliveries > 0 for entry in tightness.channels)

        for entry in tightness.channels:
            rows.append([name, entry.label, entry.predicted,
                         entry.observed, entry.gap, entry.deliveries])

    gaps = [row[4] for row in rows]
    lines = fmt_table(
        ["case", "channel", "predicted", "observed", "gap",
         "deliveries"], rows)
    lines += [
        "",
        f"channels measured: {len(rows)}",
        f"gap ticks: min {min(gaps)}  "
        f"mean {sum(gaps) / len(rows):.1f}  max {max(gaps)}",
        "bound violations: 0",
        "deadline misses: 0",
    ]
    report("schedulability_tightness", lines)
    assert min(gaps) >= 0


#: (name, demand seed, fault plan) for the degraded-tightness gate.
#: The single-cut case pins the canonical degraded scenario; the mixed
#: case adds a drop corruptor burning retransmissions on a second route.
CHAOS_CASES = [
    ("single-cut", 1, FaultPlan(events=[
        FaultEvent(cycle=600, kind=CUT, node=(1, 1), direction=0)])),
    ("cut-and-drop", 7, FaultPlan(events=[
        FaultEvent(cycle=500, kind=CUT, node=(2, 1), direction=3),
        FaultEvent(cycle=700, kind=DROP, node=(2, 3), direction=0,
                   amount=2)])),
]
CHAOS_TICKS = 120


def test_degraded_tightness_gap_is_quantified_and_safe(report):
    rows = []
    degraded_total = 0
    for name, seed, plan in CHAOS_CASES:
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, seed)
        for engine in ("exact", "event"):
            net, chaos = measure(topology, demands, plan,
                                 ticks=CHAOS_TICKS, engine=engine)

            # Gates: fault-model verdicts mirrored the run, and every
            # guaranteed/degraded-guaranteed channel stayed inside its
            # envelope with nothing lost or late.
            assert chaos.mismatches == []
            assert chaos.violations == []
            assert chaos.total_misses == 0
            assert chaos.ok

            degraded_total += sum(
                1 for entry in chaos.channels
                if entry.status == DEGRADED_GUARANTEED)
            for entry_row in chaos.gap_rows():
                rows.append([name, engine] + entry_row)

    lines = fmt_table(
        ["case", "engine", "channel", "verdict", "predicted",
         "observed", "gap", "deliveries", "misses", "safe"], rows)
    lines += [
        "",
        f"channels gated: {len(rows)}",
        f"degraded-guaranteed channels: {degraded_total}",
        "envelope violations: 0",
        "deadline misses (gated channels): 0",
    ]
    report("schedulability_degraded_tightness", lines)
    # The gate is not vacuous: faults really degraded channels.
    assert degraded_total >= 2
