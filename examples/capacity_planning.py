#!/usr/bin/env python3
"""Capacity planning with the analytical model and the slot simulator.

Protocol-software view of the system (paper sections 2 and 4.1): before
deploying a workload, an integrator wants to know how many connections
a link can take, how the horizon knob trades latency against buffer
reservations, and whether the decomposition of an end-to-end deadline
is feasible.  This example answers those questions offline — no
cycle-accurate simulation required — then spot-checks one configuration
in the fast slot simulator and finishes with a small cycle-accurate
campaign sweep over channel counts (see docs/campaigns.md).

Run:  python examples/capacity_planning.py
"""

import tempfile

from repro.channels import AdmissionController, AdmissionError, TrafficSpec
from repro.channels.admission import (
    FlowRequirements,
    HopDescriptor,
    buffer_bound,
)
from repro.core import RouterParams
from repro.schedulability import (
    ChannelDemand,
    TopologySpec,
    analyze,
    slot_model,
    worst_case_arrivals,
)


def main() -> None:
    spec = TrafficSpec(i_min=12, s_max=18)

    # 1. How many such connections fit on one link?  Ask admission
    #    control itself, one connection at a time, until it refuses.
    print("connections per link vs. local deadline (i_min = 12):")
    for deadline in (3, 6, 12):
        controller = AdmissionController()
        count = 0
        try:
            while True:
                controller.admit([HopDescriptor("n0", 0)], spec,
                                 FlowRequirements(deadline=deadline),
                                 local_delays=[deadline])
                count += 1
        except AdmissionError:
            pass
        print(f"  d = {deadline:>3} ticks -> {count} connections")

    # 2. Horizon vs. downstream buffer demand (the paper's trade-off).
    print("\nhorizon h vs. buffers at the downstream node "
          "(d_prev = d = 12):")
    for h in (0, 6, 12, 24, 48):
        print(f"  h = {h:>3} -> {buffer_bound(spec, h, 12, 12)} "
              f"packet buffers per connection")

    # 3. Decompose a 4-hop deadline and inspect the hop windows.
    controller = AdmissionController()
    hops = [HopDescriptor(node=f"n{i}", out_port=0) for i in range(4)]
    delays = controller.decompose_deadline(hops, spec,
                                           FlowRequirements(deadline=48))
    print(f"\nD = 48 over 4 hops -> d_j = {delays}")
    offset = 0
    for j, delay in enumerate(delays):
        upstream = delays[j - 1] if j else 0
        print(f"  hop {j}: l offset {offset:>3}, "
              f"deadline offset {offset + delay:>3}, "
              f"buffers {buffer_bound(spec, 0, upstream, delay)}")
        offset += delay

    # 4. What clock does the chip need for these parameters?  Ask
    #    admission for the narrowest clock whose rollover rule (paper
    #    section 4.3) accepts these delays at horizon 12.
    bits = 2
    while True:
        try:
            AdmissionController(RouterParams(clock_bits=bits)).admit(
                [HopDescriptor(f"n{i}", 0, horizon=12) for i in range(4)],
                spec, FlowRequirements(deadline=48), local_delays=delays)
            break
        except AdmissionError:
            bits += 1
    print(f"\nrequired scheduler clock width: {bits} bits "
          f"(the chip has 8)")

    # 5. Spot-check in the slot simulator: analyse three such channels
    #    that share their first link, then run what was admitted with
    #    every burst at tick 0 and a best-effort backlog on that link.
    report = analyze(TopologySpec(2, 3), [
        ChannelDemand(label=f"ch{k}", source=(0, 0),
                      destinations=((1, k),), i_min=spec.i_min,
                      deadline=48, s_max=spec.s_max)
        for k in range(3)
    ], adaptive=False)
    shared = report.channels[0].hops[0]
    sim = slot_model(report, worst_case_arrivals(report, 50 * spec.i_min))
    sim.add_best_effort_backlog(shared)
    sim.run_until_drained(max_ticks=50_000)
    print(f"\nslot-sim check: {len(sim.delivered())} messages, "
          f"{sim.deadline_misses()} misses, shared-link utilisation "
          f"{sim.link_utilisation(shared) * 100:.0f}%")
    assert sim.deadline_misses() == 0

    # 6. Sweep the admitted-channel count in the cycle-accurate mesh —
    #    a four-run campaign with cached, parallel execution.  The
    #    cache makes re-running this script nearly free.
    from repro.campaign import CampaignRunner, CampaignSpec, ResultCache

    spec_sweep = CampaignSpec(
        name="capacity", master_seed=17, mode="grid",
        base={"workload": "random", "width": 2, "height": 2,
              "ticks": 40},
        axes={"channels": [1, 2, 3, 4]},
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        report = CampaignRunner(spec_sweep, ResultCache(cache_dir),
                                workers=2).run()
    assert report.ok
    print("\ncampaign sweep over admitted channels (2x2 mesh):")
    for config_hash in sorted(
            report.results,
            key=lambda h: report.configs[h]["channels"]):
        stats = report.results[config_hash]
        tc = stats["classes"]["TC"]
        config = report.configs[config_hash]
        print(f"  channels = {config['channels']} -> "
              f"{tc['delivered']} TC delivered, "
              f"{tc['deadline_misses']} misses")


if __name__ == "__main__":
    main()
