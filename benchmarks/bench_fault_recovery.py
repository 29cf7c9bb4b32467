"""Fault tolerance — detection and recovery latency microbenchmark.

A link carrying a periodic time-constrained channel is cut silently
(no administrative announcement), so discovery is entirely up to the
watchdog.  Two latencies bound the outage:

* **detection latency** — cycles from the cut to the watchdog's
  ``link-dead`` declaration (traffic-dependent: the monitor only sees
  misses while the sender keeps offering phits);
* **recovery latency** — cycles from the declaration to the first
  delivery on the rerouted channel (reroute + admission + the detour's
  transit time).

Future PRs touching the fault path should keep both from regressing.
"""

from dataclasses import dataclass

from conftest import fmt_table

from repro import TrafficSpec, build_mesh_network
from repro.core.ports import EAST
from repro.faults import install_fault_tolerance
from repro.network.events import LINK_DEAD


@dataclass
class RecoveryTiming:
    cut_cycle: int
    detected_cycle: int
    first_recovered_delivery: int
    rerouted: int
    deadline_misses: int

    @property
    def detection_latency(self) -> int:
        return self.detected_cycle - self.cut_cycle

    @property
    def recovery_latency(self) -> int:
        return self.first_recovered_delivery - self.detected_cycle


def measure_fault_recovery(cut_cycle: int = 600,
                           run_cycles: int = 8000) -> RecoveryTiming:
    net = build_mesh_network(3, 3)
    channel = net.establish_channel(
        (0, 0), (2, 0), TrafficSpec(i_min=8), deadline=48,
        adaptive=False, label="bench",
    )
    install_fault_tolerance(net)
    declared = []
    net.events.subscribe(lambda event: declared.append(event.cycle)
                         if event.kind == LINK_DEAD else None)
    link = ((1, 0), EAST)
    slot = net.params.slot_cycles
    period = 8 * slot
    cut_at = None
    while net.cycle < run_cycles:
        if net.cycle % period == 0:
            net.send_message(channel)
        if net.cycle >= cut_cycle and cut_at is None:
            net.fail_link(*link, announce=False)
            cut_at = net.cycle
        net.run(slot)

    assert declared, "watchdog never declared the link dead"
    detected = declared[0]
    recovered = [r.delivered_cycle for r in net.log.of_connection("bench")
                 if r.delivered_cycle >= detected]
    assert recovered, "no deliveries after the reroute"
    return RecoveryTiming(
        cut_cycle=cut_at,
        detected_cycle=detected,
        first_recovered_delivery=min(recovered),
        rerouted=net.fault_stats.channels_rerouted,
        deadline_misses=net.log.deadline_misses,
    )


def test_fault_recovery_latency(benchmark, report):
    timing = benchmark.pedantic(measure_fault_recovery, rounds=1,
                                iterations=1)

    report("fault_recovery", fmt_table(
        ["metric", "cycles"],
        [
            ["detection latency (cut -> link-dead)",
             timing.detection_latency],
            ["recovery latency (link-dead -> delivery)",
             timing.recovery_latency],
            ["deadline misses", timing.deadline_misses],
        ],
    ))

    assert timing.rerouted == 1
    # Detection needs traffic on the link: within a couple of message
    # periods of the cut (one lost packet trips the 20-miss watchdog).
    assert timing.detection_latency < 4 * 8 * 20
    # Recovery is software-speed: reroute plus one detour transit.
    assert timing.recovery_latency < 4000
    assert timing.deadline_misses == 0
