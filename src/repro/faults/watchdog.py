"""Link-death detection from missed line-level acknowledgements.

The chip's links are synchronous: every phit offered to a healthy link
is clocked across and (for best-effort traffic) acknowledged.  The
:class:`~repro.network.network.LinkMonitor` in the wiring layer counts
consecutive phits that were *offered but never made it* — the hardware
symptom of a dead line.  The watchdog declares a link dead once that
count crosses a threshold (one full time-constrained packet's worth of
transfers): :meth:`MeshNetwork.learn_dead
<repro.network.network.MeshNetwork.learn_dead>` marks it known, flushes
the partial frame the cut left downstream and publishes a ``link-dead``
event for the recovery controller.  The watchdog keeps no state.

A link with no traffic offered is indistinguishable from a healthy
idle link — exactly like real hardware, silent cuts are only detected
when something tries to cross them.
"""

from __future__ import annotations

from typing import Optional

from repro.network.events import LINK_DEAD, LinkEvent


class LinkWatchdog:
    """Engine component that turns missed-transfer counts into events."""

    def __init__(self, network) -> None:
        self.network = network
        #: Missed transfers before a link is declared dead: one lost
        #: time-constrained packet (20 consecutive missed phits) —
        #: short enough to catch failures within a packet time, long
        #: enough that a single glitch does not kill a link.
        self.miss_threshold = network.params.tc_packet_bytes
        # The wiring reports us whenever it counts a missed transfer.
        network.monitor_reader = self
        network.events.subscribe(self._on_event)

    def _on_event(self, event: LinkEvent) -> None:
        # An announcement or a repair changes which links are known
        # dead, half our answer; our own detections change it in step.
        if event.kind != LINK_DEAD:
            self.network.engine.wake(self)

    def step(self, cycle: int) -> None:
        network = self.network
        for link, monitor in network.link_monitors.items():
            if (monitor.missed_transfers >= self.miss_threshold
                    and not monitor.known):
                network.fault_stats.links_detected += 1
                network.learn_dead(*link, LINK_DEAD)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``).

        The watchdog needs a step *now* if some link not yet known dead
        has crossed the threshold (detection must fire on this cycle,
        exactly as in the per-cycle loop), and otherwise has nothing
        scheduled.  Its inputs are the miss counters, which only grow
        through the wiring (which then reports the watchdog as
        written), and the links' ``known`` marks, which change in its
        own step and on link events (which wake it).
        """
        fire_now = any(
            monitor.missed_transfers >= self.miss_threshold
            and not monitor.known
            for monitor in self.network.link_monitors.values())
        return cycle if fire_now else None

    def detach(self) -> None:
        self.network.events.unsubscribe(self._on_event)
        self.network.monitor_reader = None
        self.network.engine.remove_component(self)
