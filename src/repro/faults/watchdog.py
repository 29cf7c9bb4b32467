"""Link-death detection from missed line-level acknowledgements.

The chip's links are synchronous: every phit offered to a healthy link
is clocked across and (for best-effort traffic) acknowledged.  The
:class:`~repro.network.network.LinkMonitor` in the wiring layer counts
consecutive phits that were *offered but never made it* — the hardware
symptom of a dead line.  The watchdog declares a link dead once that
count crosses a threshold (one full time-constrained packet's worth of
transfers), flushes the partial frame the cut left downstream and
publishes a ``link-dead`` event for the recovery controller.

A link with no traffic offered is indistinguishable from a healthy
idle link — exactly like real hardware, silent cuts are only detected
when something tries to cross them.
"""

from __future__ import annotations

from typing import Optional

from repro.network.events import (
    LINK_DEAD,
    LINK_FAILED,
    LINK_REPAIRED,
    LinkEvent,
)

Link = tuple[tuple[int, int], int]


class LinkWatchdog:
    """Engine component that turns missed-transfer counts into events."""

    def __init__(self, network) -> None:
        self.network = network
        #: Missed transfers before a link is declared dead: one lost
        #: time-constrained packet (20 consecutive missed phits) —
        #: short enough to catch failures within a packet time, long
        #: enough that a single glitch does not kill a link.
        self.miss_threshold = network.params.tc_packet_bytes
        #: Links currently considered dead -> cycle of the declaration
        #: (or of the administrative announcement).
        self.dead: dict[Link, int] = {}
        # The wiring reports us whenever it counts a missed transfer.
        network.monitor_reader = self
        network.events.subscribe(self._on_event)

    def _on_event(self, event: LinkEvent) -> None:
        if event.kind == LINK_REPAIRED:
            self.dead.pop(event.link, None)
        elif event.kind == LINK_FAILED:
            # Administrative failures are already known network-wide;
            # remember them so we do not re-announce the same link.
            self.dead.setdefault(event.link, event.cycle)
        else:
            return
        self.network.engine.wake(self)  # ``dead`` is half our answer

    def step(self, cycle: int) -> None:
        for link, monitor in self.network.link_monitors.items():
            if link in self.dead:
                continue
            if monitor.missed_transfers >= self.miss_threshold:
                self.dead[link] = cycle
                self.network.fault_stats.links_detected += 1
                self.network.flush_dead_link(*link)
                self.network.events.emit(LinkEvent(
                    kind=LINK_DEAD, node=link[0], direction=link[1],
                    cycle=cycle,
                ))

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``).

        The watchdog needs a step *now* if some live link has crossed
        the threshold (detection must fire on this cycle, exactly as in
        the per-cycle loop), and otherwise has nothing scheduled.  Its
        inputs are the miss counters, which only grow through the
        wiring (which then reports the watchdog as written), and the
        dead set, which changes in its own step and on link events
        (which wake it).
        """
        fire_now = any(
            monitor.missed_transfers >= self.miss_threshold
            for link, monitor in self.network.link_monitors.items()
            if link not in self.dead
        )
        return cycle if fire_now else None

    def detach(self) -> None:
        self.network.events.unsubscribe(self._on_event)
        self.network.monitor_reader = None
        self.network.engine.remove_component(self)

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        return {"dead": sorted([list(node), direction, cycle]
                               for (node, direction), cycle
                               in self.dead.items())}

    def load_state(self, state: dict) -> None:
        self.dead.clear()
        for node, direction, cycle in state["dead"]:
            self.dead[(tuple(node), direction)] = cycle
