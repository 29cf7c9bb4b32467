"""Link-death detection from missed line-level acknowledgements.

The chip's links are synchronous: every phit offered to a healthy link
is clocked across and (for best-effort traffic) acknowledged.  The
:class:`~repro.network.network.LinkMonitor` in the wiring layer counts
consecutive phits that were *offered but never made it* — the hardware
symptom of a dead line.  The watchdog declares a link dead once that
count crosses a threshold (default: one full time-constrained packet's
worth of transfers) and publishes a ``link-dead`` event for the
recovery controller.

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

    def __init__(self, network, miss_threshold: Optional[int] = None) -> None:
        self.network = network
        #: Missed transfers before a link is declared dead.  One lost
        #: time-constrained packet (20 consecutive missed phits) is the
        #: default — short enough to catch failures within a packet
        #: time, long enough that a single glitch does not kill a link.
        self.miss_threshold = (miss_threshold if miss_threshold is not None
                               else network.params.tc_packet_bytes)
        if self.miss_threshold < 1:
            raise ValueError("miss threshold must be positive")
        #: Links currently considered dead -> cycle of the declaration
        #: (or of the administrative announcement).
        self.dead: dict[Link, int] = {}
        #: Bumped whenever ``dead`` changes; half of the verdict-cache
        #: key below.
        self._dead_version = 0
        #: Cached scan verdict keyed on ``(monitor_miss_epoch,
        #: dead_version)``: miss counters only *grow* through the
        #: wiring layer (which bumps the network's epoch), so an
        #: unchanged key means no link can have newly crossed the
        #: threshold and the cached verdict is still safe.  Counter
        #: *resets* (healthy transfer, repair) do not bump the epoch —
        #: they can only turn a fire-now verdict into a spurious no-op
        #: step, never suppress a detection.
        self._verdict_cache: Optional[tuple[int, int, bool]] = None
        network.events.subscribe(self._on_event)

    def _on_event(self, event: LinkEvent) -> None:
        if event.kind == LINK_REPAIRED:
            self.dead.pop(event.link, None)
            self._dead_version += 1
        elif event.kind == LINK_FAILED:
            # Administrative failures are already known network-wide;
            # remember them so we do not re-announce the same link.
            self.dead.setdefault(event.link, event.cycle)
            self._dead_version += 1

    def step(self, cycle: int) -> None:
        for link, monitor in self.network.link_monitors.items():
            if link in self.dead:
                continue
            if monitor.missed_transfers >= self.miss_threshold:
                self.dead[link] = cycle
                self._dead_version += 1
                self.network.fault_stats.links_detected += 1
                self.network.events.emit(LinkEvent(
                    kind=LINK_DEAD, node=link[0], direction=link[1],
                    cycle=cycle,
                ))

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract (see ``docs/performance.md``).

        Miss counters only grow when a sender offers phits to a dead
        link — which requires an active router — so while the fabric is
        quiescent the verdict is stable: the watchdog needs a step
        *now* if some live link has already crossed the threshold
        (detection must fire on this cycle, exactly as in the per-cycle
        loop), and otherwise has nothing scheduled.  The event
        scheduler requeries watchers after every executed cycle, so
        the full-scan verdict is cached behind the miss-epoch /
        dead-set key (O(1) on the hot path).
        """
        epoch = self.network.monitor_miss_epoch[0]
        cache = self._verdict_cache
        if cache is not None and cache[0] == epoch \
                and cache[1] == self._dead_version:
            return cycle if cache[2] else None
        fire_now = any(
            monitor.missed_transfers >= self.miss_threshold
            for link, monitor in self.network.link_monitors.items()
            if link not in self.dead
        )
        self._verdict_cache = (epoch, self._dead_version, fire_now)
        return cycle if fire_now else None

    def detach(self) -> None:
        self.network.events.unsubscribe(self._on_event)
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
        # Resume rebuilds the monitors too: any cached verdict is stale.
        self._dead_version += 1
        self._verdict_cache = None
