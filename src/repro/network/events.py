"""Link lifecycle events shared by the network and the fault layer.

:class:`MeshNetwork` emits them when links are repaired and, once per
failure, when software learns a link is dead: announced
(``link-failed``) or *detected* by the
:class:`~repro.faults.watchdog.LinkWatchdog` from missed link-level
acknowledgements (``link-dead``).  Both feed the
:class:`~repro.faults.recovery.RecoveryController` through the same
tiny publish/subscribe mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

Node = tuple[int, int]

#: Administrative event kinds emitted by :class:`MeshNetwork`.
LINK_FAILED = "link-failed"
LINK_REPAIRED = "link-repaired"
#: Detection event kind emitted by the watchdog.
LINK_DEAD = "link-dead"


@dataclass(frozen=True)
class LinkEvent:
    """One link lifecycle transition on a directed link."""

    kind: str          # LINK_FAILED | LINK_REPAIRED | LINK_DEAD
    node: Node         # link source router
    direction: int     # output port (EAST/WEST/NORTH/SOUTH)
    cycle: int         # engine cycle at which the transition happened

    @property
    def link(self) -> tuple[Node, int]:
        return (self.node, self.direction)


class EventBus:
    """Minimal synchronous fan-out of :class:`LinkEvent`."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[LinkEvent], None]] = []

    def subscribe(self, callback: Callable[[LinkEvent], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[LinkEvent], None]) -> None:
        self._subscribers.remove(callback)

    def emit(self, event: LinkEvent) -> None:
        for callback in list(self._subscribers):
            callback(event)
