"""Fast packet-slot-level simulation of the link discipline."""

from repro.model.slotsim import (
    ServiceEvent,
    SlotChannel,
    SlotPacket,
    SlotSimulator,
)

__all__ = [
    "ServiceEvent",
    "SlotChannel",
    "SlotPacket",
    "SlotSimulator",
]
