"""The router's connection table and its control interface.

Every time-constrained packet carries a connection identifier; the
router indexes this table to learn the connection's local delay bound
``d``, the bit mask of output ports it fans out to (table-driven
multicast), and the connection identifier to stamp into the header for
the next hop (paper sections 3.3 and 4.1).

The controlling processor programs the table through a narrow control
interface — a sequence of four write operations per connection, plus a
separate command for the per-port horizon registers (paper Table 3).
The four-write protocol is modelled faithfully so that tests can
exercise partially-programmed entries and interleaved updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.params import OUTPUT_PORTS, RouterParams


class UnknownConnectionError(KeyError):
    """A packet arrived for a connection that is not programmed."""


class ControlProtocolError(RuntimeError):
    """The control interface was driven out of protocol order."""


@dataclass
class ConnectionEntry:
    """One programmed connection at this router."""

    outgoing_id: int
    delay: int
    port_mask: int
    valid: bool = True

    def ports(self) -> list[int]:
        """Decode the bit mask into a list of output-port indices."""
        return [p for p in range(OUTPUT_PORTS) if self.port_mask & (1 << p)]


class ConnectionTable:
    """Fixed-size table of :class:`ConnectionEntry`, indexed by id."""

    def __init__(self, params: RouterParams) -> None:
        self.params = params
        self._entries: list[Optional[ConnectionEntry]] = (
            [None] * params.connections
        )

    def lookup(self, connection_id: int) -> ConnectionEntry:
        if not 0 <= connection_id < self.params.connections:
            raise UnknownConnectionError(
                f"connection id {connection_id} out of table range"
            )
        entry = self._entries[connection_id]
        if entry is None or not entry.valid:
            raise UnknownConnectionError(
                f"connection {connection_id} is not programmed"
            )
        return entry

    def is_programmed(self, connection_id: int) -> bool:
        entry = self._entries[connection_id]
        return entry is not None and entry.valid

    def store(self, connection_id: int, entry: ConnectionEntry) -> None:
        if not 0 <= connection_id < self.params.connections:
            raise ValueError("connection id out of table range")
        self._entries[connection_id] = entry

    def invalidate(self, connection_id: int) -> None:
        """Tear down a connection (channel release)."""
        entry = self._entries[connection_id]
        if entry is not None:
            entry.valid = False

    def programmed_ids(self) -> list[int]:
        return [cid for cid, e in enumerate(self._entries)
                if e is not None and e.valid]

    def state(self) -> dict:
        """Checkpoint state: every written entry (valid or torn down)."""
        return {"entries": [
            [cid, e.outgoing_id, e.delay, e.port_mask, e.valid]
            for cid, e in enumerate(self._entries) if e is not None
        ]}

    def load_state(self, state: dict) -> None:
        self._entries = [None] * self.params.connections
        for cid, outgoing_id, delay, port_mask, valid in state["entries"]:
            self._entries[cid] = ConnectionEntry(
                outgoing_id=outgoing_id, delay=delay,
                port_mask=port_mask, valid=valid,
            )


class ControlInterface:
    """The four-write programming protocol of paper Table 3.

    A connection entry is written as::

        select_entry(incoming_id)   # write 1: choose the table row
        write_outgoing_id(next_id)  # write 2: id used at the next hop
        write_delay(d)              # write 3: local delay bound
        write_port_mask(mask)       # write 4: output fan-out; commits

    The entry only becomes valid when the fourth write lands, so a
    packet can never observe a half-programmed row.  Horizon registers
    are written independently with :meth:`write_horizon`.
    """

    def __init__(self, params: RouterParams) -> None:
        self.params = params
        self.table = ConnectionTable(params)
        self.horizons = [params.default_horizon] * OUTPUT_PORTS
        #: Called after every :meth:`write_horizon` (the owning router's
        #: dormancy deadline depends on the registers); None: nobody to tell.
        self.on_horizon_write: Optional[Callable[[], None]] = None
        self._pending_id: Optional[int] = None
        self._pending_outgoing: Optional[int] = None
        self._pending_delay: Optional[int] = None

    # -- the four writes ------------------------------------------------

    def select_entry(self, incoming_id: int) -> None:
        if not 0 <= incoming_id < self.params.connections:
            raise ValueError("incoming connection id out of range")
        self._pending_id = incoming_id
        self._pending_outgoing = None
        self._pending_delay = None

    def write_outgoing_id(self, outgoing_id: int) -> None:
        if self._pending_id is None:
            raise ControlProtocolError("no entry selected")
        if not 0 <= outgoing_id < self.params.connections:
            raise ValueError("outgoing connection id out of range")
        self._pending_outgoing = outgoing_id

    def write_delay(self, delay: int) -> None:
        if self._pending_id is None or self._pending_outgoing is None:
            raise ControlProtocolError("connection writes out of order")
        if not 0 <= delay < self.params.half_range:
            raise ValueError(
                f"delay bound {delay} violates the half-range rollover "
                f"condition (must be in [0, {self.params.half_range}))"
            )
        self._pending_delay = delay

    def write_port_mask(self, port_mask: int) -> None:
        if (self._pending_id is None or self._pending_outgoing is None
                or self._pending_delay is None):
            raise ControlProtocolError("connection writes out of order")
        if not 0 < port_mask < (1 << OUTPUT_PORTS):
            raise ValueError("port mask must select at least one port")
        self.table.store(self._pending_id, ConnectionEntry(
            outgoing_id=self._pending_outgoing,
            delay=self._pending_delay,
            port_mask=port_mask,
        ))
        self._pending_id = None
        self._pending_outgoing = None
        self._pending_delay = None

    # -- horizon registers ----------------------------------------------

    def write_horizon(self, port_mask: int, horizon: int) -> None:
        """Set the horizon register of every port selected by the mask."""
        if not 0 < port_mask < (1 << OUTPUT_PORTS):
            raise ValueError("port mask must select at least one port")
        if not 0 <= horizon < self.params.half_range:
            raise ValueError(
                f"horizon {horizon} violates the half-range rollover "
                f"condition (must be in [0, {self.params.half_range}))"
            )
        for port in range(OUTPUT_PORTS):
            if port_mask & (1 << port):
                self.horizons[port] = horizon
        if self.on_horizon_write is not None:
            self.on_horizon_write()

    # -- checkpointing ----------------------------------------------------

    def state(self) -> dict:
        return {
            "table": self.table.state(),
            "horizons": list(self.horizons),
            "pending": [self._pending_id, self._pending_outgoing,
                        self._pending_delay],
        }

    def load_state(self, state: dict) -> None:
        self.table.load_state(state["table"])
        self.horizons = [int(h) for h in state["horizons"]]
        self._pending_id, self._pending_outgoing, self._pending_delay = (
            state["pending"]
        )

    # -- convenience ------------------------------------------------------

    def program_connection(self, incoming_id: int, outgoing_id: int,
                           delay: int, port_mask: int) -> None:
        """Issue the full four-write sequence for one connection."""
        self.select_entry(incoming_id)
        self.write_outgoing_id(outgoing_id)
        self.write_delay(delay)
        self.write_port_mask(port_mask)
