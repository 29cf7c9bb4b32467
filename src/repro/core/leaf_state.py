"""Per-packet scheduling state held at the comparator-tree leaves.

Each leaf corresponds to one packet-memory slot and stores the small
amount of state the scheduler needs: the packet's logical arrival time
``l(m)``, its local deadline ``l(m) + d``, and a bit mask of the output
ports it must still be transmitted on (paper Figure 5).  A leaf is a
value: installing a packet or dropping a port stores a new one, and
every free slot holds the one :data:`EMPTY_LEAF`, so a free slot costs
a list entry and nothing else.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, NamedTuple

from repro.core.params import OUTPUT_PORTS, RouterParams


class Leaf(NamedTuple):
    """One comparator-tree leaf (all times are wrapped clock values)."""

    arrival: int = 0        # logical arrival time l(m)
    deadline: int = 0       # local deadline l(m) + d
    port_mask: int = 0      # remaining output ports (0 == empty slot)

    @property
    def occupied(self) -> bool:
        return self.port_mask != 0

    def eligible_for(self, port: int) -> bool:
        return bool(self.port_mask & (1 << port))


#: What every free slot holds: one shared value, never a copy.
EMPTY_LEAF = Leaf()


class LeafArray:
    """The array of leaves, indexed by packet-memory slot address."""

    def __init__(self, params: RouterParams) -> None:
        self.params = params
        self._leaves = [EMPTY_LEAF] * params.tc_packet_slots
        # Indices with ``port_mask != 0``, ascending.  The hardware
        # knows which slots it handed out; the model need not rescan.
        # Derived from the masks, never serialised.
        self._occupied: list[int] = []

    def __len__(self) -> int:
        return len(self._leaves)

    def __getitem__(self, index: int) -> Leaf:
        return self._leaves[index]

    def install(self, index: int, arrival: int, deadline: int,
                port_mask: int) -> None:
        """Fill a leaf when a packet lands in the matching memory slot."""
        if self._leaves[index] is not EMPTY_LEAF:
            raise RuntimeError(f"leaf {index} installed while occupied")
        if not 0 < port_mask < (1 << OUTPUT_PORTS):
            raise ValueError("leaf port mask must select at least one port")
        mask = self.params.clock_range - 1
        self._leaves[index] = Leaf(arrival & mask, deadline & mask, port_mask)
        insort(self._occupied, index)

    def clear_port(self, index: int, port: int) -> bool:
        """Drop one port from a leaf's mask; True when the slot frees.

        Called when an output port commits to transmitting the packet;
        the last port to transmit (multicast) empties the slot (paper
        section 4.2).
        """
        leaf = self._leaves[index]
        bit = 1 << port
        if not leaf.port_mask & bit:
            raise RuntimeError(
                f"port {port} cleared on leaf {index} without holding it"
            )
        remaining = leaf.port_mask & ~bit
        if remaining:
            self._leaves[index] = Leaf(leaf.arrival, leaf.deadline, remaining)
            return False
        self._leaves[index] = EMPTY_LEAF
        del self._occupied[bisect_left(self._occupied, index)]
        return True

    def occupied_indices(self) -> Iterator[int]:
        """Occupied leaf indices in ascending order (the tournament's
        left-biased tie-break depends on the order)."""
        return iter(self._occupied)

    def state(self) -> dict:
        """Checkpoint state: only the occupied leaves, by index."""
        leaves = self._leaves
        return {"leaves": [[i, *leaves[i]] for i in self._occupied]}

    def load_state(self, state: dict) -> None:
        self._leaves = [EMPTY_LEAF] * len(self._leaves)
        for index, arrival, deadline, port_mask in state["leaves"]:
            self._leaves[index] = Leaf(arrival, deadline, port_mask)
        self._occupied = sorted(entry[0] for entry in state["leaves"])

    @property
    def occupancy(self) -> int:
        return len(self._occupied)
