"""Per-packet scheduling state held at the comparator-tree leaves.

Each leaf corresponds to one packet-memory slot and stores the small
amount of state the scheduler needs: the packet's logical arrival time
``l(m)``, its local deadline ``l(m) + d``, and a bit mask of the output
ports it must still be transmitted on (paper Figure 5).  A mask of zero
means the leaf — and the matching memory slot — is free.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.params import OUTPUT_PORTS, RouterParams


@dataclass
class Leaf:
    """One comparator-tree leaf (all times are wrapped clock values)."""

    arrival: int = 0        # logical arrival time l(m)
    deadline: int = 0       # local deadline l(m) + d
    port_mask: int = 0      # remaining output ports (0 == empty slot)

    @property
    def occupied(self) -> bool:
        return self.port_mask != 0

    def eligible_for(self, port: int) -> bool:
        return bool(self.port_mask & (1 << port))


class LeafArray:
    """The array of leaves, indexed by packet-memory slot address."""

    def __init__(self, params: RouterParams) -> None:
        self.params = params
        self._leaves = [Leaf() for _ in range(params.tc_packet_slots)]
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
        leaf = self._leaves[index]
        if leaf.occupied:
            raise RuntimeError(f"leaf {index} installed while occupied")
        if not 0 < port_mask < (1 << OUTPUT_PORTS):
            raise ValueError("leaf port mask must select at least one port")
        mask = self.params.clock_range - 1
        leaf.arrival = arrival & mask
        leaf.deadline = deadline & mask
        leaf.port_mask = port_mask
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
        leaf.port_mask &= ~bit
        if leaf.port_mask:
            return False
        del self._occupied[bisect_left(self._occupied, index)]
        return True

    def occupied_indices(self) -> Iterator[int]:
        """Occupied leaf indices in ascending order (the tournament's
        left-biased tie-break depends on the order)."""
        return iter(self._occupied)

    def state(self) -> dict:
        """Checkpoint state: only the occupied leaves, by index."""
        leaves = self._leaves
        return {"leaves": [
            [i, leaves[i].arrival, leaves[i].deadline, leaves[i].port_mask]
            for i in self._occupied
        ]}

    def load_state(self, state: dict) -> None:
        for leaf in self._leaves:
            leaf.arrival = leaf.deadline = leaf.port_mask = 0
        for index, arrival, deadline, port_mask in state["leaves"]:
            leaf = self._leaves[index]
            leaf.arrival = arrival
            leaf.deadline = deadline
            leaf.port_mask = port_mask
        self._occupied = [
            i for i, leaf in enumerate(self._leaves) if leaf.occupied
        ]

    @property
    def occupancy(self) -> int:
        return len(self._occupied)
