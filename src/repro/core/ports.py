"""Port and direction conventions shared by the router and the network.

The router has four mesh links plus host ports.  Output-port indices
(also the bit positions in connection-table port masks):

====  =========  =========================
 0    EAST       +x link
 1    WEST       -x link
 2    NORTH      +y link
 3    SOUTH      -y link
 4    RECEPTION  delivery to the local host
====  =========  =========================

Input side, index 4 is the injection port (separate ports exist for the
time-constrained and best-effort classes, paper Figure 2).
"""

from __future__ import annotations

from typing import Callable

EAST = 0
WEST = 1
NORTH = 2
SOUTH = 3
RECEPTION = 4
INJECTION = 4

LINK_NAMES = ("east", "west", "north", "south")

#: Opposite link direction: a byte leaving EAST arrives on the
#: neighbour's WEST input.
OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}

#: Unit mesh displacement of each link direction (x, y).
DISPLACEMENT = {EAST: (1, 0), WEST: (-1, 0), NORTH: (0, 1), SOUTH: (0, -1)}


def port_mask(*ports: int) -> int:
    """Build a connection-table port mask from port indices."""
    mask = 0
    for port in ports:
        if not 0 <= port <= RECEPTION:
            raise ValueError(f"port index {port} out of range")
        mask |= 1 << port
    return mask


def dimension_ordered_port(x_offset: int, y_offset: int) -> int:
    """Dimension-ordered routing decision from remaining offsets.

    Route completely in x before y (paper section 3.3); offsets of zero
    mean the packet has arrived and goes to the reception port.
    """
    if x_offset > 0:
        return EAST
    if x_offset < 0:
        return WEST
    if y_offset > 0:
        return NORTH
    if y_offset < 0:
        return SOUTH
    return RECEPTION


def west_first_port(x_offset: int, y_offset: int,
                    pressure: Callable[[int], tuple]) -> int:
    """Minimal adaptive routing under the west-first turn model."""
    if x_offset < 0:
        return WEST  # all westward hops first (no turns into west)
    candidates = []
    if x_offset > 0:
        candidates.append(EAST)
    if y_offset > 0:
        candidates.append(NORTH)
    elif y_offset < 0:
        candidates.append(SOUTH)
    if not candidates:
        return RECEPTION
    if len(candidates) == 1:
        return candidates[0]
    # Free choice: pick the less-loaded productive direction.
    return min(candidates, key=pressure)
