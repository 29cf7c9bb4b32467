"""The real-time router chip model (the paper's primary contribution).

Public surface: :class:`RouterParams` configures a chip;
:class:`RealTimeRouter` is the cycle-accurate router;
:class:`ReferenceLinkScheduler` is the golden three-queue link
discipline; :func:`estimate_cost` reproduces the chip-complexity table.
"""

from repro.core.clock import RolloverClock
from repro.core.comparator_tree import ComparatorTree, SchedulerPipeline, Selection
from repro.core.connection_table import (
    ConnectionEntry,
    ConnectionTable,
    ControlInterface,
    ControlProtocolError,
    UnknownConnectionError,
)
from repro.core.cost import ChipCost, estimate_cost
from repro.core.flit_buffer import CreditCounter, FlitBuffer
from repro.core.leaf_state import Leaf, LeafArray
from repro.core.link_scheduler import ReferenceLinkScheduler, ScheduledPacket
from repro.core.packet import (
    BestEffortPacket,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
    phits_of,
)
from repro.core.packet_memory import ChunkBus, IdleAddressFifo, PacketMemory
from repro.core.params import (
    MEMORY_CHUNK_BYTES,
    MESH_LINKS,
    OUTPUT_PORTS,
    PAPER_PARAMS,
    TC_PACKET_BYTES,
    TC_PAYLOAD_BYTES,
    RouterParams,
)
from repro.core.ports import (
    EAST,
    NORTH,
    RECEPTION,
    SOUTH,
    WEST,
    dimension_ordered_port,
    port_mask,
)
from repro.core.router import BufferOverflowError, LinkSignal, RealTimeRouter
from repro.core.sorting_key import (
    SortingKey,
    compute_key,
    packed_key,
    unpack_key,
    within_horizon,
)

__all__ = [
    "BestEffortPacket",
    "BufferOverflowError",
    "ChipCost",
    "ChunkBus",
    "ComparatorTree",
    "ConnectionEntry",
    "ConnectionTable",
    "ControlInterface",
    "ControlProtocolError",
    "CreditCounter",
    "EAST",
    "FlitBuffer",
    "IdleAddressFifo",
    "Leaf",
    "LeafArray",
    "LinkSignal",
    "MEMORY_CHUNK_BYTES",
    "MESH_LINKS",
    "NORTH",
    "OUTPUT_PORTS",
    "PAPER_PARAMS",
    "PacketMemory",
    "PacketMeta",
    "Phit",
    "RECEPTION",
    "RealTimeRouter",
    "ReferenceLinkScheduler",
    "RolloverClock",
    "RouterParams",
    "SOUTH",
    "ScheduledPacket",
    "SchedulerPipeline",
    "Selection",
    "SortingKey",
    "TC_PACKET_BYTES",
    "TC_PAYLOAD_BYTES",
    "TimeConstrainedPacket",
    "UnknownConnectionError",
    "WEST",
    "compute_key",
    "dimension_ordered_port",
    "estimate_cost",
    "packed_key",
    "phits_of",
    "port_mask",
    "unpack_key",
    "within_horizon",
]
