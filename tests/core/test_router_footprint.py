"""A router costs what it holds.

The paper's chip has one 256 x 20-byte packet SRAM and a leaf register
file (section 3.4, Figure 5).  A fresh model of it holds one byte array
and a list in which every free slot is the same empty leaf, so a slot
that never holds a packet allocates nothing.
"""

import gc

from repro.core import RealTimeRouter, RouterParams
from repro.core.leaf_state import EMPTY_LEAF


def test_every_free_slot_holds_the_one_empty_leaf():
    leaves = RealTimeRouter(RouterParams()).leaves
    assert all(leaves[slot] is EMPTY_LEAF for slot in range(len(leaves)))


def test_the_packet_memory_is_one_array():
    params = RouterParams()
    sram = RealTimeRouter(params).memory._sram
    assert type(sram) is bytearray
    assert len(sram) == params.memory_bytes


def test_a_fresh_router_builds_fewer_than_200_tracked_objects():
    RealTimeRouter(RouterParams())  # first-use caches, outside the count
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        router = RealTimeRouter(RouterParams())
        built = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert router.idle
    assert built < 200, f"{built} gc-tracked objects per router"
