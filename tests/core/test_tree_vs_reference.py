"""Golden-model equivalence: comparator tree vs. reference scheduler.

The chip's comparator tree (unsorted leaves, tournament per decision)
and the model-level three-queue scheduler (sorted heaps) implement the
same discipline.  These tests drain identical packet sets through both
and require identical service orders — the strongest internal
consistency check on the scheduling core.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    ReferenceLinkScheduler,
    RolloverClock,
    RouterParams,
    ScheduledPacket,
)
from repro.core.comparator_tree import ComparatorTree
from repro.core.leaf_state import LeafArray


def drain_tree(packets, horizon, ticks=400):
    """Serve one packet per tick from the comparator tree."""
    params = RouterParams()
    leaves = LeafArray(params)
    tree = ComparatorTree(params, leaves)
    clock = RolloverClock(bits=8)
    for index, (arrival, deadline) in enumerate(packets):
        leaves.install(index, arrival & 255, deadline & 255, port_mask=1)
    served = []
    for tick in range(ticks):
        clock.set(tick)
        selection = tree.select_for_port(0, clock, horizon)
        if selection is None:
            continue
        key = selection.key
        if key.early and key.time_field > horizon:
            continue  # not transmissible yet
        leaves.clear_port(selection.leaf_index, 0)
        served.append(selection.leaf_index)
        if len(served) == len(packets):
            break
    return served


def drain_reference(packets, horizon, ticks=400):
    scheduler = ReferenceLinkScheduler(horizon=horizon)
    for index, (arrival, deadline) in enumerate(packets):
        scheduler.add_tc(ScheduledPacket(arrival, deadline, index), now=0)
    served = []
    for tick in range(ticks):
        choice = scheduler.pick(tick)
        if choice is not None:
            served.append(choice[1].payload)
        if len(served) == len(packets):
            break
    return served


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        packets=st.lists(
            st.tuples(st.integers(0, 60),     # arrival
                      st.integers(1, 50)),    # slack
            min_size=1, max_size=20,
        ),
        horizon=st.integers(0, 12),
    )
    def test_same_service_order(self, packets, horizon):
        normalised = [(a, a + s) for a, s in packets]
        tree_order = drain_tree(normalised, horizon)
        ref_order = drain_reference(normalised, horizon)
        assert tree_order == ref_order

    def test_directed_example(self):
        # tick 0: EDF among on-time packets -> p1 (deadline 10).
        # tick 1: p0 is on-time and beats the still-early p2.
        # p2 serves at its arrival, p3 at its arrival.
        packets = [(0, 40), (0, 10), (5, 12), (30, 35)]
        assert drain_tree(packets, 0) == drain_reference(packets, 0) \
            == [1, 0, 2, 3]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_randomised_heavy_sets(self, seed):
        rng = random.Random(seed)
        packets = []
        for _ in range(40):
            arrival = rng.randrange(0, 80)
            packets.append((arrival, arrival + rng.randrange(1, 60)))
        assert drain_tree(packets, 4, ticks=600) == \
            drain_reference(packets, 4, ticks=600)


class TestEqualKeyTieBreak:
    """Equal keys resolve toward the lower leaf index (a left-biased
    tree), whatever order the leaves were installed or freed in."""

    def test_lowest_index_wins_among_equal_keys(self):
        params = RouterParams()
        leaves = LeafArray(params)
        tree = ComparatorTree(params, leaves)
        clock = RolloverClock(bits=8)
        clock.set(10)
        # Installed in descending order, with an ineligible leaf and a
        # worse key mixed in below the eventual winner's index.
        for index in (200, 9, 77, 30):
            leaves.install(index, arrival=4, deadline=20, port_mask=1)
        leaves.install(2, arrival=4, deadline=20, port_mask=2)
        leaves.install(5, arrival=4, deadline=90, port_mask=1)
        served = []
        while (selection := tree.select_for_port(0, clock, 0)) is not None:
            served.append(selection.leaf_index)
            leaves.clear_port(selection.leaf_index, 0)
        assert served == [9, 30, 77, 200, 5]
        # A freed slot that is refilled with the same key goes back to
        # its place in the order.
        leaves.install(77, arrival=4, deadline=20, port_mask=1)
        leaves.install(9, arrival=4, deadline=20, port_mask=1)
        assert tree.select_for_port(0, clock, 0).leaf_index == 9
