"""Tests for per-packet leaf state (paper Figure 5 leaves)."""

import pytest

from repro.core.leaf_state import EMPTY_LEAF, LeafArray
from repro.core.params import RouterParams
from repro.core.ports import EAST, NORTH, RECEPTION, port_mask


@pytest.fixture
def leaves() -> LeafArray:
    return LeafArray(RouterParams(tc_packet_slots=8))


class TestInstall:
    def test_install_and_read(self, leaves):
        leaves.install(3, arrival=10, deadline=22,
                       port_mask=port_mask(EAST))
        leaf = leaves[3]
        assert leaf.occupied
        assert leaf.arrival == 10
        assert leaf.deadline == 22
        assert leaf.eligible_for(EAST)
        assert not leaf.eligible_for(NORTH)

    def test_times_wrap_to_clock(self, leaves):
        leaves.install(0, arrival=300, deadline=310, port_mask=1)
        assert leaves[0].arrival == 44
        assert leaves[0].deadline == 54

    def test_double_install_rejected(self, leaves):
        leaves.install(1, 0, 1, port_mask=1)
        with pytest.raises(RuntimeError):
            leaves.install(1, 0, 1, port_mask=1)

    def test_empty_mask_rejected(self, leaves):
        with pytest.raises(ValueError):
            leaves.install(0, 0, 1, port_mask=0)


class TestClearPort:
    def test_multicast_clears_one_bit_at_a_time(self, leaves):
        leaves.install(2, 0, 5, port_mask=port_mask(EAST, RECEPTION))
        assert leaves.clear_port(2, EAST) is False
        assert leaves[2].occupied
        assert leaves.clear_port(2, RECEPTION) is True
        assert not leaves[2].occupied

    def test_leaves_are_values_and_a_freed_slot_holds_the_empty_one(
            self, leaves):
        leaves.install(2, 7, 9, port_mask=port_mask(EAST, RECEPTION))
        held = leaves[2]
        leaves.clear_port(2, EAST)
        assert leaves[2] == (7, 9, port_mask(RECEPTION))
        leaves.clear_port(2, RECEPTION)
        assert leaves[2] is EMPTY_LEAF
        assert held == (7, 9, port_mask(EAST, RECEPTION))  # unchanged

    def test_clear_unheld_port_rejected(self, leaves):
        leaves.install(2, 0, 5, port_mask=port_mask(EAST))
        with pytest.raises(RuntimeError):
            leaves.clear_port(2, NORTH)

    def test_occupancy_tracking(self, leaves):
        leaves.install(0, 0, 1, port_mask=1)
        leaves.install(5, 0, 1, port_mask=1)
        assert leaves.occupancy == 2
        assert sorted(leaves.occupied_indices()) == [0, 5]
        leaves.clear_port(0, 0)
        assert leaves.occupancy == 1


class TestOccupiedIndexMaintenance:
    """The maintained occupied-index list against a scan of the masks."""

    @staticmethod
    def _scan(leaves):
        return [i for i in range(len(leaves)) if leaves[i].port_mask != 0]

    def _check(self, leaves):
        indices = list(leaves.occupied_indices())
        assert indices == self._scan(leaves)  # same set, ascending
        assert leaves.occupancy == len(indices)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_install_clear_load_sequence(self, seed):
        import json
        import random

        rng = random.Random(seed)
        params = RouterParams(tc_packet_slots=32)
        leaves = LeafArray(params)
        for _ in range(600):
            roll = rng.random()
            occupied = self._scan(leaves)
            if roll < 0.5 and len(occupied) < len(leaves):
                index = rng.choice(
                    [i for i in range(len(leaves)) if i not in occupied])
                leaves.install(index, rng.randrange(256),
                               rng.randrange(256),
                               port_mask=rng.randrange(1, 32))
            elif roll < 0.95 and occupied:
                index = rng.choice(occupied)
                port = rng.choice([p for p in range(5)
                                   if leaves[index].eligible_for(p)])
                freed = leaves.clear_port(index, port)
                assert freed == (leaves[index].port_mask == 0)
            else:
                # Checkpoint round-trip into a used array: the derived
                # list is rebuilt from the document, not carried over.
                document = json.loads(json.dumps(leaves.state()))
                other = LeafArray(params)
                other.install(rng.randrange(len(other)), 0, 1, port_mask=1)
                other.load_state(document)
                self._check(other)
                assert other.state() == document
                leaves = other
            self._check(leaves)
