"""Horizon reduction frees downstream buffers (paper section 4.1)."""

import pytest

from repro.channels import AdmissionError, TrafficSpec
from repro.channels.admission import buffer_bound
from repro.core.ports import EAST, NORTH, port_mask
from tests.channels.test_manager import bare_manager, make_fabric


def fabric_with_horizon(h=20):
    routers, manager = make_fabric(2, 1)
    for router in routers.values():
        router.control.write_horizon(port_mask(0, 1, 2, 3, 4), h)
    return routers, manager


TREE_SPEC = TrafficSpec(i_min=10)


def tree_fabric(horizons):
    """A 4x4 manager with ``(0,0)``'s port horizons set, holding the
    tree (0,0) -> {(3,0), (0,3)}: four levels deep, so d = 10 per hop."""
    controls, manager = bare_manager(4, 4)
    for port, horizon in horizons.items():
        controls[(0, 0)].write_horizon(port_mask(port), horizon)
    manager.establish((0, 0), [(3, 0), (0, 3)], TREE_SPEC, deadline=40)
    return controls, manager


def tree_buffers(manager):
    """Buffers the tree reserves at the two children of its source."""
    channel, = manager.channels
    return {node: packets for node, __, packets
            in channel.reservation.buffers if node in {(1, 0), (0, 1)}}


class TestMulticastBuffers:
    def test_child_buffer_uses_its_feeding_port(self):
        __, manager = tree_fabric({NORTH: 8})
        # (0,1) is fed over +y (horizon 8): 3 buffers, where the +x
        # horizon (0) would give 2.
        assert tree_buffers(manager) == {
            (1, 0): buffer_bound(TREE_SPEC, 0, 10, 10),
            (0, 1): buffer_bound(TREE_SPEC, 8, 10, 10),
        } == {(1, 0): 2, (0, 1): 3}


class TestReduceHorizon:
    def test_frees_buffers(self):
        routers, manager = fabric_with_horizon(h=20)
        channel = manager.establish((0, 0), (1, 0), TrafficSpec(i_min=5),
                                    deadline=20, adaptive=False)
        node_state = manager.admission.node((1, 0))
        before = node_state.reserved_total
        freed = manager.reduce_horizon((0, 0), EAST, 0)
        assert freed > 0
        assert node_state.reserved_total == before - freed
        assert routers[(0, 0)].control.horizons[EAST] == 0

    def test_reduction_enables_new_admissions(self):
        """The section 4.1 scenario: shrink h, admit more channels."""
        from repro.core import RouterParams

        params = RouterParams(tc_packet_slots=12)
        routers, manager = make_fabric(2, 1, params=params)
        for router in routers.values():
            router.control.write_horizon(port_mask(0, 1, 2, 3, 4), 40)
        spec = TrafficSpec(i_min=10)

        admitted = []
        with pytest.raises(AdmissionError):
            for _ in range(10):
                admitted.append(manager.establish(
                    (0, 0), (1, 0), spec, deadline=40, adaptive=False))
        stuck_at = len(admitted)
        manager.reduce_horizon((0, 0), EAST, 0)
        manager.reduce_horizon((1, 0), 4, 0)
        # Freed buffer space admits at least one more channel.
        manager.establish((0, 0), (1, 0), spec, deadline=40,
                          adaptive=False)
        assert len(manager.channels) == stuck_at + 1

    def test_raising_rejected(self):
        __, manager = fabric_with_horizon(h=5)
        manager.establish((0, 0), (1, 0), TrafficSpec(i_min=5),
                          deadline=20, adaptive=False)
        with pytest.raises(ValueError, match="only lowers"):
            manager.reduce_horizon((0, 0), EAST, 10)

    def test_noop_when_equal(self):
        __, manager = fabric_with_horizon(h=5)
        manager.establish((0, 0), (1, 0), TrafficSpec(i_min=5),
                          deadline=20, adaptive=False)
        assert manager.reduce_horizon((0, 0), EAST, 5) == 0

    def test_multicast_branch_keeps_its_own_feeder(self):
        """(0,0) feeds (1,0) over +x and (0,1) over +y: reducing the +x
        horizon frees at (1,0) only, never the buffer (0,1) still needs
        for the +y horizon."""
        controls, manager = tree_fabric({EAST: 8, NORTH: 8})
        freed = manager.reduce_horizon((0, 0), EAST, 0)
        assert tree_buffers(manager) == {(1, 0): 2, (0, 1): 3}
        assert freed == 1

    def test_unrelated_channels_untouched(self):
        routers, manager = make_fabric(2, 2)
        for router in routers.values():
            router.control.write_horizon(port_mask(0, 1, 2, 3, 4), 10)
        other = manager.establish((0, 1), (1, 1), TrafficSpec(i_min=5),
                                  deadline=20, adaptive=False)
        before = [tuple(b) for b in other.reservation.buffers]
        manager.reduce_horizon((0, 0), EAST, 0)
        assert [tuple(b) for b in other.reservation.buffers] == before
