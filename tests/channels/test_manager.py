"""Tests for the channel manager (protocol software)."""

import pytest

from repro.channels import AdmissionError, ChannelManager, TrafficSpec
from repro.channels.admission import AdmissionController
from repro.channels.routing import RouteError
from repro.core import RealTimeRouter, RouterParams
from repro.core.connection_table import ControlInterface
from repro.core.ports import EAST, NORTH, RECEPTION, SOUTH, WEST


def make_fabric(width=2, height=2, params=None):
    params = params or RouterParams()
    routers = {
        (x, y): RealTimeRouter(params, router_id=(x, y))
        for x in range(width) for y in range(height)
    }
    controls = {node: router.control for node, router in routers.items()}
    return routers, ChannelManager(controls, AdmissionController(params),
                                   params)


def bare_manager(width, height, *, torus=False, dimensions=True):
    """A manager over connection tables with no data path behind them."""
    params = RouterParams()
    controls = {(x, y): ControlInterface(params)
                for x in range(width) for y in range(height)}
    mesh = (dict(width=width, height=height, torus=torus)
            if dimensions else {})
    return controls, ChannelManager(controls, params=params, **mesh)


def everything(controls, manager):
    """All state establishment and recovery can touch (a refused
    admission may leave an empty, lazily created link schedule)."""
    admission = manager.admission.state()
    admission["links"] = [link for link in admission["links"] if link[2]]
    return (manager.state(), admission,
            {node: control.state() for node, control in controls.items()})


def hops_of(channel):
    return [(hop.node, hop.out_port) for hop in channel.reservation.hops]


class TestUnicastEstablishment:
    def test_tables_programmed_along_route(self):
        routers, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 1), TrafficSpec(i_min=10),
                                    deadline=40, adaptive=False)
        # Route: (0,0) east, (1,0) north, (1,1) reception.
        entry0 = routers[(0, 0)].control.table.lookup(
            channel.source_connection_id)
        assert entry0.ports() == [EAST]
        next_id = entry0.outgoing_id
        entry1 = routers[(1, 0)].control.table.lookup(next_id)
        entry2 = routers[(1, 1)].control.table.lookup(entry1.outgoing_id)
        assert RECEPTION in entry2.ports()

    def test_delays_sum_to_channel_deadline(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 1), TrafficSpec(i_min=10),
                                    deadline=40)
        assert sum(channel.local_delays) == channel.deadline <= 40

    def test_ids_unique_per_router(self):
        __, manager = make_fabric()
        a = manager.establish((0, 0), (1, 1), TrafficSpec(i_min=20),
                              deadline=80, adaptive=False)
        b = manager.establish((0, 0), (1, 1), TrafficSpec(i_min=20),
                              deadline=80, adaptive=False)
        assert a.source_connection_id != b.source_connection_id

    def test_id_exhaustion(self):
        params = RouterParams(connections=4)
        routers, manager = make_fabric(params=params)
        spec = TrafficSpec(i_min=100)
        with pytest.raises(AdmissionError):
            for _ in range(10):
                manager.establish((0, 0), (1, 1), spec, deadline=300)

    def test_explicit_route(self):
        from repro.channels.routing import y_first_route
        routers, manager = make_fabric()
        route = y_first_route((0, 0), (1, 1))
        channel = manager.establish((0, 0), (1, 1), TrafficSpec(i_min=10),
                                    deadline=40, route=route)
        entry = routers[(0, 0)].control.table.lookup(
            channel.source_connection_id)
        from repro.core.ports import NORTH
        assert entry.ports() == [NORTH]

    def test_unknown_node_rejected(self):
        __, manager = make_fabric(2, 2)
        with pytest.raises(ValueError):
            manager.establish((0, 0), (5, 5), TrafficSpec(i_min=10),
                              deadline=100)


class TestMessages:
    def test_message_stamping(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 0), TrafficSpec(i_min=10),
                                    deadline=30)
        packets, arrival, release = channel.make_message(b"hi", now_tick=5)
        assert arrival == 5 and release == 5
        assert len(packets) == 1
        packet = packets[0]
        assert packet.connection_id == channel.source_connection_id
        assert packet.meta.absolute_deadline == 5 + channel.deadline

    def test_back_to_back_messages_spaced(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 0), TrafficSpec(i_min=10),
                                    deadline=30)
        __, a1, __ = channel.make_message(b"", now_tick=0)
        __, a2, r2 = channel.make_message(b"", now_tick=0)
        assert a2 - a1 == 10
        assert r2 == 10  # held until logical arrival (horizon 0)

    def test_fragmentation(self):
        __, manager = make_fabric()
        spec = TrafficSpec(i_min=10, s_max=40)
        channel = manager.establish((0, 0), (1, 0), spec, deadline=30)
        packets, __, __ = channel.make_message(b"Z" * 40, now_tick=0)
        assert len(packets) == 3
        assert [p.meta.sequence for p in packets] == [0, 1, 2]

    def test_oversized_message_rejected(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 0), TrafficSpec(i_min=10),
                                    deadline=30)
        with pytest.raises(ValueError):
            channel.make_message(b"x" * 19, now_tick=0)


class TestJitterBound:
    def test_multi_hop_jitter(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 1), TrafficSpec(i_min=10),
                                    deadline=40, adaptive=False)
        delays = channel.local_delays
        assert channel.jitter_bound == delays[-1] + delays[-2]

    def test_single_hop_jitter(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (0, 0), TrafficSpec(i_min=10),
                                    deadline=20)
        assert channel.jitter_bound == channel.local_delays[0]


class TestMulticastEstablishment:
    def test_common_id_and_masks(self):
        routers, manager = make_fabric(3, 1)
        channel = manager.establish((0, 0), [(1, 0), (2, 0)],
                                    TrafficSpec(i_min=10), deadline=60)
        cid = channel.source_connection_id
        middle = routers[(1, 0)].control.table.lookup(cid)
        assert set(middle.ports()) == {EAST, RECEPTION}
        assert middle.outgoing_id == cid

    def test_deadline_too_tight(self):
        __, manager = make_fabric(3, 3)
        with pytest.raises(AdmissionError):
            manager.establish((0, 0), [(2, 2)], TrafficSpec(i_min=10),
                              deadline=5)


class TestTeardown:
    def test_invalidates_tables_and_frees_ids(self):
        routers, manager = make_fabric()
        spec = TrafficSpec(i_min=10)
        channel = manager.establish((0, 0), (1, 0), spec, deadline=30)
        cid = channel.source_connection_id
        manager.teardown(channel)
        from repro.core.connection_table import UnknownConnectionError
        with pytest.raises(UnknownConnectionError):
            routers[(0, 0)].control.table.lookup(cid)
        # The id is reusable immediately.
        again = manager.establish((0, 0), (1, 0), spec, deadline=30)
        assert again.source_connection_id == cid

    def test_double_teardown_rejected(self):
        __, manager = make_fabric()
        channel = manager.establish((0, 0), (1, 0), TrafficSpec(i_min=10),
                                    deadline=30)
        manager.teardown(channel)
        with pytest.raises(ValueError):
            manager.teardown(channel)


class TestRouteSearch:
    """Routes the manager picks by search, with no network to help."""

    def test_torus_establishment_crosses_a_wrap_link(self):
        controls, manager = bare_manager(4, 4, torus=True)
        channel = manager.establish((0, 0), (3, 0), TrafficSpec(i_min=10),
                                    deadline=40)
        assert hops_of(channel) == [((0, 0), WEST), ((3, 0), RECEPTION)]
        entry = controls[(0, 0)].table.lookup(channel.source_connection_id)
        assert entry.ports() == [WEST]

    def test_torus_search_keeps_off_failed_links(self):
        __, manager = bare_manager(4, 4, torus=True)
        channel = manager.establish((0, 0), (3, 0), TrafficSpec(i_min=10),
                                    deadline=60, failed={((0, 0), WEST)})
        assert ((0, 0), WEST) not in hops_of(channel)
        assert hops_of(channel)[-1] == ((3, 0), RECEPTION)

    def test_torus_manager_needs_the_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            ChannelManager({(0, 0): ControlInterface(RouterParams())},
                           torus=True)

    def test_unicast_hops_is_what_establishment_admits(self):
        __, manager = bare_manager(3, 3)
        hops = manager.unicast_hops((0, 0), (2, 1), adaptive=False)
        channel = manager.establish((0, 0), (2, 1), TrafficSpec(i_min=10),
                                    deadline=60, adaptive=False)
        assert channel.reservation.hops == hops


class TestRecover:
    SPEC = TrafficSpec(i_min=4)

    def victim_and_saturators(self):
        # The only detour of (0,0)->(1,0) around its cut east link runs
        # over (0,1) east, which two saturators fill completely.
        controls, manager = bare_manager(2, 2)
        victim = manager.establish((0, 0), (1, 0), self.SPEC, deadline=120,
                                   label="victim")
        for k in range(2):
            manager.establish((0, 1), (1, 1), self.SPEC, deadline=80,
                              label=f"sat-{k}")
        return controls, manager, victim

    def test_detour_replaces_the_old_path(self):
        controls, manager = bare_manager(2, 2)
        channel = manager.establish((0, 0), (1, 0), self.SPEC, deadline=120,
                                    label="victim")
        channel.make_message(b"", now_tick=0)
        replacement = manager.recover(channel, {((0, 0), EAST)})
        assert hops_of(replacement)[0] == ((0, 0), NORTH)
        assert ((0, 0), EAST) not in hops_of(replacement)
        assert replacement.label == "victim"
        assert replacement.regulator is channel.regulator
        assert replacement._sequence == channel._sequence == 1
        assert manager.channels == [replacement]
        # The old path's entries are gone and its ids free again.
        for node, control in controls.items():
            mine = [cid for entry_node, cid in replacement.table_entries
                    if entry_node == node]
            assert control.table.programmed_ids() == mine
            assert manager._used_ids[node] == set(mine)

    def test_torus_multicast_detour_crosses_wrap_links(self):
        # Establishment merges mesh routes (three hops a branch); with
        # the first east link cut, the detour tree takes the two wrap
        # links and is programmed parents before children.
        controls, manager = bare_manager(4, 4, torus=True)
        channel = manager.establish((0, 0), [(3, 0), (0, 3)],
                                    TrafficSpec(i_min=10), deadline=60)
        replacement = manager.recover(channel, {((0, 0), EAST)})
        assert hops_of(replacement) == [
            ((0, 0), WEST), ((0, 0), SOUTH),
            ((3, 0), RECEPTION), ((0, 3), RECEPTION)]
        nodes = [node for node, __ in replacement.table_entries]
        assert nodes[0] == (0, 0) and set(nodes[1:]) == {(3, 0), (0, 3)}
        cid = replacement.source_connection_id
        assert controls[(0, 0)].table.lookup(cid).ports() == [WEST, SOUTH]
        assert controls[(3, 0)].table.lookup(cid).ports() == [RECEPTION]
        assert manager.channels == [replacement]

    def test_needs_the_mesh_dimensions(self):
        __, manager = bare_manager(2, 2, dimensions=False)
        channel = manager.establish((0, 0), (1, 0), self.SPEC, deadline=120)
        with pytest.raises(ValueError, match="width and height"):
            manager.recover(channel, {((0, 0), EAST)})
        assert manager.channels == [channel]

    def test_old_channel_intact_on_admission_error(self):
        controls, manager, victim = self.victim_and_saturators()
        before = everything(controls, manager)
        with pytest.raises(AdmissionError):
            manager.recover(victim, {((0, 0), EAST)})
        assert everything(controls, manager) == before
        assert manager.find("victim") is victim

    def test_old_channel_intact_on_route_error(self):
        controls, manager, victim = self.victim_and_saturators()
        before = everything(controls, manager)
        with pytest.raises(RouteError, match="'victim'"):
            manager.recover(victim, {((0, 0), EAST), ((0, 0), NORTH)})
        assert everything(controls, manager) == before
        assert manager.find("victim") is victim

    def test_foreign_channel_rejected(self):
        __, manager = bare_manager(2, 2)
        __, other = bare_manager(2, 2)
        channel = other.establish((0, 0), (1, 0), self.SPEC, deadline=120)
        with pytest.raises(ValueError, match="not managed"):
            manager.recover(channel, set())
