"""A link known dead no longer wedges the router downstream of it.

A cut that splits a time-constrained packet leaves a partial frame in
the next router's input.  The input discards a partial frame only when
a later byte arrives with the wrong index, and on a dead link none
does: the router held the bytes, and stayed busy, forever.  Once
software knows the link is dead — an announced failure, or the
watchdog's detection of a silent cut — ``MeshNetwork.flush_dead_link``
drops the frame.  A frame the router was cutting through has partly
gone on: the flush releases the router's stream and follows the frame
one link further.
"""

import pytest

from repro import TrafficSpec
from repro.core.packet import PacketMeta
from repro.core.ports import EAST, WEST, port_mask
from repro.faults import LinkWatchdog
from repro.network.network import MeshNetwork
from tests.reference import assert_oracle_ran


@pytest.mark.parametrize("engine", ["event", "exact"])
@pytest.mark.parametrize("learnt", ["announced", "announced-late",
                                    "detected"])
@pytest.mark.parametrize("cut_through", [False, True],
                         ids=["store-and-forward", "cut-through"])
def test_a_partial_frame_behind_a_dead_link_is_flushed(cut_through,
                                                      learnt, engine):
    # 3x1 mesh, one channel (0,0) -> (2,0); its first hop is cut while
    # (1,0) holds four bytes of the packet.  The packet is early at
    # (1,0), so cut-through does not engage and the bytes are framed.
    net = MeshNetwork(3, 1, cut_through=cut_through, engine=engine)
    channel = net.establish_channel((0, 0), (2, 0), TrafficSpec(i_min=10),
                                    deadline=60, adaptive=False)
    if learnt == "detected":
        # A silent cut is found once a packet's worth of bytes has died
        # on it: the second message supplies the rest.
        net.engine.add_component(LinkWatchdog(net))
    for _ in range(2 if learnt == "detected" else 1):
        net.send_message(channel, b"x" * 10)
    middle = net.routers[(1, 0)]
    port = middle.inputs.ports[WEST]
    while len(port.rx_bytes) < 4:
        net.run(1)
    net.fail_link((0, 0), EAST, announce=learnt == "announced")
    if learnt == "announced-late":
        # The bytes in flight land and the frame stays partial: the
        # router waits for a byte that never comes.
        net.run(200)
        assert 4 < len(port.rx_bytes) < net.params.tc_packet_bytes
        assert not middle.idle
        net.fail_link((0, 0), EAST)
        # Nothing is left inside, and the router's busy answer is gone.
        assert middle.quiescent
    # Changed from outside its step, the router was woken.
    assert net.engine.audit_schedule() == []

    net.drain(max_cycles=5_000)

    assert port.rx_bytes == [] and port.rx_meta is None
    assert middle.idle
    assert net.fault_counters().tc_resync_drops == 1
    assert net.log.tc_delivered == 0
    if learnt == "detected":
        assert net.known_dead_links == {((0, 0), EAST)}
        assert net.fault_stats.links_detected == 1
    if engine == "exact":
        assert_oracle_ran(net.engine)
    else:
        assert net.engine.audit_schedule() == []


@pytest.mark.parametrize("engine", ["event", "exact"])
@pytest.mark.parametrize("learnt", ["announced", "detected"])
def test_a_frame_cut_through_before_the_cut_is_flushed_one_link_on(
        learnt, engine):
    # The same mesh, but (1,0) may send the packet early: it cuts the
    # frame through to (2,0) as it arrives, and the cut comes right
    # after it has engaged.  Its stream then waits for bytes that never
    # come, and (2,0) holds, or is still receiving, the head of a frame
    # that never ends.
    net = MeshNetwork(3, 1, cut_through=True, engine=engine)
    channel = net.establish_channel((0, 0), (2, 0), TrafficSpec(i_min=10),
                                    deadline=60, adaptive=False)
    middle, last = net.routers[(1, 0)], net.routers[(2, 0)]
    middle.control.write_horizon(port_mask(EAST), 60)
    if learnt == "detected":
        watchdog = LinkWatchdog(net)
        net.engine.add_component(watchdog)
    for _ in range(2 if learnt == "detected" else 1):
        net.send_message(channel, b"x" * 10)
    port = middle.inputs.ports[WEST]
    for _ in range(200):
        if port.cut_port is not None:
            break
        net.run(1)
    assert port.cut_port == EAST
    net.fail_link((0, 0), EAST, announce=learnt == "announced")
    assert net.engine.audit_schedule() == []

    net.drain(max_cycles=5_000)

    assert port.cut_port is None
    assert middle.outputs.ports[EAST].tc_stream is None
    assert middle.idle and last.idle
    assert last.inputs.ports[WEST].rx_bytes == []
    # One frame cut short in each of the two routers it had reached.
    assert net.fault_counters().tc_resync_drops == 2
    assert middle.cut_through_count == 1
    assert net.log.tc_delivered == 0
    if engine == "exact":
        assert_oracle_ran(net.engine)
    else:
        assert net.engine.audit_schedule() == []


def test_only_the_bytes_past_a_packet_boundary_are_dropped():
    net = MeshNetwork(3, 1)
    router = net.routers[(1, 0)]
    port = router.inputs.ports[WEST]
    whole = list(range(net.params.tc_packet_bytes))
    port.rx_bytes = whole + [7, 7, 7]
    port.rx_meta = meta = PacketMeta()  # the whole frame's
    net.flush_dead_link((0, 0), EAST)
    assert port.rx_bytes == whole and port.rx_meta is meta
    assert router.tc_resync_drops == 1
    net.flush_dead_link((0, 0), EAST)  # nothing partial left
    assert router.tc_resync_drops == 1
