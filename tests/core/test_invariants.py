"""Soak the router under invariant checking every cycle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BestEffortPacket,
    RouterParams,
    TimeConstrainedPacket,
    port_mask,
)
from repro.core.invariants import (
    CheckedRouter,
    InvariantViolation,
    check_link_records,
    check_no_shared_wires,
    check_router_invariants,
)
from repro.core.leaf_state import Leaf
from repro.core.packet import FrameRun, phits_of
from repro.core.ports import EAST, NORTH, RECEPTION, WEST
from repro.core.router import NOW, LinkSignal


def checked_router(**kwargs) -> CheckedRouter:
    router = CheckedRouter(RouterParams(), **kwargs)
    router.control.program_connection(0, 0, delay=20,
                                      port_mask=port_mask(RECEPTION))
    router.control.program_connection(1, 1, delay=10,
                                      port_mask=port_mask(EAST))
    router.control.program_connection(
        2, 2, delay=15, port_mask=port_mask(EAST, NORTH, RECEPTION))
    return router


class TestCheckedRuns:
    def test_fresh_router_is_consistent(self):
        check_router_invariants(checked_router())

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_mixed_soak(self, seed):
        """Random traffic with per-cycle invariant checks."""
        rng = random.Random(seed)
        router = checked_router()
        for cycle in range(800):
            if rng.random() < 0.05:
                router.inject_tc(TimeConstrainedPacket(
                    rng.choice([0, 1, 2]),
                    header_deadline=rng.randrange(0, 30),
                ))
            if rng.random() < 0.05:
                router.inject_be(BestEffortPacket(
                    rng.choice([0, 1]), rng.choice([0, 1]),
                    payload=bytes(rng.randrange(0, 50)),
                ))
            router.step()  # raises InvariantViolation on any breach
            for direction in (EAST, NORTH):
                out = router.link_out[direction]
                ack = out.phit is not None and out.phit.vc == "BE"
                router.link_in[direction] = LinkSignal(ack=ack)
            router.take_delivered()

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_cut_through_soak(self, seed):
        rng = random.Random(seed)
        router = checked_router(cut_through=True)
        for cycle in range(600):
            if rng.random() < 0.08:
                router.inject_tc(TimeConstrainedPacket(
                    rng.choice([0, 1, 2]), header_deadline=0,
                ))
            router.step()
            for direction in (EAST, NORTH):
                router.link_in[direction] = LinkSignal()
            router.take_delivered()


class TestViolationDetection:
    def test_detects_corrupted_eligibility(self):
        router = checked_router()
        router.eligible_count[0] = 5  # corrupt deliberately
        with pytest.raises(InvariantViolation, match="eligible_count"):
            check_router_invariants(router)

    def test_detects_leaked_reader(self):
        router = checked_router()
        router.slot_readers[3] = 1
        with pytest.raises(InvariantViolation, match="streams"):
            check_router_invariants(router)

    def test_detects_orphan_leaf(self):
        router = checked_router()
        router.leaves.install(7, 0, 5, port_mask=1)
        router.eligible_count[0] += 1
        with pytest.raises(InvariantViolation, match="memory slot is free"):
            check_router_invariants(router)

    def test_detects_stale_occupied_indices(self):
        router = checked_router()
        router.leaves._occupied.append(4)  # the mask of leaf 4 is zero
        with pytest.raises(InvariantViolation, match="occupied leaf"):
            check_router_invariants(router)

    def test_detects_a_free_slot_holding_its_own_empty_value(self):
        router = checked_router()
        router.leaves._leaves[4] = Leaf()  # equal to EMPTY_LEAF, not it
        with pytest.raises(InvariantViolation, match="EMPTY_LEAF"):
            check_router_invariants(router)

    def test_detects_miscounted_bus_backlog(self):
        router = checked_router()
        router.bus._pending = 1  # every queue is empty
        with pytest.raises(InvariantViolation, match="bus pending"):
            check_router_invariants(router)

    def test_detects_miscounted_synchroniser(self):
        router = checked_router()
        router.inputs.sync_count = 1  # every synchroniser is empty
        with pytest.raises(InvariantViolation, match="synchroniser count"):
            check_router_invariants(router)

    def test_detects_stale_frame_flag(self):
        router = checked_router()
        router.inputs.frame_ready = True  # no input holds a packet
        with pytest.raises(InvariantViolation, match="frame-ready"):
            check_router_invariants(router)

    def test_detects_stale_pipeline_wake_cycle(self):
        router = checked_router()
        router.pipeline.request(0)
        router.pipeline.wake_cycle = None  # a request is queued
        with pytest.raises(InvariantViolation, match="wake cycle"):
            check_router_invariants(router)

    def test_detects_stale_remembered_busy_verdict(self):
        router = checked_router()
        router._work_at = NOW  # nothing is inside
        with pytest.raises(InvariantViolation, match="remembered"):
            check_router_invariants(router)

    def test_detects_stale_quiescence_verdict(self):
        router = checked_router()
        assert router.quiescent  # remembered from here on
        router.delivered.append(object())  # behind the entry points
        with pytest.raises(InvariantViolation, match="remembered"):
            check_router_invariants(router)
        router.take_delivered()
        check_router_invariants(router)

    @staticmethod
    def _dormant_router():
        """One early packet (logical arrival tick 30) bound for EAST."""
        router = checked_router()
        router.inject_tc(TimeConstrainedPacket(1, header_deadline=30))
        for _ in range(60):
            router.step()
        until = router.next_event_cycle(router.cycle)
        assert until == 30 * router.params.slot_cycles
        assert router._pipeline_lag is not None
        check_router_invariants(router)
        return router

    def test_detects_a_late_dormancy_deadline(self):
        router = self._dormant_router()
        router._work_at += router.params.slot_cycles  # one tick late
        with pytest.raises(InvariantViolation, match="fresh computation"):
            check_router_invariants(router)

    def test_detects_a_deadline_a_raised_horizon_passed_by(self):
        router = self._dormant_router()
        router.control.horizons[EAST] = 10  # behind write_horizon's back
        with pytest.raises(InvariantViolation, match="fresh computation"):
            check_router_invariants(router)
        router.control.write_horizon(port_mask(EAST), 10)
        check_router_invariants(router)
        assert router.next_event_cycle(router.cycle) == 20 * 20

    def test_detects_a_packet_committable_before_the_deadline(self):
        router = self._dormant_router()
        # Both the remembered and the recomputed deadline trust the
        # leaf's arrival field; the per-tick check reads the clock.
        router._dormancy_deadline = lambda: router._work_at
        leaf = router.leaves[0]
        router.leaves._leaves[0] = leaf._replace(arrival=10)
        with pytest.raises(InvariantViolation, match="may be committed"):
            check_router_invariants(router)

    def test_detects_a_lag_without_buffered_packets(self):
        router = checked_router()
        router._pipeline_lag = 0  # nothing is held: nothing may lag
        with pytest.raises(InvariantViolation, match="lagging"):
            check_router_invariants(router)


class TestFrames:
    """A committed frame moves as one arrival exactly where it may, and
    the remembered next event of a router asleep on frames is what a
    fresh computation says."""

    @staticmethod
    def _mid_frame():
        """A 3x1 chain with a frame crossing (0,0) -> (1,0); the sender."""
        from repro import TrafficSpec
        from repro.network.network import MeshNetwork

        net = MeshNetwork(3, 1)
        channel = net.establish_channel((0, 0), (2, 0),
                                        TrafficSpec(i_min=10), deadline=60)
        net.send_message(channel, b"frame")
        sender = net.routers[(0, 0)]
        for _ in range(200):
            net.run(1)
            stream = sender.outputs.ports[EAST].tc_stream
            if stream is not None and stream.base is not None:
                break
        assert sender._asleep is not None and stream.sent < 15
        for router in net.routers.values():
            check_router_invariants(router)
        return net, sender, stream

    def test_detects_a_whole_stream_stepped_per_byte(self):
        _, sender, stream = self._mid_frame()
        stream.base = stream.handed = None  # behind frame()'s back
        sender._forget()  # (the remembered event says so too)
        with pytest.raises(InvariantViolation, match="stepped per byte"):
            check_router_invariants(sender)

    def test_detects_a_frame_on_a_port_that_steps_per_byte(self):
        _, sender, _ = self._mid_frame()
        sender.frame_links[EAST] = False  # not through the network
        with pytest.raises(InvariantViolation, match="steps per byte"):
            check_router_invariants(sender)

    def test_detects_a_frame_that_lost_count_of_its_bytes(self):
        _, sender, stream = self._mid_frame()
        stream.sent -= 1
        with pytest.raises(InvariantViolation, match="sent .* staged"):
            check_router_invariants(sender)

    def test_detects_a_frame_sent_ahead_of_the_read_point(self):
        _, sender, stream = self._mid_frame()
        assert stream.sent == sender.cycle - stream.base  # settled
        stream.sent += 1  # a byte moved before its cycle
        stream.staging.popleft()
        with pytest.raises(InvariantViolation, match="ahead of cycle"):
            check_router_invariants(sender)

    @staticmethod
    def _run(net):
        """The receiver and its synchroniser holding the frame's run."""
        receiver = net.routers[(1, 0)]
        sync = receiver.inputs.ports[WEST].sync
        runs = [entry for entry in sync if entry[1].__class__ is FrameRun]
        assert len(runs) == 1
        check_router_invariants(receiver)
        return receiver, sync, sync.index(runs[0])

    def test_detects_a_synchroniser_count_without_its_run(self):
        net, _, _ = self._mid_frame()
        receiver, sync, at = self._run(net)
        receiver.inputs.sync_count = len(sync)  # one per entry
        with pytest.raises(InvariantViolation, match="synchroniser count"):
            check_router_invariants(receiver)

    def test_detects_a_run_that_crosses_a_frame_end(self):
        net, _, _ = self._mid_frame()
        receiver, sync, at = self._run(net)
        _, run = sync[at]
        size = receiver.params.tc_packet_bytes
        assert run.index + len(run.data) == size - 1
        # The frame end joins the run instead of crossing on its own.
        longer = FrameRun(run.ready, run.data + b"\x00", run.carrier,
                          run.index)
        sync[at] = (longer.last_ready, longer)
        receiver.inputs.sync_count += 1
        receiver._forget()  # (its remembered next event moved too)
        with pytest.raises(InvariantViolation, match="crosses a frame end"):
            check_router_invariants(receiver)

    def test_detects_a_run_keyed_off_its_last_byte(self):
        net, _, _ = self._mid_frame()
        receiver, sync, at = self._run(net)
        ready, run = sync[at]
        sync[at] = (ready + 1, run)  # out of step with its bytes
        receiver._forget()
        with pytest.raises(InvariantViolation, match="keyed"):
            check_router_invariants(receiver)

    def test_detects_a_host_packet_run_short_of_its_end(self):
        _, sender, _ = self._mid_frame()
        sender.inputs.tc_inject = FrameRun(sender.cycle, bytes(3), None, 0,
                                           ends=True)
        sender._forget()
        with pytest.raises(InvariantViolation, match="injection run"):
            check_router_invariants(sender)

    def test_detects_a_late_remembered_frame_event(self):
        _, sender, _ = self._mid_frame()
        assert sender._work_at == sender._fresh_work() > sender.cycle
        sender._work_at += 1  # one cycle past the frame's next event
        with pytest.raises(InvariantViolation, match="fresh computation"):
            check_router_invariants(sender)

    def test_detects_a_receiver_that_sleeps_past_a_frame_end(self):
        net, _, _ = self._mid_frame()
        receiver = net.routers[(1, 0)]
        assert receiver._next_work() > receiver.cycle
        # A frame's last byte now matures before the remembered cycle.
        sync = receiver.inputs.ports[1].sync
        ready, phit = sync[0]
        sync[0] = (ready, phit.__class__(vc="TC", byte=phit.byte,
                                         packet=phit.packet,
                                         index=19, last=True))
        with pytest.raises(InvariantViolation, match="fresh computation"):
            check_router_invariants(receiver)


class TestWires:
    """Link signals are written and emptied in place: every slot needs
    a signal of its own, and a step must leave its inputs consumed."""

    @staticmethod
    def _worm():
        return phits_of(BestEffortPacket(x_offset=0, y_offset=0,
                                         payload=b"wire"), RouterParams())

    def test_detects_one_signal_in_two_slots_of_a_router(self):
        router = checked_router()
        router.link_in[NORTH] = router.link_out[EAST]
        with pytest.raises(InvariantViolation, match="two slots"):
            check_router_invariants(router)

    def test_detects_one_signal_shared_by_two_routers(self):
        west, east = checked_router(router_id="w"), checked_router(
            router_id="e")
        check_no_shared_wires([west, east])
        east.link_in[EAST] = west.link_out[EAST]  # "wiring" by alias
        for router in (west, east):
            check_router_invariants(router)  # each alone looks fine
        with pytest.raises(InvariantViolation,
                           match=r"w link_out\[0\] and e link_in\[0\]"):
            check_no_shared_wires([west, east])

    def test_an_aliased_wire_is_cross_talk(self):
        # Why the check exists: the alias delivers the byte, and then
        # the sink's in-place clear wipes the source's output.
        west, east = checked_router(), checked_router()
        east.link_in[EAST] = west.link_out[EAST]
        west.link_out[EAST].phit = self._worm()[0]
        east.step()
        assert west.link_out[EAST].phit is None

    @pytest.mark.parametrize("write", ["in place", "fresh signal"])
    def test_a_signal_is_consumed_once_however_it_was_written(self, write):
        # Drop the in-place clear from the capture phase and the head
        # byte is captured again on every following step (the checked
        # step itself refuses to leave an input signal standing).
        router = checked_router()
        head = self._worm()[0]
        if write == "in place":
            router.link_in[NORTH].phit = head
        else:
            router.link_in[NORTH] = LinkSignal(phit=head)
        for _ in range(6):
            router.step()
        assert router.inputs.ports[NORTH].buffer.occupancy == 1
        assert router.inputs.sync_count == 0

    def test_an_output_is_emptied_before_it_is_driven_again(self):
        # One staged flit, six steps: it is on the wire for one cycle.
        router = checked_router()
        router.inject_be(BestEffortPacket(x_offset=1, y_offset=0,
                                          payload=b""))
        seen = []
        for _ in range(40):
            router.step()
            seen.append(router.link_out[EAST].phit)
        sent = [phit for phit in seen if phit is not None]
        assert [phit.index for phit in sent] == [0, 1, 2, 3]
        assert sent[0].byte == 0 and sent[-1].last

    def test_a_running_mesh_shares_no_wires(self):
        # The wiring writes into the sink's signal; putting the
        # source's own signal into the sink's slot instead would pass
        # every byte and fail here.
        from repro.network.network import MeshNetwork

        net = MeshNetwork(3, 2)
        net.send_best_effort((0, 0), (2, 1), bytes(40))
        net.send_best_effort((2, 1), (0, 0), bytes(40))
        for _ in range(30):
            net.run(10)
            check_no_shared_wires(net.routers.values())
        assert net.log.be_delivered == 2


class TestLinkRecords:
    """A mesh keeps one record per directed link; what it knows of a
    link, and how its sender frames onto it, follow from the record."""

    @staticmethod
    def _mesh():
        from repro.network.network import MeshNetwork

        return MeshNetwork(3, 2)

    def test_a_faulty_life_keeps_the_records_consistent(self):
        from repro.faults.injector import BitFlipCorruptor

        net = self._mesh()
        steps = [
            lambda: net.fail_link((0, 0), EAST, announce=False),
            lambda: net.set_link_corruptor((1, 0), EAST,
                                           BitFlipCorruptor()),
            lambda: net.learn_dead((0, 0), EAST, "link-dead"),
            lambda: net.set_link_draining((0, 0), EAST),
            lambda: net.fail_link((1, 1), WEST),
            lambda: net.repair_link((0, 0), EAST),
            lambda: net.clear_link_corruptor((1, 0), EAST),
        ]
        for step in steps:
            step()
            check_link_records(net)
        assert net.failed_links == net.known_dead_links == {((1, 1), WEST)}

    @pytest.mark.parametrize("flag", ["known", "draining"])
    def test_detects_knowledge_of_a_live_link(self, flag):
        net = self._mesh()
        setattr(net.link_monitors[((0, 0), EAST)], flag, True)
        with pytest.raises(InvariantViolation, match="but not failed"):
            check_link_records(net)

    def test_detects_a_frame_onto_a_failed_link(self):
        net = self._mesh()
        net.link_monitors[((0, 0), EAST)].failed = True
        with pytest.raises(InvariantViolation,
                           match=r"link \(0, 0\) 0 framed"):
            check_link_records(net)

    def test_detects_a_live_link_left_unframed(self):
        net = self._mesh()
        net.routers[(0, 0)].frame_links[EAST] = False
        with pytest.raises(InvariantViolation, match="not framed"):
            check_link_records(net)

    def test_a_failure_is_learned_once(self):
        net = self._mesh()
        with pytest.raises(ValueError, match="only a failed link"):
            net.learn_dead((0, 0), EAST, "link-dead")
        seen = []
        net.events.subscribe(seen.append)
        net.fail_link((0, 0), EAST)
        net.learn_dead((0, 0), EAST, "link-dead")
        net.fail_link((0, 0), EAST)
        assert [event.kind for event in seen] == ["link-failed"]
