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
    check_no_shared_wires,
    check_router_invariants,
)
from repro.core.packet import phits_of
from repro.core.ports import EAST, NORTH, RECEPTION
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
        router.leaves[0].arrival = 10
        with pytest.raises(InvariantViolation, match="may be committed"):
            check_router_invariants(router)

    def test_detects_a_lag_without_buffered_packets(self):
        router = checked_router()
        router._pipeline_lag = 0  # nothing is held: nothing may lag
        with pytest.raises(InvariantViolation, match="lagging"):
            check_router_invariants(router)


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
