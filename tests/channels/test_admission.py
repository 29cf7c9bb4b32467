"""Tests for admission control: EDF link tests, buffers, decomposition."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.channels.admission import (
    AdmissionController,
    AdmissionError,
    ConnectionLoad,
    HopDescriptor,
    LinkSchedule,
    NodeBuffers,
    buffer_bound,
)
from repro.channels.spec import FlowRequirements, TrafficSpec
from repro.core.clock import RolloverClock
from repro.core.params import RouterParams
from repro.model import SlotSimulator


def load(packets=1, i_min=10, b_max=1, deadline=5) -> ConnectionLoad:
    return ConnectionLoad(packets=packets, i_min=i_min, b_max=b_max,
                          deadline=deadline)


class TestConnectionLoad:
    def test_utilisation(self):
        assert load(packets=2, i_min=8).utilisation == 0.25

    def test_demand_before_deadline_is_zero(self):
        assert load(deadline=5).demand(4) == 0

    def test_demand_steps_at_deadline_then_period(self):
        l = load(i_min=10, deadline=5)
        assert l.demand(5) == 1
        assert l.demand(14) == 1
        assert l.demand(15) == 2

    def test_burst_front_loads_demand(self):
        l = load(i_min=10, deadline=5, b_max=3)
        assert l.demand(5) == 3

    def test_arrivals(self):
        l = load(i_min=10)
        assert l.arrivals(0) == 0
        assert l.arrivals(9) == 1
        assert l.arrivals(10) == 2


class TestLinkSchedule:
    def test_empty_link_feasible(self):
        assert LinkSchedule().feasible_with(None)

    def test_single_connection_feasible(self):
        assert LinkSchedule().feasible_with(load())

    def test_utilisation_overload_rejected(self):
        link = LinkSchedule()
        link.add(load(packets=3, i_min=4, deadline=4))  # U = 0.75
        assert not link.feasible_with(load(packets=2, i_min=4, deadline=4))

    def test_deadline_crunch_rejected_despite_low_utilisation(self):
        """Two 1-slot messages due at t=1 can't both make it."""
        link = LinkSchedule()
        link.add(load(i_min=100, deadline=1))
        assert not link.feasible_with(load(i_min=100, deadline=1))
        assert link.feasible_with(load(i_min=100, deadline=2))

    def test_remove_restores_capacity(self):
        link = LinkSchedule()
        first = load(packets=3, i_min=4, deadline=4)
        link.add(first)
        candidate = load(packets=2, i_min=4, deadline=4)
        assert not link.feasible_with(candidate)
        link.remove(first)
        assert link.feasible_with(candidate)

    @settings(max_examples=40)
    @given(loads=st.lists(
        st.tuples(st.integers(1, 3), st.integers(2, 30), st.integers(1, 25)),
        min_size=1, max_size=6,
    ))
    def test_feasible_sets_simulate_without_misses(self, loads):
        """Any admitted load set meets all deadlines under EDF replay."""
        link = LinkSchedule()
        accepted = []
        for packets, i_min, deadline in loads:
            candidate = ConnectionLoad(packets=packets, i_min=i_min,
                                       b_max=1,
                                       deadline=min(deadline, i_min))
            if link.feasible_with(candidate):
                link.add(candidate)
                accepted.append(candidate)
        if not accepted:
            return
        # Discrete EDF simulation with synchronous periodic arrivals
        # (the classical worst case).
        horizon = 200
        queue: list[tuple[int, int]] = []  # (abs deadline, remaining)
        misses = 0
        for t in range(horizon):
            for c in accepted:
                if t % c.i_min == 0:
                    queue.append((t + c.deadline, c.packets))
            queue.sort()
            if queue:
                deadline_at, remaining = queue[0]
                remaining -= 1
                if remaining == 0:
                    queue.pop(0)
                else:
                    queue[0] = (deadline_at, remaining)
            misses += sum(1 for d, __ in queue if d <= t + 1)
            queue = [(d, r) for d, r in queue if d > t + 1]
        assert misses == 0


class TestNodeBuffers:
    def test_shared_capacity(self):
        buffers = NodeBuffers(capacity=10)
        buffers.reserve(0, 6)
        assert buffers.feasible_with(1, 4)
        assert not buffers.feasible_with(1, 5)

    def test_quota_partitioning(self):
        buffers = NodeBuffers(capacity=10, quotas={0: 3, 1: 7})
        buffers.reserve(0, 3)
        assert not buffers.feasible_with(0, 1)   # port quota exhausted
        assert buffers.feasible_with(1, 7)

    def test_release(self):
        buffers = NodeBuffers(capacity=4)
        buffers.reserve(2, 4)
        buffers.release(2, 4)
        assert buffers.feasible_with(2, 4)

    def test_over_release_detected(self):
        buffers = NodeBuffers(capacity=4)
        buffers.reserve(0, 2)
        with pytest.raises(RuntimeError):
            buffers.release(0, 3)


class TestBufferBound:
    def test_paper_formula(self):
        """ceil((h_prev + d_prev + d_j) / i_min) messages."""
        spec = TrafficSpec(i_min=10)
        assert buffer_bound(spec, 0, 0, 10) == 1
        assert buffer_bound(spec, 0, 10, 10) == 2
        assert buffer_bound(spec, 5, 10, 10) == 3  # ceil(25/10)

    def test_burst_adds_buffers(self):
        spec = TrafficSpec(i_min=10, b_max=3)
        assert buffer_bound(spec, 0, 0, 10) == 3

    def test_multi_packet_messages_scale(self):
        spec = TrafficSpec(i_min=10, s_max=36)  # 2 packets
        assert buffer_bound(spec, 0, 0, 10) == 2

    @given(i_min=st.integers(1, 64), s_max=st.integers(1, 80),
           b_max=st.integers(1, 4), horizon=st.integers(0, 64),
           upstream=st.integers(0, 64), local=st.integers(0, 64))
    def test_is_the_section2_formula(self, i_min, s_max, b_max, horizon,
                                     upstream, local):
        """(ceil(w / i_min) + b_max - 1) messages for every window
        w = h + d_prev + d >= 1 (every real hop: d >= 1)."""
        window = horizon + upstream + local
        assume(window >= 1)
        spec = TrafficSpec(i_min=i_min, s_max=s_max, b_max=b_max)
        assert buffer_bound(spec, horizon, upstream, local) == (
            (math.ceil(window / i_min) + b_max - 1)
            * spec.packets_per_message)

    def test_is_sound_vs_slot_model(self):
        """Queue occupancy at the second hop never exceeds the bound."""
        spec = TrafficSpec(i_min=4)
        bound = buffer_bound(spec, 0, 4, 4)
        sim = SlotSimulator()
        arrivals = [k * spec.i_min for k in range(50)]
        sim.add_channel("probe", ["L0", "L1"], [4, 4], arrivals)
        peak = 0
        for _ in range(300):
            sim.run(1)
            peak = max(peak, sim.scheduler("L1").tc_backlog)
        assert peak <= bound


class TestDecomposition:
    def make(self, hops=3, horizon=0):
        controller = AdmissionController(RouterParams())
        descriptors = [HopDescriptor(node=i, out_port=0, horizon=horizon)
                       for i in range(hops)]
        return controller, descriptors

    def test_even_split(self):
        controller, hops = self.make(hops=3)
        delays = controller.decompose_deadline(
            hops, TrafficSpec(i_min=10), FlowRequirements(deadline=30),
        )
        assert delays == [10, 10, 10]

    def test_caps_at_i_min(self):
        controller, hops = self.make(hops=2)
        delays = controller.decompose_deadline(
            hops, TrafficSpec(i_min=5), FlowRequirements(deadline=100),
        )
        assert all(d <= 5 for d in delays)

    def test_too_tight_deadline_rejected(self):
        controller, hops = self.make(hops=4)
        with pytest.raises(AdmissionError):
            controller.decompose_deadline(
                hops, TrafficSpec(i_min=10), FlowRequirements(deadline=8),
            )

    def test_sum_within_deadline(self):
        controller, hops = self.make(hops=3)
        delays = controller.decompose_deadline(
            hops, TrafficSpec(i_min=20), FlowRequirements(deadline=50),
        )
        assert sum(delays) <= 50
        assert all(d >= controller.hop_overhead + 1 for d in delays)

    def test_slack_goes_to_contended_links(self):
        """Leftover budget lands on the most-utilised hop first, giving
        the EDF test the most room where it is tightest."""
        controller, hops = self.make(hops=3)
        # Pre-load hop 1's link.
        controller.link(1, 0).add(ConnectionLoad(
            packets=1, i_min=4, b_max=1, deadline=4))
        delays = controller.decompose_deadline(
            hops, TrafficSpec(i_min=20), FlowRequirements(deadline=50),
        )
        # Even split would be 16/16/16 with 2 slack; the loaded hop
        # (index 1) receives the extra budget up to the i_min cap.
        assert delays[1] >= max(delays[0], delays[2])


class TestAdmitAndRelease:
    def hops(self, count=2):
        return [HopDescriptor(node=i, out_port=0) for i in range(count)]

    def test_admit_reserves_and_release_restores(self):
        controller = AdmissionController(RouterParams())
        spec = TrafficSpec(i_min=4)
        reservations = []
        admitted = 0
        try:
            for _ in range(20):
                reservations.append(controller.admit(
                    self.hops(), spec, FlowRequirements(deadline=8),
                ))
                admitted += 1
        except AdmissionError:
            pass
        assert 0 < admitted < 20
        for reservation in reservations:
            controller.release(reservation)
        # All capacity restored: the same number admits again.
        for _ in range(admitted):
            controller.admit(self.hops(), spec, FlowRequirements(deadline=8))

    def test_failed_admit_leaves_no_residue(self):
        controller = AdmissionController(RouterParams())
        spec = TrafficSpec(i_min=4)
        before = controller.link(0, 0).utilisation
        with pytest.raises(AdmissionError):
            # Deadline too tight to decompose.
            controller.admit(self.hops(4), spec,
                             FlowRequirements(deadline=4))
        assert controller.link(0, 0).utilisation == before
        assert controller.node(0).reserved_total == 0

    def test_delay_exceeding_i_min_rejected(self):
        controller = AdmissionController(RouterParams())
        with pytest.raises(AdmissionError):
            controller.admit(self.hops(1), TrafficSpec(i_min=5),
                             FlowRequirements(deadline=100),
                             local_delays=[10])

    def test_rollover_rule_enforced(self):
        """Paper 4.3 on the 8-bit chip: admitted iff h + d < 128."""
        def admit(horizon, delay):
            AdmissionController(RouterParams(clock_bits=8)).admit(
                [HopDescriptor(node=0, out_port=0, horizon=horizon)],
                TrafficSpec(i_min=200), FlowRequirements(deadline=200),
                local_delays=[delay],
            )

        admit(0, 127)
        admit(64, 63)
        for horizon, delay in ((0, 128), (64, 64)):
            with pytest.raises(AdmissionError) as info:
                admit(horizon, delay)
            assert info.value.reason == "rollover"

    def test_rollover_counts_horizon_plus_delay(self):
        """A small d_j is still refused when h_j + d_j reaches half."""
        def admit(horizon, delay):
            AdmissionController(RouterParams(clock_bits=8)).admit(
                [HopDescriptor(node=0, out_port=0, horizon=horizon)],
                TrafficSpec(i_min=200), FlowRequirements(deadline=200),
                local_delays=[delay],
            )

        admit(27, 100)
        admit(117, 10)
        for horizon, delay in ((28, 100), (118, 10), (30, 100)):
            with pytest.raises(AdmissionError) as info:
                admit(horizon, delay)
            assert info.value.reason == "rollover"
            assert info.value.demanded == horizon + delay

    def test_rollover_last_safe_value_on_every_hop(self):
        """127 is the last safe d_j (and h_j + d_j) on an 8-bit clock,
        upstream and downstream alike; the refusal names the hop."""
        def admit(delays, horizons=(0, 0)):
            hops = [HopDescriptor(node=node, out_port=0, horizon=horizon)
                    for node, horizon in enumerate(horizons)]
            AdmissionController(RouterParams(clock_bits=8)).admit(
                hops, TrafficSpec(i_min=200),
                FlowRequirements(deadline=400), local_delays=list(delays))

        admit([127, 10])
        admit([10, 127])
        for delays, horizons, node in (([128, 10], (0, 0), 0),
                                       ([10, 128], (0, 0), 1),
                                       ([64, 10], (64, 0), 0)):
            with pytest.raises(AdmissionError) as info:
                admit(delays, horizons)
            assert info.value.reason == "rollover"
            assert info.value.node == node

    def test_half_range_delay_would_decode_early(self):
        """The failure the rule prevents: a packet held for half the
        clock range reads as early under Figure 6's test."""
        half = RolloverClock(bits=8).half_range
        assert not RolloverClock(bits=8, now=half).is_past(0)
        assert RolloverClock(bits=8, now=half - 1).is_past(0)
        with pytest.raises(AdmissionError) as info:
            AdmissionController(RouterParams(clock_bits=8)).admit(
                [HopDescriptor(node=0, out_port=0, horizon=0)],
                TrafficSpec(i_min=200), FlowRequirements(deadline=200),
                local_delays=[half],
            )
        assert info.value.reason == "rollover"

    def test_delays_sum_exactly_to_deadline(self):
        """Paper section 2: sum(d_j) is the end-to-end bound admission
        holds to D, with nothing added for the burst."""
        hops = [HopDescriptor(node=n, out_port=0, horizon=0)
                for n in range(3)]
        spec = TrafficSpec(i_min=10, b_max=2)
        reservation = AdmissionController(RouterParams()).admit(
            hops, spec, FlowRequirements(deadline=21),
            local_delays=[5, 7, 9])
        assert reservation.local_delays == [5, 7, 9]
        with pytest.raises(AdmissionError) as info:
            AdmissionController(RouterParams()).admit(
                hops, spec, FlowRequirements(deadline=20),
                local_delays=[5, 7, 9])
        assert info.value.reason == "deadline-too-tight"
        assert info.value.demanded == 21

    def test_buffer_capacity_limits_admissions(self):
        params = RouterParams(tc_packet_slots=4)
        controller = AdmissionController(params)
        spec = TrafficSpec(i_min=100, b_max=4)  # 4 buffers per node
        controller.admit(self.hops(1), spec, FlowRequirements(deadline=50))
        with pytest.raises(AdmissionError):
            controller.admit(self.hops(1), spec,
                             FlowRequirements(deadline=50))

    def test_tree_parents_buffer_accounting(self):
        controller = AdmissionController(RouterParams())
        hops = [
            HopDescriptor(node=0, out_port=0),
            HopDescriptor(node=1, out_port=0),
            HopDescriptor(node=1, out_port=2),
        ]
        reservation = controller.admit(
            hops, TrafficSpec(i_min=10), FlowRequirements(deadline=30),
            local_delays=[10, 10, 10], parents=[-1, 0, 0],
        )
        assert len(reservation.buffers) == 3
        controller.release(reservation)
