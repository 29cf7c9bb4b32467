"""Tests for the packet-slot-level simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import SlotSimulator


class TestSingleChannel:
    def test_one_packet_traverses_hops(self):
        sim = SlotSimulator()
        sim.add_channel("a", links=["L0", "L1"], local_delays=[5, 5],
                        arrivals=[0])
        sim.run_until_drained()
        packet, = sim.packets
        assert packet.delivered_tick is not None
        assert packet.met_deadline
        assert len(packet.hop_times) == 2

    def test_periodic_stream_meets_deadlines(self):
        sim = SlotSimulator()
        arrivals = [i * 10 for i in range(20)]
        sim.add_channel("a", ["L0", "L1", "L2"], [5, 5, 5], arrivals)
        sim.run_until_drained()
        assert sim.deadline_misses() == 0
        assert len(sim.delivered()) == 20

    def test_sum_of_local_delays_bounds_delivery(self):
        """Paper section 2: the end-to-end bound is the sum of the d_j."""
        delays = [4, 5, 6]
        sim = SlotSimulator()
        arrivals = [k * 6 for k in range(40)]
        sim.add_channel("probe", ["L0", "L1", "L2"], delays, arrivals)
        sim.run_until_drained(max_ticks=10_000)
        worst = max(p.delivered_tick - p.l0 for p in sim.delivered())
        assert worst <= sum(delays) + 1  # +1: delivery rounds to tick ends

    def test_non_work_conserving_holds_early_packet(self):
        """With horizon 0, a packet waits for its logical arrival."""
        sim = SlotSimulator()
        sim.add_channel("a", ["L0"], [5], arrivals=[50])
        sim.run(60)
        packet, = sim.packets
        # Released at l0 = 50, transmitted in the tick it becomes
        # available (on-time from the start since injection == l0).
        assert packet.hop_times[0] >= 50

    def test_hop_pacing_follows_local_delays(self):
        """At an idle link, hop j serves the packet once it is on time
        (logical arrival l0 + sum of upstream delays)."""
        sim = SlotSimulator()
        sim.add_channel("a", ["L0", "L1"], [10, 10], arrivals=[0])
        sim.run_until_drained()
        packet, = sim.packets
        assert packet.hop_times[0] == 0      # on-time immediately
        assert packet.hop_times[1] == 10     # waits for l1 = 10

    def test_horizon_releases_early(self):
        sim = SlotSimulator(horizons={"L1": 9})
        sim.add_channel("a", ["L0", "L1"], [10, 10], arrivals=[0])
        sim.run_until_drained()
        packet, = sim.packets
        assert packet.hop_times[1] == 1      # 10 - 9 within horizon


class TestContention:
    def test_edf_between_channels(self):
        sim = SlotSimulator()
        sim.add_channel("loose", ["L"], [20], arrivals=[0])
        sim.add_channel("tight", ["L"], [2], arrivals=[0])
        sim.run_until_drained()
        order = sim.service_order("L")
        assert order[0][0] == "tight"
        assert sim.deadline_misses() == 0

    def test_proportional_sharing_backlogged(self):
        """Figure 7's property: service tracks 1/i_min shares."""
        sim = SlotSimulator()
        horizon_ticks = 960
        for label, i_min in (("c1", 4), ("c2", 8), ("c3", 16)):
            arrivals = list(range(0, horizon_ticks, i_min))
            sim.add_channel(label, ["L"], [i_min], arrivals)
        sim.add_best_effort_backlog("L")
        sim.run(horizon_ticks)
        series = sim.cumulative_service("L")
        c1 = series["c1"][-1][1]
        c2 = series["c2"][-1][1]
        c3 = series["c3"][-1][1]
        assert c1 == pytest.approx(2 * c2, rel=0.05)
        assert c2 == pytest.approx(2 * c3, rel=0.05)
        # Best-effort consumed the remaining bandwidth.
        be = series["best-effort"][-1][1]
        used = c1 + c2 + c3 + be
        assert used == pytest.approx(horizon_ticks * 20, rel=0.02)

    def test_be_backlog_never_blocks_on_time_tc(self):
        sim = SlotSimulator()
        sim.add_best_effort_backlog("L")
        sim.add_channel("a", ["L"], [3], arrivals=[0, 10, 20])
        sim.run(40)
        assert sim.deadline_misses() == 0

    def test_link_utilisation(self):
        sim = SlotSimulator()
        sim.add_best_effort_backlog("L", slots=10)
        sim.run(20)
        assert sim.link_utilisation("L") == 0.5


class TestValidation:
    def test_mismatched_delays_rejected(self):
        sim = SlotSimulator()
        with pytest.raises(ValueError):
            sim.add_channel("a", ["L0"], [5, 5], arrivals=[0])

    def test_zero_delay_rejected(self):
        sim = SlotSimulator()
        with pytest.raises(ValueError):
            sim.add_channel("a", ["L0"], [0], arrivals=[0])

    def test_drain_timeout(self):
        sim = SlotSimulator()
        sim.add_channel("a", ["L0"], [5], arrivals=[10_000_000])
        with pytest.raises(TimeoutError):
            sim.run_until_drained(max_ticks=10)


class TestAdmittedLoadsAreSafe:
    @settings(max_examples=25, deadline=None)
    @given(
        channel_params=st.lists(
            st.tuples(st.integers(4, 24),    # i_min
                      st.integers(0, 30)),   # phase
            min_size=1, max_size=5,
        ),
    )
    def test_no_misses_under_admitted_load(self, channel_params):
        """Connections admitted by the controller never miss in the
        slot simulator (end-to-end soundness of admission + EDF)."""
        from repro.channels.admission import (
            AdmissionController, AdmissionError, HopDescriptor,
        )
        from repro.channels.spec import FlowRequirements, TrafficSpec

        controller = AdmissionController(hop_overhead=0)
        sim = SlotSimulator()
        links = ["L0", "L1"]
        added = 0
        for index, (i_min, phase) in enumerate(channel_params):
            spec = TrafficSpec(i_min=i_min)
            hops = [HopDescriptor(node=l, out_port=0) for l in links]
            try:
                reservation = controller.admit(
                    hops, spec, FlowRequirements(deadline=2 * i_min),
                )
            except AdmissionError:
                continue
            arrivals = [phase + k * i_min for k in range(12)]
            sim.add_channel(f"ch{index}", links,
                            reservation.local_delays, arrivals)
            added += 1
        if added == 0:
            return
        sim.run_until_drained(max_ticks=20_000)
        assert sim.deadline_misses() == 0
