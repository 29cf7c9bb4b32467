"""Tests for the min-plus network-calculus module."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.netcalc import (
    ArrivalCurve,
    ServiceCurve,
    TokenBucket,
    backlog_bound,
    channel_delay_bound,
    delay_bound,
    residual_service,
)
from repro.channels.spec import TrafficSpec
from repro.model import SlotSimulator


class TestArrivalCurve:
    def test_token_bucket_evaluation(self):
        curve = ArrivalCurve.token_bucket(burst=3, rate=0.5)
        assert curve(0) == 0.0
        assert curve(2) == 4.0

    def test_from_spec(self):
        curve = ArrivalCurve.from_spec(TrafficSpec(i_min=10, b_max=2))
        assert curve.burst == 2
        assert curve.long_term_rate == pytest.approx(0.1)

    def test_from_spec_multi_packet(self):
        curve = ArrivalCurve.from_spec(TrafficSpec(i_min=10, s_max=36))
        assert curve.burst == 2           # 2 packets per message
        assert curve.long_term_rate == pytest.approx(0.2)

    def test_min_combines_buckets(self):
        a = ArrivalCurve.token_bucket(10, 0.1)
        b = ArrivalCurve.token_bucket(1, 1.0)
        combo = a & b
        assert combo(1) == pytest.approx(2.0)     # b active early
        assert combo(200) == pytest.approx(30.0)  # a active late

    def test_sum_aggregates(self):
        a = ArrivalCurve.token_bucket(1, 0.25)
        total = a + a
        assert total.burst == 2
        assert total.long_term_rate == pytest.approx(0.5)

    def test_breakpoints_contain_crossings(self):
        a = ArrivalCurve([TokenBucket(10, 0.1), TokenBucket(1, 1.0)])
        assert any(abs(t - 10.0) < 1e-9 for t in a.breakpoints())

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalCurve([])
        with pytest.raises(ValueError):
            TokenBucket(-1, 1)


class TestServiceCurve:
    def test_rate_latency_evaluation(self):
        beta = ServiceCurve(rate=2.0, latency=3.0)
        assert beta(3.0) == 0.0
        assert beta(5.0) == 4.0

    def test_convolution_sums_latency_min_rate(self):
        a = ServiceCurve(rate=2.0, latency=3.0)
        b = ServiceCurve(rate=1.0, latency=4.0)
        c = a.convolve(b)
        assert c.latency == 7.0
        assert c.rate == 1.0

    def test_pure_delay(self):
        delta = ServiceCurve.pure_delay(5)
        assert delta(5) == 0.0
        assert math.isinf(delta(6))

    def test_compose(self):
        composed = ServiceCurve.compose(
            [ServiceCurve.hop(d) for d in (3, 4, 5)]
        )
        assert composed.latency == 12.0
        assert composed.rate == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceCurve(rate=0, latency=0)
        with pytest.raises(ValueError):
            ServiceCurve.compose([])


class TestBounds:
    def test_classic_delay_formula(self):
        """Token bucket through rate-latency: T + b/R."""
        arrival = ArrivalCurve.token_bucket(burst=4, rate=0.5)
        service = ServiceCurve(rate=2.0, latency=3.0)
        assert delay_bound(arrival, service) == pytest.approx(3.0 + 4 / 2)

    def test_classic_backlog_formula(self):
        """b + r * T at the service latency."""
        arrival = ArrivalCurve.token_bucket(burst=4, rate=0.5)
        service = ServiceCurve(rate=2.0, latency=3.0)
        assert backlog_bound(arrival, service) == pytest.approx(4 + 0.5 * 3)

    def test_unstable_system_infinite_delay(self):
        arrival = ArrivalCurve.token_bucket(burst=1, rate=2.0)
        service = ServiceCurve(rate=1.0, latency=0.0)
        assert math.isinf(delay_bound(arrival, service))

    def test_pure_delay_bound_is_latency(self):
        arrival = ArrivalCurve.token_bucket(burst=5, rate=0.1)
        assert delay_bound(arrival, ServiceCurve.pure_delay(7)) == 7.0

    def test_residual_service(self):
        cross = ArrivalCurve.token_bucket(burst=2, rate=0.25)
        leftover = residual_service(link_rate=1.0, latency=0.0,
                                    competing=cross)
        assert leftover.rate == pytest.approx(0.75)
        assert leftover.latency == pytest.approx(2 / 0.75)

    def test_residual_rejects_saturation(self):
        with pytest.raises(ValueError):
            residual_service(1.0, 0.0,
                             ArrivalCurve.token_bucket(1, 1.0))

    @given(burst=st.floats(0.1, 20), rate=st.floats(0.01, 0.9),
           latency=st.floats(0, 20))
    def test_delay_formula_property(self, burst, rate, latency):
        arrival = ArrivalCurve.token_bucket(burst, rate)
        service = ServiceCurve(rate=1.0, latency=latency)
        assert delay_bound(arrival, service) == pytest.approx(
            latency + burst, rel=1e-6)


class TestChannelBounds:
    def test_end_to_end_equals_sum_of_delays(self):
        spec = TrafficSpec(i_min=10)
        assert channel_delay_bound(spec, [5, 7, 9]) == pytest.approx(21.0)

    def test_calculus_bound_is_sound_vs_simulation(self):
        """The analytic delay bound dominates simulated delays."""
        spec = TrafficSpec(i_min=6)
        delays = [4, 5, 6]
        bound = channel_delay_bound(spec, delays)
        sim = SlotSimulator()
        arrivals = [k * spec.i_min for k in range(40)]
        sim.add_channel("probe", ["L0", "L1", "L2"], delays, arrivals)
        sim.run_until_drained(max_ticks=10_000)
        worst = max(p.delivered_tick - p.l0 for p in sim.delivered())
        assert worst <= bound + 1  # +1: delivery rounds to tick ends
