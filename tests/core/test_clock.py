"""Tests for the modular scheduler clock and rollover arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.core.clock import RolloverClock, unwrapped_order_preserved
from repro.core.sorting_key import packed_key


class TestBasics:
    def test_starts_at_zero(self):
        assert RolloverClock(bits=8).now == 0

    def test_tick_advances(self):
        clock = RolloverClock(bits=8)
        assert clock.tick() == 1
        assert clock.tick(5) == 6

    def test_tick_wraps(self):
        clock = RolloverClock(bits=8, now=255)
        assert clock.tick() == 0

    def test_tick_rejects_negative(self):
        with pytest.raises(ValueError):
            RolloverClock(bits=8).tick(-1)

    def test_initial_value_is_wrapped(self):
        assert RolloverClock(bits=8, now=300).now == 44

    def test_set_wraps(self):
        clock = RolloverClock(bits=8)
        clock.set(256 + 7)
        assert clock.now == 7

    @pytest.mark.parametrize("bits", [0, 1, 63, 100])
    def test_rejects_bad_widths(self, bits):
        with pytest.raises(ValueError):
            RolloverClock(bits=bits)

    def test_range_properties(self):
        clock = RolloverClock(bits=8)
        assert clock.range == 256
        assert clock.half_range == 128
        assert clock.mask == 255


class TestModularAlgebra:
    def test_elapsed_since(self):
        clock = RolloverClock(bits=8, now=10)
        assert clock.elapsed_since(5) == 5

    def test_elapsed_across_rollover(self):
        clock = RolloverClock(bits=8, now=3)
        assert clock.elapsed_since(250) == 9

    def test_remaining_until(self):
        clock = RolloverClock(bits=8, now=10)
        assert clock.remaining_until(15) == 5

    def test_remaining_across_rollover(self):
        clock = RolloverClock(bits=8, now=250)
        assert clock.remaining_until(3) == 9

    def test_paper_figure6_examples(self):
        # At t = 240 with an 8-bit clock: l = 210 is on-time (past),
        # l = 80 is early (future after wrapping).
        clock = RolloverClock(bits=8, now=240)
        assert clock.is_past(210)
        assert not clock.is_past(80)
        assert clock.is_future(80)

    def test_now_is_past(self):
        clock = RolloverClock(bits=8, now=100)
        assert clock.is_past(100)

    def test_signed_offset_positive(self):
        clock = RolloverClock(bits=8, now=10)
        assert clock.signed_offset(20) == 10

    def test_signed_offset_negative(self):
        clock = RolloverClock(bits=8, now=10)
        assert clock.signed_offset(5) == -5

    def test_signed_offset_across_rollover(self):
        clock = RolloverClock(bits=8, now=250)
        assert clock.signed_offset(4) == 10
        assert clock.signed_offset(240) == -10


class TestFigure6Decision:
    """``is_past`` is the chip's early/on-time test (paper Figure 6)."""

    def test_at_the_half_boundary(self):
        half = RolloverClock(bits=8).half_range
        assert RolloverClock(bits=8, now=100).is_past(100)  # zero age
        assert RolloverClock(bits=8, now=100 + half - 1).is_past(100)
        assert not RolloverClock(bits=8, now=100 + half).is_past(100)
        assert not RolloverClock(bits=8, now=100).is_past(101)

    def test_ages_congruent_mod_range_decide_alike(self):
        decision = RolloverClock(bits=8, now=300).is_past(44)
        assert RolloverClock(bits=8, now=300 + 256).is_past(44) == decision
        assert RolloverClock(bits=8, now=300).is_past(44 + 256) == decision

    def test_figure6_examples_set_the_key_early_bit(self):
        # At t = 240 on an 8-bit clock the comparator key ranks l = 210
        # as on-time and l = 80 as early.
        clock = RolloverClock(bits=8, now=240)
        assert not packed_key(clock, 210, 250) >> 8
        assert packed_key(clock, 80, 100) >> 8 == 1

    @given(bits=st.integers(4, 12), age=st.integers(0, 200),
           now=st.integers(0, 10_000))
    def test_age_below_half_range_is_on_time(self, bits, age, now):
        clock = RolloverClock(bits=bits, now=now)
        age %= clock.half_range
        assert clock.is_past((now - age) & clock.mask)
        if age:
            assert not clock.is_past((now + age) & clock.mask)


class TestRolloverOrderingProperty:
    @given(
        now=st.integers(min_value=0, max_value=10_000),
        offset_a=st.integers(min_value=-127, max_value=127),
        offset_b=st.integers(min_value=-127, max_value=127),
    )
    def test_half_range_offsets_order_correctly(self, now, offset_a, offset_b):
        """Timestamps within half a range of now order like integers."""
        clock = RolloverClock(bits=8, now=now)
        a, b = now + offset_a, now + offset_b
        wrapped_order = (
            clock.signed_offset(a & 255) <= clock.signed_offset(b & 255)
        )
        assert wrapped_order == (a <= b)

    @given(
        bits=st.integers(min_value=4, max_value=16),
        now=st.integers(min_value=0, max_value=100_000),
        delta=st.integers(min_value=0, max_value=2**15),
    )
    def test_future_remaining_roundtrip(self, bits, now, delta):
        clock = RolloverClock(bits=bits, now=now)
        delta = delta % clock.half_range
        target = (now + delta) & clock.mask
        assert clock.remaining_until(target) == delta
        assert clock.elapsed_since((now - delta) & clock.mask) == delta

    @given(
        now=st.integers(min_value=0, max_value=4095),
        a=st.integers(min_value=0, max_value=127),
        b=st.integers(min_value=0, max_value=127),
    )
    def test_unwrapped_helper_agrees(self, now, a, b):
        assert unwrapped_order_preserved(8, now, now + a, now + b)
