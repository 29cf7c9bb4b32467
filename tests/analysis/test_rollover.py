"""Tests for the clock-rollover arithmetic (paper section 4.3)."""

from hypothesis import given, strategies as st

from repro.analysis import classify, is_safe, live_window, required_clock_bits


class TestRollover:
    def test_live_window(self):
        window = live_window(local_delay=10, upstream_delay=12,
                             upstream_horizon=5)
        assert window.behind == 10
        assert window.ahead == 17
        assert window.span == 28

    def test_is_safe(self):
        assert is_safe(8, 127, 0, 0)
        assert not is_safe(8, 128, 0, 0)
        assert not is_safe(8, 10, 100, 30)

    def test_required_bits(self):
        # Fitting d = 127 with h = 0 needs the paper's 8-bit clock.
        assert required_clock_bits(127, 0) == 8
        assert required_clock_bits(10, 5) <= 5

    def test_classify_matches_figure6(self):
        assert classify(8, now=240, logical_arrival=210) == "on-time"
        assert classify(8, now=240, logical_arrival=80) == "early"

    @given(bits=st.integers(4, 12), offset=st.integers(0, 200),
           now=st.integers(0, 10_000))
    def test_classification_correct_within_half_range(self, bits, offset,
                                                      now):
        half = (1 << bits) // 2
        offset %= half
        mask = (1 << bits) - 1
        assert classify(bits, now & mask, (now - offset) & mask) == "on-time"
        if offset:
            assert classify(bits, now & mask, (now + offset) & mask) == "early"
