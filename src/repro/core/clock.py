"""The router's modular scheduler clock and rollover arithmetic.

The chip keeps an n-bit clock that ticks once per packet transmission
time.  Logical arrival times and deadlines are carried as n-bit values,
so the hardware must interpret them correctly across clock rollover
(paper section 4.3 and Figure 6).  The trick is the *half-range
condition*: as long as every connection keeps ``h_{j-1} + d_{j-1}`` and
``d_j`` below half the clock range, any stored timestamp is within half
a clock range of the current time, and modular subtraction recovers the
true signed offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RolloverClock:
    """An n-bit wrapping clock with modular comparison helpers.

    The clock advances by explicit :meth:`tick` calls (the surrounding
    simulation decides the cadence — one tick per packet slot time in
    the chip).  ``now`` is always in ``[0, 2^bits)``.
    """

    bits: int = 8
    now: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 62:
            raise ValueError("clock bits must be in [2, 62]")
        self.range = 1 << self.bits
        self.half_range = self.range // 2
        self.mask = self.range - 1
        self.now &= self.mask

    def tick(self, ticks: int = 1) -> int:
        """Advance the clock by ``ticks`` and return the new value."""
        if ticks < 0:
            raise ValueError("clock cannot run backwards")
        self.now = (self.now + ticks) & self.mask
        return self.now

    def set(self, value: int) -> None:
        """Force the clock to ``value`` (used by tests and checkpoints)."""
        self.now = value & self.mask

    def state(self) -> dict:
        """Checkpoint state (see ``docs/checkpointing.md``)."""
        return {"now": self.now}

    def load_state(self, state: dict) -> None:
        self.set(int(state["now"]))

    # ------------------------------------------------------------------
    # Modular time algebra
    # ------------------------------------------------------------------

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer timestamp to the clock's range."""
        return value & self.mask

    def elapsed_since(self, timestamp: int) -> int:
        """Cycles elapsed since ``timestamp``: ``(now - ts) mod range``."""
        return (self.now - timestamp) & self.mask

    def remaining_until(self, timestamp: int) -> int:
        """Cycles until ``timestamp``: ``(ts - now) mod range``."""
        return (timestamp - self.now) & self.mask

    def is_past(self, timestamp: int) -> bool:
        """True if ``timestamp`` is in the past half-window of ``now``.

        With the half-range condition in force, a stored timestamp whose
        modular distance behind ``now`` is less than half the range must
        be a past (or current) instant; otherwise it is a future one.
        This is exactly the early/on-time test of paper Figure 6: at
        ``t = 240`` with an 8-bit clock, ``l = 210`` is on-time
        (``(240 - 210) mod 256 = 30 < 128``) while ``l = 80`` is early
        (``(240 - 80) mod 256 = 160 >= 128``).
        """
        return self.elapsed_since(timestamp) < self.half_range

    def is_future(self, timestamp: int) -> bool:
        """True if ``timestamp`` is strictly in the future half-window."""
        return not self.is_past(timestamp)

    def signed_offset(self, timestamp: int) -> int:
        """Signed offset ``timestamp - now`` in ``[-half, half)``."""
        delta = self.remaining_until(timestamp)
        if delta >= self.half_range:
            return delta - self.range
        return delta


def unwrapped_order_preserved(bits: int, now: int, a: int, b: int) -> bool:
    """Whether modular comparison at time ``now`` orders ``a`` before ``b``.

    Helper for tests: compares two *unwrapped* timestamps both within
    half a range of ``now`` via the clock's modular arithmetic and
    reports whether the modular ordering agrees with the true ordering.
    """
    clock = RolloverClock(bits=bits, now=now & ((1 << bits) - 1))
    wrapped_cmp = clock.remaining_until(a) <= clock.remaining_until(b)
    return wrapped_cmp == (a <= b)
