"""Traffic sources for network experiments.

Sources are callables invoked once per cycle by the host node; they
return a list of :class:`~repro.network.node.Send` requests.  The
time-constrained sources speak in scheduler ticks (packet slot times)
and fire on tick boundaries; best-effort sources may fire on any cycle.

Sources may additionally implement ``next_fire_cycle(cycle)`` — the
event-scheduler contract (see ``docs/performance.md``): the
earliest cycle at or after ``cycle`` on which calling the source could
return sends or mutate its state, or ``None`` when it will never fire
again.  Deterministic periodic sources implement it directly;
:class:`PoissonBestEffortSource` implements it with a *draw-ahead
buffer* — it consumes its seeded per-cycle RNG stream in the original
draw order but ahead of simulated time, so the arrival sequence is
byte-identical to per-cycle polling while idle gaps between arrivals
can be skipped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.params import TC_PACKET_BYTES
from repro.network.node import Send

#: Default cycles per scheduler tick (20-byte packets, 1 byte/cycle).
DEFAULT_SLOT_CYCLES = TC_PACKET_BYTES


@dataclass
class PeriodicSource:
    """Sends one message on a channel every ``period`` ticks.

    This is the canonical real-time workload: sensor samples, control
    commands, status heartbeats.  ``period`` should be at least the
    channel's ``i_min`` for a conformant source; setting it lower
    produces a misbehaving source for isolation experiments (the
    regulator will shape it).
    """

    channel: object
    period: int
    payload: bytes = b""
    start_tick: int = 0
    count: Optional[int] = None
    slot_cycles: int = DEFAULT_SLOT_CYCLES
    sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be at least one tick")

    def state(self) -> dict:
        """Checkpoint state (configuration is rebuilt, not saved)."""
        return {"sent": self.sent}

    def load_state(self, state: dict) -> None:
        self.sent = int(state["sent"])

    def __call__(self, cycle: int) -> list[Send]:
        if self.count is not None and self.sent >= self.count:
            return []
        if cycle % self.slot_cycles != 0:
            return []
        tick = cycle // self.slot_cycles
        if tick < self.start_tick or (tick - self.start_tick) % self.period:
            return []
        self.sent += 1
        return [Send(traffic_class="TC", channel=self.channel,
                     payload=self.payload)]

    def next_fire_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle this source fires (event-scheduler contract)."""
        if self.count is not None and self.sent >= self.count:
            return None
        tick = -(-cycle // self.slot_cycles)  # next tick boundary
        tick = max(tick, self.start_tick)
        remainder = (tick - self.start_tick) % self.period
        if remainder:
            tick += self.period - remainder
        return tick * self.slot_cycles


@dataclass
class BurstySource:
    """Sends ``burst`` messages together every ``period`` ticks.

    Exercises the B_max allowance of the linear bounded arrival
    process; the source regulator spaces the logical arrival times.
    """

    channel: object
    period: int
    burst: int = 2
    payload: bytes = b""
    count: Optional[int] = None
    slot_cycles: int = DEFAULT_SLOT_CYCLES
    sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.period < 1 or self.burst < 1:
            raise ValueError("period and burst must be positive")

    def state(self) -> dict:
        """Checkpoint state (configuration is rebuilt, not saved)."""
        return {"sent": self.sent}

    def load_state(self, state: dict) -> None:
        self.sent = int(state["sent"])

    def __call__(self, cycle: int) -> list[Send]:
        if self.count is not None and self.sent >= self.count:
            return []
        if cycle % (self.period * self.slot_cycles) != 0:
            return []
        n = self.burst
        if self.count is not None:
            n = min(n, self.count - self.sent)
        self.sent += n
        return [Send(traffic_class="TC", channel=self.channel,
                     payload=self.payload)] * n

    def next_fire_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle this source fires (event-scheduler contract)."""
        if self.count is not None and self.sent >= self.count:
            return None
        span = self.period * self.slot_cycles
        return -(-cycle // span) * span


@dataclass
class BackloggedSource:
    """Keeps a channel continually backlogged (Figure 7 workload).

    Sends a message every ``i_min`` ticks so the connection always has
    traffic waiting — "each connection has a continual backlog" in the
    paper's words — without flooding the regulator queue unboundedly.
    """

    channel: object
    slot_cycles: int = DEFAULT_SLOT_CYCLES

    def __call__(self, cycle: int) -> list[Send]:
        if cycle % self.slot_cycles != 0:
            return []
        tick = cycle // self.slot_cycles
        if tick % self.channel.spec.i_min == 0:
            return [Send(traffic_class="TC", channel=self.channel)]
        return []

    def next_fire_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle this source fires (event-scheduler contract)."""
        span = self.channel.spec.i_min * self.slot_cycles
        return -(-cycle // span) * span


@dataclass
class PoissonBestEffortSource:
    """Memoryless best-effort traffic to randomly chosen destinations.

    ``rate`` is the expected packets per cycle; sizes are drawn from
    ``size_choices`` (total wire bytes including the 4-byte header).

    The seeded stream is conceptually one ``random()`` draw per cycle
    (an arrival when the draw is below ``rate``, followed by a size and
    a destination draw).  The source consumes that stream in exactly
    that order but *ahead of time*: after each arrival it scans forward
    to the next one and remembers it (``_pending``), so
    ``next_fire_cycle`` can answer without touching the RNG and the
    engine can skip the gap — the emitted packet sequence is
    draw-for-draw identical to per-cycle polling
    (``tests/traffic/test_generators.py`` pins this).
    """

    destinations: Sequence[tuple[int, int]]
    rate: float
    size_choices: Sequence[int] = (20, 40, 80)
    seed: int = 0
    rng: random.Random = field(init=False)
    _sizes: tuple[int, ...] = field(init=False, repr=False)
    _dests: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    #: Next arrival as ``(cycle, size, destination)``; ``None`` until
    #: the first scan anchors the stream.
    _pending: Optional[tuple] = field(init=False, repr=False)
    #: First cycle whose ``random()`` draw has not been consumed yet
    #: (``None`` = not anchored: adopt the first cycle we are asked
    #: about, which also re-anchors old-format checkpoints correctly).
    _anchor: Optional[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.rate <= 1:
            raise ValueError("rate must be a per-cycle probability")
        if not self.destinations:
            raise ValueError("need at least one destination")
        self.rng = random.Random(self.seed)
        # random.choice only indexes the sequence, so drawing from a
        # pre-built tuple is draw-for-draw identical to rebuilding a
        # list on every arrival — and keeps the hot path allocation-free.
        self._sizes = tuple(self.size_choices)
        self._dests = tuple(tuple(dest) for dest in self.destinations)
        self._pending = None
        self._anchor = None

    def _scan(self, from_cycle: int) -> None:
        """Draw ahead to the next arrival at or after ``from_cycle``.

        Consumes one ``random()`` per simulated cycle until one lands
        below ``rate``, then the size and destination draws — the exact
        order per-cycle polling used, so the RNG stream is unchanged.
        """
        if self._anchor is None:
            self._anchor = from_cycle
        cycle = self._anchor
        rng = self.rng
        rate = self.rate
        while True:
            if rng.random() < rate:
                size = rng.choice(self._sizes)
                destination = rng.choice(self._dests)
                self._pending = (cycle, size, destination)
                self._anchor = cycle + 1
                return
            cycle += 1

    def __call__(self, cycle: int) -> list[Send]:
        if self.rate <= 0:
            return []  # never fires; the RNG stream stays untouched
        if self._pending is None:
            self._scan(cycle)
        arrival, size, destination = self._pending
        if cycle < arrival:
            return []
        self._pending = None
        # Eagerly scan for the next arrival so the RNG position at any
        # cycle boundary is identical on the per-cycle oracle and the
        # event scheduler — checkpoints compare byte-for-byte.
        self._scan(self._anchor)
        payload = bytes(max(0, size - 4))
        return [Send(traffic_class="BE", destination=destination,
                     payload=payload)]

    def next_fire_cycle(self, cycle: int) -> Optional[int]:
        """Next arrival cycle (event-scheduler contract, RNG untouched
        beyond the pre-drawn buffer)."""
        if self.rate <= 0:
            return None
        if self._pending is None:
            self._scan(cycle)
        return max(cycle, self._pending[0])

    def state(self) -> dict:
        """Checkpoint state: RNG position plus the draw-ahead buffer."""
        from repro.checkpoint.codec import rng_state

        return {
            "rng": rng_state(self.rng),
            "anchor": self._anchor,
            "pending": (None if self._pending is None
                        else [self._pending[0], self._pending[1],
                              list(self._pending[2])]),
        }

    def load_state(self, state: dict) -> None:
        from repro.checkpoint.codec import load_rng

        load_rng(self.rng, state["rng"])
        if "anchor" in state:
            self._anchor = state["anchor"]
            pending = state["pending"]
            self._pending = (None if pending is None
                             else (int(pending[0]), int(pending[1]),
                                   tuple(pending[2])))
        else:
            # Old-format checkpoint (per-cycle draws, RNG only): the
            # next unconsumed draw belongs to the current cycle, which
            # the deferred anchor adopts on first use.
            self._anchor = None
            self._pending = None


@dataclass
class BackloggedBestEffortSource:
    """Keeps the best-effort injection port saturated toward one node.

    Used for the Figure 7 scenario ("best-effort flits consume any
    remaining link bandwidth") and for interference experiments.
    """

    destination: tuple[int, int]
    packet_bytes: int = 64
    max_outstanding: int = 4
    _router_probe: Optional[Callable[[], int]] = None

    def attach_probe(self, probe: Callable[[], int]) -> None:
        """Install a callable returning the injection backlog."""
        self._router_probe = probe

    def __call__(self, cycle: int) -> list[Send]:
        if self._router_probe is not None:
            if self._router_probe() >= self.max_outstanding:
                return []
        elif cycle % self.packet_bytes != 0:
            return []
        payload = bytes(max(0, self.packet_bytes - 4))
        return [Send(traffic_class="BE", destination=self.destination,
                     payload=payload)]

    def next_fire_cycle(self, cycle: int) -> Optional[int]:
        """Next cycle this source fires (event-scheduler contract)."""
        if self._router_probe is not None:
            # Backlog-probing mode watches live router state, which can
            # change on any cycle the router is active; poll every
            # cycle (the fabric is never idle while it has backlog).
            return cycle
        return -(-cycle // self.packet_bytes) * self.packet_bytes
