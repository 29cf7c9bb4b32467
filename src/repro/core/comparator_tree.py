"""The shared comparator tree that schedules time-constrained packets.

Rather than keeping packets sorted, the router runs a tournament over
all packet leaves every time an output port needs a transmission
decision (paper section 4.2 and Figure 5).  The base of the tree
computes each leaf's 9-bit key relative to the current time (so plain
unsigned comparisons work across clock rollover); interior comparator
levels propagate the minimum; a final comparator at the top applies the
port's horizon check to early winners.

All five output ports share one tree.  The hardware pipelines the tree
in two stages so decisions overlap packet transmission;
:class:`SchedulerPipeline` models that cadence (initiation interval and
latency) on top of the combinational :class:`ComparatorTree`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.clock import RolloverClock
from repro.core.leaf_state import LeafArray
from repro.core.params import RouterParams
from repro.core.sorting_key import (
    SortingKey,
    packed_key,
    unpack_key,
    within_horizon,
)


@dataclass(frozen=True)
class Selection:
    """The tree's answer to one scheduling request."""

    leaf_index: int
    key: SortingKey
    transmissible: bool     # on-time, or early within the port horizon


class ComparatorTree:
    """Combinational min-key tournament over the leaf array.

    ``select_for_port`` is the functional contract of the hardware tree:
    among leaves whose port mask includes ``port``, return the one with
    the smallest key at the clock's current time.  Comparator count and
    depth (for the cost model and the pipeline cadence) follow the
    binary-tournament structure of Figure 5.
    """

    def __init__(self, params: RouterParams, leaves: LeafArray) -> None:
        self.params = params
        self.leaves = leaves
        #: Number of scheduling tournaments evaluated (instrumentation).
        self.evaluations = 0
        #: Packed-key computations and cache reuses (instrumentation).
        self.keys_computed = 0
        self.keys_reused = 0
        # A leaf's key is a pure function of (clock tick, arrival,
        # deadline), and the clock only ticks once per packet slot time
        # while tournaments run far more often (one per port per
        # pipeline completion).  Caching the packed key per leaf,
        # validated against all three inputs, means idle leaves are not
        # re-keyed — a cache hit returns exactly what recomputation
        # would, so behaviour is unchanged even across clock rollover
        # (same inputs, same output).
        self._key_cache: list[tuple[int, int, int, int]] = (
            [(-1, -1, -1, 0)] * len(leaves)
        )

    # -- structural properties (used by the hardware cost model) --------

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def comparator_count(self) -> int:
        """Interior comparators of a binary tournament (n - 1), plus the
        horizon comparator at the top."""
        return max(0, self.leaf_count - 1) + 1

    @property
    def depth(self) -> int:
        """Comparator levels from leaves to the root."""
        levels = 0
        width = self.leaf_count
        while width > 1:
            width = -(-width // 2)
            levels += 1
        return levels

    # -- scheduling -------------------------------------------------------

    def select_for_port(
        self, port: int, clock: RolloverClock, horizon: int,
    ) -> Optional[Selection]:
        """Tournament for one output port at the current time.

        Returns None when no leaf is eligible for the port.  Ties break
        toward the lower leaf index, matching a left-biased comparator
        tree.
        """
        self.evaluations += 1
        best_index = -1
        best_packed = -1
        now = clock.now
        cache = self._key_cache
        for index in self.leaves.occupied_indices():
            leaf = self.leaves[index]
            if not leaf.eligible_for(port):
                continue
            entry = cache[index]
            if (entry[0] == now and entry[1] == leaf.arrival
                    and entry[2] == leaf.deadline):
                packed = entry[3]
                self.keys_reused += 1
            else:
                packed = packed_key(clock, leaf.arrival, leaf.deadline)
                cache[index] = (now, leaf.arrival, leaf.deadline, packed)
                self.keys_computed += 1
            # Strict < over ascending indices: ties break toward the
            # lower leaf index, matching a left-biased comparator tree.
            if best_index < 0 or packed < best_packed:
                best_packed = packed
                best_index = index
        if best_index < 0:
            return None
        best_key = unpack_key(best_packed, self.params.clock_bits)
        return Selection(
            leaf_index=best_index,
            key=best_key,
            transmissible=within_horizon(clock, best_key, horizon),
        )

    def select_all_ports(
        self, clock: RolloverClock, horizons: list[int],
    ) -> list[Optional[Selection]]:
        """One tournament per output port (testing convenience)."""
        return [self.select_for_port(port, clock, horizons[port])
                for port in range(len(horizons))]

    # -- checkpointing ----------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state: instrumentation counters and the key cache.

        The cache is behaviour-neutral (a hit returns what recomputation
        would), but restoring it keeps the ``keys_computed`` /
        ``keys_reused`` counters byte-identical after a resume.
        """
        return {
            "evaluations": self.evaluations,
            "keys_computed": self.keys_computed,
            "keys_reused": self.keys_reused,
            "key_cache": [list(entry) for entry in self._key_cache],
        }

    def load_state(self, state: dict) -> None:
        self.evaluations = int(state["evaluations"])
        self.keys_computed = int(state["keys_computed"])
        self.keys_reused = int(state["keys_reused"])
        self._key_cache = [tuple(entry) for entry in state["key_cache"]]


@dataclass
class _PipelineJob:
    port: int
    ready_cycle: int


class SchedulerPipeline:
    """Timing wrapper: the tree as a two-stage shared pipeline.

    Ports submit requests; the pipeline starts at most one tournament
    every ``initiation_interval`` cycles and delivers each result
    ``latency`` cycles after it starts, in request order (round-robin
    fairness falls out of the FIFO request queue because every port has
    at most one request outstanding).

    The *result is evaluated at completion time*, not at request time —
    the real pipeline's final stage latches the winner computed from
    leaf state as the keys flow through, so a model that snapshots any
    earlier would be more stale than the hardware, and one that consults
    the leaves at grant time matches the freshest the chip can be.
    """

    #: Chip stage delay: ~50 ns per stage at a 20 ns cycle -> 3 cycles.
    STAGE_CYCLES = 3

    def __init__(self, params: RouterParams, tree: ComparatorTree) -> None:
        self.params = params
        self.tree = tree
        self.latency = params.pipeline_stages * self.STAGE_CYCLES
        self.initiation_interval = self.STAGE_CYCLES
        self._queue: deque[_PipelineJob] = deque()
        self._inflight: deque[_PipelineJob] = deque()
        self._ports_waiting: set[int] = set()
        self._next_start_cycle = 0
        #: Earliest cycle at which :meth:`step` can do anything (finish
        #: or start a tournament); ``None`` while there is no request.
        #: Derived from the queues, never serialised.
        self.wake_cycle: Optional[int] = None

    def _earliest_action(self) -> Optional[int]:
        """What :attr:`wake_cycle` must read, from the queues."""
        wake = self._inflight[0].ready_cycle if self._inflight else None
        if self._queue and (wake is None or self._next_start_cycle < wake):
            wake = self._next_start_cycle
        return wake

    @property
    def busy(self) -> bool:
        """Whether any request is queued or in flight."""
        return bool(self._queue or self._inflight)

    def request(self, port: int) -> bool:
        """Enqueue a scheduling request; one outstanding per port."""
        if port in self._ports_waiting:
            return False
        self._ports_waiting.add(port)
        self._queue.append(_PipelineJob(port=port, ready_cycle=-1))
        self.wake_cycle = self._earliest_action()
        return True

    def has_request(self, port: int) -> bool:
        return port in self._ports_waiting

    def _advance(self, cycle: int) -> list[int]:
        """One cycle of queue bookkeeping, the tree not consulted.

        Returns the ports whose tournament completes now, in completion
        order, and starts the next one when the initiation interval
        allows.
        """
        done = []
        while self._inflight and self._inflight[0].ready_cycle <= cycle:
            port = self._inflight.popleft().port
            self._ports_waiting.discard(port)
            done.append(port)
        if self._queue and cycle >= self._next_start_cycle:
            job = self._queue.popleft()
            job.ready_cycle = cycle + self.latency
            self._inflight.append(job)
            self._next_start_cycle = cycle + self.initiation_interval
        return done

    def step(self, cycle: int, clock: RolloverClock,
             horizons: list[int]) -> list[tuple[int, Optional[Selection]]]:
        """Advance one router cycle; return completed (port, selection).

        Starts a new tournament when the initiation interval allows,
        and completes tournaments whose latency has elapsed.
        """
        completed = [
            (port, self.tree.select_for_port(port, clock, horizons[port]))
            for port in self._advance(cycle)
        ]
        self.wake_cycle = self._earliest_action()
        return completed

    def replay(self, start: int, end: int,
               ports: list[int]) -> list[tuple[int, int]]:
        """Advance over cycles ``[start, end)`` in which nothing commits.

        Leaves the queues exactly as one :meth:`step` per cycle would
        have, given that every tournament of the span defers and its
        port — one of ``ports``, ascending, each with a request
        outstanding at ``start`` — asks again in the cycle it completes
        (so that request starts no earlier than the next cycle and
        ``_next_start_cycle``).  Moves from event to event and never
        consults the tree; returns the completions as (cycle, port).
        """
        completed = []
        cycle = start - 1
        while True:
            wake = self._earliest_action()
            if wake is None:
                break
            cycle = max(wake, cycle + 1)
            if cycle >= end:
                break
            completed.extend((cycle, port) for port in self._advance(cycle))
            for port in ports:
                self.request(port)
        self.wake_cycle = self._earliest_action()
        return completed

    # -- checkpointing ----------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state.  Job results are computed at completion
        time from leaf state, so per-job ``(port, ready_cycle)`` is the
        whole story — no :class:`Selection` needs serialising."""
        return {
            "queue": [[job.port, job.ready_cycle] for job in self._queue],
            "inflight": [[job.port, job.ready_cycle]
                         for job in self._inflight],
            "next_start_cycle": self._next_start_cycle,
        }

    def load_state(self, state: dict) -> None:
        self._queue = deque(
            _PipelineJob(port=port, ready_cycle=ready)
            for port, ready in state["queue"]
        )
        self._inflight = deque(
            _PipelineJob(port=port, ready_cycle=ready)
            for port, ready in state["inflight"]
        )
        self._ports_waiting = {job.port for job in self._queue} | {
            job.port for job in self._inflight
        }
        self._next_start_cycle = int(state["next_start_cycle"])
        self.wake_cycle = self._earliest_action()
