"""Structural invariant checking for the cycle-accurate router.

The chip model holds redundant state (leaf masks vs. memory
allocation vs. eligibility counters vs. credit counters); these checks
assert the cross-component consistency conditions after any cycle.
They are deliberately O(state) — meant for tests and debugging soaks,
not for the inner loop of big simulations.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.clock import RolloverClock
from repro.core.params import MESH_LINKS, OUTPUT_PORTS
from repro.core.router import NEVER, NOW, RealTimeRouter, _links_quiet


class InvariantViolation(AssertionError):
    """A router structural invariant failed."""


def check_router_invariants(router: RealTimeRouter) -> None:
    """Raise :class:`InvariantViolation` on any inconsistency."""
    _check_derived_state(router)  # first: the checks below read these
    _check_memory_leaves(router)
    _check_eligibility_counters(router)
    _check_readers(router)
    _check_credits(router)
    _check_flit_buffers(router)
    _check_streams(router)
    check_no_shared_wires([router])


def check_no_shared_wires(routers: Iterable[RealTimeRouter]) -> None:
    """No link signal sits in two slots, of one router or of two:
    signals are written and emptied in place, so a shared one carries
    each byte to two places and loses whichever is emptied first."""
    seen: dict[int, str] = {}
    for router in routers:
        for name in ("link_in", "link_out"):
            for direction, signal in enumerate(getattr(router, name)):
                here = f"{router.router_id} {name}[{direction}]"
                if seen.setdefault(id(signal), here) is not here:
                    _fail("one link signal in two slots: "
                          f"{seen[id(signal)]} and {here}")


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def _check_memory_leaves(router: RealTimeRouter) -> None:
    """An occupied leaf implies an allocated memory slot."""
    for index in router.leaves.occupied_indices():
        if not router.memory.idle_fifo.is_allocated(index):
            _fail(f"leaf {index} occupied but memory slot is free")
    # Allocated slots are either leaf-occupied, still being written
    # (bus backlog), or being read by an in-flight transmission.
    writes_pending = router.bus.pending() > 0
    for slot in range(router.params.tc_packet_slots):
        if not router.memory.idle_fifo.is_allocated(slot):
            continue
        if router.leaves[slot].occupied:
            continue
        if router.slot_readers[slot] > 0 or writes_pending:
            continue
        _fail(f"memory slot {slot} allocated but unreachable")


def _check_eligibility_counters(router: RealTimeRouter) -> None:
    """The per-port counters match the leaf masks exactly."""
    for port in range(OUTPUT_PORTS):
        actual = sum(
            1 for index in router.leaves.occupied_indices()
            if router.leaves[index].eligible_for(port)
        )
        if actual != router.eligible_count[port]:
            _fail(
                f"eligible_count[{port}] = "
                f"{router.eligible_count[port]} but {actual} leaves "
                "are eligible"
            )


def _check_readers(router: RealTimeRouter) -> None:
    """Reader refcounts equal the in-flight streams per slot."""
    streams: dict[int, int] = {}
    for output in router.outputs.ports:
        stream = output.tc_stream
        if stream is not None and stream.slot >= 0:
            streams[stream.slot] = streams.get(stream.slot, 0) + 1
    for slot in range(router.params.tc_packet_slots):
        expected = streams.get(slot, 0)
        if router.slot_readers[slot] != expected:
            _fail(
                f"slot {slot} readers = {router.slot_readers[slot]}, "
                f"but {expected} active streams reference it"
            )
        if router.slot_readers[slot] < 0:
            _fail(f"slot {slot} has negative readers")


def _check_credits(router: RealTimeRouter) -> None:
    for direction in range(MESH_LINKS):
        credits = router.outputs.ports[direction].credits
        if not 0 <= credits.credits <= credits.capacity:
            _fail(
                f"credits on link {direction} out of range: "
                f"{credits.credits}/{credits.capacity}"
            )


def _check_flit_buffers(router: RealTimeRouter) -> None:
    for port, state in enumerate(router.inputs.ports):
        if state.buffer.occupancy > state.buffer.capacity:
            _fail(f"flit buffer {port} over capacity")
        if state.transferred < 0:
            _fail(f"input {port} transferred byte count negative")
        if state.bound and state.out_port is None:
            _fail(f"input {port} bound without a routing decision")
        if state.out_port is not None and not state.headers:
            _fail(f"input {port} routed to port {state.out_port} "
                  "without a header")  # a step skips headerless inputs


def _check_streams(router: RealTimeRouter) -> None:
    for port, output in enumerate(router.outputs.ports):
        stream = output.tc_stream
        if stream is None:
            continue
        if stream.sent > router.params.tc_packet_bytes:
            _fail(f"stream on port {port} sent too many bytes")
        if stream.sent + len(stream.staging) > router.params.tc_packet_bytes:
            _fail(f"stream on port {port} staged beyond packet size")


def _check_derived_state(router: RealTimeRouter) -> None:
    """Maintained summaries equal a fresh scan of what they summarise."""
    leaves = router.leaves
    scan = [i for i in range(len(leaves)) if leaves[i].port_mask != 0]
    kept = list(leaves.occupied_indices())
    if kept != scan:
        _fail(f"occupied leaf indices {kept} but the masks say {scan}")
    bus = router.bus
    queued = sum(bus.pending(port) for port in range(bus.ports))
    if bus.pending() != queued:
        _fail(f"bus pending count {bus.pending()} but {queued} are queued")
    inputs = router.inputs
    in_sync = sum(len(port.sync) for port in inputs.ports)
    if inputs.sync_count != in_sync:
        _fail(f"synchroniser count {inputs.sync_count} but {in_sync} "
              "bytes are queued")
    full_frame = any(len(port.rx_bytes) >= router.params.tc_packet_bytes
                     for port in inputs.ports)
    if inputs.frame_ready != full_frame:
        _fail(f"frame-ready flag {inputs.frame_ready} but a full "
              f"packet waiting is {full_frame}")
    pipeline = router.pipeline
    if pipeline.wake_cycle != pipeline._earliest_action():
        _fail(f"pipeline wake cycle {pipeline.wake_cycle} but its queues "
              f"say {pipeline._earliest_action()}")
    if router._slot_cycles != router.params.slot_cycles:
        _fail(f"slot length read as {router._slot_cycles} cycles but "
              f"the parameters say {router.params.slot_cycles}")
    _check_activity(router)


def _check_activity(router: RealTimeRouter) -> None:
    """The remembered activity answer equals a fresh one (a deadline
    that has come is due, not stale) and no buffered packet may be
    committed before it; only a router that holds packets lags."""
    leaves = router.leaves
    if router._pipeline_lag is not None and not leaves.occupancy:
        _fail(f"pipeline lagging since cycle {router._pipeline_lag} "
              "with an empty leaf array")
    at = router._work_at
    if at is None or NOW < at <= router.cycle:
        return
    fresh = (NEVER if router._holds_nothing()
             else router._dormancy_deadline())
    if fresh != at:
        _fail(f"remembered next work at cycle {at} but a fresh "
              f"computation says {fresh}")
    if at in (NOW, NEVER):
        return
    slot_cycles = router.params.slot_cycles
    for tick in range(router.cycle // slot_cycles, at // slot_cycles):
        clock = RolloverClock(bits=router.params.clock_bits,
                              now=tick + router.clock_skew_ticks)
        for index in leaves.occupied_indices():
            leaf = leaves[index]
            if clock.is_past(leaf.arrival) or any(
                    clock.remaining_until(leaf.arrival)
                    <= router.control.horizons[port]
                    for port in range(OUTPUT_PORTS)
                    if leaf.eligible_for(port)):
                _fail(f"dormant until cycle {at} but leaf {index} may "
                      f"be committed in tick {tick}")


class CheckedRouter(RealTimeRouter):
    """A router that verifies its invariants after every cycle.

    Drop-in replacement for :class:`RealTimeRouter` in tests and
    debugging runs.
    """

    def step(self, cycle=None) -> None:  # type: ignore[override]
        super().step(cycle)
        if not _links_quiet(self.link_in):
            _fail("a step left an input signal unconsumed")
        check_router_invariants(self)
