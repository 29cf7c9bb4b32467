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
from repro.core.router import RealTimeRouter, _links_quiet


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
        if router._slot_readers[slot] > 0 or writes_pending:
            continue
        _fail(f"memory slot {slot} allocated but unreachable")


def _check_eligibility_counters(router: RealTimeRouter) -> None:
    """The per-port counters match the leaf masks exactly."""
    for port in range(OUTPUT_PORTS):
        actual = sum(
            1 for index in router.leaves.occupied_indices()
            if router.leaves[index].eligible_for(port)
        )
        if actual != router._eligible_count[port]:
            _fail(
                f"eligible_count[{port}] = "
                f"{router._eligible_count[port]} but {actual} leaves "
                "are eligible"
            )


def _check_readers(router: RealTimeRouter) -> None:
    """Reader refcounts equal the in-flight streams per slot."""
    streams: dict[int, int] = {}
    for output in router._outputs:
        stream = output.tc_stream
        if stream is not None and stream.slot >= 0:
            streams[stream.slot] = streams.get(stream.slot, 0) + 1
    for slot in range(router.params.tc_packet_slots):
        expected = streams.get(slot, 0)
        if router._slot_readers[slot] != expected:
            _fail(
                f"slot {slot} readers = {router._slot_readers[slot]}, "
                f"but {expected} active streams reference it"
            )
        if router._slot_readers[slot] < 0:
            _fail(f"slot {slot} has negative readers")


def _check_credits(router: RealTimeRouter) -> None:
    for direction in range(MESH_LINKS):
        credits = router._outputs[direction].credits
        if not 0 <= credits.credits <= credits.capacity:
            _fail(
                f"credits on link {direction} out of range: "
                f"{credits.credits}/{credits.capacity}"
            )


def _check_flit_buffers(router: RealTimeRouter) -> None:
    for port, state in enumerate(router._be_inputs):
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
    for port, output in enumerate(router._outputs):
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
    in_sync = sum(len(queue) for queue in router._sync_queues)
    if router._sync_count != in_sync:
        _fail(f"synchroniser count {router._sync_count} but {in_sync} "
              "bytes are queued")
    full_frame = any(len(tc_input.rx_bytes) >= router.params.tc_packet_bytes
                     for tc_input in router._tc_inputs)
    if router._tc_frame_ready != full_frame:
        _fail(f"frame-ready flag {router._tc_frame_ready} but a full "
              f"packet waiting is {full_frame}")
    pipeline = router.pipeline
    if pipeline.wake_cycle != pipeline._earliest_action():
        _fail(f"pipeline wake cycle {pipeline.wake_cycle} but its queues "
              f"say {pipeline._earliest_action()}")
    if router._slot_cycles != router.params.slot_cycles:
        _fail(f"slot length read as {router._slot_cycles} cycles but "
              f"the parameters say {router.params.slot_cycles}")
    fresh = not router._pipeline_busy() and router.idle
    if router._quiescent is not None and router._quiescent != fresh:
        _fail(f"remembered quiescence {router._quiescent} but a fresh "
              f"check says {fresh}")
    _check_dormancy(router)


def _check_dormancy(router: RealTimeRouter) -> None:
    """A remembered dormancy deadline equals a fresh computation and no
    buffered packet may be committed before it; only a router that
    holds packets lets its pipeline lag."""
    leaves = router.leaves
    if router._pipeline_lag is not None and not leaves.occupancy:
        _fail(f"pipeline lagging since cycle {router._pipeline_lag} "
              "with an empty leaf array")
    until = router._dormant_until
    if router._quiescent is not False or not until or until <= router.cycle:
        return  # forgotten, not dormant, or the deadline has come
    fresh = router._dormancy_deadline()
    if fresh != until:
        _fail(f"remembered dormancy until cycle {until} but a fresh "
              f"computation says {fresh}")
    slot_cycles = router.params.slot_cycles
    for tick in range(router.cycle // slot_cycles, until // slot_cycles):
        clock = RolloverClock(bits=router.params.clock_bits,
                              now=tick + router.clock_skew_ticks)
        for index in leaves.occupied_indices():
            leaf = leaves[index]
            if clock.is_past(leaf.arrival) or any(
                    clock.remaining_until(leaf.arrival)
                    <= router.control.horizons[port]
                    for port in range(OUTPUT_PORTS)
                    if leaf.eligible_for(port)):
                _fail(f"dormant until cycle {until} but leaf {index} may "
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
