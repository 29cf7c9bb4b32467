"""Frames in flight against the reference chip, which steps every byte.

A committed time-constrained stream whose bytes are all staged is one
arrival: its sender hands the link every byte but the last, each with
the cycle it matures in the neighbour's synchroniser, and both routers
sleep until the frame's next event (``OutputSide.frame``,
``RealTimeRouter._frame_wake``).  The reference chip
(``tests/reference.py``) steps every byte across every link, and on a
sparse time-constrained chain the two must deliver the same packets on
the same cycles and, read at any point (between cycles, or mid-cycle
after the routers' slots), hold the same documents and output counts: a
router that slept settles when it is read.  Checkpoints taken mid-frame
resume under both engines, and a fault that strikes a link mid-frame
puts the frame back on the wire byte by byte.
"""

import functools

import pytest

from repro.core.ports import EAST, WEST
from repro.faults.injector import BitFlipCorruptor
from repro.faults.watchdog import LinkWatchdog
from repro.network.node import HostNode
from tests.reference import (
    FabricPair,
    assert_oracle_ran,
    assert_scheduler_skipped,
    chain,
    compare,
    framed,
    records,
    resume_everywhere,
)

CYCLES = 1_500
QUIET = functools.partial(chain, best_effort=False)


@pytest.mark.parametrize("cut_through", [False, True])
def test_frames_equal_the_router_that_steps_every_byte(cut_through):
    pair = FabricPair(functools.partial(chain, cut_through=cut_through))
    counts = compare(pair, range(1, CYCLES))
    net = pair.nets[0]
    assert counts["mid_cycle_reads"] > CYCLES // 8
    assert len(records(net)) > CYCLES // 75
    assert cut_through == any(router.cut_through_count
                              for router in net.routers.values())
    # The frames really slept (a cut-through router's inputs step per
    # byte: the frame they cut through is never staged whole).
    assert counts["mid_frame"] > CYCLES // 4
    assert counts["asleep"] > (CYCLES // 40 if cut_through
                               else CYCLES // 3)
    assert_scheduler_skipped(net.engine)


def test_output_service_read_mid_cycle_is_the_per_byte_count():
    # A framed stream's byte count moves at its last byte; a reader
    # inside every cycle, after the routers' slots, sees the per-byte
    # one.
    pair = FabricPair(chain, every=(1, CYCLES))
    counts = compare(pair, [CYCLES // 3])
    assert counts["mid_cycle_reads"] == CYCLES // 3
    assert counts["mid_frame_reads"] > CYCLES // 10


def test_the_oracle_loop_runs_frames_the_same():
    pair = FabricPair(chain, "exact")
    compare(pair, range(10, CYCLES + 1, 10))
    assert_oracle_ran(pair.nets[0].engine)


@pytest.mark.parametrize("writer,reader", [
    ("event", "event"), ("event", "exact"), ("exact", "event")])
def test_a_checkpoint_taken_mid_frame_resumes(writer, reader):
    assert resume_everywhere(chain, writer, reader, range(97, CYCLES, 211),
                             CYCLES, mid_frame_only=True) >= 3


class _Strike:
    """A component registered after the routers that does something to
    the network inside one cycle, as the fault injector does."""

    def __init__(self, at, action):
        self.at, self.action = at, action

    def next_event_cycle(self, cycle):
        return self.at if cycle <= self.at else None

    def step(self, cycle):
        if cycle == self.at:
            self.action()


class _StrikingHost(HostNode):
    """The host of the frame's sender, registered just before it: does
    ``strike`` = (cycle, action) inside that cycle, before the sender's
    slot and the receiver's."""

    strike = None

    def _mine(self):
        return self.strike is not None and self.node == (1, 0)

    def next_event_cycle(self, cycle):
        due = super().next_event_cycle(cycle)
        if self._mine() and cycle <= self.strike[0]:
            return self.strike[0] if due is None else min(due,
                                                          self.strike[0])
        return due

    def step(self, cycle):
        if self._mine() and cycle == self.strike[0]:
            self.strike[1](self.network)
        super().step(cycle)


def _strike_mid_frame(action, where):
    """Run the shipped and the reference chain to a cycle where a frame
    crosses (1,0) -> (2,0), strike between cycles, inside the cycle
    after the routers' slots or before the sender's, and compare them
    at every cycle for a while after, and once much later."""
    probe = QUIET()
    sender = probe.net.routers[(1, 0)].outputs.ports[EAST]
    for at in range(200, CYCLES):
        probe.run_to(at)
        if ((1, 0), EAST) in framed(probe.net) and sender.tc_stream.sent > 4:
            break
    assert probe.net.routers[(1, 0)]._asleep is not None
    _StrikingHost.strike = (at, action) if where == "before" else None
    try:
        pair = FabricPair(QUIET, host=_StrikingHost)
        for net in pair.nets:
            if where == "after":
                net.engine.add_component(
                    _Strike(at, lambda net=net: action(net)))
        if where == "between":
            pair.advance(at)
            for net in pair.nets:
                action(net)
        compare(pair, [*range(at + 1, at + 41), at + 600])
    finally:
        _StrikingHost.strike = None
    net = pair.nets[0]
    assert net.engine.audit_schedule() == []
    return net


WHERE = ["between", "after", "before"]


@pytest.mark.parametrize("where", WHERE)
def test_a_link_cut_mid_frame_puts_it_back_on_the_wire(where):
    net = _strike_mid_frame(
        lambda net: net.fail_link((1, 0), EAST, announce=False), where)
    assert net.link_monitors[((1, 0), EAST)].bytes_lost > 0


@pytest.mark.parametrize("where", WHERE)
def test_a_corruptor_installed_mid_frame_sees_every_byte(where):
    net = _strike_mid_frame(
        lambda net: net.set_link_corruptor((1, 0), EAST,
                                           BitFlipCorruptor(packets=1)),
        where)
    assert net.fault_counters().link_bytes_corrupted > 0


def test_a_watchdog_installed_mid_frame_leaves_frames_framed():
    # The watchdog reads only missed transfers, which no framed link
    # counts: installing it changes no port's framing.
    seen = []

    def install(net):
        def framing():
            return ([router.frame_links and list(router.frame_links)
                     for router in net.routers.values()], framed(net))
        before = framing()
        LinkWatchdog(net)
        seen.append((before, framing()))

    net = _strike_mid_frame(install, "between")
    (shipped_before, shipped_after), (per_byte_before, per_byte_after) = seen
    assert shipped_before == shipped_after
    assert per_byte_before == per_byte_after == ([None] * 5, [])
    assert ((1, 0), EAST) in shipped_after[1]
    assert net.monitor_reader is not None


def test_the_reception_port_and_the_injection_port_frame_too():
    traffic = QUIET()
    net = traffic.net
    reception = injection = 0
    for cycle in range(1, 600):
        traffic.run_to(cycle)
        reception += any(
            router.outputs.ports[-1].tc_stream is not None
            and router.outputs.ports[-1].tc_stream.base is not None
            for router in net.routers.values())
        injection += any(router.inputs.tc_inject is not None
                         and router.inputs.tc_inject.ready is not None
                         and router._asleep is not None
                         for router in net.routers.values())
    assert reception > 50 and injection > 20
    assert net.routers[(0, 0)].frame_links == [True, False, False, False,
                                               True]
    assert net.routers[(2, 0)].frame_links[WEST]
