"""The guarded ``step`` against the step as it is defined.

``RealTimeRouter.step`` enters a phase only when derived state says the
phase has input.  The reference below runs every phase on every working
cycle, in the documented order, with no remembered-busy verdict; fed the
same seeded mixed time-constrained and best-effort traffic, the two
routers' complete state documents must be equal after every cycle, and
so must their ``next_event_cycle`` answers.  Which cycles are working
cycles is not what is compared here — the reference takes the fast path
and replays a dormant span exactly when the shipped router does
(``tests/core/test_dormancy.py`` checks that decision) — so the dense
script, under which the router never sleeps, is joined by a sparse one
under which it mostly does.
"""

import copy
import json
import random
from collections import deque

import pytest

from repro.checkpoint.codec import SaveContext
from repro.core import (
    BestEffortPacket,
    RouterParams,
    TimeConstrainedPacket,
    port_mask,
)
from repro.core.invariants import check_router_invariants
from repro.core.packet import phits_of
from repro.core.params import MESH_LINKS
from repro.core.ports import EAST, NORTH, RECEPTION, SOUTH, WEST
from repro.core.router import LinkSignal, RealTimeRouter, _links_quiet


class _AllPhasesRouter(RealTimeRouter):
    """Every phase, every working cycle: what the guards must equal."""

    def step(self, cycle=None):
        if cycle is not None:
            self.cycle = cycle
        cycle = self.cycle
        if _links_quiet(self.link_in) and cycle < self._next_work():
            for direction in range(MESH_LINKS):
                self.link_out[direction] = LinkSignal()
            self.cycle += 1
            return
        if self._pipeline_lag is not None:
            self._replay_dormant_span()
        self._forget()
        self.clock.set(cycle // self.params.slot_cycles
                       + self.clock_skew_ticks)
        inputs, outputs = self.inputs, self.outputs
        inputs.capture(self.link_in, cycle)
        inputs.feed_injection(cycle)
        inputs.complete_receptions(cycle)
        inputs.route_and_bind(cycle)
        inputs.request_transfers()
        outputs.latch_decisions(cycle)
        self.bus.grant()
        outputs.transmit(self.link_out, cycle)
        outputs.request_decisions(cycle)
        self.cycle += 1
        # Whether a wait starts here is decided at once (it is state:
        # the lag field), from scratch, and nothing is remembered.
        self._next_work(cycle)
        self._forget()


def _program(router):
    table = router.control
    table.program_connection(0, 0, delay=20, port_mask=port_mask(RECEPTION))
    table.program_connection(1, 1, delay=10, port_mask=port_mask(EAST))
    table.program_connection(
        2, 2, delay=15, port_mask=port_mask(NORTH, WEST, RECEPTION))
    table.program_connection(3, 3, delay=6, port_mask=port_mask(SOUTH))


def _document(router):
    ctx = SaveContext()
    state = router.state(ctx)
    return json.dumps([state, ctx.metas_state()], sort_keys=True,
                      default=repr)


class _Upstream:
    """What the four neighbours and the host offer one router: bytes of
    whole packets per link (best-effort ones under credit flow
    control), acknowledgements for best-effort bytes the router sent,
    and host injections — one seeded script, played to both routers."""

    #: Per cycle: a packet starts on a link, the host injects one, an
    #: owed acknowledgement is returned.
    LINK_RATE, INJECT_RATE, ACK_RATE = 0.03, 0.03, 0.8

    def __init__(self, seed, params):
        self.rng = random.Random(seed)
        self.params = params
        self.tc = [deque() for _ in range(MESH_LINKS)]
        self.be = [deque() for _ in range(MESH_LINKS)]
        self.credits = [params.flit_buffer_bytes] * MESH_LINKS
        self.owed_acks = [0] * MESH_LINKS

    def _packet(self):
        """A packet and its twin (same id, separate metadata object):
        one for each router."""
        rng = self.rng
        if rng.random() < 0.5:
            packet = TimeConstrainedPacket(
                rng.choice([0, 1, 2, 3]),
                header_deadline=rng.randrange(0, 40))
        else:
            packet = BestEffortPacket(rng.choice([-1, 0, 0, 1]),
                                      rng.choice([-1, 0, 1]),
                                      payload=bytes(rng.randrange(0, 40)))
        return packet, copy.deepcopy(packet)

    def offer(self, busy):
        """This cycle's link signals and host calls, as plain data;
        every phit and packet comes as a (router, twin) pair."""
        rng = self.rng
        signals, injections = [], []
        for link in range(MESH_LINKS):
            if busy and rng.random() < self.LINK_RATE:
                packet, twin = self._packet()
                queue = (self.tc if isinstance(
                    packet, TimeConstrainedPacket) else self.be)[link]
                queue.extend(zip(phits_of(packet, self.params),
                                 phits_of(twin, self.params)))
            phit = (None, None)
            if self.tc[link] and (not self.be[link] or rng.random() < 0.7):
                phit = self.tc[link].popleft()
            elif self.be[link] and self.credits[link] > 0:
                phit = self.be[link].popleft()
                self.credits[link] -= 1
            ack = self.owed_acks[link] > 0 and rng.random() < self.ACK_RATE
            if ack:
                self.owed_acks[link] -= 1
            signals.append((phit, ack))
        if busy and rng.random() < self.INJECT_RATE:
            injections.append(self._packet())
        return signals, injections, rng.random() < 0.3

    def observe(self, router):
        for link in range(MESH_LINKS):
            out = router.link_out[link]
            if out.ack:
                self.credits[link] += 1
            if out.phit is not None and out.phit.vc == "BE":
                self.owed_acks[link] += 1


class _SparseUpstream(_Upstream):
    """The same upstream made sparse: bursts of whole packets on the
    links (best-effort under credit flow control, acks trickling back
    late), host injections, and long silences in which only early
    time-constrained packets are left inside."""

    LINK_RATE, INJECT_RATE, ACK_RATE = 0.0015, 0.002, 0.25

    def __init__(self, seed, params, skew=0):
        super().__init__(seed, params)
        self.skew = self.tick = skew

    def _packet(self):
        rng = self.rng
        if rng.random() < 0.7:
            # Logical arrival around the router's own idea of now,
            # mostly ahead of it: early packets, held in Queue 3.
            packet = TimeConstrainedPacket(
                rng.choice([0, 1, 1, 2, 3]),
                header_deadline=(self.tick + rng.randrange(-4, 30)) % 256)
        else:
            packet = BestEffortPacket(rng.choice([-1, 0, 0, 1]),
                                      rng.choice([-1, 0, 1]),
                                      payload=bytes(rng.randrange(0, 30)))
        return packet, copy.deepcopy(packet)

    def offer(self, cycle):
        self.tick = cycle // self.params.slot_cycles + self.skew
        return super().offer(True)


def _apply(router, twin, signals, injections, collect):
    for link, (phits, ack) in enumerate(signals):
        if phits[twin] is not None or ack:
            router.link_in[link] = LinkSignal(phit=phits[twin], ack=ack)
    for packets in injections:
        packet = packets[twin]
        if isinstance(packet, TimeConstrainedPacket):
            router.inject_tc(packet)
        else:
            router.inject_be(packet)
    if collect:
        router.take_delivered()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_guarded_step_equals_all_phases_every_cycle(seed):
    params = RouterParams()
    guarded = RealTimeRouter(params, router_id="dut",
                             on_memory_full="drop")
    reference = _AllPhasesRouter(params, router_id="dut",
                                 on_memory_full="drop")
    for router in (guarded, reference):
        _program(router)
    upstream = _Upstream(seed, params)
    for cycle in range(2_500):
        # Load for most of the run, then let everything drain so the
        # quiescent fast path and the way back out of it are covered.
        busy = cycle < 1_800 and cycle % 600 < 450
        signals, injections, collect = upstream.offer(busy)
        _apply(guarded, 0, signals, injections, collect)
        _apply(reference, 1, signals, injections, collect)
        assert (guarded.next_event_cycle(cycle)
                == reference.next_event_cycle(cycle)), f"cycle {cycle}"
        guarded.step()
        reference.step()
        assert _document(guarded) == _document(reference), (
            f"state diverged after cycle {cycle}")
        check_router_invariants(guarded)
        upstream.observe(guarded)
    assert guarded.tc_transmitted > 20 and guarded.be_worms_routed > 20
    assert guarded.quiescent and reference.quiescent


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_guarded_step_equals_all_phases_around_dormant_spans(seed):
    # The working steps that end in dormancy, the replay that opens the
    # next one and the lag field in between, document for document.
    params = RouterParams()
    guarded = RealTimeRouter(params, router_id="dut",
                             on_memory_full="drop")
    reference = _AllPhasesRouter(params, router_id="dut",
                                 on_memory_full="drop")
    for router in (guarded, reference):
        _program(router)
    upstream = _SparseUpstream(seed, params)
    asleep = replays = 0
    for cycle in range(6_000):
        signals, injections, collect = upstream.offer(cycle)
        _apply(guarded, 0, signals, injections, collect)
        _apply(reference, 1, signals, injections, collect)
        claim = guarded.next_event_cycle(cycle)
        assert claim == reference.next_event_cycle(cycle), f"cycle {cycle}"
        asleep += claim is not None and claim > cycle
        lagged = guarded._pipeline_lag is not None
        guarded.step()
        reference.step()
        replays += lagged and guarded._pipeline_lag is None
        assert _document(guarded) == _document(reference), (
            f"state diverged after cycle {cycle}")
        check_router_invariants(guarded)
        upstream.observe(guarded)
    assert asleep > 1_500 and replays > 10
    assert guarded.tc_transmitted > 10 and guarded.be_worms_routed > 3
