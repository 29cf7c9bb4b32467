"""Fault injection: executing a :class:`FaultPlan` against a network.

The injector is an engine component; each cycle it fires the plan's
events that have come due.  Corruption is modelled at the wire: a
*corruptor* installed on a directed link sees every phit crossing it
and may mangle or suppress it.  Two corruptors cover the interesting
failure modes:

* :class:`BitFlipCorruptor` flips one payload bit per packet — caught
  by the end-to-end checksum and dropped at the receiving port.
* :class:`PacketDropCorruptor` suppresses whole packets head-to-tail —
  silent loss, caught only by the recovery layer's retransmission
  timeouts.
"""

from __future__ import annotations

from typing import Optional

from repro.core.packet import BE_HEADER_BYTES, Phit
from repro.core.params import TC_HEADER_BYTES
from repro.faults.plan import (
    BABBLE,
    CORRUPT,
    CUT,
    DROP,
    REPAIR,
    FaultEvent,
    FaultPlan,
)

#: Label carried by babbling-source traffic so the recovery layer's
#: retry ledger ignores it (nobody wants babble retransmitted).
BABBLE_LABEL = "babble"


class BitFlipCorruptor:
    """Flips one bit in the first payload byte of passing packets.

    Headers are left intact — corrupting a routing offset or a
    connection id would turn a data-integrity fault into a misroute,
    which is a different experiment.  The flip budget is per packet;
    once exhausted the corruptor passes traffic through untouched.
    """

    def __init__(self, packets: int = 1, bit: int = 0x01) -> None:
        if packets < 1:
            raise ValueError("corruption budget must be positive")
        if not 1 <= bit <= 0xFF:
            raise ValueError("bit mask must fit in one byte")
        self.remaining = packets
        self.bit = bit
        self.corrupted = 0

    def __call__(self, phit: Phit) -> Optional[Phit]:
        if self.remaining <= 0:
            return phit
        header = TC_HEADER_BYTES if phit.vc == "TC" else BE_HEADER_BYTES
        if phit.index != header:
            return phit
        self.remaining -= 1
        self.corrupted += 1
        return Phit(vc=phit.vc, byte=phit.byte ^ self.bit,
                    packet=phit.packet, index=phit.index, last=phit.last)

    def state(self) -> dict:
        """Checkpoint state (see :func:`corruptor_from_state`)."""
        return {"kind": "bitflip", "remaining": self.remaining,
                "bit": self.bit, "corrupted": self.corrupted}

    def load_state(self, state: dict) -> None:
        self.remaining = int(state["remaining"])
        self.bit = int(state["bit"])
        self.corrupted = int(state["corrupted"])


class PacketDropCorruptor:
    """Suppresses whole packets, head byte through tail byte.

    State is kept per virtual channel because a link interleaves
    time-constrained and best-effort phits cycle by cycle; within one
    virtual channel a packet's phits are contiguous, so tracking a
    single in-progress drop per channel is exact.
    """

    def __init__(self, packets: int = 1, vc: Optional[str] = None) -> None:
        if packets < 1:
            raise ValueError("drop budget must be positive")
        if vc not in (None, "TC", "BE"):
            raise ValueError("vc must be None, 'TC' or 'BE'")
        self.remaining = packets
        self.vc = vc
        self.dropped = 0
        self._dropping = {"TC": False, "BE": False}

    def __call__(self, phit: Phit) -> Optional[Phit]:
        if self._dropping[phit.vc]:
            if phit.last:
                self._dropping[phit.vc] = False
                self.dropped += 1
            return None
        if (phit.index == 0 and self.remaining > 0
                and (self.vc is None or phit.vc == self.vc)):
            self.remaining -= 1
            if phit.last:
                self.dropped += 1
            else:
                self._dropping[phit.vc] = True
            return None
        return phit

    def state(self) -> dict:
        """Checkpoint state (see :func:`corruptor_from_state`)."""
        return {"kind": "drop", "remaining": self.remaining,
                "vc": self.vc, "dropped": self.dropped,
                "dropping": dict(self._dropping)}

    def load_state(self, state: dict) -> None:
        self.remaining = int(state["remaining"])
        self.vc = state["vc"]
        self.dropped = int(state["dropped"])
        self._dropping = {"TC": bool(state["dropping"]["TC"]),
                          "BE": bool(state["dropping"]["BE"])}


def corruptor_from_state(state: dict):
    """Rebuild a corruptor from its checkpoint state.

    The ``kind`` tag picks the class; the instance is constructed with
    a placeholder budget and then overlaid, because a checkpoint may
    capture an exhausted corruptor (``remaining == 0``) that the
    constructors would reject.
    """
    kind = state["kind"]
    if kind == "bitflip":
        corruptor = BitFlipCorruptor()
    elif kind == "drop":
        corruptor = PacketDropCorruptor(vc=state["vc"])
    else:
        raise ValueError(f"unknown corruptor kind {kind!r}")
    corruptor.load_state(state)
    return corruptor


class FaultInjector:
    """Engine component that replays a fault plan against a network."""

    def __init__(self, network, plan: FaultPlan) -> None:
        plan.require_topology(network.mesh.torus)
        self.network = network
        self.plan = plan
        self.fired: list[FaultEvent] = []
        self.corruptors: dict[tuple, object] = {}
        self._index = 0

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self.plan.events)

    def step(self, cycle: int) -> None:
        events = self.plan.events
        while self._index < len(events) and events[self._index].cycle <= cycle:
            self._fire(events[self._index])
            self._index += 1

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Event-scheduler contract: the next scheduled fault.

        Fault events fire on their exact planned cycles even across
        skipped spans — the engine never skips past the cycle
        reported here.
        """
        if self._index >= len(self.plan.events):
            return None
        return max(cycle, self.plan.events[self._index].cycle)

    def _fire(self, event: FaultEvent) -> None:
        """Execute one due event.

        Overlap semantics on a single link are pinned (and unit-tested
        in ``tests/faults/test_overlap.py``):

        * ``cut`` of an already-failed link is a no-op — cuts are
          idempotent, and the later ``repair`` still restores the link.
        * ``repair`` of a link that is not failed is a no-op
          (``Network.repair_link`` returns early).
        * a second ``corrupt``/``drop`` on a link *replaces* the
          installed corruptor — last write wins and any unspent budget
          of the previous corruptor is discarded, so budgets never
          silently merge across events.
        * corruptors are wire properties, independent of link state:
          they survive cut/repair cycles on the same link.

        Plans loaded from JSON reject overlapping cut windows outright
        (:meth:`FaultPlan.from_dict`); these rules govern what the
        injector does when handed such a plan programmatically.
        """
        network = self.network
        link = (event.node, event.direction)
        if event.kind == CUT:
            if link not in network.failed_links:
                # Silent cut: no announcement — detection is the
                # watchdog's job.
                network.fail_link(event.node, event.direction,
                                  announce=False)
        elif event.kind == REPAIR:
            network.repair_link(event.node, event.direction)
        elif event.kind == CORRUPT:
            corruptor = BitFlipCorruptor(packets=max(1, event.amount))
            self.corruptors[link] = corruptor
            network.set_link_corruptor(event.node, event.direction,
                                       corruptor)
        elif event.kind == DROP:
            corruptor = PacketDropCorruptor(packets=max(1, event.amount))
            self.corruptors[link] = corruptor
            network.set_link_corruptor(event.node, event.direction,
                                       corruptor)
        elif event.kind == BABBLE:
            # An unsolicited burst from a misbehaving host.  Routed
            # blindly (babblers do not consult failure maps) and
            # labelled so the recovery layer never retries it.
            network.send_best_effort(
                event.node, event.target,
                payload=b"\xbb" * max(1, event.amount),
                connection_label=BABBLE_LABEL,
            )
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")
        self.fired.append(event)

    def detach(self) -> None:
        """Remove the injector from the network's engine."""
        self.network.engine.remove_component(self)

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state.  The plan itself is rebuilt from its seed
        and parameters (it is pure data), so only the replay position
        and the links carrying our corruptors are saved; the corruptor
        *states* live with the network, which owns the wire.
        """
        return {
            "index": self._index,
            "corruptor_links": sorted(
                [list(node), direction]
                for node, direction in self.corruptors
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore the replay position.

        Must run after the network's own restore: corruptor entries are
        re-referenced from the network so the injector and the wire
        share one instance per link, exactly as when it was installed.
        """
        self._index = int(state["index"])
        self.fired = list(self.plan.events[:self._index])
        self.corruptors = {}
        for node, direction in state["corruptor_links"]:
            link = (tuple(node), direction)
            corruptor = self.network.link_corruptor(*link)
            if corruptor is not None:
                self.corruptors[link] = corruptor
