"""Single-chip loopback harness (paper section 5.2, first experiment).

The paper tests one router chip "in a multi-hop configuration" by
cabling its own links together: +x out feeds -x in and +y out feeds
-y in.  A packet injected toward +x then re-enters on -x, leaves on
+y, re-enters on -y, and finally reaches the reception port — three
router traversals on one chip.  :class:`LoopbackHarness` reproduces
exactly that wiring.
"""

from __future__ import annotations

from typing import Optional

from repro.core.packet import BE_HEADER_BYTES, BestEffortPacket, PacketMeta
from repro.core.params import RouterParams
from repro.core.ports import EAST, NORTH, SOUTH, WEST
from repro.core.router import LinkSignal, RealTimeRouter


class LoopbackHarness:
    """One router with +x->-x and +y->-y loopback cables."""

    def __init__(self, params: Optional[RouterParams] = None,
                 **router_kwargs: object) -> None:
        self.params = params or RouterParams()
        self.router = RealTimeRouter(self.params, router_id="loopback",
                                     **router_kwargs)
        self.cycle = 0

    def step(self, cycles: int = 1) -> None:
        for _ in range(cycles):
            self.router.step(self.cycle)
            # Loop the outputs back with the usual one-cycle latency.
            east = self.router.link_out[EAST]
            north = self.router.link_out[NORTH]
            self.router.link_in[WEST] = LinkSignal(phit=east.phit,
                                                   ack=east.ack)
            self.router.link_in[SOUTH] = LinkSignal(phit=north.phit,
                                                    ack=north.ack)
            # Acks generated for bytes drained from the -x / -y inputs
            # travel back over the loop to the +x / +y transmitters.
            west = self.router.link_out[WEST]
            south = self.router.link_out[SOUTH]
            self.router.link_in[EAST] = LinkSignal(phit=west.phit,
                                                   ack=west.ack)
            self.router.link_in[NORTH] = LinkSignal(phit=south.phit,
                                                    ack=south.ack)
            self.cycle += 1

    # ------------------------------------------------------------------

    def send_best_effort(self, size_bytes: int) -> BestEffortPacket:
        """Inject the paper's test worm: one +x hop then one +y hop.

        ``size_bytes`` is the total packet length on the wire (header
        plus payload), matching the paper's "b byte wormhole packet".
        """
        if size_bytes <= BE_HEADER_BYTES:
            raise ValueError(
                f"packet must exceed the {BE_HEADER_BYTES}-byte header"
            )
        payload = bytes((i % 251 for i in range(size_bytes - BE_HEADER_BYTES)))
        packet = BestEffortPacket(
            x_offset=1, y_offset=1, payload=payload,
            meta=PacketMeta(injected_cycle=self.cycle),
        )
        self.router.inject_be(packet)
        return packet

    def measure_latency(self, size_bytes: int,
                        max_cycles: int = 100_000) -> int:
        """End-to-end cycles for one ``size_bytes`` worm over the loop."""
        packet = self.send_best_effort(size_bytes)
        start = self.cycle
        while self.cycle - start < max_cycles:
            self.step()
            for delivered in self.router.take_delivered():
                if delivered.meta.packet_id == packet.meta.packet_id:
                    return delivered.meta.delivered_cycle - packet.meta.injected_cycle
        raise TimeoutError("loopback packet was not delivered")
