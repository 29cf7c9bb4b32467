"""Serialisation helpers shared by every component's ``state()``.

Checkpoint state is plain JSON — closures (engine wiring, bus request
actions) make whole-object pickling impossible, and JSON keeps the
files inspectable and the content hashes stable.  Three conversions
need care:

* **Packet metadata identity.**  One :class:`~repro.core.packet
  .PacketMeta` instance is shared by every phit of a packet, and parts
  of the fabric *mutate* it in place (hosts trim ``relay_path`` while
  relaying; delivery stamps ``delivered_cycle``).  The codec memoises
  metas by object identity on save and restores one shared instance
  per index, so aliasing survives the round trip.
* **Phits.**  Router logic only reads ``byte``/``vc``/``index``/
  ``last`` and ``getattr(phit.packet, "meta", None)`` (the
  :class:`~repro.core.packet.Phit` contract), so an in-flight phit is
  restored with a light-weight meta carrier instead of its original
  packet object.
* **RNG streams.**  ``random.Random.getstate()`` is a nested tuple;
  it round-trips through JSON as nested lists and is re-tupled on
  restore.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.packet import (
    BestEffortPacket,
    MetaCarrier,
    PacketMeta,
    Phit,
    TimeConstrainedPacket,
)


def node_state(node) -> Optional[list]:
    """A mesh node ``(x, y)`` (or None) as JSON."""
    return None if node is None else [node[0], node[1]]


def load_node(state) -> Optional[tuple[int, int]]:
    return None if state is None else (state[0], state[1])


def rng_state(rng: random.Random) -> list:
    """``Random.getstate()`` as JSON-able nested lists."""
    return _listify(rng.getstate())


def load_rng(rng: random.Random, state: list) -> None:
    rng.setstate(_tupleize(state))


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


def _tupleize(value):
    if isinstance(value, list):
        return tuple(_tupleize(v) for v in value)
    return value


class SaveContext:
    """Identity-preserving encoder for one checkpoint."""

    def __init__(self) -> None:
        self._meta_index: dict[int, int] = {}
        self._metas: list[PacketMeta] = []

    def save_meta(self, meta: Optional[PacketMeta]) -> Optional[int]:
        """Register a meta; returns its index in the shared meta table."""
        if meta is None:
            return None
        index = self._meta_index.get(id(meta))
        if index is None:
            index = len(self._metas)
            self._meta_index[id(meta)] = index
            self._metas.append(meta)
        return index

    def metas_state(self) -> list:
        """The shared meta table.  Call *after* every component saved."""
        return [
            {
                "packet_id": meta.packet_id,
                "source": node_state(meta.source),
                "destination": node_state(meta.destination),
                "injected_cycle": meta.injected_cycle,
                "delivered_cycle": meta.delivered_cycle,
                "absolute_deadline": meta.absolute_deadline,
                "connection_label": meta.connection_label,
                "sequence": meta.sequence,
                "checksum": meta.checksum,
                "relay_path": [node_state(n) for n in meta.relay_path],
                "retransmit_of": meta.retransmit_of,
            }
            for meta in self._metas
        ]

    def save_phit(self, phit: Phit) -> list:
        meta = getattr(phit.packet, "meta", None)
        return [phit.vc, phit.byte, phit.index, phit.last,
                self.save_meta(meta)]

    def save_tc_packet(self, packet: TimeConstrainedPacket) -> dict:
        return {
            "connection_id": packet.connection_id,
            "header_deadline": packet.header_deadline,
            "payload": packet.payload.hex(),
            "meta": self.save_meta(packet.meta),
        }

    def save_be_packet(self, packet: BestEffortPacket) -> dict:
        return {
            "x_offset": packet.x_offset,
            "y_offset": packet.y_offset,
            "payload": packet.payload.hex(),
            "meta": self.save_meta(packet.meta),
        }


class LoadContext:
    """Identity-preserving decoder for one checkpoint."""

    def __init__(self, metas_state: list) -> None:
        self._metas = [self._load_meta(state) for state in metas_state]

    @staticmethod
    def _load_meta(state: dict) -> PacketMeta:
        return PacketMeta(
            packet_id=state["packet_id"],
            source=load_node(state["source"]),
            destination=load_node(state["destination"]),
            injected_cycle=state["injected_cycle"],
            delivered_cycle=state["delivered_cycle"],
            absolute_deadline=state["absolute_deadline"],
            connection_label=state["connection_label"],
            sequence=state["sequence"],
            checksum=state["checksum"],
            relay_path=tuple(load_node(n) for n in state["relay_path"]),
            retransmit_of=state["retransmit_of"],
        )

    def meta(self, index: Optional[int]) -> Optional[PacketMeta]:
        return None if index is None else self._metas[index]

    def load_phit(self, state: list) -> Phit:
        vc, byte, index, last, meta_index = state
        meta = self.meta(meta_index)
        return Phit(
            vc=vc, byte=byte,
            packet=None if meta is None else MetaCarrier(meta),
            index=index, last=bool(last),
        )

    def load_tc_packet(self, state: dict) -> TimeConstrainedPacket:
        return TimeConstrainedPacket(
            connection_id=state["connection_id"],
            header_deadline=state["header_deadline"],
            payload=bytes.fromhex(state["payload"]),
            meta=self.meta(state["meta"]),
        )

    def load_be_packet(self, state: dict) -> BestEffortPacket:
        return BestEffortPacket(
            x_offset=state["x_offset"],
            y_offset=state["y_offset"],
            payload=bytes.fromhex(state["payload"]),
            meta=self.meta(state["meta"]),
        )
