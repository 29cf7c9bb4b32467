"""Deterministic fault schedules.

A :class:`FaultPlan` is pure data: a sorted list of
:class:`FaultEvent` entries saying *what* goes wrong on the fabric and
*when*.  All randomness is resolved up front by :meth:`FaultPlan.random`
from a seed, so a plan — and therefore an entire chaos run — is fully
reproducible from ``(seed, parameters)``.  The
:class:`~repro.faults.injector.FaultInjector` merely executes the
schedule.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.network.topology import Mesh

Node = tuple[int, int]

#: Event kinds.
CUT = "cut"            # permanent link cut (until an explicit repair)
REPAIR = "repair"      # bring a cut link back (the tail of a flap)
CORRUPT = "corrupt"    # install a bit-flip corruptor on a link
DROP = "drop"          # install a whole-packet-drop corruptor on a link
BABBLE = "babble"      # a babbling host fires an unsolicited packet

#: All recognised event kinds (file-format validation).
KINDS = (CUT, REPAIR, CORRUPT, DROP, BABBLE)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action."""

    cycle: int
    kind: str
    node: Node
    direction: int = -1            # link faults; -1 for babble events
    target: Optional[Node] = None  # babble destination
    amount: int = 0                # corrupt/drop budget; babble bytes

    def sort_key(self) -> tuple:
        return (self.cycle, self.kind, self.node, self.direction,
                self.target or (-1, -1), self.amount)

    def as_dict(self) -> dict:
        data: dict = {"cycle": self.cycle, "kind": self.kind,
                      "node": list(self.node)}
        if self.direction != -1:
            data["direction"] = self.direction
        if self.target is not None:
            data["target"] = list(self.target)
        if self.amount:
            data["amount"] = self.amount
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultEvent":
        _require(isinstance(data, Mapping),
                 "fault event must be a JSON object")
        known = {"cycle", "kind", "node", "direction", "target", "amount"}
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown fault event fields: {unknown}")
        for field_name in ("cycle", "kind", "node"):
            _require(field_name in data,
                     f"fault event needs {field_name!r}")

        def node_of(value: object, what: str) -> Node:
            _require(isinstance(value, (list, tuple)) and len(value) == 2
                     and all(isinstance(c, int) for c in value),
                     f"{what} must be an (x, y) pair, got {value!r}")
            return (value[0], value[1])  # type: ignore[index]

        cycle = data["cycle"]
        _require(isinstance(cycle, int) and cycle >= 0,
                 f"cycle must be a non-negative integer, got {cycle!r}")
        kind = data["kind"]
        _require(kind in KINDS,
                 f"unknown fault kind {kind!r} (expected one of {KINDS})")
        node = node_of(data["node"], "node")
        direction = data.get("direction", -1)
        _require(isinstance(direction, int),
                 f"direction must be an integer, got {direction!r}")
        amount = data.get("amount", 0)
        _require(isinstance(amount, int) and amount >= 0,
                 f"amount must be a non-negative integer, got {amount!r}")
        target: Optional[Node] = None
        if data.get("target") is not None:
            target = node_of(data["target"], "target")
        if kind == BABBLE:
            _require(target is not None, "babble event needs a target")
            _require(direction == -1,
                     "babble events carry no link direction")
        else:
            _require(target is None,
                     f"{kind} events carry no target")
            _require(direction >= 0,
                     f"{kind} event needs a link direction >= 0")
            if kind in (CUT, REPAIR):
                _require(amount == 0,
                         f"{kind} events carry no amount")
            else:
                _require(amount >= 1,
                         f"{kind} event needs a positive budget")
        return cls(cycle=cycle, kind=kind, node=node,  # type: ignore[arg-type]
                   direction=direction, target=target, amount=amount)


@dataclass
class FaultPlan:
    """An ordered, reproducible schedule of fault events."""

    events: list[FaultEvent] = field(default_factory=list)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=FaultEvent.sort_key)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def cut_links(self) -> set[tuple[Node, int]]:
        """Links the plan cuts at some point (repaired or not)."""
        return {(e.node, e.direction) for e in self.events
                if e.kind == CUT}

    @property
    def permanent_cuts(self) -> set[tuple[Node, int]]:
        """Links cut and never repaired by this plan."""
        repaired = {(e.node, e.direction) for e in self.events
                    if e.kind == REPAIR}
        return self.cut_links - repaired

    def require_topology(self, torus: bool) -> None:
        """Refuse a babbler on a torus: a babble is a best-effort
        packet, and best-effort offset routing is mesh-only."""
        if torus and any(e.kind == BABBLE for e in self.events):
            raise ValueError("fault plan babbles on a torus, but "
                             "best-effort offset routing is mesh-only")

    def signature(self) -> str:
        """Stable digest of the schedule (determinism checks)."""
        digest = hashlib.sha256()
        for event in self.events:
            digest.update(repr(event.sort_key()).encode())
        return digest.hexdigest()

    # -- JSON round-trip ---------------------------------------------------

    def as_dict(self) -> dict:
        data: dict = {"events": [event.as_dict() for event in self.events]}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        _require(isinstance(data, Mapping),
                 "fault plan must be a JSON object")
        known = {"events", "seed"}
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown fault plan fields: {unknown}")
        seed = data.get("seed")
        _require(seed is None or isinstance(seed, int),
                 f"seed must be an integer, got {seed!r}")
        entries = data.get("events", [])
        _require(isinstance(entries, (list, tuple)),
                 "events must be a list")
        events = [FaultEvent.from_dict(entry) for entry in entries]
        keys = [event.sort_key() for event in events]
        duplicates = sorted({key for key in keys if keys.count(key) > 1})
        _require(not duplicates,
                 f"duplicate fault events: {duplicates}")
        plan = cls(events=events, seed=seed)  # type: ignore[arg-type]
        plan._check_cut_windows()
        return plan

    def _check_cut_windows(self) -> None:
        """Reject overlapping cut windows on one link.

        A link's cut window runs from a ``cut`` event to its matching
        ``repair`` (or forever).  A second cut inside an open window, or
        a repair with no open window, is almost always a plan-authoring
        mistake — the injector would silently no-op it (cuts are
        idempotent, repairs of live links do nothing), so the file
        format refuses the ambiguity outright.
        """
        open_cut: dict[tuple[Node, int], int] = {}
        for event in self.events:
            if event.kind not in (CUT, REPAIR):
                continue
            link = (event.node, event.direction)
            if event.kind == CUT:
                _require(link not in open_cut,
                         f"overlapping cut windows on link {link}: cut at "
                         f"cycle {event.cycle} while the cut from cycle "
                         f"{open_cut.get(link)} is still open")
                open_cut[link] = event.cycle
            else:
                _require(link in open_cut,
                         f"repair of link {link} at cycle {event.cycle} "
                         f"without a preceding cut")
                del open_cut[link]

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid fault plan JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "FaultPlan":
        return cls.from_json(pathlib.Path(path).read_text())

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def random(
        cls,
        seed: int,
        width: int,
        height: int,
        *,
        cuts: int = 2,
        flaps: int = 1,
        corruptions: int = 2,
        drops: int = 1,
        babblers: int = 1,
        window: tuple[int, int] = (400, 4000),
        flap_duration: tuple[int, int] = (40, 160),
        babble_count: int = 8,
        babble_period: int = 48,
        corrupt_budget: int = 3,
        drop_budget: int = 2,
    ) -> "FaultPlan":
        """Draw a reproducible schedule for a ``width x height`` mesh.

        Distinct links are used for cuts, flaps, corruption and drops
        so the failure modes stay individually attributable.  The same
        ``(seed, parameters)`` always produces the identical plan.
        """
        rng = random.Random(seed)
        mesh = Mesh(width, height)
        links = [(node, direction) for node, direction, __ in mesh.links()]
        needed = cuts + flaps + corruptions + drops
        if needed > len(links):
            raise ValueError(
                f"plan wants {needed} distinct links but the mesh only "
                f"has {len(links)}"
            )
        chosen = rng.sample(links, needed)
        start, end = window
        if end <= start:
            raise ValueError("fault window must be non-empty")
        events: list[FaultEvent] = []

        def when() -> int:
            return rng.randrange(start, end)

        index = 0
        for __ in range(cuts):
            node, direction = chosen[index]; index += 1
            events.append(FaultEvent(cycle=when(), kind=CUT,
                                     node=node, direction=direction))
        for __ in range(flaps):
            node, direction = chosen[index]; index += 1
            down = when()
            duration = rng.randrange(*flap_duration)
            events.append(FaultEvent(cycle=down, kind=CUT,
                                     node=node, direction=direction))
            events.append(FaultEvent(cycle=down + duration, kind=REPAIR,
                                     node=node, direction=direction))
        for __ in range(corruptions):
            node, direction = chosen[index]; index += 1
            events.append(FaultEvent(
                cycle=when(), kind=CORRUPT, node=node,
                direction=direction,
                amount=rng.randrange(1, corrupt_budget + 1),
            ))
        for __ in range(drops):
            node, direction = chosen[index]; index += 1
            events.append(FaultEvent(
                cycle=when(), kind=DROP, node=node, direction=direction,
                amount=rng.randrange(1, drop_budget + 1),
            ))
        nodes = list(mesh.nodes())
        for __ in range(babblers):
            babbler = rng.choice(nodes)
            first = when()
            for shot in range(babble_count):
                target = rng.choice([n for n in nodes if n != babbler])
                events.append(FaultEvent(
                    cycle=first + shot * babble_period, kind=BABBLE,
                    node=babbler, target=target,
                    amount=rng.randrange(4, 17),
                ))
        return cls(events=events, seed=seed)
