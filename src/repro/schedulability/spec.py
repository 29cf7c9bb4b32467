"""Problem descriptions for the analytic schedulability engine.

A schedulability *problem* is a mesh topology plus an ordered list of
channel demands — everything :func:`repro.schedulability.engine.analyze`
needs to predict admission outcomes and worst-case bounds without
running a simulated cycle.  Both layers are frozen and JSON-round-trip
cleanly, so problems can be written by hand, exported from sweeps, and
fed to the ``analyze`` CLI subcommand.

The demand generators mirror the campaign workloads draw for draw:
:func:`random_channel_demands` reproduces the ``random`` workload's
admission stream exactly (same derived substream, same per-channel
draw order), so an analytic verdict on the generated set predicts what
the simulator will admit.  :func:`adversarial_channel_demands` is the
tightness campaign's stress generator: multi-packet messages and burst
allowances on top of the same deadline recipe, which saturates links
far sooner and produces provably-infeasible sweep cells.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.campaign.spec import derive_seed
from repro.channels.spec import FlowRequirements, TrafficSpec
from repro.core.params import TC_PAYLOAD_BYTES

#: The i_min draw set shared with the campaign workload generators.
I_MIN_CHOICES = (6, 10, 16, 24)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class TopologySpec:
    """The fabric a problem runs on: a ``width x height`` mesh."""

    width: int
    height: int
    torus: bool = False

    def __post_init__(self) -> None:
        _require(isinstance(self.width, int)
                 and isinstance(self.height, int),
                 "mesh dimensions must be integers")
        _require(self.width >= 1 and self.height >= 1,
                 "mesh dimensions must be positive")
        _require(isinstance(self.torus, bool),
                 "torus must be a boolean")

    def check_endpoints(self, demands: Sequence["ChannelDemand"]) -> None:
        """Raise ``ValueError`` for the first demand whose source or
        any destination is not a node of this topology."""
        for demand in demands:
            for node in (demand.source, *demand.destinations):
                if not (0 <= node[0] < self.width
                        and 0 <= node[1] < self.height):
                    raise ValueError(
                        f"channel {demand.label!r}: node {node!r} is "
                        f"outside the {self.width}x{self.height} "
                        f"{'torus' if self.torus else 'mesh'}")

    def to_dict(self) -> dict:
        return {"width": self.width, "height": self.height,
                "torus": self.torus}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TopologySpec":
        _require(isinstance(data, Mapping),
                 "topology must be a JSON object")
        known = {"width", "height", "torus"}
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown topology fields: {unknown}")
        _require("width" in data and "height" in data,
                 "topology needs width and height")
        return cls(width=data["width"], height=data["height"],  # type: ignore[arg-type]
                   torus=data.get("torus", False))  # type: ignore[arg-type]


@dataclass(frozen=True)
class ChannelDemand:
    """One requested real-time channel, as the engine consumes it.

    ``destinations`` usually holds one node (unicast); more than one
    describes a multicast tree.  ``deadline`` is the end-to-end bound
    ``D`` in ticks.
    """

    label: str
    source: tuple[int, int]
    destinations: tuple[tuple[int, int], ...]
    i_min: int
    deadline: int
    s_max: int = TC_PAYLOAD_BYTES
    b_max: int = 1

    def __post_init__(self) -> None:
        _require(bool(self.label) and isinstance(self.label, str),
                 "channel demand needs a non-empty label")
        _require(len(self.destinations) >= 1,
                 "channel demand needs at least one destination")
        for node in (self.source, *self.destinations):
            _require(isinstance(node, tuple) and len(node) == 2
                     and all(isinstance(c, int) for c in node),
                     f"node must be an (x, y) pair, got {node!r}")
        for name in ("i_min", "deadline", "s_max", "b_max"):
            value = getattr(self, name)
            _require(isinstance(value, int) and value >= 1,
                     f"{name} must be a positive integer, "
                     f"got {value!r}")

    def spec(self) -> TrafficSpec:
        return TrafficSpec(i_min=self.i_min, s_max=self.s_max,
                           b_max=self.b_max)

    def requirements(self) -> FlowRequirements:
        return FlowRequirements(deadline=self.deadline)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "source": list(self.source),
            "destinations": [list(node) for node in self.destinations],
            "i_min": self.i_min,
            "deadline": self.deadline,
            "s_max": self.s_max,
            "b_max": self.b_max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChannelDemand":
        _require(isinstance(data, Mapping),
                 "channel demand must be a JSON object")
        known = {"label", "source", "destinations", "i_min", "deadline",
                 "s_max", "b_max"}
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown channel fields: {unknown}")
        for field_name in ("label", "source", "destinations", "i_min",
                           "deadline"):
            _require(field_name in data,
                     f"channel demand needs {field_name!r}")

        def node_of(value: object) -> tuple[int, int]:
            _require(isinstance(value, (list, tuple)) and len(value) == 2,
                     f"node must be an (x, y) pair, got {value!r}")
            return (value[0], value[1])  # type: ignore[index]

        destinations = data["destinations"]
        _require(isinstance(destinations, (list, tuple)),
                 "destinations must be a list of nodes")
        return cls(
            label=data["label"],  # type: ignore[arg-type]
            source=node_of(data["source"]),
            destinations=tuple(node_of(node) for node in destinations),
            i_min=data["i_min"],  # type: ignore[arg-type]
            deadline=data["deadline"],  # type: ignore[arg-type]
            s_max=data.get("s_max", TC_PAYLOAD_BYTES),  # type: ignore[arg-type]
            b_max=data.get("b_max", 1),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class Problem:
    """A topology plus an ordered channel demand list."""

    topology: TopologySpec
    channels: tuple[ChannelDemand, ...]

    def __post_init__(self) -> None:
        self.topology.check_endpoints(self.channels)

    def to_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "channels": [demand.to_dict() for demand in self.channels],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Problem":
        _require(isinstance(data, Mapping),
                 "schedulability problem must be a JSON object")
        known = {"topology", "channels"}
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown problem fields: {unknown}")
        _require("topology" in data, "problem needs a topology")
        channels = data.get("channels", [])
        _require(isinstance(channels, (list, tuple)),
                 "channels must be a list")
        demands = tuple(ChannelDemand.from_dict(entry)
                        for entry in channels)
        labels = [demand.label for demand in demands]
        duplicates = sorted({label for label in labels
                             if labels.count(label) > 1})
        _require(not duplicates,
                 f"duplicate channel labels: {duplicates}")
        return cls(topology=TopologySpec.from_dict(data["topology"]),  # type: ignore[arg-type]
                   channels=demands)

    @classmethod
    def from_json(cls, text: str) -> "Problem":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid problem JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "Problem":
        return cls.from_json(pathlib.Path(path).read_text())

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


# ---------------------------------------------------------------------------
# Demand generators shared with the campaign workloads
# ---------------------------------------------------------------------------

def _mesh(width: int, height: int, torus: bool):
    from repro.network.topology import Mesh

    return Mesh(width, height, torus=torus)


def random_channel_demands(width: int, height: int, channels: int,
                           seed: int, *,
                           torus: bool = False) -> list[ChannelDemand]:
    """The ``random`` workload's admission stream, as demand objects.

    Draw-for-draw identical to
    :func:`repro.campaign.workloads.build_random_workload`: the same
    derived substream (``derive_seed(seed, "admit")``), the same
    per-channel ``sample``/``choice`` order, the same deadline recipe —
    so analysing this list predicts exactly what that workload's
    simulator admits.
    """
    mesh = _mesh(width, height, torus)
    rng = random.Random(derive_seed(seed, "admit"))
    nodes = list(mesh.nodes())
    demands = []
    for index in range(channels):
        src, dst = rng.sample(nodes, 2)
        i_min = rng.choice(list(I_MIN_CHOICES))
        deadline = i_min * (mesh.hop_distance(src, dst) + 1) + 10
        demands.append(ChannelDemand(
            label=f"rand-{index}", source=src, destinations=(dst,),
            i_min=i_min, deadline=deadline,
        ))
    return demands


def adversarial_channel_demands(width: int, height: int, channels: int,
                                seed: int, *,
                                torus: bool = False
                                ) -> list[ChannelDemand]:
    """Worst-case-leaning demand sets for the tightness campaign.

    Same topology/deadline recipe as the random stream but from its own
    substream (``derive_seed(seed, "adversarial")``) with multi-packet
    messages and burst allowances mixed in — per-link demand grows two
    to four times faster per channel, so sweeping the channel count
    quickly crosses into provable infeasibility.
    """
    mesh = _mesh(width, height, torus)
    rng = random.Random(derive_seed(seed, "adversarial"))
    nodes = list(mesh.nodes())
    demands = []
    for index in range(channels):
        src, dst = rng.sample(nodes, 2)
        i_min = rng.choice(list(I_MIN_CHOICES))
        b_max = rng.choice([1, 2])
        s_max = rng.choice([TC_PAYLOAD_BYTES, 2 * TC_PAYLOAD_BYTES])
        deadline = i_min * (mesh.hop_distance(src, dst) + 1) + 10
        demands.append(ChannelDemand(
            label=f"adv-{index}", source=src, destinations=(dst,),
            i_min=i_min, deadline=deadline, s_max=s_max, b_max=b_max,
        ))
    return demands


def demands_for_requests(requests: Sequence) -> list[ChannelDemand]:
    """Channel demands for a churn workload's TC requests.

    Accepts :class:`repro.service.workload.ChannelRequest` objects;
    best-effort requests carry no guarantee and are skipped.
    """
    return [
        ChannelDemand(
            label=request.label, source=request.source,
            destinations=(request.destination,), i_min=request.i_min,
            deadline=request.deadline_ticks,
        )
        for request in requests if request.traffic_class == "TC"
    ]
