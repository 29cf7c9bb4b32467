"""Tightness validation: predicted bounds against simulated worst cases.

The engine's bounds are only trustworthy if (a) its admission verdicts
match what the simulator actually admits and (b) no fault-free run
ever observes a latency above the predicted bound.
:func:`measure_tightness` checks both: it analyses a demand list, then
establishes the same demands in the same order on a real
:class:`~repro.network.network.MeshNetwork` and drives every admitted
channel with its worst case — all sources phase-aligned at tick zero,
the full ``B_max`` burst up front, then strictly periodic sends at
``I_min`` — and reduces the delivery log to per-channel observed
worst-case latency.

The observed latency of a delivery is measured against its *logical*
arrival time (the deadline clock of the model): ``delivered_tick -
(absolute_deadline - predicted_bound)``.  The safety invariant
``observed <= predicted`` is therefore exactly "no deadline miss", and
the per-channel ``gap = predicted - observed`` quantifies how
conservative the analysis is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.campaign.spec import canonical_dumps
from repro.channels.admission import AdmissionError
from repro.core.params import RouterParams
from repro.schedulability.engine import ScheduleReport, analyze
from repro.schedulability.spec import ChannelDemand, TopologySpec


@dataclass
class ChannelTightness:
    """Predicted versus observed worst case for one admitted channel."""

    label: str
    predicted: int                 # the engine's bound, ticks
    observed: Optional[int]        # worst measured latency, ticks
    deliveries: int
    misses: int

    @property
    def gap(self) -> Optional[int]:
        """How far under the bound the worst observation stayed."""
        if self.observed is None:
            return None
        return self.predicted - self.observed

    @property
    def safe(self) -> bool:
        """The safety invariant for this channel (vacuous if silent)."""
        return self.observed is None or self.observed <= self.predicted

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "predicted": self.predicted,
            "observed": self.observed,
            "gap": self.gap,
            "deliveries": self.deliveries,
            "misses": self.misses,
            "safe": self.safe,
        }


@dataclass
class TightnessReport:
    """Outcome of one predict-then-measure validation run."""

    topology: TopologySpec
    engine: str
    ticks: int
    prediction: ScheduleReport
    channels: list[ChannelTightness]
    #: Engine-vs-simulator admission disagreements (must stay empty).
    mismatches: list = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        """Channels whose observed worst case exceeded the bound."""
        return [entry.label for entry in self.channels if not entry.safe]

    @property
    def total_misses(self) -> int:
        return sum(entry.misses for entry in self.channels)

    @property
    def ok(self) -> bool:
        """Verdicts agreed, every bound held, no deadline missed."""
        return (not self.mismatches and not self.violations
                and self.total_misses == 0)

    def as_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "engine": self.engine,
            "ticks": self.ticks,
            "admitted": self.prediction.admitted,
            "rejected": self.prediction.rejected,
            "reject_reasons": self.prediction.reject_reasons,
            "channels": [entry.as_dict() for entry in self.channels],
            "mismatches": list(self.mismatches),
            "violations": self.violations,
            "total_misses": self.total_misses,
            "ok": self.ok,
        }

    def signature(self) -> str:
        return hashlib.sha256(
            canonical_dumps(self.as_dict()).encode()).hexdigest()

    def gap_rows(self) -> list[list[str]]:
        """Per-channel tightness rows (label, predicted, observed...)."""
        rows = []
        for entry in self.channels:
            observed = "-" if entry.observed is None else str(entry.observed)
            gap = "-" if entry.gap is None else str(entry.gap)
            rows.append([entry.label, str(entry.predicted), observed,
                         gap, str(entry.deliveries),
                         "yes" if entry.safe else "NO"])
        return rows


def _establish_and_compare(net, demands: Sequence[ChannelDemand],
                           prediction: ScheduleReport, *, adaptive: bool
                           ) -> tuple[list[tuple], list[str]]:
    """Establish ``demands`` in order on ``net`` against ``prediction``.

    Returns a ``(demand, channel, verdict)`` triple for every demand
    both sides admitted, and every disagreement between them.  Engine and network run the same
    establishment code, but over separate tables, horizons and
    failed-link sets — a mismatch means those differ (the network is
    not fresh, a horizon was reduced, a link is already down), not that
    two implementations drifted.
    """
    mismatches: list[str] = []
    admitted: list[tuple] = []
    for demand, verdict in zip(demands, prediction.channels):
        try:
            channel = net.establish_channel(
                demand.source, demand.destinations, demand.spec(),
                deadline=demand.deadline, label=demand.label,
                adaptive=adaptive)
        except AdmissionError as exc:
            if verdict.feasible:
                mismatches.append(
                    f"{demand.label}: engine admitted but simulator "
                    f"rejected ({exc.reason})")
            elif exc.reason != verdict.reason:
                mismatches.append(
                    f"{demand.label}: rejection reason diverged "
                    f"(engine {verdict.reason!r}, "
                    f"simulator {exc.reason!r})")
            continue
        if not verdict.feasible:
            mismatches.append(
                f"{demand.label}: engine rejected ({verdict.reason}) "
                f"but simulator admitted")
            continue
        if channel.deadline != verdict.predicted_bound:
            mismatches.append(
                f"{demand.label}: bound diverged (engine "
                f"{verdict.predicted_bound}, simulator "
                f"{channel.deadline})")
        admitted.append((demand, channel, verdict))
    return admitted, mismatches


def drive_worst_case(net, channels: Sequence[tuple[ChannelDemand, object]],
                     ticks: int) -> None:
    """Adversarial driving: aligned phases, bursts up front.

    Every channel sends at tick zero (maximal contention: the i_min
    draw set shares that phase), fires its whole ``B_max`` allowance
    there, and then sends strictly periodically.  Rate-based source
    flow control shapes the burst's injection (horizon zero holds a
    packet until its logical arrival), which is precisely the model's
    worst admissible behaviour — faster sources only push their own
    deadlines out.
    """
    for tick in range(ticks):
        for demand, channel in channels:
            if tick % demand.i_min == 0:
                sends = demand.b_max if tick == 0 else 1
                for __ in range(sends):
                    net.send_message(channel)
        net.run_ticks(1)
    net.drain(max_cycles=2_000_000)


def measure_tightness(topology: TopologySpec,
                      demands: Sequence[ChannelDemand], *,
                      ticks: int, engine: str = "event",
                      params: Optional[RouterParams] = None,
                      adaptive: bool = True):
    """Run the predict-then-measure loop; returns ``(net, report)``.

    The returned network has run to completion (drained), so callers
    can reduce its delivery log further (the campaign workload does).
    """
    from repro.network.network import MeshNetwork

    prediction = analyze(topology, demands, params=params,
                         adaptive=adaptive)
    net = MeshNetwork(topology.width, topology.height, params=params,
                      torus=topology.torus, engine=engine)
    admitted, mismatches = _establish_and_compare(
        net, demands, prediction, adaptive=adaptive)
    established = [(demand, channel) for demand, channel, __ in admitted]
    verdicts = {demand.label: verdict for demand, __, verdict in admitted}

    drive_worst_case(net, established, ticks)

    slot = net.params.slot_cycles
    worst: dict[str, int] = {}
    counts: dict[str, int] = {}
    misses: dict[str, int] = {}
    for record in net.log.records:
        label = record.connection_label
        if (label not in verdicts or record.duplicate
                or record.traffic_class != "TC"):
            continue
        delivered_tick = -(-record.delivered_cycle // slot)
        # The simulator stamps absolute_deadline = logical_arrival +
        # channel.deadline, and channel.deadline equals the engine's
        # *raw* bound (asserted above) — so subtracting the raw bound
        # recovers the logical arrival the latency is measured from.
        raw = verdicts[label].predicted_bound
        latency = delivered_tick - (record.absolute_deadline - raw)
        worst[label] = max(worst.get(label, latency), latency)
        counts[label] = counts.get(label, 0) + 1
        if record.deadline_met is False:
            misses[label] = misses.get(label, 0) + 1

    # The safety invariant is gated against the holding-time-aware
    # *refined* bound (never larger than the raw bound), so the
    # measured gap quantifies the refined analysis.
    channels = [
        ChannelTightness(
            label=demand.label,
            predicted=(verdicts[demand.label].refined_bound
                       or verdicts[demand.label].predicted_bound),
            observed=worst.get(demand.label),
            deliveries=counts.get(demand.label, 0),
            misses=misses.get(demand.label, 0),
        )
        for demand, __ in established
    ]
    report = TightnessReport(
        topology=topology, engine=engine, ticks=ticks,
        prediction=prediction, channels=channels,
        mismatches=mismatches,
    )
    return net, report


# ---------------------------------------------------------------------------
# Chaos tightness: fault-aware bounds against real FaultInjector runs
# ---------------------------------------------------------------------------

@dataclass
class ChaosChannelTightness:
    """Fault-aware bound versus chaos-run observation for one channel."""

    label: str
    status: str                    # the fault model's verdict
    #: The bound the gate holds the channel to: the recovery envelope
    #: for affected channels, the (worst of pre/post-fault) refined
    #: fault-free bound otherwise; ``None`` for at-risk channels, which
    #: are reported but never gated.
    predicted: Optional[int]
    observed: Optional[int]        # worst latency from original logical
    deliveries: int                # arrival, ticks
    misses: int                    # deliveries past their own deadline
    undelivered: int               # (origin, destination) pairs lost

    @property
    def gated(self) -> bool:
        return self.predicted is not None

    @property
    def gap(self) -> Optional[int]:
        if self.predicted is None or self.observed is None:
            return None
        return self.predicted - self.observed

    @property
    def safe(self) -> bool:
        """The chaos safety invariant (vacuous for at-risk channels)."""
        if not self.gated:
            return True
        return ((self.observed is None or self.observed <= self.predicted)
                and self.misses == 0 and self.undelivered == 0)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "predicted": self.predicted,
            "observed": self.observed,
            "gap": self.gap,
            "deliveries": self.deliveries,
            "misses": self.misses,
            "undelivered": self.undelivered,
            "safe": self.safe,
        }


@dataclass
class ChaosTightnessReport:
    """Outcome of one fault-aware predict-then-measure run."""

    topology: TopologySpec
    engine: str
    ticks: int
    plan_signature: str
    #: The fault model's report (``FaultAwareReport``).
    prediction: object
    channels: list[ChaosChannelTightness]
    mismatches: list = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [entry.label for entry in self.channels if not entry.safe]

    @property
    def total_misses(self) -> int:
        return sum(entry.misses for entry in self.channels
                   if entry.gated)

    @property
    def ok(self) -> bool:
        """Verdicts agreed and every guaranteed/degraded-guaranteed
        channel stayed under its bound with nothing lost or late."""
        return not self.mismatches and not self.violations

    def as_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "engine": self.engine,
            "ticks": self.ticks,
            "plan_signature": self.plan_signature,
            "prediction": self.prediction.as_dict(),
            "channels": [entry.as_dict() for entry in self.channels],
            "mismatches": list(self.mismatches),
            "violations": self.violations,
            "total_misses": self.total_misses,
            "ok": self.ok,
        }

    def signature(self) -> str:
        return hashlib.sha256(
            canonical_dumps(self.as_dict()).encode()).hexdigest()

    def gap_rows(self) -> list[list[str]]:
        """Per-channel degraded-gap rows (CLI / benchmark artefact)."""
        rows = []
        for entry in self.channels:
            predicted = ("-" if entry.predicted is None
                         else str(entry.predicted))
            observed = ("-" if entry.observed is None
                        else str(entry.observed))
            gap = "-" if entry.gap is None else str(entry.gap)
            rows.append([entry.label, entry.status, predicted, observed,
                         gap, str(entry.deliveries),
                         str(entry.misses),
                         "yes" if entry.safe else "NO"])
        return rows


def drive_chaos(net, demands: Sequence[ChannelDemand],
                ticks: int, *, controller=None,
                settle_ticks: int = 8192) -> None:
    """Worst-case driving that survives reroutes.

    Same adversarial pattern as :func:`drive_worst_case` — aligned
    phases, the full burst up front, strictly periodic after — but the
    channel handle is resolved by label *every tick*: a reroute replaces
    the handle, and a degraded channel keeps sending over its
    best-effort fallback, exactly as an application would.

    After the driving window the run *settles*: retransmission timers
    fire long after the last send (exponential backoff doubles past the
    deadline each retry), and the fabric is idle in between — a bare
    drain would return with messages still owed.  When ``controller``
    is given, the loop keeps stepping until its retry ledger is empty
    (bounded by ``settle_ticks``).  A drain that then times out is
    tolerated: permanently wedged traffic is the caller's business and
    shows up as undelivered messages.
    """
    manager = net.manager
    for tick in range(ticks):
        for demand in demands:
            if tick % demand.i_min == 0:
                channel = manager.find(demand.label)
                if channel is None:
                    continue
                sends = demand.b_max if tick == 0 else 1
                for __ in range(sends):
                    net.send_message(channel)
        net.run_ticks(1)
    remaining = settle_ticks
    while (controller is not None and remaining > 0
           and (controller.pending_retransmits
                or controller.pending_be_retries)):
        net.run_ticks(1)
        remaining -= 1
    try:
        net.drain(max_cycles=2_000_000)
    except TimeoutError:
        pass


def measure_chaos_tightness(topology: TopologySpec,
                            demands: Sequence[ChannelDemand],
                            plan, *,
                            ticks: int, engine: str = "event",
                            params: Optional[RouterParams] = None,
                            adaptive: bool = True,
                            recovery=None):
    """Fault-aware predict-then-measure; returns ``(net, report)``.

    Analyses the demands under ``plan`` with
    :func:`repro.schedulability.faultmodel.analyze_with_faults`, then
    establishes the same channels on a real network with the full
    fault-tolerance stack installed, replays the *actual* plan through
    a :class:`~repro.faults.injector.FaultInjector`, and reduces the
    delivery log to per-channel worst-case latency **measured from each
    message's original logical arrival**: a retransmitted copy carries
    a fresh deadline (which it meets), so its extra latency is exactly
    the recovery envelope's business.  A send hook registered *after*
    the recovery controller's maps every wire sequence back to the
    original attempt it re-sends.
    """
    from repro.faults import install_fault_tolerance
    from repro.faults.injector import FaultInjector
    from repro.network.network import MeshNetwork
    from repro.schedulability.faultmodel import AT_RISK, analyze_with_faults

    prediction = analyze_with_faults(topology, demands, plan,
                                     params=params, adaptive=adaptive,
                                     recovery=recovery)
    net = MeshNetwork(topology.width, topology.height, params=params,
                      torus=topology.torus, engine=engine)
    tolerance = install_fault_tolerance(net)

    # Wire-sequence bookkeeping.  The recovery controller's send hook
    # (registered first, inside install_fault_tolerance) stamps
    # ``retransmit_of`` on re-sent fragments before this hook runs, so
    # every fragment maps to the original attempt it covers, and every
    # original attempt records the logical arrival its latency is
    # measured from (``absolute_deadline`` minus the channel's *current*
    # bound — reroutes change the bound, and the hook sees the live
    # handle).
    origin_of: dict[tuple[str, int], int] = {}
    arrival_of: dict[tuple[str, int], int] = {}

    def _record_sends(channel, packets, payload) -> None:
        for packet in packets:
            meta = packet.meta
            origin = (meta.retransmit_of
                      if meta.retransmit_of is not None
                      else meta.sequence)
            origin_of[(channel.label, meta.sequence)] = origin
            if (meta.retransmit_of is None
                    and meta.absolute_deadline is not None):
                arrival_of[(channel.label, meta.sequence)] = (
                    meta.absolute_deadline - channel.deadline)

    net.tc_send_hooks.append(_record_sends)

    admitted, mismatches = _establish_and_compare(
        net, demands, prediction.base, adaptive=adaptive)
    established = [demand for demand, __, __ in admitted]

    injector = FaultInjector(net, plan)
    net.engine.add_component(injector)
    drive_chaos(net, established, ticks,
                controller=tolerance.controller)

    slot = net.params.slot_cycles
    worst: dict[str, int] = {}
    counts: dict[str, int] = {}
    misses: dict[str, int] = {}
    delivered: dict[str, set] = {}
    for record in net.log.records:
        label = record.connection_label
        if (record.traffic_class != "TC" or record.duplicate
                or label is None):
            continue
        origin = origin_of.get((label, record.sequence))
        if origin is None:
            continue
        arrival = arrival_of.get((label, origin))
        if arrival is None:
            continue
        delivered_tick = -(-record.delivered_cycle // slot)
        latency = delivered_tick - arrival
        worst[label] = max(worst.get(label, latency), latency)
        counts[label] = counts.get(label, 0) + 1
        delivered.setdefault(label, set()).add(
            (origin, record.delivered_node))
        if record.deadline_met is False:
            misses[label] = misses.get(label, 0) + 1

    channels: list[ChaosChannelTightness] = []
    for demand in established:
        fault_verdict = prediction.verdict_for(demand.label)
        sent_origins = {seq for (label, seq) in arrival_of
                        if label == demand.label}
        expected = {(origin, destination) for origin in sent_origins
                    for destination in demand.destinations}
        undelivered = len(expected - delivered.get(demand.label, set()))
        channels.append(ChaosChannelTightness(
            label=demand.label,
            status=fault_verdict.status,
            predicted=(None if fault_verdict.status == AT_RISK
                       else fault_verdict.guaranteed_bound),
            observed=worst.get(demand.label),
            deliveries=counts.get(demand.label, 0),
            misses=misses.get(demand.label, 0),
            undelivered=undelivered,
        ))
    report = ChaosTightnessReport(
        topology=topology, engine=engine, ticks=ticks,
        plan_signature=plan.signature(), prediction=prediction,
        channels=channels, mismatches=mismatches,
    )
    return net, report
