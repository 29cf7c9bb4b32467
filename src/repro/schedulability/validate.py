"""Tightness validation: predicted bounds against simulated worst cases.

The engine's bounds are only trustworthy if (a) its admission verdicts
match what the simulator actually admits and (b) no run ever observes
a latency above the predicted bound.  :func:`measure` checks both: it
analyses a demand list (under a fault plan when one is given),
establishes the same demands in the same order on a real
:class:`~repro.network.network.MeshNetwork`, drives every admitted
channel adversarially (:func:`drive`) and reduces the delivery log to
per-channel observed worst-case latency.  A fault-free run is a chaos
run with no plan.  :func:`slot_model` builds the slot-level model of
the same admitted set, so the analysis, the slot model and the chip
run one problem and one arrival pattern (:func:`worst_case_arrivals`).

Latency is measured from the *logical* arrival of the original send
(the deadline clock of the model), so ``observed <= predicted`` with
no miss and nothing lost is the safety invariant, and the per-channel
``gap = predicted - observed`` quantifies how conservative the
analysis is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.campaign.spec import canonical_dumps
from repro.channels.admission import AdmissionError
from repro.channels.arrival import LogicalArrivalClock
from repro.core.params import RouterParams
from repro.model.slotsim import SlotSimulator
from repro.schedulability.engine import ScheduleReport, analyze
from repro.schedulability.faultmodel import GUARANTEED, analyze_with_faults
from repro.schedulability.spec import ChannelDemand, TopologySpec


@dataclass
class ChannelTightness:
    """Predicted versus observed worst case for one admitted channel."""

    label: str
    status: str                    # the fault model's verdict
    #: The bound the gate holds the channel to: the recovery envelope
    #: for affected channels, the refined bound (the worst of pre- and
    #: post-fault under a plan) otherwise; ``None`` for at-risk
    #: channels, which are reported but never gated.
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
        """How far under the bound the worst observation stayed."""
        if self.predicted is None or self.observed is None:
            return None
        return self.predicted - self.observed

    @property
    def safe(self) -> bool:
        """The safety invariant (vacuous for at-risk channels)."""
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
class TightnessReport:
    """Outcome of one predict-then-measure run."""

    topology: TopologySpec
    engine: str
    ticks: int
    #: The analysis the run was gated against: a ``ScheduleReport``, or
    #: under a plan the fault model's ``FaultAwareReport``.
    prediction: object
    channels: list[ChannelTightness]
    #: Engine-vs-simulator admission disagreements (must stay empty).
    mismatches: list = field(default_factory=list)
    #: The fault plan's signature; ``None`` for a fault-free run.
    plan_signature: Optional[str] = None

    @property
    def violations(self) -> list[str]:
        """Gated channels that exceeded their bound, missed or lost."""
        return [entry.label for entry in self.channels if not entry.safe]

    @property
    def total_misses(self) -> int:
        return sum(entry.misses for entry in self.channels
                   if entry.gated)

    @property
    def ok(self) -> bool:
        """Verdicts agreed and every gated channel stayed under its
        bound with nothing lost or late."""
        return not self.mismatches and not self.violations

    def as_dict(self) -> dict:
        # Two layouts, because the benchmark's ledger hashes the
        # signature of both: a fault-free report signs its admission
        # counts, a chaos report its plan and the fault model's report.
        channels = [entry.as_dict() for entry in self.channels]
        if self.plan_signature is None:
            head = {"admitted": self.prediction.admitted,
                    "rejected": self.prediction.rejected,
                    "reject_reasons": self.prediction.reject_reasons}
            for entry in channels:
                del entry["status"], entry["undelivered"]
        else:
            head = {"plan_signature": self.plan_signature,
                    "prediction": self.prediction.as_dict()}
        return {
            "topology": self.topology.to_dict(),
            "engine": self.engine,
            "ticks": self.ticks,
            **head,
            "channels": channels,
            "mismatches": list(self.mismatches),
            "violations": self.violations,
            "total_misses": self.total_misses,
            "ok": self.ok,
        }

    def signature(self) -> str:
        return hashlib.sha256(
            canonical_dumps(self.as_dict()).encode()).hexdigest()

    def gap_rows(self) -> list[list[str]]:
        """Per-channel tightness rows (CLI / benchmark artefact)."""
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


def _establish_and_compare(net, demands: Sequence[ChannelDemand],
                           prediction: ScheduleReport, *, adaptive: bool
                           ) -> tuple[list[ChannelDemand], list[str]]:
    """Establish ``demands`` in order on ``net`` against ``prediction``.

    Returns every demand both sides admitted, and every disagreement
    between them.  Engine and network run the same establishment code,
    but over separate tables, horizons and failed-link sets — a
    mismatch means those differ (the network is not fresh, a horizon
    was reduced, a link is already down), not that two implementations
    drifted.
    """
    mismatches: list[str] = []
    admitted: list[ChannelDemand] = []
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
        admitted.append(demand)
    return admitted, mismatches


def worst_case_sends(demand, ticks: int) -> list[int]:
    """The ticks a channel sends at under the adversarial pattern.

    The whole ``B_max`` burst at tick zero, then one send every
    ``I_min`` ticks, inside a window of ``ticks`` ticks.  ``demand`` is
    anything with ``i_min`` and ``b_max`` (a :class:`ChannelDemand` or
    a :class:`~repro.schedulability.engine.ChannelVerdict`).
    """
    if ticks < 1:
        return []
    return [0] * demand.b_max + list(range(demand.i_min, ticks,
                                           demand.i_min))


def worst_case_arrivals(report: ScheduleReport,
                        ticks: int) -> dict[str, list[int]]:
    """Logical arrivals of :func:`worst_case_sends`, per admitted label.

    Each send is stamped by the channel's own
    :class:`~repro.channels.arrival.LogicalArrivalClock`, as the chip's
    source regulator stamps it, so a burst's messages arrive ``I_min``
    apart.  One arrival per send: :func:`drive` sends empty messages,
    which are one packet each.
    """
    arrivals: dict[str, list[int]] = {}
    for verdict in report.channels:
        if verdict.feasible:
            clock = LogicalArrivalClock(verdict.i_min)
            arrivals[verdict.label] = [
                clock.stamp(tick)
                for tick in worst_case_sends(verdict, ticks)]
    return arrivals


def slot_model(report: ScheduleReport,
               arrivals: Mapping[str, Sequence[int]]) -> SlotSimulator:
    """The slot-level model of an analysed problem, ready to run.

    One :class:`~repro.model.slotsim.SlotChannel` per admitted verdict,
    over exactly the hops, per-hop delays ``d_j`` and (for a multicast
    tree) hop graph the analysis admitted; every ``(node, out_port)``
    hop, the reception port included, is one EDF-scheduled link.
    ``arrivals`` maps each admitted label to its source logical arrival
    times (:func:`worst_case_arrivals` gives the adversarial ones).
    """
    sim = SlotSimulator()
    for verdict in report.channels:
        if verdict.feasible:
            sim.add_channel(verdict.label, verdict.hops,
                            verdict.local_delays, arrivals[verdict.label],
                            parents=verdict.parents)
    return sim


def drive(net, demands: Sequence[ChannelDemand], ticks: int, *,
          controller=None, settle_ticks: int = 8192) -> None:
    """Adversarial driving: aligned phases, bursts up front.

    Every channel sends on :func:`worst_case_sends` (the i_min draw set
    shares phase zero: maximal contention), in tick then channel order;
    rate-based source flow control shapes the burst's injection.  This
    is one admissible pattern, not the worst one: on a multi-hop route,
    upstream flows whose phases are staggered so that they meet at a
    shared downstream link can do worse than aligned ones.  The handle
    is resolved by label at *every send*: a reroute replaces it, and a
    degraded channel keeps sending over its best-effort fallback,
    exactly as an application would.

    Retransmission timers fire long after the last send (backoff
    doubles past the deadline each retry) while the fabric idles, so
    with a recovery ``controller`` the run keeps stepping until its
    retry ledger is empty (at most ``settle_ticks``) before it drains.
    A drain that times out is tolerated: wedged traffic shows up in the
    report as undelivered messages of the channel that sent them.
    """
    due: list[list[str]] = [[] for __ in range(ticks)]
    for demand in demands:
        for tick in worst_case_sends(demand, ticks):
            due[tick].append(demand.label)
    manager = net.manager
    for labels in due:
        for label in labels:
            channel = manager.find(label)
            if channel is not None:
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


def measure(topology: TopologySpec, demands: Sequence[ChannelDemand],
            plan=None, *, ticks: int, engine: str = "event",
            params: Optional[RouterParams] = None,
            adaptive: bool = True):
    """Run the predict-then-measure loop; returns ``(net, report)``.

    Without a ``plan`` the prediction is :func:`analyze`'s, every
    admitted channel is gated against its refined bound and no fault
    machinery runs.  With one, the demands are analysed with
    :func:`~repro.schedulability.faultmodel.analyze_with_faults`, the
    full fault-tolerance stack is installed and the *actual* plan is
    replayed through a :class:`~repro.faults.injector.FaultInjector`;
    every guaranteed and degraded-guaranteed channel is gated against
    its fault-aware bound.

    Latency is measured from each message's original logical arrival:
    a retransmitted copy carries a fresh deadline (which it meets), so
    its extra latency is exactly the recovery envelope's business.  The
    returned network has run to completion (drained), so callers can
    reduce its delivery log further (the campaign workloads do).
    """
    from repro.network.network import MeshNetwork

    # The bound each admitted label is gated against, with its status.
    if plan is None:
        prediction = base = analyze(topology, demands, params=params,
                                    adaptive=adaptive)
        bounds = {verdict.label: (GUARANTEED, verdict.refined_bound
                                  or verdict.predicted_bound)
                  for verdict in base.channels if verdict.feasible}
    else:
        prediction = analyze_with_faults(topology, demands, plan,
                                         params=params, adaptive=adaptive)
        base = prediction.base
        bounds = {verdict.label: (verdict.status, verdict.guaranteed_bound)
                  for verdict in prediction.verdicts}
    net = MeshNetwork(topology.width, topology.height, params=params,
                      torus=topology.torus, engine=engine)
    controller = None
    if plan is not None:
        from repro.faults import install_fault_tolerance
        controller = install_fault_tolerance(net).controller

    # Wire-sequence bookkeeping.  The recovery controller's send hook
    # (registered first) stamps ``retransmit_of`` on re-sent fragments
    # before this one runs, so every fragment maps to the original
    # attempt it covers; an original records its logical arrival
    # against the live handle's bound (a reroute changes the bound).
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

    established, mismatches = _establish_and_compare(
        net, demands, base, adaptive=adaptive)

    # Module lookups, not ``drive``: the repo benchmark marks its
    # build/drive boundary by patching these two names.
    if plan is None:
        drive_worst_case(net, established, ticks)
    else:
        from repro.faults.injector import FaultInjector

        net.engine.add_component(FaultInjector(net, plan))
        drive_chaos(net, established, ticks, controller=controller)

    slot = net.params.slot_cycles
    worst: dict[str, int] = {}
    counts: dict[str, int] = {}
    misses: dict[str, int] = {}
    delivered: dict[str, set] = {}
    for record in net.log.records:
        if record.traffic_class != "TC" or record.duplicate:
            continue
        label = record.connection_label
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

    sent: dict[str, list[int]] = {}
    for label, origin in arrival_of:
        sent.setdefault(label, []).append(origin)
    channels = []
    for demand in established:
        label = demand.label
        status, predicted = bounds[label]
        received = delivered.get(label, set())
        channels.append(ChannelTightness(
            label=label, status=status, predicted=predicted,
            observed=worst.get(label),
            deliveries=counts.get(label, 0),
            misses=misses.get(label, 0),
            undelivered=sum((origin, destination) not in received
                            for origin in sent.get(label, ())
                            for destination in demand.destinations),
        ))
    report = TightnessReport(
        topology=topology, engine=engine, ticks=ticks,
        prediction=prediction, channels=channels, mismatches=mismatches,
        plan_signature=None if plan is None else plan.signature(),
    )
    return net, report


# The repo benchmark (``benchmarks/perf/workloads.py``) calls and
# patches these names; ROADMAP item 8, the next change to the
# benchmark, deletes them.
measure_tightness = measure_chaos_tightness = measure
drive_worst_case = drive_chaos = drive
