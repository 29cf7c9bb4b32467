"""The analytic schedulability engine: verdicts without simulation.

:func:`analyze` establishes a channel demand list with the real
protocol software — one :class:`~repro.channels.manager.ChannelManager`
over a fresh :class:`~repro.core.connection_table.ControlInterface` per
node of the topology, connection tables with no data path behind them
— and reads the verdicts off what establishment returns.  Route
selection, deadline decomposition, the per-link EDF demand-bound test,
buffer reservation and connection-id allocation are the manager's and
the admission controller's; nothing of them is written down here, and
no router is instantiated or cycle run.  The result is a
:class:`ScheduleReport`: per-channel feasibility with a structured
rejection, the predicted end-to-end worst-case bound (the sum of the
per-hop ``d_j`` along the deepest path), the slack against the
requested deadline, per-hop buffer demand, and the network-wide
bottleneck-link utilisation.

The engine's verdict on a demand list therefore *is* the simulator's
admission outcome for the same list established in the same order on
an untouched fabric.  The validation harness
(:mod:`repro.schedulability.validate`) still compares the two before
measuring tightness, because the analysis and the network hold
separate tables, horizons and failed-link sets.

:func:`predict_admission` is the *live* variant: a dry-run (admit,
then immediately release) against an existing controller, used by the
service layer's optional analytic pre-admission verdict.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.campaign.spec import canonical_dumps
from repro.channels.admission import (
    AdmissionController,
    AdmissionError,
    ConnectionLoad,
    LinkSchedule,
)
from repro.channels.manager import ChannelManager, RealTimeChannel
from repro.channels.spec import FlowRequirements, TrafficSpec
from repro.core.connection_table import ControlInterface
from repro.core.params import RouterParams
from repro.schedulability.spec import ChannelDemand, TopologySpec

if TYPE_CHECKING:
    from repro.channels.admission import HopDescriptor

#: Rejection reasons that no amount of already-admitted load explains:
#: they follow from the request's own parameters against the router
#: constants (deadline decomposition, per-hop overhead, i_min cap,
#: rollover half-range) or from a degenerate route.  A request refused
#: for one of these can never succeed on retry while the topology and
#: parameters stand — the service layer's analytic pre-admission
#: verdict rejects them immediately instead of queueing.
LOAD_INDEPENDENT_REASONS = frozenset({
    "empty-route",
    "delay-caps",
    "deadline-too-tight",
    "hop-overhead",
    "delay-exceeds-imin",
    "rollover",
})


@dataclass
class ChannelVerdict:
    """The engine's prediction for one channel demand."""

    label: str
    source: tuple[int, int]
    destinations: tuple[tuple[int, int], ...]
    i_min: int
    s_max: int
    b_max: int
    deadline: int
    feasible: bool
    #: Structured rejection (reason slug + AdmissionError details) when
    #: infeasible; ``None`` when admitted.
    reason: Optional[str] = None
    rejection: Optional[dict] = None
    #: The (node, out_port) hops the engine routed the channel over.
    hops: list = field(default_factory=list)
    #: Per-hop delay decomposition d_j (one entry per hop).
    local_delays: list = field(default_factory=list)
    #: A multicast tree's hop graph: the index of the hop feeding each
    #: hop (``-1`` at the source).  ``None`` for a chain.
    parents: Optional[list] = None
    #: Predicted end-to-end worst-case latency bound in ticks: the sum
    #: of d_j along the deepest source-to-destination path.
    predicted_bound: Optional[int] = None
    #: Holding-time-aware refinement of the bound (never larger): the
    #: last hop's EDF worst-case response replaces its full d_j budget.
    #: Upstream hops keep their d_j — the deadline clock holds early
    #: arrivals to their logical schedule, so only the final hop's
    #: earliness reaches the receiving host.
    refined_bound: Optional[int] = None
    #: ``float(sum(local_delays))``.  Not an independent check: the
    #: column stays only because report signatures hash it.
    netcalc_bound: Optional[float] = None
    #: Deadline budget left unused: requested D minus the bound.
    slack: Optional[int] = None
    #: Per-hop buffer demand as (node, port, packets) triples.
    buffers: list = field(default_factory=list)

    def as_dict(self) -> dict:
        document = {
            "label": self.label,
            "source": list(self.source),
            "destinations": [list(node) for node in self.destinations],
            "i_min": self.i_min,
            "s_max": self.s_max,
            "b_max": self.b_max,
            "deadline": self.deadline,
            "feasible": self.feasible,
            "reason": self.reason,
            "rejection": self.rejection,
            "hops": [[list(node), port] for node, port in self.hops],
            "local_delays": list(self.local_delays),
            "predicted_bound": self.predicted_bound,
            "refined_bound": self.refined_bound,
            "netcalc_bound": self.netcalc_bound,
            "slack": self.slack,
            "buffers": [[list(node), port, packets]
                        for node, port, packets in self.buffers],
        }
        if self.parents is not None:
            document["parents"] = list(self.parents)
        return document


@dataclass
class ScheduleReport:
    """The engine's verdict on a whole problem."""

    topology: TopologySpec
    channels: list[ChannelVerdict]
    #: Network-wide occupancy after all admissions (the controller's
    #: occupancy summary: max/mean link utilisation, buffer fill).
    occupancy: dict
    #: The most-utilised link as (node, port, utilisation), or None
    #: when nothing was admitted.
    bottleneck: Optional[tuple[tuple[int, int], int, float]]
    #: Per-node reserved packet buffers as (node, reserved, capacity),
    #: loaded nodes only.
    node_buffers: list

    @property
    def admitted(self) -> int:
        return sum(1 for verdict in self.channels if verdict.feasible)

    @property
    def rejected(self) -> int:
        return len(self.channels) - self.admitted

    @property
    def feasible(self) -> bool:
        """Every demanded channel is admissible."""
        return self.rejected == 0

    @property
    def reject_reasons(self) -> dict:
        tally: dict[str, int] = {}
        for verdict in self.channels:
            if not verdict.feasible and verdict.reason:
                tally[verdict.reason] = tally.get(verdict.reason, 0) + 1
        return dict(sorted(tally.items()))

    def verdict_for(self, label: str) -> ChannelVerdict:
        for verdict in self.channels:
            if verdict.label == label:
                return verdict
        raise KeyError(f"no verdict for channel {label!r}")

    def as_dict(self) -> dict:
        occupancy = dict(sorted(self.occupancy.items()))
        for key in ("max_link_utilisation", "mean_link_utilisation",
                    "max_buffer_fill"):
            if key in occupancy:
                occupancy[key] = round(occupancy[key], 9)
        bottleneck = None
        if self.bottleneck is not None:
            node, port, utilisation = self.bottleneck
            bottleneck = [list(node), port, round(utilisation, 9)]
        return {
            "topology": self.topology.to_dict(),
            "channels": [verdict.as_dict() for verdict in self.channels],
            "admitted": self.admitted,
            "rejected": self.rejected,
            "feasible": self.feasible,
            "reject_reasons": self.reject_reasons,
            "occupancy": occupancy,
            "bottleneck": bottleneck,
            "node_buffers": [[list(node), reserved, capacity]
                             for node, reserved, capacity
                             in self.node_buffers],
        }

    def signature(self) -> str:
        """Stable digest of the whole report (determinism checks)."""
        return hashlib.sha256(
            canonical_dumps(self.as_dict()).encode()).hexdigest()

    def summary_rows(self) -> list[tuple[str, str]]:
        """Headline numbers as display rows (CLI output)."""
        occupancy = self.occupancy
        rows = [
            ("channels", str(len(self.channels))),
            ("admissible", str(self.admitted)),
            ("infeasible", str(self.rejected)),
            ("max link utilisation",
             f"{occupancy.get('max_link_utilisation', 0.0):.3f}"),
            ("mean link utilisation",
             f"{occupancy.get('mean_link_utilisation', 0.0):.3f}"),
            ("links loaded", str(occupancy.get("links_loaded", 0))),
            ("max buffer fill",
             f"{occupancy.get('max_buffer_fill', 0.0):.3f}"),
        ]
        if self.bottleneck is not None:
            node, port, utilisation = self.bottleneck
            rows.append(("bottleneck link",
                         f"{node} port {port} ({utilisation:.3f})"))
        return rows


def edf_response_bound(loads: Sequence[ConnectionLoad],
                       deadline: int) -> int:
    """Worst-case EDF completion of a packet, relative to its release.

    ``deadline`` is the packet's relative scheduling deadline on the
    link (a :class:`ConnectionLoad` deadline, i.e. ``d_j`` minus the
    hop overhead); ``loads`` is every load sharing the link, the
    packet's own connection included.  The bound is the classical
    busy-period argument: a packet released ``x`` ticks into a busy
    interval completes once all work due no later than it has been
    served, so its response is at most

        max over x in [0, busy] of  sum_l demand_l(x + deadline) - x

    which the admission test (``demand(t) <= t`` everywhere) already
    caps at ``deadline`` — this is a refinement, never a relaxation.
    The maximum over the piecewise-linear objective is attained where
    some load's demand steps, so only those candidates are evaluated.
    """
    loads = list(loads)
    if not loads:
        return min(1, deadline)
    busy = LinkSchedule()._busy_period(loads)
    if busy is None:
        return deadline
    candidates = {0}
    for load in loads:
        step = load.deadline
        while step <= busy + deadline:
            offset = step - deadline
            if 0 <= offset <= busy:
                candidates.add(offset)
            step += load.i_min
    worst = max(
        sum(load.demand(offset + deadline) for load in loads) - offset
        for offset in sorted(candidates)
    )
    return max(1, min(deadline, worst))


def _refined_bound(admission: AdmissionController,
                   channel: RealTimeChannel, raw: int) -> int:
    """The holding-time-aware refinement of a channel's ``raw`` bound.

    The last hop's ``d_j`` is replaced by its EDF response under the
    loads the reception link carries *now* (never larger), so this must
    run after the whole demand list is established.  Only unicast
    channels refine — a multicast tree's deepest leaf already uses a
    uniform decomposition and its reception links are leaves of the
    same analysis, so its refinement is the plain bound.
    """
    if len(channel.destinations) != 1:
        return raw
    reservation = channel.reservation
    last_hop = reservation.hops[-1]
    own = reservation.loads[-1]
    schedule = admission.link(last_hop.node, last_hop.out_port)
    response = edf_response_bound(schedule.loads, own.deadline)
    return min(raw, raw - reservation.local_delays[-1]
               + admission.hop_overhead + response)


def _rejected(demand: ChannelDemand,
              exc: AdmissionError) -> ChannelVerdict:
    return ChannelVerdict(
        label=demand.label, source=demand.source,
        destinations=demand.destinations, i_min=demand.i_min,
        s_max=demand.s_max, b_max=demand.b_max,
        deadline=demand.deadline, feasible=False,
        reason=exc.reason, rejection=exc.details(),
    )


def _admitted(demand: ChannelDemand,
              channel: RealTimeChannel) -> ChannelVerdict:
    """The verdict the established channel and its reservation spell."""
    reservation = channel.reservation
    return ChannelVerdict(
        label=demand.label, source=demand.source,
        destinations=demand.destinations, i_min=demand.i_min,
        s_max=demand.s_max, b_max=demand.b_max,
        deadline=demand.deadline, feasible=True,
        hops=[(hop.node, hop.out_port) for hop in reservation.hops],
        local_delays=list(reservation.local_delays),
        parents=(list(reservation.parents)
                 if len(demand.destinations) > 1 else None),
        predicted_bound=channel.deadline,
        netcalc_bound=float(sum(channel.local_delays)),
        slack=demand.deadline - channel.deadline,
        buffers=list(reservation.buffers),
    )


def _analyze_live(topology: TopologySpec,
                  demands: Sequence[ChannelDemand], *,
                  params: Optional[RouterParams] = None,
                  adaptive: bool = True
                  ) -> tuple[ScheduleReport, ChannelManager]:
    """`analyze`, but also returning the manager that did the work.

    ``analyze`` discards it; :mod:`repro.schedulability.faultmodel`
    keeps it to recover the channels a plan cuts against exactly the
    tables, reservations and connection ids the fault-free
    establishment left behind.
    """
    topology.check_endpoints(demands)
    params = params or RouterParams()
    manager = ChannelManager(
        {(x, y): ControlInterface(params)
         for y in range(topology.height) for x in range(topology.width)},
        params=params, width=topology.width, height=topology.height,
        torus=topology.torus)
    admission = manager.admission
    verdicts: list[ChannelVerdict] = []
    admitted: list[tuple[ChannelVerdict, RealTimeChannel]] = []
    for demand in demands:
        try:
            channel = manager.establish(
                demand.source, demand.destinations, demand.spec(),
                demand.deadline, label=demand.label, adaptive=adaptive)
        except AdmissionError as exc:
            verdicts.append(_rejected(demand, exc))
        else:
            verdict = _admitted(demand, channel)
            verdicts.append(verdict)
            admitted.append((verdict, channel))
    for verdict, channel in admitted:
        verdict.refined_bound = _refined_bound(
            admission, channel, verdict.predicted_bound)

    bottleneck = None
    for (node, port), schedule in sorted(admission._links.items()):
        if not schedule.loads:
            continue
        utilisation = schedule.utilisation
        if bottleneck is None or utilisation > bottleneck[2]:
            bottleneck = (node, port, utilisation)
    capacity = admission.params.tc_packet_slots
    node_buffers = [(node, buffers.reserved_total, capacity)
                    for node, buffers in sorted(admission._nodes.items())
                    if buffers.reserved_total]
    report = ScheduleReport(
        topology=topology, channels=verdicts,
        occupancy=admission.occupancy(), bottleneck=bottleneck,
        node_buffers=node_buffers,
    )
    return report, manager


def analyze(topology: TopologySpec,
            demands: Sequence[ChannelDemand], *,
            params: Optional[RouterParams] = None,
            adaptive: bool = True) -> ScheduleReport:
    """Predict admission outcomes and worst-case bounds for a problem.

    Demands are established in list order on fresh tables — order
    matters exactly as it does on a network (earlier channels consume
    link budget, buffers and connection ids the later ones see).
    ``adaptive`` is the manager's: least-loaded route selection by
    default, ``False`` forces dimension order (the service layer's
    setting).  Raises ``ValueError`` for a demand with an endpoint
    outside the topology.
    """
    report, __ = _analyze_live(topology, demands, params=params,
                               adaptive=adaptive)
    return report


def predict_admission(admission: AdmissionController,
                      hops: list[HopDescriptor], spec: TrafficSpec,
                      requirements: FlowRequirements) -> dict:
    """Dry-run verdict against a *live* controller (no state change).

    Admits and immediately releases: :meth:`AdmissionController.admit`
    commits nothing on failure and :meth:`~AdmissionController.release`
    exactly undoes a success, so the controller is untouched either
    way.  Returns a verdict dict with ``feasible``, the structured
    ``reason``/``rejection`` on failure, whether that reason is
    load-independent (see :data:`LOAD_INDEPENDENT_REASONS`), and the
    predicted bound/decomposition on success.
    """
    try:
        reservation = admission.admit(hops, spec, requirements)
    except AdmissionError as exc:
        return {
            "feasible": False,
            "reason": exc.reason,
            "rejection": exc.details(),
            "load_independent": exc.reason in LOAD_INDEPENDENT_REASONS,
            "local_delays": None,
            "predicted_bound": None,
        }
    admission.release(reservation)
    return {
        "feasible": True,
        "reason": None,
        "rejection": None,
        "load_independent": False,
        "local_delays": list(reservation.local_delays),
        "predicted_bound": sum(reservation.local_delays),
    }
