"""Fault-aware schedulability: degraded-but-guaranteed verdicts.

The fault-free engine (:mod:`repro.schedulability.engine`) proves that
admitted channels meet their deadlines while nothing breaks.  This
module composes the fault-tolerance subsystem's recovery model — the
watchdog's detection latency, the reroute path's re-admission cost and
the retransmission layer's deadline-based exponential backoff
(:mod:`repro.faults`) — into that analysis, so a ``(Problem,
FaultPlan)`` pair yields one of three per-channel verdicts.  The
reroute itself is not modelled: each cut channel is recovered by
:meth:`ChannelManager.recover
<repro.channels.manager.ChannelManager.recover>` — the method the
recovery controller reaches through ``MeshNetwork.recover_channel`` —
on the very manager the fault-free analysis established it with, so
detour, re-admission and connection-id churn are the real ones.  The
verdicts:

``guaranteed``
    The requested deadline holds even through the worst case the plan
    can inflict: detection, reroute, and every retransmission the
    plan's corruption budgets can force.
``degraded-guaranteed``
    Delivery is still guaranteed, but only within a *quantified
    inflated bound* (the recovery envelope) that exceeds the requested
    deadline.  A lost original produces no delivery; its
    retransmission carries a fresh deadline it does meet — so the
    channel sees zero recorded deadline misses while its observed
    latency, measured from the original logical arrival, is covered by
    the envelope.  Every message in its ``lost`` term is re-sent: the
    recovery ledger never drops an unconfirmed message.
``at-risk``
    The analysis cannot bound delivery.  Structured reasons:
    ``no-reroute-path`` (every surviving route is cut — recovery
    demotes the channel to best-effort), ``no-reroute-capacity`` (a
    surviving path exists but fails re-admission — same demotion) and
    ``retry-budget-exhausted`` (the plan can burn more send attempts
    than ``retransmit_limit`` allows).

The recovery envelope for a channel with fault-free bound ``D`` hit by
a cut is::

    (D_eff + margin) * (2**r - 1)  +  b_max * i_min  +  D_detour  +  1

where ``r`` is the number of failed send attempts before one succeeds
(retry ``r`` fires ``(D + margin) * (2**r - 1)`` ticks after a
message's logical arrival — the retransmission layer's backoff,
read from the constants of :mod:`repro.faults.recovery`, never
hard-coded), ``D_eff = max(D, D_detour)`` covers
the timeout switching to the detour's bound mid-backoff, the
``b_max * i_min`` term covers regulator backlog pushing the resend's
logical arrival out, ``D_detour`` is the detour's admitted bound and
the final tick absorbs slot rounding.

Approximations (all conservative, all validated by the chaos gate in
:func:`repro.schedulability.validate.measure`):

* Detours avoid **every** link the plan ever cuts (including flapped
  links), so one reroute per channel suffices; the real controller
  only avoids links already detected dead, and each additional cut
  wave is charged one extra failed attempt.
* A corruption/drop budget of ``k`` packets on a route is charged
  ``ceil(k / packets_per_message)`` failed attempts to this channel,
  as if no other traffic helped drain the budget.
* Babble events only perturb best-effort traffic and never affect a
  time-constrained verdict.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.campaign.spec import canonical_dumps
from repro.channels.admission import AdmissionError
from repro.channels.routing import RouteError
from repro.core.params import RouterParams
from repro.core.ports import RECEPTION
from repro.faults.plan import CORRUPT, CUT, DROP, FaultPlan
from repro.faults.recovery import RETRANSMIT_LIMIT, TC_MARGIN_TICKS
from repro.schedulability.engine import (
    ChannelVerdict,
    ScheduleReport,
    _analyze_live,
    _refined_bound,
)
from repro.schedulability.spec import ChannelDemand, Problem, TopologySpec

#: Verdict statuses.
GUARANTEED = "guaranteed"
DEGRADED_GUARANTEED = "degraded-guaranteed"
AT_RISK = "at-risk"

#: Structured at-risk reasons.
NO_REROUTE_PATH = "no-reroute-path"
NO_REROUTE_CAPACITY = "no-reroute-capacity"
RETRY_BUDGET_EXHAUSTED = "retry-budget-exhausted"


@dataclass(frozen=True)
class RecoveryModel:
    """The recovery subsystem's timing constants, as the bound uses them.

    Built by :meth:`derive` from the constants
    :class:`~repro.faults.recovery.RecoveryController` itself reads and
    the watchdog's threshold (``params.tc_packet_bytes`` missed
    byte-transfers), so the analytic envelope is computed on the
    implementation's own numbers.
    """

    #: Missed byte-transfers before the watchdog declares a link dead.
    miss_threshold: int
    #: Retransmission-check margin past a message's deadline, ticks.
    tc_margin_ticks: int
    #: Retries before the recovery layer abandons a message.
    retransmit_limit: int
    #: Link throughput, bytes per cycle (missed transfers accrue at
    #: most this fast on a dead link that is being offered traffic).
    link_bytes_per_cycle: int
    #: Cycles per scheduler tick.
    slot_cycles: int

    @classmethod
    def derive(cls, params: Optional[RouterParams] = None) -> "RecoveryModel":
        """The model of :func:`install_fault_tolerance` on ``params``."""
        params = params or RouterParams()
        return cls(
            # The watchdog's threshold: one packet's worth of misses.
            miss_threshold=params.tc_packet_bytes,
            tc_margin_ticks=TC_MARGIN_TICKS,
            retransmit_limit=RETRANSMIT_LIMIT,
            link_bytes_per_cycle=params.link_bytes_per_cycle,
            slot_cycles=params.slot_cycles,
        )

    @property
    def detection_ticks(self) -> int:
        """Worst-case watchdog detection latency, in ticks.

        A dead link being offered traffic accrues missed transfers at
        the link rate, so the threshold is crossed within
        ``miss_threshold / link_bytes_per_cycle`` cycles of continuous
        offering.
        """
        cycles = math.ceil(self.miss_threshold / self.link_bytes_per_cycle)
        return math.ceil(cycles / self.slot_cycles)

    def retry_fire_ticks(self, deadline: int, retries: int) -> int:
        """Latest firing of retry ``retries``, ticks after the
        message's logical arrival: the first check waits the deadline
        plus margin, every later one doubles."""
        return (deadline + self.tc_margin_ticks) * (2 ** retries - 1)

    def retries_to_cover(self, d_orig: int, d_low: int) -> int:
        """Failed attempts a cut costs before a retry can succeed.

        Retry ``r`` fires no *earlier* than
        ``(d_orig + margin) + (d_low + margin) * (2**r - 2)`` ticks
        after the logical arrival (the first check uses the original
        bound, later timeouts the then-current channel deadline, so the
        smaller of original and detour bounds lower-bounds them).  The
        original attempt dies on the cut link; detection plus reroute
        completes by ``d_orig + detection_ticks``, so the first retry
        firing after that instant travels the detour and succeeds.
        """
        for retries in range(1, self.retransmit_limit + 2):
            earliest = ((d_orig + self.tc_margin_ticks)
                        + (d_low + self.tc_margin_ticks)
                        * (2 ** retries - 2))
            if earliest >= d_orig + self.detection_ticks:
                return retries
        return self.retransmit_limit + 1


@dataclass
class FaultVerdict:
    """The fault-aware prediction for one admitted channel."""

    label: str
    status: str                      # guaranteed / degraded-... / at-risk
    deadline: int
    #: The fault-free (refined) bound — what holds before any fault.
    fault_free_bound: int
    #: The recovery envelope: the bound that holds *through* the plan's
    #: worst case.  ``None`` only for at-risk channels.
    degraded_bound: Optional[int] = None
    #: Whether the plan touches this channel's route at all.
    affected: bool = False
    #: Structured at-risk reason slug (see module constants).
    reason: Optional[str] = None
    #: Human-oriented context: detour, retry accounting, consequence.
    detail: dict = field(default_factory=dict)
    #: Failed send attempts charged before a success.
    retries_needed: int = 0
    #: The detour the model re-admitted, as (node, port) hops (empty
    #: when the route survives the plan).
    detour_hops: list = field(default_factory=list)
    #: The detour's admitted end-to-end bound, ticks.
    detour_bound: Optional[int] = None

    @property
    def guaranteed_bound(self) -> Optional[int]:
        """The bound the chaos gate holds this channel to (the
        fault-free bound when the plan leaves the channel unaffected)."""
        return None if self.status == AT_RISK else self.degraded_bound

    @property
    def degradation(self) -> Optional[int]:
        """Bound inflation over fault-free, ticks (0 when unaffected)."""
        if self.degraded_bound is None:
            return None
        return self.degraded_bound - self.fault_free_bound

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "deadline": self.deadline,
            "fault_free_bound": self.fault_free_bound,
            "degraded_bound": self.degraded_bound,
            "degradation": self.degradation,
            "affected": self.affected,
            "reason": self.reason,
            "detail": dict(sorted(self.detail.items())),
            "retries_needed": self.retries_needed,
            "detour_hops": [[list(node), port]
                            for node, port in self.detour_hops],
            "detour_bound": self.detour_bound,
        }


@dataclass
class FaultAwareReport:
    """The fault model's verdict on a whole ``(Problem, FaultPlan)``."""

    topology: TopologySpec
    plan_signature: str
    #: The fault-free analysis the model degraded from.
    base: ScheduleReport
    #: One verdict per *admitted* channel, admission order.  Channels
    #: the fault-free analysis rejected never reach the fault model.
    verdicts: list[FaultVerdict]
    recovery: RecoveryModel

    def counts(self) -> dict:
        tally = {GUARANTEED: 0, DEGRADED_GUARANTEED: 0, AT_RISK: 0}
        for verdict in self.verdicts:
            tally[verdict.status] += 1
        return tally

    @property
    def at_risk(self) -> list[FaultVerdict]:
        return [v for v in self.verdicts if v.status == AT_RISK]

    @property
    def ok(self) -> bool:
        """Every demanded channel admitted and none left at risk."""
        return self.base.feasible and not self.at_risk

    def verdict_for(self, label: str) -> FaultVerdict:
        for verdict in self.verdicts:
            if verdict.label == label:
                return verdict
        raise KeyError(f"no fault verdict for channel {label!r}")

    def as_dict(self) -> dict:
        return {
            "topology": self.topology.to_dict(),
            "plan_signature": self.plan_signature,
            "base": self.base.as_dict(),
            "verdicts": [verdict.as_dict() for verdict in self.verdicts],
            "counts": self.counts(),
            "ok": self.ok,
            "recovery": {
                "miss_threshold": self.recovery.miss_threshold,
                "detection_ticks": self.recovery.detection_ticks,
                "tc_margin_ticks": self.recovery.tc_margin_ticks,
                "retransmit_limit": self.recovery.retransmit_limit,
            },
        }

    def signature(self) -> str:
        return hashlib.sha256(
            canonical_dumps(self.as_dict()).encode()).hexdigest()

    def summary_rows(self) -> list[tuple[str, str]]:
        counts = self.counts()
        return [
            ("admitted channels", str(len(self.verdicts))),
            ("guaranteed", str(counts[GUARANTEED])),
            ("degraded-guaranteed", str(counts[DEGRADED_GUARANTEED])),
            ("at-risk", str(counts[AT_RISK])),
            ("detection latency",
             f"{self.recovery.detection_ticks} ticks"),
            ("retry budget", str(self.recovery.retransmit_limit)),
        ]

    def verdict_rows(self) -> list[list[str]]:
        """Per-channel rows for the CLI verdict table."""
        rows = []
        for verdict in self.verdicts:
            degraded = ("-" if verdict.degraded_bound is None
                        else str(verdict.degraded_bound))
            rows.append([
                verdict.label,
                verdict.status,
                str(verdict.deadline),
                str(verdict.fault_free_bound),
                degraded,
                str(verdict.retries_needed),
                verdict.reason or "-",
            ])
        return rows


def _route_links(hops: Sequence[tuple]) -> set:
    """The cuttable (node, out_port) links of a hop list."""
    return {(node, port) for node, port in hops if port != RECEPTION}


def _corrupt_budgets(plan: FaultPlan) -> dict:
    """Total corruption/drop budget per link.

    Successive corrupt events on one link *replace* the corruptor
    (last write wins, unspent budget discarded — see
    ``FaultInjector._fire``), so summing the amounts over-counts; the
    sum is kept as the conservative per-link worst case.
    """
    budgets: dict[tuple, int] = {}
    for event in plan.events:
        if event.kind in (CORRUPT, DROP):
            link = (event.node, event.direction)
            budgets[link] = budgets.get(link, 0) + max(1, event.amount)
    return budgets


def _corrupt_attempts(links: set, budgets: dict, packets: int) -> int:
    """Failed attempts the route's corruptors can force."""
    return sum(math.ceil(budgets[link] / packets)
               for link in links if link in budgets)


def _at_risk(verdict: ChannelVerdict, demand: ChannelDemand, *,
             reason: str, detail: dict,
             retries: int = 0) -> FaultVerdict:
    return FaultVerdict(
        label=demand.label, status=AT_RISK, deadline=demand.deadline,
        fault_free_bound=verdict.refined_bound or verdict.predicted_bound,
        affected=True, reason=reason, detail=detail,
        retries_needed=retries,
    )


def analyze_with_faults(topology: TopologySpec,
                        demands: Sequence[ChannelDemand],
                        plan: FaultPlan, *,
                        params: Optional[RouterParams] = None,
                        adaptive: bool = True,
                        ) -> FaultAwareReport:
    """Degraded-but-guaranteed verdicts for a problem under a plan.

    Runs the fault-free analysis first, then replays the plan's worst
    case on the manager that analysis established the channels with:
    every channel whose route crosses a cut link is rerouted by
    :meth:`ChannelManager.recover
    <repro.channels.manager.ChannelManager.recover>` — the method the
    recovery controller calls on a network — in admission order
    (exactly the order the controller walks the channel list),
    corruption budgets are charged as failed attempts, and the
    recovery envelope decides the verdict.  A channel whose detour is
    refused stays on its old path, as ``recover`` leaves it.  After all
    detours land, unaffected channels' refined bounds are re-checked
    against the *post-fault* load (a detour may share their reception
    link) so the guarantee covers the whole run, not just the pre-cut
    phase.
    """
    plan.require_topology(topology.torus)
    params = params or RouterParams()
    recovery = RecoveryModel.derive(params)
    base, manager = _analyze_live(topology, demands, params=params,
                                  adaptive=adaptive)
    avoid = plan.cut_links
    budgets = _corrupt_budgets(plan)
    cut_waves = len({event.cycle for event in plan.events
                     if event.kind == CUT})
    extra_waves = max(0, cut_waves - 1)

    demand_for = {demand.label: demand for demand in demands}
    admitted = [v for v in base.channels if v.feasible]
    verdicts: list[FaultVerdict] = []
    rerouted: list[tuple[FaultVerdict, ChannelDemand]] = []

    for verdict in admitted:
        demand = demand_for[verdict.label]
        packets = demand.spec().packets_per_message
        route_links = _route_links(verdict.hops)
        hit_by_cut = sorted(route_links & avoid)
        corrupt_attempts = _corrupt_attempts(route_links, budgets, packets)
        d_orig = verdict.predicted_bound

        if not hit_by_cut and not corrupt_attempts:
            bound = verdict.refined_bound or d_orig
            verdicts.append(FaultVerdict(
                label=demand.label, status=GUARANTEED,
                deadline=demand.deadline, fault_free_bound=bound,
                degraded_bound=bound, affected=False,
            ))
            continue

        if hit_by_cut:
            try:
                detour = manager.recover(manager.find(demand.label), avoid)
            except RouteError:
                verdicts.append(_at_risk(
                    verdict, demand, reason=NO_REROUTE_PATH,
                    detail={"cut_links": [[list(node), port] for
                                          node, port in hit_by_cut],
                            "consequence": "graceful-degradation"}))
                continue
            except AdmissionError as exc:
                verdicts.append(_at_risk(
                    verdict, demand, reason=NO_REROUTE_CAPACITY,
                    detail={"rejection": exc.details(),
                            "consequence": "graceful-degradation"}))
                continue
            route = [(hop.node, hop.out_port)
                     for hop in detour.reservation.hops]
            d_detour = detour.deadline
            detour_links = _route_links(route)
            corrupt_retries = _corrupt_attempts(
                route_links | detour_links, budgets, packets)
            retries = (recovery.retries_to_cover(
                d_orig, min(d_orig, d_detour)) + extra_waves
                + corrupt_retries)
            # Every message in flight when the link dies is lost, as is
            # anything sent during the detection window and anything a
            # corruptor eats: d_orig ticks of pipeline at one message
            # per i_min, plus the initial burst.
            lost = (math.ceil((d_orig + recovery.detection_ticks)
                              / demand.i_min)
                    + demand.b_max + corrupt_retries)
            d_final = d_detour
            d_eff = max(d_orig, d_detour)
        else:
            route, d_detour = [], None
            retries = corrupt_attempts
            lost = corrupt_attempts
            d_final = d_orig
            d_eff = d_orig

        if retries > recovery.retransmit_limit:
            verdicts.append(_at_risk(
                verdict, demand, reason=RETRY_BUDGET_EXHAUSTED,
                detail={"retries_needed": retries,
                        "retransmit_limit": recovery.retransmit_limit,
                        "consequence": "message-abandoned"},
                retries=retries))
            continue

        # A retransmission rides the channel's own reserved rate, so it
        # advances the logical-arrival clock by i_min just like a fresh
        # message: the last queued retransmit is pushed out by every
        # earlier retransmission plus any burst backlog before its copy
        # finally travels the surviving route within d_final.
        resends = lost * max(retries, 1)
        envelope = (recovery.retry_fire_ticks(d_eff, retries)
                    + (demand.b_max - 1 + resends) * demand.i_min
                    + d_final + 1)
        status = (GUARANTEED if envelope <= demand.deadline
                  else DEGRADED_GUARANTEED)
        fault_verdict = FaultVerdict(
            label=demand.label, status=status, deadline=demand.deadline,
            fault_free_bound=verdict.refined_bound or d_orig,
            degraded_bound=envelope, affected=True,
            detail={"cut_links": [[list(node), port]
                                  for node, port in hit_by_cut],
                    "d_eff": d_eff, "d_final": d_final,
                    "lost": lost, "resends": resends},
            retries_needed=retries,
            detour_hops=list(route), detour_bound=d_detour,
        )
        verdicts.append(fault_verdict)
        rerouted.append((fault_verdict, demand))

    # Post-fault refinement: detours changed the load set, which can
    # widen an unaffected channel's last-hop response.  Hold every
    # unaffected guarantee to the *worse* of the pre- and post-fault
    # refined bounds.
    for fault_verdict in verdicts:
        if fault_verdict.affected or fault_verdict.status == AT_RISK:
            continue
        refined_post = _refined_bound(
            manager.admission, manager.find(fault_verdict.label),
            base.verdict_for(fault_verdict.label).predicted_bound)
        bound = max(fault_verdict.fault_free_bound, refined_post)
        fault_verdict.fault_free_bound = bound
        fault_verdict.degraded_bound = bound

    return FaultAwareReport(
        topology=topology, plan_signature=plan.signature(), base=base,
        verdicts=verdicts, recovery=recovery,
    )


def analyze_problem_with_faults(problem: Problem, plan: FaultPlan, *,
                                params: Optional[RouterParams] = None,
                                adaptive: bool = True,
                                ) -> FaultAwareReport:
    """:func:`analyze_with_faults` over a :class:`Problem`."""
    return analyze_with_faults(problem.topology, problem.channels, plan,
                               params=params, adaptive=adaptive)
