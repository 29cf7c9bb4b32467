"""The control-plane service controller.

Wraps the channel software (:class:`~repro.channels.manager.ChannelManager`
and :class:`~repro.channels.admission.AdmissionController`) with the
policies a long-running router needs under churn:

* **Preventive admission** — beyond the hard EDF/buffer feasibility
  tests, a setup is only attempted while projected occupancy stays
  under configurable headroom thresholds (link utilisation, packet-
  memory watermark), keeping slack for flows already admitted.
* **Queue-with-deadline** — requests that cannot be placed immediately
  are parked in a bounded queue and retried with exponential backoff;
  a request that exhausts its retries or its queueing deadline is
  demoted to best-effort (lowest criticality only) or rejected.
* **Graceful teardown** — an expiring flow first stops sending, and
  its guaranteed-service state is released only after its end-to-end
  deadline (plus a margin) has passed, so in-flight messages are never
  orphaned by a table invalidation.

Overload entry/exit is delegated to
:class:`~repro.service.overload.OverloadManager`; every decision is
counted, traced (``setup_*`` events) and exported through the metrics
registry as ``service.*`` probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.channels.admission import AdmissionError
from repro.channels.spec import TrafficSpec
from repro.observability.trace import (
    CHANNEL_TEARDOWN,
    SETUP_ACCEPT,
    SETUP_DEMOTE,
    SETUP_QUEUE,
    SETUP_REJECT,
    SETUP_REQUEST,
)
from repro.service.workload import ChannelRequest

#: Setup-latency histogram bucket bounds (ticks from request arrival
#: to acceptance; immediate acceptance lands in the first bucket).
SETUP_LATENCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Every decision counter the controller keeps (and exports as
#: ``service.<name>`` probes).  Fixed so reports and checkpoints have
#: a stable schema.
COUNTER_NAMES = (
    "requests_total", "tc_requests", "be_requests",
    "accepted_tc", "accepted_be", "rejected",
    "queued_total", "queue_timeouts", "retries_total",
    "demoted_setup", "demoted_overload", "be_shed",
    "teardowns", "flows_completed",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Thresholds and limits governing the service's decisions.

    ``util_threshold`` / ``buffer_watermark`` are *preventive* caps —
    fractions of link schedulability and node packet memory the service
    is willing to fill before it starts queueing — deliberately below
    the hard feasibility bounds admission control enforces.  The
    overload hysteresis points are derived: overload is entered when
    the setup queue reaches ``queue_high`` and left once it drains to
    ``queue_low`` *and* peak link utilisation is back under
    ``util_exit``.
    """

    util_threshold: float = 0.90
    buffer_watermark: float = 0.90
    queue_limit: int = 16
    queue_timeout_ticks: int = 64
    max_retries: int = 3
    retry_backoff_ticks: int = 4
    teardown_margin_ticks: int = 4
    #: Consult the analytic schedulability engine before the headroom
    #: ladder: a request whose infeasibility is load-independent (bad
    #: deadline, hop overhead, rollover — nothing queueing can fix) is
    #: rejected immediately instead of burning queue slots and retries.
    analytic_preadmission: bool = False
    #: Optional fault-aware screen: a :class:`~repro.faults.plan.FaultPlan`
    #: the operator expects the fabric to survive.  Requests the fault
    #: model leaves *at risk* under this plan even on an idle fabric
    #: (no disjoint reroute path, retry budget exhausted) are rejected
    #: at intake — the service never promises a guarantee the recovery
    #: layer could not keep.
    fault_plan: Optional[object] = None

    def validate(self) -> None:
        if not 0.0 < self.util_threshold <= 1.0:
            raise ValueError(
                f"utilisation threshold must be in (0, 1], "
                f"got {self.util_threshold}")
        if not 0.0 < self.buffer_watermark <= 1.0:
            raise ValueError(
                f"buffer watermark must be in (0, 1], "
                f"got {self.buffer_watermark}")
        if self.queue_limit < 1:
            raise ValueError("queue limit must be at least 1")
        if self.queue_timeout_ticks < 1:
            raise ValueError("queue timeout must be at least one tick")
        if self.max_retries < 0:
            raise ValueError("max retries cannot be negative")
        if self.retry_backoff_ticks < 1:
            raise ValueError("retry backoff must be at least one tick")
        if self.teardown_margin_ticks < 0:
            raise ValueError("teardown margin cannot be negative")

    @property
    def queue_high(self) -> int:
        return max(1, (3 * self.queue_limit) // 4)

    @property
    def queue_low(self) -> int:
        return self.queue_limit // 4

    @property
    def util_exit(self) -> float:
        return max(0.0, self.util_threshold - 0.15)


@dataclass
class Flow:
    """One active (sending) flow the service placed on the fabric."""

    index: int
    traffic_class: str      # effective class: "TC" or "BE"
    admitted_tick: int
    end_tick: int           # first tick the flow no longer sends
    teardown_tick: int      # when channel state is released (TC)
    demoted: bool = False   # demoted at setup or during overload
    sequence: int = 0       # best-effort send sequence numbers

    @property
    def label(self) -> str:
        return f"svc-{self.index}"


@dataclass
class _QueueEntry:
    index: int
    enqueued_tick: int
    attempts: int
    next_retry_tick: int


class ServiceController:
    """Admission policy, retry queue and flow lifecycle for one run."""

    def __init__(self, network, requests: list[ChannelRequest],
                 config: ServiceConfig, overload) -> None:
        config.validate()
        self.network = network
        self.requests = requests
        self.config = config
        self.overload = overload
        self.counters: dict[str, int] = {name: 0
                                         for name in COUNTER_NAMES}
        self.reject_reasons: dict[str, int] = {}
        #: Structured :class:`AdmissionError` reasons behind every
        #: failed establishment attempt (including analytic
        #: pre-admission verdicts) — distinct from ``reject_reasons``,
        #: which tallies the service's own final decisions.
        self.admission_reject_reasons: dict[str, int] = {}
        self.flows: dict[str, Flow] = {}
        self._queue: list[_QueueEntry] = []
        #: Memoised fault-screen verdicts (pure in the request shape).
        self._fault_screen: dict[tuple, Optional[str]] = {}
        #: Labels of every TC channel the service admitted (kept after
        #: teardown: SLO accounting needs the full-population set).
        self.tc_labels: list[str] = []
        #: Labels whose guarantee was withdrawn (setup demotion or
        #: overload demotion) — excluded from guaranteed-miss SLOs.
        self.demoted_labels: list[str] = []
        self.peak_queue_depth = 0
        self.peak_link_utilisation = 0.0
        self.setup_latency = network.metrics.histogram(
            "service.setup_latency_ticks", SETUP_LATENCY_BUCKETS)
        self._register_metrics()

    # -- metrics -----------------------------------------------------------

    def _register_metrics(self) -> None:
        registry = self.network.metrics

        def counter_probe(name: str):
            return lambda: self.counters[name]

        for name in COUNTER_NAMES:
            registry.register_probe(f"service.{name}",
                                    counter_probe(name))
        registry.register_probe("service.queue_depth",
                                lambda: len(self._queue))
        registry.register_probe("service.flows_active",
                                lambda: len(self.flows))
        registry.register_probe("service.in_overload",
                                lambda: int(self.overload.active))
        registry.register_probe("service.time_in_overload_ticks",
                                lambda: self.overload.time_in_overload)
        registry.register_probe("service.overload_entries",
                                lambda: self.overload.entries)

    def _trace(self, event: str, label: Optional[str],
               info: Optional[dict] = None) -> None:
        tracer = self.network.tracer
        if tracer is not None:
            tracer.emit(self.network.cycle, event, label=label,
                        info=info)

    # -- request intake ----------------------------------------------------

    def submit(self, request: ChannelRequest, tick: int) -> str:
        """Decide one arriving request; returns the decision name."""
        self.counters["requests_total"] += 1
        if request.traffic_class == "BE":
            self.counters["be_requests"] += 1
        else:
            self.counters["tc_requests"] += 1
        self._trace(SETUP_REQUEST, request.label,
                    info={"class": request.traffic_class})
        if request.traffic_class == "BE":
            if self.overload.active:
                return self._reject(request, "overload-shed")
            self._activate_be(request, tick, demoted=False)
            return "accepted"
        if self.overload.active:
            return self._enqueue(request, tick, "overload")
        reason = self._preadmission_reason(request)
        if reason is not None:
            return self._reject(request, reason)
        if not self._headroom_ok(request):
            return self._enqueue(request, tick, "headroom")
        reason = self._try_establish(request, tick)
        if reason is None:
            return "accepted"
        return self._enqueue(request, tick, reason)

    def _preadmission_reason(self, request: ChannelRequest
                             ) -> Optional[str]:
        """The analytic verdict's reason iff the request can *never*
        be admitted (load-independent infeasibility), else ``None``.

        Load-dependent verdicts fall through to the normal ladder —
        load changes as flows retire, so queueing may still win; the
        eventual failure is tallied by :meth:`_try_establish`.  With a
        configured ``fault_plan``, requests the fault model leaves at
        risk under that plan are rejected here too.
        """
        reason = None
        if self.config.analytic_preadmission:
            from repro.channels.spec import FlowRequirements
            from repro.schedulability.engine import predict_admission

            verdict = predict_admission(
                self.network.manager.admission,
                self._establishment_hops(request),
                TrafficSpec(i_min=request.i_min),
                FlowRequirements(deadline=request.deadline_ticks))
            if not verdict["feasible"] and verdict["load_independent"]:
                reason = verdict["reason"]
        if reason is None and self.config.fault_plan is not None:
            reason = self._fault_screen_reason(request)
        if reason is not None:
            self.admission_reject_reasons[reason] = (
                self.admission_reject_reasons.get(reason, 0) + 1)
        return reason

    def _fault_screen_reason(self, request: ChannelRequest
                             ) -> Optional[str]:
        """Static fault screen against the configured plan.

        Analyses the request as a lone channel on an idle fabric under
        ``config.fault_plan``; an at-risk verdict (no surviving reroute
        path, retry budget exhausted) means no amount of queueing or
        load decay can ever make the guarantee survivable, so the
        request is rejected outright.  Verdicts are load-independent by
        construction and cached per ``(source, destination, i_min,
        deadline)``.
        """
        key = (request.source, request.destination, request.i_min,
               request.deadline_ticks)
        if key not in self._fault_screen:
            from repro.schedulability import ChannelDemand, TopologySpec
            from repro.schedulability.faultmodel import analyze_with_faults

            mesh = self.network.mesh
            demand = ChannelDemand(
                label="candidate", source=request.source,
                destinations=(request.destination,),
                i_min=request.i_min, deadline=request.deadline_ticks)
            report = analyze_with_faults(
                TopologySpec(mesh.width, mesh.height, torus=mesh.torus),
                [demand], self.config.fault_plan)
            at_risk = report.at_risk
            self._fault_screen[key] = (
                f"fault-at-risk-{at_risk[0].reason}" if at_risk
                else None)
        return self._fault_screen[key]

    def _establishment_hops(self, request: ChannelRequest) -> list:
        """The hops :meth:`_try_establish` would ask admission for."""
        return self.network.manager.unicast_hops(
            request.source, request.destination, adaptive=False,
            failed=self.network.failed_links)

    def _headroom_ok(self, request: ChannelRequest) -> bool:
        """Preventive check: would this setup breach the thresholds?"""
        spec = TrafficSpec(i_min=request.i_min)
        candidate_util = spec.packets_per_message / spec.i_min
        admission = self.network.manager.admission
        capacity = admission.params.tc_packet_slots
        for hop in self._establishment_hops(request):
            current = admission.link_utilisation(hop.node, hop.out_port)
            if current + candidate_util > self.config.util_threshold:
                return False
            fill = admission.node_buffer_usage(hop.node) / capacity
            if fill > self.config.buffer_watermark:
                return False
        return True

    def _try_establish(self, request: ChannelRequest,
                       tick: int) -> Optional[str]:
        """Attempt the setup; returns ``None`` on success, else the
        structured rejection reason."""
        spec = TrafficSpec(i_min=request.i_min)
        try:
            self.network.establish_channel(
                request.source, request.destination, spec,
                deadline=request.deadline_ticks,
                label=request.label, adaptive=False,
            )
        except AdmissionError as exc:
            self.admission_reject_reasons[exc.reason] = (
                self.admission_reject_reasons.get(exc.reason, 0) + 1)
            return exc.reason
        self._activate_tc(request, tick)
        return None

    # -- activation / retirement ------------------------------------------

    def _activate_tc(self, request: ChannelRequest, tick: int) -> None:
        self.counters["accepted_tc"] += 1
        self.tc_labels.append(request.label)
        self.setup_latency.observe(max(0, tick - request.arrival_tick))
        end = tick + request.hold_ticks
        self.flows[request.label] = Flow(
            index=request.index, traffic_class="TC",
            admitted_tick=tick, end_tick=end,
            teardown_tick=(end + request.deadline_ticks
                           + self.config.teardown_margin_ticks),
        )
        self._trace(SETUP_ACCEPT, request.label,
                    info={"wait_ticks": tick - request.arrival_tick})

    def _activate_be(self, request: ChannelRequest, tick: int, *,
                     demoted: bool) -> None:
        if demoted:
            self.counters["demoted_setup"] += 1
            self.demoted_labels.append(request.label)
            self._trace(SETUP_DEMOTE, request.label,
                        info={"stage": "setup"})
        else:
            self.counters["accepted_be"] += 1
            self.setup_latency.observe(
                max(0, tick - request.arrival_tick))
            self._trace(SETUP_ACCEPT, request.label,
                        info={"class": "BE"})
        end = tick + request.hold_ticks
        self.flows[request.label] = Flow(
            index=request.index, traffic_class="BE",
            admitted_tick=tick, end_tick=end, teardown_tick=end,
            demoted=demoted,
        )

    def _reject(self, request: ChannelRequest, reason: str) -> str:
        self.counters["rejected"] += 1
        self.reject_reasons[reason] = (
            self.reject_reasons.get(reason, 0) + 1)
        self._trace(SETUP_REJECT, request.label,
                    info={"reason": reason})
        return "rejected"

    def _enqueue(self, request: ChannelRequest, tick: int,
                 reason: str) -> str:
        if len(self._queue) >= self.config.queue_limit:
            return self._reject(request, "queue-full")
        self.counters["queued_total"] += 1
        self._queue.append(_QueueEntry(
            index=request.index, enqueued_tick=tick, attempts=0,
            next_retry_tick=tick + self.config.retry_backoff_ticks,
        ))
        self._trace(SETUP_QUEUE, request.label,
                    info={"reason": reason,
                          "depth": len(self._queue)})
        return "queued"

    # -- the per-tick service loop ----------------------------------------

    def advance(self, tick: int) -> None:
        """One service tick: retries, expiries, overload management."""
        self._retry_queue(tick)
        self._retire_flows(tick)
        occupancy = self.network.manager.admission.occupancy()
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    len(self._queue))
        self.peak_link_utilisation = max(
            self.peak_link_utilisation,
            occupancy["max_link_utilisation"])
        self.overload.update(tick, len(self._queue), occupancy, self)

    def _retry_queue(self, tick: int) -> None:
        remaining: list[_QueueEntry] = []
        for entry in self._queue:
            if entry.next_retry_tick > tick:
                remaining.append(entry)
                continue
            request = self.requests[entry.index]
            self.counters["retries_total"] += 1
            if (not self.overload.active
                    and self._headroom_ok(request)
                    and self._try_establish(request, tick) is None):
                continue
            entry.attempts += 1
            timed_out = (tick - entry.enqueued_tick
                         >= self.config.queue_timeout_ticks)
            if timed_out or entry.attempts > self.config.max_retries:
                self.counters["queue_timeouts"] += 1
                if request.criticality == 0 and not self.overload.active:
                    self._activate_be(request, tick, demoted=True)
                else:
                    self._reject(request, "queue-timeout")
                continue
            entry.next_retry_tick = tick + (
                self.config.retry_backoff_ticks * (2 ** entry.attempts))
            remaining.append(entry)
        self._queue = remaining

    def _retire_flows(self, tick: int) -> None:
        manager = self.network.manager
        for label in [label for label, flow in self.flows.items()
                      if tick >= flow.teardown_tick]:
            flow = self.flows.pop(label)
            if flow.traffic_class == "TC":
                if manager.teardown_label(label):
                    self.counters["teardowns"] += 1
                    self._trace(CHANNEL_TEARDOWN, label)
                # A channel demoted during overload has no guaranteed
                # state left; drop the degraded handle instead.
                manager.forget_degraded(label)
            self.counters["flows_completed"] += 1

    # -- overload callbacks ------------------------------------------------

    def shed_best_effort(self, tick: int) -> int:
        """Drop every active best-effort flow (overload entry)."""
        shed = [label for label, flow in self.flows.items()
                if flow.traffic_class == "BE"]
        for label in shed:
            self.flows.pop(label)
            self.network.manager.forget_degraded(label)
            self.counters["be_shed"] += 1
            self.counters["flows_completed"] += 1
        return len(shed)

    def demote_lowest_criticality(self, tick: int,
                                  util_exit: float) -> int:
        """Demote admitted TC channels, least critical first, until
        peak link utilisation is back under ``util_exit``."""
        admission = self.network.manager.admission
        candidates = sorted(
            (flow for flow in self.flows.values()
             if flow.traffic_class == "TC" and not flow.demoted),
            key=lambda flow: (self.requests[flow.index].criticality,
                              flow.admitted_tick, flow.index),
        )
        demoted = 0
        for flow in candidates:
            occupancy = admission.occupancy()
            if occupancy["max_link_utilisation"] <= util_exit:
                break
            channel = self.network.manager.find(flow.label)
            if channel is None or channel.degraded:
                continue
            # Only demote flows actually crossing an over-threshold
            # link; demoting elsewhere would shed guarantees without
            # relieving the contention.
            if not any(admission.link_utilisation(hop.node, hop.out_port)
                       > util_exit
                       for hop in channel.reservation.hops):
                continue
            self.network.manager.degrade(channel)
            flow.demoted = True
            self.demoted_labels.append(flow.label)
            self.counters["demoted_overload"] += 1
            self._trace(SETUP_DEMOTE, flow.label,
                        info={"stage": "overload"})
            demoted += 1
        return demoted

    # -- driving helpers ---------------------------------------------------

    def due_sends(self, tick: int) -> list[Flow]:
        """Flows that send a message at ``tick`` (insertion order)."""
        return [
            flow for flow in self.flows.values()
            if (flow.admitted_tick <= tick < flow.end_tick
                and (tick - flow.admitted_tick) % (
                    self.requests[flow.index].i_min) == 0)
        ]

    @property
    def idle(self) -> bool:
        """No queued setups and no flows left to drive or retire."""
        return not self._queue and not self.flows

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "reject_reasons": dict(sorted(self.reject_reasons.items())),
            "admission_reject_reasons": dict(sorted(
                self.admission_reject_reasons.items())),
            "queue": [[entry.index, entry.enqueued_tick, entry.attempts,
                       entry.next_retry_tick]
                      for entry in self._queue],
            "flows": [[flow.index, flow.traffic_class,
                       flow.admitted_tick, flow.end_tick,
                       flow.teardown_tick, flow.demoted, flow.sequence]
                      for flow in self.flows.values()],
            "tc_labels": list(self.tc_labels),
            "demoted_labels": list(self.demoted_labels),
            "peak_queue_depth": self.peak_queue_depth,
            "peak_link_utilisation": self.peak_link_utilisation,
            "overload": self.overload.state(),
        }

    def load_state(self, state: dict) -> None:
        self.counters = {name: int(state["counters"].get(name, 0))
                         for name in COUNTER_NAMES}
        self.reject_reasons = {str(reason): int(count) for reason, count
                               in state["reject_reasons"].items()}
        self.admission_reject_reasons = {
            str(reason): int(count) for reason, count
            in state.get("admission_reject_reasons", {}).items()}
        self._queue = [
            _QueueEntry(index=index, enqueued_tick=enqueued,
                        attempts=attempts, next_retry_tick=retry)
            for index, enqueued, attempts, retry in state["queue"]
        ]
        self.flows = {}
        for (index, traffic_class, admitted, end, teardown,
             demoted, sequence) in state["flows"]:
            flow = Flow(index=int(index), traffic_class=traffic_class,
                        admitted_tick=int(admitted), end_tick=int(end),
                        teardown_tick=int(teardown),
                        demoted=bool(demoted), sequence=int(sequence))
            self.flows[flow.label] = flow
        self.tc_labels = [str(label) for label in state["tc_labels"]]
        self.demoted_labels = [str(label)
                               for label in state["demoted_labels"]]
        self.peak_queue_depth = int(state["peak_queue_depth"])
        self.peak_link_utilisation = float(
            state["peak_link_utilisation"])
        self.overload.load_state(state["overload"])
