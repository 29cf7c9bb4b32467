"""The service run as a workload of the one session driver.

:class:`ServiceSession` is the serving counterpart of the chaos and
random-workload sessions: it owns the network, the churn request
stream, the :class:`~repro.service.controller.ServiceController` and
the :class:`~repro.service.overload.OverloadManager`, and tells
:class:`~repro.checkpoint.sessions.Session` what one tick issues —
submitting arrivals, running retries and expiries, and sending
messages for every active flow.  The loop, checkpointing and resume
are the driver's.

Wall-clock control-plane time — each tick's submissions, its
:meth:`~repro.service.controller.ServiceController.advance` and its
``due_sends`` query, not the sends dispatched afterwards — is
accumulated separately (:attr:`ServiceSession.control_plane_seconds`)
so the benchmark can bound the service layer's overhead; it is *not*
part of the deterministic state and never checkpoints.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Optional

from repro.checkpoint.sessions import Execution, Session
from repro.checkpoint.store import fingerprint_of
from repro.network.network import MeshNetwork
from repro.service.controller import ServiceConfig, ServiceController
from repro.service.overload import OverloadManager
from repro.service.slo import SLOReport, build_slo_report
from repro.service.workload import ChurnWorkload

#: Fixed payloads flows send (content never affects scheduling).
TC_PAYLOAD = b"\xa5" * 4
BE_PAYLOAD = b"\x5a" * 8


@dataclass(frozen=True)
class ServiceRunConfig:
    """Everything one service run needs, in one reproducible bundle.

    Percentages are integers (``90`` = 0.90) so campaign configs stay
    cleanly hashable; :meth:`service_config` converts.
    """

    seed: int = 1234
    width: int = 4
    height: int = 4
    requests: int = 200
    arrival_period_ticks: int = 4
    hold_ticks: int = 200
    be_fraction_pct: int = 25
    util_threshold_pct: int = 90
    buffer_watermark_pct: int = 90
    queue_limit: int = 16
    queue_timeout_ticks: int = 64
    max_retries: int = 3
    retry_backoff_ticks: int = 4
    #: Ask the analytic schedulability engine for a verdict before the
    #: headroom ladder; load-independent infeasibilities are rejected
    #: immediately (see :class:`~repro.service.controller.ServiceConfig`).
    analytic_preadmission: bool = False
    #: Optional fault-aware intake screen: a serialised
    #: :class:`~repro.faults.plan.FaultPlan` (JSON text, kept as a
    #: string so the config stays hashable).  Requests the fault model
    #: leaves at risk under this plan are rejected at intake (see
    #: :class:`~repro.service.controller.ServiceConfig`).
    fault_plan_json: Optional[str] = None
    #: Vestigial, one legal value: how a run is executed is
    #: :class:`~repro.checkpoint.Execution`'s to say.  Declared only
    #: because the frozen benchmark's subclass passes it; goes when
    #: ``benchmarks/perf/workloads.py`` is ported.
    engine: str = "event"

    def validate(self) -> ServiceConfig:
        """Check every field; returns the validated controller config
        so a caller that needs it builds (and parses a fault plan) once."""
        if self.engine != "event":
            raise ValueError(
                f"ServiceRunConfig.engine is vestigial and must stay "
                f"'event', got {self.engine!r}; select the engine with "
                "Execution(engine=...)")
        if self.width < 1 or self.height < 1:
            raise ValueError("mesh dimensions must be positive")
        if self.requests < 1:
            raise ValueError("a service run needs at least one request")
        if not 0 <= self.be_fraction_pct <= 100:
            raise ValueError(
                f"best-effort fraction must be within [0, 100] percent, "
                f"got {self.be_fraction_pct}")
        if self.arrival_period_ticks < 1:
            raise ValueError("arrival period must be at least one tick")
        if self.hold_ticks < 1:
            raise ValueError("mean holding time must be positive")
        service_config = self.service_config()
        service_config.validate()
        return service_config

    def service_config(self) -> ServiceConfig:
        fault_plan = None
        if self.fault_plan_json is not None:
            from repro.faults.plan import FaultPlan

            fault_plan = FaultPlan.from_json(self.fault_plan_json)
        return ServiceConfig(
            util_threshold=self.util_threshold_pct / 100.0,
            buffer_watermark=self.buffer_watermark_pct / 100.0,
            queue_limit=self.queue_limit,
            queue_timeout_ticks=self.queue_timeout_ticks,
            max_retries=self.max_retries,
            retry_backoff_ticks=self.retry_backoff_ticks,
            analytic_preadmission=self.analytic_preadmission,
            fault_plan=fault_plan,
        )

    def churn_workload(self) -> ChurnWorkload:
        return ChurnWorkload(
            self.width, self.height, self.requests, self.seed,
            arrival_period_ticks=self.arrival_period_ticks,
            hold_ticks=self.hold_ticks,
            be_fraction=self.be_fraction_pct / 100.0,
        )


class ServiceSession(Session):
    """One control-plane service run under churn; a step is one tick."""

    KIND = "service"

    def __init__(self, config: ServiceRunConfig, *,
                 execution: Execution = Execution(),
                 _restore: bool = False) -> None:
        service_config = config.validate()
        self.config = config
        self.execution = execution
        self.workload = config.churn_workload()
        self.network = MeshNetwork(config.width, config.height,
                                   on_memory_full="drop",
                                   engine=execution.engine)
        # Churn tears channels down while packets can still be in
        # flight (overload demotion is deliberately immediate); those
        # packets must be counted and dropped, not crash the router.
        for router in self.network.routers.values():
            router.drop_unroutable = True
        self.overload = OverloadManager(self.network, service_config)
        self.controller = ServiceController(
            self.network, self.workload.requests, service_config,
            self.overload)
        self.next_tick = 0
        self.next_request = 0
        #: Wall-clock seconds spent inside control-plane calls (submit,
        #: advance, due_sends; the dispatch of the due sends is data
        #: plane and not counted).  Diagnostic only — never part of the
        #: checkpointed state or the report signature.
        self.control_plane_seconds = 0.0
        self._begin((config,), 0)

    @classmethod
    def fingerprint_for(cls, config: ServiceRunConfig) -> str:
        """Pin of every input that shapes a service run's behaviour."""
        config_dict = asdict(config)
        # The vestigial field was never fingerprinted; leaving it out
        # keeps every pre-existing checkpoint's fingerprint valid.
        config_dict.pop("engine")
        # The pre-admission verdict *is* behaviour-shaping when on, but
        # its default-off value is dropped so fingerprints of every
        # pre-existing checkpoint stay valid.  Same for the fault-aware
        # intake screen.
        if not config_dict.get("analytic_preadmission"):
            config_dict.pop("analytic_preadmission", None)
        if not config_dict.get("fault_plan_json"):
            config_dict.pop("fault_plan_json", None)
        return fingerprint_of({
            "workload": cls.KIND,
            "config": config_dict,
        })

    # -- driving ----------------------------------------------------------

    def _more(self) -> bool:
        return (self.next_request < len(self.workload.requests)
                or not self.controller.idle)

    def _issue(self) -> None:
        # Called through the controller every tick (never via bound
        # methods cached at construction): profilers wrap these as
        # class attributes.
        tick, requests = self.next_tick, self.workload.requests
        started = time.perf_counter()
        while (self.next_request < len(requests)
               and requests[self.next_request].arrival_tick <= tick):
            self.controller.submit(requests[self.next_request], tick)
            self.next_request += 1
        self.controller.advance(tick)
        due = self.controller.due_sends(tick)
        self.control_plane_seconds += time.perf_counter() - started
        self._dispatch(due)

    def _advance(self) -> int:
        self.next_tick += 1
        return self.network.cycle + self.slot

    def _dispatch(self, flows) -> None:
        """Send one message per due flow (data-plane hand-off)."""
        net = self.network
        for flow in flows:
            request = self.workload.requests[flow.index]
            if flow.traffic_class == "TC":
                channel = net.manager.find(flow.label)
                if channel is not None:
                    net.send_message(channel, payload=TC_PAYLOAD)
            else:
                net.send_best_effort(
                    request.source, request.destination,
                    payload=BE_PAYLOAD,
                    connection_label=flow.label,
                    sequence=flow.sequence,
                )
                flow.sequence += 1

    def report(self) -> SLOReport:
        return build_slo_report(
            self.controller, self.network,
            self.workload.signature_payload(), self.config.seed)

    # -- checkpointing -----------------------------------------------------

    def _loop_state(self) -> dict:
        return {
            "next_tick": self.next_tick,
            "next_request": self.next_request,
            "controller": self.controller.state(),
        }

    def _load_loop_state(self, state: dict) -> None:
        self.controller.load_state(state["controller"])
        self.next_tick = state["next_tick"]
        self.next_request = state["next_request"]


def run_service(config: ServiceRunConfig, *,
                execution: Execution = Execution()) -> SLOReport:
    """Run one service churn workload and report its SLOs.

    Deterministic: the request stream, every control-plane decision and
    the simulation itself derive from ``config`` alone, so the same
    configuration always yields the identical report signature, however
    ``execution`` says to run it.
    """
    return ServiceSession.open(config, execution=execution).run()
