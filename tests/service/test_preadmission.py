"""Tests for the analytic pre-admission verdict in the service layer.

With ``analytic_preadmission`` on, a request whose infeasibility is
load-independent (nothing queueing or retries can fix) is rejected
immediately with the structured admission reason; load-dependent
verdicts still walk the normal ladder.  The structured
``AdmissionError`` reasons behind every failed establishment attempt
are tallied separately from the service's own decisions and surface
in the SLO report.
"""

import dataclasses

from repro.network.network import MeshNetwork
from repro.service import (
    OverloadManager,
    ServiceConfig,
    ServiceController,
    ServiceRunConfig,
    ServiceSession,
    build_slo_report,
    run_service,
)
from repro.service.workload import ChannelRequest


def request(index=0, *, source=(0, 0), destination=(1, 0),
            traffic_class="TC", i_min=6, deadline=40, hold=60,
            criticality=3, arrival=0):
    return ChannelRequest(
        index=index, arrival_tick=arrival, source=source,
        destination=destination, traffic_class=traffic_class,
        i_min=i_min, deadline_ticks=deadline, hold_ticks=hold,
        criticality=criticality)


def controller_for(requests, **overrides):
    config = ServiceConfig(**overrides)
    net = MeshNetwork(2, 2, on_memory_full="drop")
    overload = OverloadManager(net, config)
    return ServiceController(net, requests, config, overload), net


#: A deadline no decomposition over the 2-hop route can meet: every
#: hop needs at least hop_overhead + 1 ticks.
IMPOSSIBLE_DEADLINE = 1


class TestPreadmissionVerdict:
    def test_load_independent_infeasibility_rejected_immediately(self):
        req = request(deadline=IMPOSSIBLE_DEADLINE)
        controller, _ = controller_for(
            [req], analytic_preadmission=True)
        assert controller.submit(req, 0) == "rejected"
        assert controller.queue_depth == 0
        (reason,) = controller.reject_reasons
        assert controller.admission_reject_reasons == {reason: 1}
        assert controller.counters["rejected"] == 1
        assert controller.counters["queued_total"] == 0

    def test_same_request_queues_without_preadmission(self):
        req = request(deadline=IMPOSSIBLE_DEADLINE)
        controller, _ = controller_for([req])
        # The doomed setup is attempted, fails, and burns queue slots
        # and retries — exactly the waste the verdict short-circuits.
        assert controller.submit(req, 0) == "queued"
        assert controller.reject_reasons == {}
        assert len(controller.admission_reject_reasons) == 1

    def test_feasible_request_unaffected(self):
        req = request()
        controller, net = controller_for(
            [req], analytic_preadmission=True)
        assert controller.submit(req, 0) == "accepted"
        assert controller.admission_reject_reasons == {}
        assert net.manager.find("svc-0") is not None

    def test_try_establish_failures_are_tallied(self):
        req = request(deadline=IMPOSSIBLE_DEADLINE)
        controller, _ = controller_for([req])
        assert controller._try_establish(req, 0) is not None
        assert controller._try_establish(req, 0) is not None
        (count,) = controller.admission_reject_reasons.values()
        assert count == 2


class TestStateAndReporting:
    def test_checkpoint_roundtrip_preserves_tally(self):
        req = request(deadline=IMPOSSIBLE_DEADLINE)
        controller, _ = controller_for(
            [req], analytic_preadmission=True)
        controller.submit(req, 0)
        state = controller.state()
        assert state["admission_reject_reasons"]
        fresh, _ = controller_for([req], analytic_preadmission=True)
        fresh.load_state(state)
        assert (fresh.admission_reject_reasons
                == controller.admission_reject_reasons)

    def test_old_checkpoints_without_the_tally_still_load(self):
        req = request()
        controller, _ = controller_for([req])
        state = controller.state()
        del state["admission_reject_reasons"]
        fresh, _ = controller_for([req])
        fresh.load_state(state)
        assert fresh.admission_reject_reasons == {}

    def test_slo_report_carries_the_audit_tally(self):
        req = request(deadline=IMPOSSIBLE_DEADLINE)
        controller, net = controller_for(
            [req], analytic_preadmission=True)
        controller.submit(req, 0)
        report = build_slo_report(controller, net, {}, seed=0)
        assert (report.admission_reject_reasons
                == controller.admission_reject_reasons)
        assert ("admission_reject_reasons" in report.as_dict())


class TestRunConfigIntegration:
    def test_flag_flows_through_service_config(self):
        config = ServiceRunConfig(analytic_preadmission=True)
        assert config.service_config().analytic_preadmission is True
        assert (ServiceRunConfig().service_config()
                .analytic_preadmission is False)

    def test_fingerprint_stable_when_off_and_distinct_when_on(self):
        base = ServiceRunConfig()
        on = dataclasses.replace(base, analytic_preadmission=True)
        # Off is the historical behaviour: its fingerprint must not
        # mention the new field, so pre-existing checkpoints resume.
        assert (ServiceSession.fingerprint_for(base)
                != ServiceSession.fingerprint_for(on))
        legacy = dataclasses.asdict(base)
        legacy.pop("engine")
        legacy.pop("analytic_preadmission")
        legacy.pop("fault_plan_json")
        from repro.checkpoint.store import fingerprint_of

        assert ServiceSession.fingerprint_for(base) == fingerprint_of(
            {"workload": "service", "config": legacy})

    def test_run_is_deterministic_with_preadmission(self):
        config = ServiceRunConfig(requests=40,
                                  analytic_preadmission=True)
        first = run_service(config)
        assert first.signature() == run_service(config).signature()
