"""Event scheduler vs the per-cycle oracle: byte-identical simulations.

The event scheduler steps only scheduled components and advances the
clock directly between events — including under load, where only part
of the fabric is busy.  It must nonetheless produce simulations
*identical* to the bare step-everything loop (``engine="exact"``): the
same delivery records, fault counters, metrics, traces and report
signatures, on loaded, idle-heavy, faulty and churning runs, and
across a checkpoint/resume in either mode.

Every reference side names ``engine="exact"`` explicitly and is checked
with :func:`tests.oracle.assert_oracle_ran` — the default engine is the
scheduler, so a reference built from defaults would compare event with
event and pass vacuously.

``packet_id`` is excluded from record and trace comparison: it is a
process-global allocation counter, so two runs in one process draw
different ids for the same packets.  The ``engine.cycles_stepped`` /
``engine.cycles_fast_forwarded`` metrics probes are excluded from the
metrics comparison: the two modes partition advanced cycles differently
by design (``engine.cycle`` itself must match).
"""

import dataclasses

from repro import TrafficSpec
from repro.checkpoint import ChaosSession, CheckpointStore, Execution
from repro.core.ports import EAST, NORTH
from repro.faults import ChaosConfig, FaultInjector, install_fault_tolerance
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from repro.service import ServiceRunConfig, ServiceSession
from repro.traffic.generators import (
    BurstySource,
    PeriodicSource,
    PoissonBestEffortSource,
)
from tests.oracle import assert_oracle_ran, assert_scheduler_skipped

#: Metrics probes that legitimately differ between modes.
MODE_DEPENDENT_METRICS = ("engine.cycles_stepped",
                          "engine.cycles_fast_forwarded")


def record_signature(net):
    return [tuple(getattr(record, field.name)
                  for field in dataclasses.fields(record)
                  if field.name != "packet_id")
            for record in net.log.records]


def trace_signature(net):
    return [{k: v for k, v in event.items() if k != "packet_id"}
            for event in net.tracer.events()]


def metrics_signature(net):
    return {name: value for name, value in net.metrics.snapshot().items()
            if name not in MODE_DEPENDENT_METRICS}


def build_and_run(engine, *, cycles=12_000, trace=False,
                  idle_heavy=False):
    """A 4x4 run with a link cut and repair, watchdog detection and
    recovery retransmission — under load, or (``idle_heavy``) with
    sparse traffic and long quiescent spans between events."""
    net = MeshNetwork(4, 4, engine=engine)
    slot = net.params.slot_cycles

    c0 = net.establish_channel((0, 0), (3, 3), TrafficSpec(i_min=64),
                               deadline=24, label="ev-c0")
    net.attach_source((0, 0), PeriodicSource(c0, period=64,
                                             slot_cycles=slot))
    c1 = net.establish_channel((3, 0), (0, 3), TrafficSpec(i_min=96),
                               deadline=24, label="ev-c1")
    net.attach_source((3, 0), BurstySource(c1, period=96, burst=2,
                                           slot_cycles=slot))
    if idle_heavy:
        c2 = net.establish_channel((0, 3), (3, 0), TrafficSpec(i_min=80),
                                   deadline=24, label="ev-c2")
        net.attach_source((0, 3), PeriodicSource(
            c2, period=80, start_tick=7, payload=b"\x5a" * 4,
            slot_cycles=slot))
    # The load: a high-rate Poisson stream keeps part of the mesh busy
    # on most cycles while the scheduler still skips the idle corners.
    # Idle-heavy, the same source fires rarely: it pre-draws its next
    # arrival, so the scheduler skips the gaps while the emitted
    # sequence stays draw-for-draw identical to per-cycle polling.
    net.attach_source((1, 1), PoissonBestEffortSource(
        destinations=[(2, 2), (3, 1)],
        rate=0.002 if idle_heavy else 0.02, seed=99))

    if trace:
        net.enable_tracing(capacity=1 << 16)

    tolerance = install_fault_tolerance(net)
    events = [
        FaultEvent(cycle=3_000, kind=CUT, node=(1, 0), direction=EAST),
        FaultEvent(cycle=6_500, kind=REPAIR, node=(1, 0),
                   direction=EAST),
    ]
    if not idle_heavy:
        events.append(FaultEvent(cycle=8_000, kind=CUT, node=(2, 2),
                                 direction=NORTH))
    injector = FaultInjector(net, FaultPlan(events=events))
    net.engine.add_component(injector)

    net.run(cycles)
    return net, tolerance, injector


def run_chaos(config, engine):
    """``run_chaos_soak`` keeping the session, so the engine is visible."""
    session = ChaosSession(config, execution=Execution(engine=engine))
    return session.run(), session.network.engine


def run_churn(config, engine):
    session = ServiceSession(config, execution=Execution(engine=engine))
    return session.run(), session.network.engine


def test_every_layer_defaults_to_the_scheduler():
    assert MeshNetwork(2, 2).engine.mode == "event"
    assert Execution().engine == "event"
    assert ChaosSession(ChaosConfig()).network.engine.mode == "event"
    assert ServiceSession(
        ServiceRunConfig()).network.engine.mode == "event"


class TestEventEngineEquivalence:
    def _assert_identical(self, exact_run, event_run, cycles=12_000):
        exact, exact_tol, exact_inj = exact_run
        event, event_tol, event_inj = event_run

        # The reference really is the bare loop, the scheduler really
        # skipped work...
        assert_oracle_ran(exact.engine)
        assert_scheduler_skipped(event.engine)
        # ...and everything observable matches.
        assert exact.engine.cycle == event.engine.cycle == cycles
        assert record_signature(exact) == record_signature(event)
        assert len(record_signature(event)) > 0
        assert exact.fault_stats == event.fault_stats
        assert exact.log.deadline_misses == event.log.deadline_misses
        assert metrics_signature(exact) == metrics_signature(event)
        assert trace_signature(exact) == trace_signature(event)
        assert len(event.tracer) > 0
        assert exact_inj.fired == event_inj.fired
        assert (exact_tol.watchdog.dead.keys()
                == event_tol.watchdog.dead.keys())
        assert (exact_tol.controller.pending_retransmits
                == event_tol.controller.pending_retransmits)
        for node in exact.routers:
            er, vr = exact.routers[node], event.routers[node]
            assert (er.tc_received, er.tc_transmitted, er.tc_dropped,
                    er.be_worms_routed) \
                == (vr.tc_received, vr.tc_transmitted, vr.tc_dropped,
                    vr.be_worms_routed)

    def test_loaded_faulty_run_identical(self):
        self._assert_identical(build_and_run("exact", trace=True),
                               build_and_run("event", trace=True))

    def test_idle_heavy_faulty_run_identical(self):
        exact_run = build_and_run("exact", trace=True, idle_heavy=True)
        event_run = build_and_run("event", trace=True, idle_heavy=True)
        self._assert_identical(exact_run, event_run)
        event, _, event_inj = event_run
        # Faults fired on their exact planned cycles across the skips.
        assert [fault.cycle for fault in event_inj.fired] == [3_000, 6_500]
        # Sparse Poisson arrivals actually happened.
        assert any(record.traffic_class == "BE"
                   for record in event.log.records)

    def test_chaos_report_signature_identical(self):
        config = dict(seed=77, cycles=4_000, settle_cycles=2_000,
                      cuts=2, flaps=1, corruptions=1, drops=1,
                      babblers=1)
        exact, oracle = run_chaos(ChaosConfig(**config), "exact")
        event, scheduler = run_chaos(ChaosConfig(**config), "event")
        assert_oracle_ran(oracle)
        assert_scheduler_skipped(scheduler)
        assert exact.signature() == event.signature()
        assert exact.counters == event.counters
        assert exact.faults_fired == event.faults_fired > 0
        assert exact.tc_delivered == event.tc_delivered > 0

    def test_churn_slo_signature_identical(self):
        exact, oracle = run_churn(ServiceRunConfig(requests=60), "exact")
        event, scheduler = run_churn(ServiceRunConfig(requests=60),
                                     "event")
        assert_oracle_ran(oracle)
        assert_scheduler_skipped(scheduler)
        assert exact.signature() == event.signature()
        assert exact.cycles == event.cycles
        assert exact.tc_delivered_total == event.tc_delivered_total > 0


class TestEventModeCheckpointResume:
    """The scheduler queue is transient: a checkpoint written mid-run
    carries no queue state, and resume re-seeds it from component
    state — in the same mode or across modes."""

    CONFIG = dict(seed=55, cycles=3_000, settle_cycles=1_500,
                  cuts=2, flaps=1, corruptions=1, drops=1, babblers=1)

    def _reference(self):
        report, oracle = run_chaos(ChaosConfig(**self.CONFIG), "exact")
        assert_oracle_ran(oracle)
        return report

    def _mid_run_checkpoint(self, store_dir, engine):
        session = ChaosSession.open(
            ChaosConfig(**self.CONFIG), execution=Execution(
                engine=engine, checkpoint_dir=str(store_dir),
                checkpoint_interval=500))
        store = CheckpointStore(store_dir, "chaos",
                                session.fingerprint())
        report = session.run()
        if engine == "exact":
            assert_oracle_ran(session.network.engine)
        else:
            # At this seed some router is busy on every cycle, so the
            # scheduler has no idle span to prove itself with.
            assert session.network.engine.mode == "event"
        # A genuinely mid-run crash point: strictly inside the run.
        paths = {int(p.name.split("-")[1]): p
                 for p in store.directory.glob("ckpt-*.json")}
        mid = sorted(c for c in paths if 0 < c < report.cycles)
        assert mid, "no mid-run checkpoint was written"
        return store, paths[mid[len(mid) // 2]], report

    def _resume(self, store, path, engine):
        document = store.load(path)
        session = ChaosSession.restore(
            ChaosConfig(**self.CONFIG), document["state"],
            execution=Execution(engine=engine))
        report = session.run()
        # A resumed engine inherits the writer's stepped/skipped
        # counters, so only the mode identifies which loop finished.
        assert session.network.engine.mode == engine
        return report

    def test_event_resume_matches_uninterrupted(self, tmp_path):
        reference = self._reference()
        store, mid, event_report = self._mid_run_checkpoint(
            tmp_path / "event", "event")
        assert event_report.signature() == reference.signature()
        resumed = self._resume(store, mid, "event")
        assert resumed.signature() == reference.signature()

    def test_cross_mode_resume(self, tmp_path):
        # A checkpoint written by the oracle loop resumes under the
        # event scheduler (and vice versa) with identical outcomes:
        # a fingerprint has no mode in it to differ by.
        reference = self._reference()
        store, mid, _ = self._mid_run_checkpoint(
            tmp_path / "exact", "exact")
        resumed_event = self._resume(store, mid, "event")
        assert resumed_event.signature() == reference.signature()
        store2, mid2, _ = self._mid_run_checkpoint(
            tmp_path / "event2", "event")
        resumed_exact = self._resume(store2, mid2, "exact")
        assert resumed_exact.signature() == reference.signature()

    def test_legacy_fast_forward_keys_are_ignored(self, tmp_path):
        # Documents written before the fast-forward path was removed
        # carry its retry timer in the engine state (same checkpoint
        # format); they must load cleanly and finish identically.
        reference = self._reference()
        store, mid, _ = self._mid_run_checkpoint(tmp_path / "old",
                                                 "event")
        state = store.load(mid)["state"]
        assert "ff_backoff" not in state["network"]["engine"]
        state["network"]["engine"].update(ff_retry_cycle=2_064,
                                          ff_backoff=32)
        session = ChaosSession.restore(ChaosConfig(**self.CONFIG), state)
        assert session.run().signature() == reference.signature()

    def test_resumes_beside_a_sharded_runs_leftovers(self, tmp_path):
        # A directory written by a (since removed) sharded run holds
        # per-rank slices under shards/ next to rank 0's ordinary
        # full-state documents; only the latter are ever read.
        reference = self._reference()
        store, mid, _ = self._mid_run_checkpoint(tmp_path / "mixed",
                                                 "event")
        for path in store.directory.glob("ckpt-*.json"):
            if int(path.name.split("-")[1]) > int(mid.name.split("-")[1]):
                path.unlink()
        parts = store.directory / "shards"
        parts.mkdir()
        (parts / "part-r1-000000009999.json").write_text("{}")
        assert store.latest() == mid
        session = ChaosSession.open(
            ChaosConfig(**self.CONFIG),
            execution=Execution(checkpoint_dir=str(store.directory)))
        assert 0 < session.network.cycle < reference.cycles
        assert session.run().signature() == reference.signature()

