"""Checkpointable simulation sessions.

A *session* is the protocol software that drives the fabric: it owns
the network, the workload RNG and the send/check schedules, issues
sends, advances the engine one span, and can be captured in one
:meth:`Session.state` call and resumed byte-identically.  There is one
driver, :class:`Session`; a workload (chaos soak, random admitted
traffic, service churn in :mod:`repro.service.session`) supplies only
what differs.

The segmentation rule
---------------------

The engine guarantees that ``run(a); run(b)`` is cycle-for-cycle
identical to ``run(a + b)`` (scheduler jumps clamp at the run
target; see ``docs/performance.md``).  Sessions exploit exactly that:
the driving loop's *natural* spans (one packet slot for the chaos soak
and the service run, two ticks for the random workload) are split at
checkpoint cycles, the state is saved between the two ``run`` calls,
and nothing else changes.  Workload conditions — sends, invariant
checks — are only ever evaluated at natural span boundaries, so a
session restored mid-span first finishes the span it was in
(``span_end``) before re-entering the loop.

What a checkpoint captures is listed in ``docs/checkpointing.md``.
What it does not: metrics *snapshot emitters* (re-enable after
restore), and the final ``drain()`` of the random and service
workloads, which runs to quiescence and is cheap to redo.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import asdict, dataclass
from typing import Optional

from repro.checkpoint.codec import (
    LoadContext,
    SaveContext,
    load_rng,
    rng_state,
)
from repro.checkpoint.store import (
    CheckpointError,
    CheckpointStore,
    fingerprint_of,
)
from repro.core.invariants import (
    InvariantViolation,
    check_link_records,
    check_no_shared_wires,
    check_router_invariants,
)

#: Default cycles between checkpoints (chosen so checkpointing costs
#: well under 5% on the benchmark workloads; see
#: ``benchmarks/bench_checkpoint.py``).
DEFAULT_CHECKPOINT_INTERVAL = 100_000


@dataclass(frozen=True)
class Execution:
    """How a run is executed; never what it runs.

    Nothing here can change a run's records, so nothing here is ever
    hashed, fingerprinted or signed.  It is the one way any layer —
    session, harness, campaign worker, CLI — says how to run.
    """

    #: ``"event"`` (the scheduler) or ``"exact"`` (the per-cycle oracle
    #: loop tests compare against); validated by the engine it selects.
    engine: str = "event"
    #: Cycles between invariant checks (0: never); ``None`` leaves it to
    #: the workload (``ChaosConfig.invariant_check_every``, else 0).
    check_every: Optional[int] = None
    #: Where, how often and from which file :meth:`Session.open`
    #: checkpoints and resumes.
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    resume_from: Optional[str] = None


def default_chaos_plan(config):
    """The fault plan a chaos soak derives from its config alone."""
    from repro.faults.plan import FaultPlan

    return FaultPlan.random(
        config.seed, config.width, config.height,
        cuts=config.cuts, flaps=config.flaps,
        corruptions=config.corruptions, drops=config.drops,
        babblers=config.babblers,
        window=(config.cycles // 8, max(config.cycles // 8 + 1,
                                        config.cycles * 3 // 4)),
    )


class Session:
    """The one session driver: run loop, checkpointing, restore, open.

    A workload subclass supplies construction (``cls(*spec,
    execution=Execution())``, ending in :meth:`_begin`; a
    ``_restore=True`` construction builds the bare mesh and draws
    nothing from the admission stream), ``KIND``,
    ``fingerprint_for(*spec)``, ``report()`` and five hooks:

    * ``_more()`` — does the main loop have another step?
    * ``_issue()`` — issue this step's sends at the current cycle.
    * ``_advance()`` — commit the loop variables to the *next* step and
      return the cycle this step's span ends at.  It runs before the
      span's first cycle, so a mid-span checkpoint records the next
      step (and ``span_end``, which a restored session finishes first).
    * ``_loop_state()`` / ``_load_loop_state(state)`` — the workload's
      own checkpoint keys, beyond the shared ones :meth:`state` writes.

    ``_finish()`` (drain to quiescence) may be overridden; checkpoint
    documents record the phase it runs under as ``FINISH_PHASE``.
    """

    FINISH_PHASE = "drain"

    _store = None
    _interval = 0

    def _begin(self, spec: tuple, own_cadence: int) -> None:
        """Set the shared loop variables; ``spec`` is the positional
        tuple behind ``cls(*spec)`` and ``cls.fingerprint_for(*spec)``,
        ``own_cadence`` the invariant-check period the workload itself
        asks for when ``self.execution`` names none."""
        self._spec = spec
        self.slot = self.network.params.slot_cycles
        self.check_every = self.execution.check_every
        if self.check_every is None:
            self.check_every = own_cadence
        self.invariant_failures: list[str] = []
        self.phase = "main"
        self.span_end = 0
        self.next_check = self.check_every

    def fingerprint(self) -> str:
        return self.fingerprint_for(*self._spec)

    # -- driving ----------------------------------------------------------

    def attach_store(self, store, interval: int) -> None:
        """Write a checkpoint every ``interval`` cycles to ``store``."""
        if store is not None and interval < 1:
            raise ValueError("checkpoint interval must be positive")
        self._store = store
        self._interval = interval if store is not None else 0

    def run(self):
        """Run (or finish running) the workload; returns its report."""
        net = self.network
        self._run_span(self.span_end)  # finish an interrupted span first
        if self.phase == "main":
            while self._more():
                self._issue()
                if self.check_every > 0 and net.cycle >= self.next_check:
                    self._check_invariants()
                    self.next_check += self.check_every
                self._run_span(self._advance())
            self.phase = self.FINISH_PHASE
        if self.phase == self.FINISH_PHASE:
            self._finish()
            self.phase = "done"
        return self.report()

    def _finish(self) -> None:
        """Drain to quiescence.  Not checkpoint-segmented: re-running
        it after a crash redoes bounded work and cannot diverge."""
        self.network.drain(max_cycles=2_000_000)
        if self.check_every > 0:
            self._check_invariants()

    def _run_span(self, target: int) -> None:
        """Advance the engine to ``target``, checkpointing on the way.

        ``span_end`` is committed before the first ``run`` call so a
        checkpoint taken inside the span records where the span ends;
        a restored session replays the remainder and only then
        re-evaluates workload conditions.
        """
        net = self.network
        self.span_end = target
        store, interval = self._store, self._interval
        if store is None:
            if net.cycle < target:
                net.run(target - net.cycle)
            return
        while net.cycle < target:
            next_ckpt = (net.cycle // interval + 1) * interval
            net.run(min(target, next_ckpt) - net.cycle)
            if net.cycle % interval == 0:
                store.save(net.cycle, self.state())

    def _check_invariants(self) -> None:
        net = self.network
        checks = [(f" {node}", check_router_invariants, router)
                  for node, router in net.routers.items()]
        checks.append(("", check_no_shared_wires, net.routers.values()))
        checks.append(("", check_link_records, net))
        for where, check, subject in checks:
            try:
                check(subject)
            except InvariantViolation as exc:
                self.invariant_failures.append(
                    f"cycle {net.cycle}{where}: {exc}")
        for stale in net.engine.audit_schedule():
            self.invariant_failures.append(
                f"cycle {net.cycle} schedule: {stale}")

    # -- checkpointing -----------------------------------------------------

    def state(self) -> dict:
        ctx = SaveContext()
        state = {
            "phase": self.phase,
            "span_end": self.span_end,
            "next_check": self.next_check,
            "invariant_failures": list(self.invariant_failures),
            "network": self.network.state(ctx),
            **self._loop_state(),
        }
        # Saved last: the meta table only becomes complete once every
        # component has registered its in-flight packets.
        state["metas"] = ctx.metas_state()
        return state

    @classmethod
    def restore(cls, *spec_then_state, execution=Execution()):
        """``restore(*spec, state)``: rebuild ``cls(*spec)`` at a
        checkpoint document's state, to run as ``execution`` says."""
        *spec, state = spec_then_state
        session = cls(*spec, execution=execution, _restore=True)
        session.network.load_state(state["network"],
                                   LoadContext(state["metas"]))
        session._load_loop_state(state)
        session.phase = state["phase"]
        session.span_end = state["span_end"]
        session.next_check = state["next_check"]
        session.invariant_failures = list(state["invariant_failures"])
        if session.check_every > 0:
            session._check_invariants()  # once after every restore
        return session

    @classmethod
    def open(cls, *spec, execution=Execution()):
        """Resume or start, as ``execution`` says.

        The checkpoint store is ``execution.checkpoint_dir``, else the
        directory of ``execution.resume_from``, else none (a fresh
        session that writes nothing).  With a store the session starts
        from ``resume_from`` if given, else the store's latest
        checkpoint, else fresh, and checkpoints into the store every
        ``checkpoint_interval`` cycles.  A checkpoint of a different
        run configuration raises :class:`CheckpointError`.
        """
        directory = execution.checkpoint_dir
        path = execution.resume_from
        if directory is None and path is not None:
            directory = pathlib.Path(path).parent
        if directory is None:
            return cls(*spec, execution=execution)
        store = CheckpointStore(directory, cls.KIND,
                                cls.fingerprint_for(*spec))
        if path is None:
            path = store.latest()
        if path is None:
            session = cls(*spec, execution=execution)
        else:
            session = cls.restore(*spec, store.load(path)["state"],
                                  execution=execution)
        session.attach_store(store, execution.checkpoint_interval)
        return session

    def _channels_by_label(self, labels) -> list:
        """Re-bind channels from the restored manager (never re-admit)."""
        channels = []
        for label in labels:
            channel = self.network.manager.find(label)
            if channel is None:
                raise CheckpointError(
                    f"checkpoint references channel {label!r} that the "
                    "restored manager does not know")
            channels.append(channel)
        return channels


def _rejects_state(rejects: dict) -> dict:
    return dict(sorted(rejects.items()))


def _load_rejects(state: dict) -> dict:
    return {str(reason): int(count) for reason, count
            in state.get("admission_rejects", {}).items()}


class ChaosSession(Session):
    """The seeded chaos soak.

    :func:`repro.faults.harness.run_chaos_soak` delegates here, so there
    is exactly one chaos code path.  A step is one packet slot; the
    finish is the settle window, which (unlike a drain) has a fixed
    length and therefore *is* checkpoint-segmented.
    """

    KIND = "chaos"
    FINISH_PHASE = "settle"

    def __init__(self, config, plan=None, *,
                 execution: Execution = Execution(),
                 _restore: bool = False) -> None:
        from repro.faults import install_fault_tolerance
        from repro.faults.harness import _establish_workload
        from repro.faults.injector import FaultInjector
        from repro.network.network import MeshNetwork

        self.config = config
        self.execution = execution
        self.rng = random.Random(config.seed)
        self.network = MeshNetwork(config.width, config.height,
                                   on_memory_full="drop",
                                   engine=execution.engine)
        self.admission_rejects: dict[str, int] = {}
        if _restore:  # both come from the checkpoint, as does the RNG
            self.channels: list = []
            self.be_payloads: list[bytes] = []
        else:
            self.channels = _establish_workload(self.network, config,
                                                self.rng,
                                                self.admission_rejects)
            self.be_payloads = [
                bytes(self.rng.randrange(256) for __ in range(
                    self.rng.randrange(6, 24))) for __ in range(8)
            ]
        self.tolerance = install_fault_tolerance(self.network)
        if plan is None:
            plan = default_chaos_plan(config)
        self.plan = plan
        self.injector = FaultInjector(self.network, plan)
        self.network.engine.add_component(self.injector)
        self.nodes = list(self.network.mesh.nodes())
        self.next_message = 0
        self.next_be = config.be_period_cycles
        self._begin((config, plan), config.invariant_check_every)

    @classmethod
    def fingerprint_for(cls, config, plan=None) -> str:
        """Pin of every input that shapes a chaos run's behaviour."""
        if plan is None:
            plan = default_chaos_plan(config)
        return fingerprint_of({
            "workload": cls.KIND,
            "config": asdict(config),
            "plan": plan.signature(),
        })

    # -- driving ----------------------------------------------------------

    def _more(self) -> bool:
        return self.network.cycle < self.config.cycles

    def _issue(self) -> None:
        net = self.network
        if net.cycle >= self.next_message:
            for channel in self.channels:
                net.send_message(
                    channel, payload=bytes([len(self.channels)]) * 4)
            self.next_message += (self.config.message_period_ticks
                                  * self.slot)
        if net.cycle >= self.next_be:
            src, dst = self.rng.sample(self.nodes, 2)
            net.send_best_effort(
                src, dst, payload=self.rng.choice(self.be_payloads))
            self.next_be += self.config.be_period_cycles

    def _advance(self) -> int:
        return min(self.network.cycle + self.slot, self.config.cycles)

    def _finish(self) -> None:
        # Settle: no new messages; let retransmissions and drains
        # finish.  Invariants are checked unconditionally here.
        self._run_span(self.config.cycles + self.config.settle_cycles)
        self._check_invariants()
        self.injector.detach()
        self.tolerance.detach()

    def report(self):
        from repro.faults.harness import ChaosReport
        from repro.faults.injector import BABBLE_LABEL

        net = self.network
        degraded = sorted(net.manager.degraded_channels)
        misses_total = net.log.deadline_misses
        misses_undegraded = sum(
            1 for record in net.log.records
            if record.deadline_met is False
            and record.connection_label not in degraded
            and record.connection_label != BABBLE_LABEL
        )
        return ChaosReport(
            seed=self.config.seed,
            cycles=net.cycle,
            counters=net.fault_counters().as_dict(),
            tc_delivered=net.log.tc_delivered,
            be_delivered=net.log.be_delivered,
            deadline_misses_total=misses_total,
            deadline_misses_undegraded=misses_undegraded,
            degraded_labels=degraded,
            rerouted_count=net.fault_stats.channels_rerouted,
            invariant_failures=list(self.invariant_failures),
            channels_established=len(self.channels),
            faults_fired=len(self.injector.fired),
            latency={cls: histogram.state() for cls, histogram
                     in net.log.latency_histograms.items()},
            admission_rejects=_rejects_state(self.admission_rejects),
        )

    # -- checkpointing -----------------------------------------------------

    def _loop_state(self) -> dict:
        return {
            "next_message": self.next_message,
            "next_be": self.next_be,
            "admission_rejects": _rejects_state(self.admission_rejects),
            "channel_labels": [channel.label
                               for channel in self.channels],
            "be_payloads": [payload.hex()
                            for payload in self.be_payloads],
            "rng": rng_state(self.rng),
            "injector": self.injector.state(),
            "controller": self.tolerance.controller.state(),
        }

    def _load_loop_state(self, state: dict) -> None:
        self.injector.load_state(state["injector"])
        self.tolerance.controller.load_state(state["controller"])
        self.channels = self._channels_by_label(state["channel_labels"])
        self.be_payloads = [bytes.fromhex(payload)
                            for payload in state["be_payloads"]]
        load_rng(self.rng, state["rng"])
        self.next_message = state["next_message"]
        self.next_be = state["next_be"]
        self.admission_rejects = _load_rejects(state)


class RandomWorkloadSession(Session):
    """The CLI/campaign random admitted workload.

    Admission is :func:`repro.campaign.workloads.build_random_workload`
    (its own derived RNG substream); a step is two ticks of periodic
    channel sends plus seeded best-effort background traffic from the
    ``derive_seed(seed, "traffic")`` substream.
    """

    KIND = "random"

    def __init__(self, width: int, height: int, channels: int,
                 ticks: int, seed: int, *,
                 execution: Execution = Execution(),
                 _restore: bool = False) -> None:
        from repro.campaign.spec import derive_seed
        from repro.campaign.workloads import build_random_workload

        self.width = width
        self.height = height
        self.channel_count = channels
        self.ticks = ticks
        self.seed = seed
        self.execution = execution
        self.admission_rejects: dict[str, int] = {}
        # A restore admits nothing (a bare mesh, no draw): its channels
        # are re-bound by label from the restored manager.
        self.network, self.admitted = build_random_workload(
            width, height, 0 if _restore else channels, seed,
            self.admission_rejects, engine=execution.engine)
        self.rng = random.Random(derive_seed(seed, "traffic"))
        self.nodes = list(self.network.mesh.nodes())
        self.next_tick = 0
        self._begin((width, height, channels, ticks, seed), 0)

    @classmethod
    def fingerprint_for(cls, width: int, height: int, channels: int,
                        ticks: int, seed: int) -> str:
        return fingerprint_of({
            "workload": cls.KIND,
            "width": width, "height": height,
            "channels": channels, "ticks": ticks,
            "seed": seed,
        })

    # -- driving ----------------------------------------------------------

    def _more(self) -> bool:
        return self.next_tick < self.ticks

    def _issue(self) -> None:
        net = self.network
        for channel, i_min in self.admitted:
            if self.next_tick % i_min == 0:
                net.send_message(channel)
        if self.rng.random() < 0.25:
            src, dst = self.rng.sample(self.nodes, 2)
            net.send_best_effort(
                src, dst, payload=bytes(self.rng.randrange(8, 100)))

    def _advance(self) -> int:
        self.next_tick += 2
        return self.network.cycle + 2 * self.slot

    def report(self):
        """The drained network (callers reduce its log themselves)."""
        return self.network

    # -- checkpointing -----------------------------------------------------

    def _loop_state(self) -> dict:
        return {
            "next_tick": self.next_tick,
            "admission_rejects": _rejects_state(self.admission_rejects),
            "admitted": [[channel.label, i_min]
                         for channel, i_min in self.admitted],
            "rng": rng_state(self.rng),
        }

    def _load_loop_state(self, state: dict) -> None:
        channels = self._channels_by_label(
            label for label, _ in state["admitted"])
        self.admitted = [(channel, i_min) for channel, (_, i_min)
                         in zip(channels, state["admitted"])]
        load_rng(self.rng, state["rng"])
        self.next_tick = state["next_tick"]
        self.admission_rejects = _load_rejects(state)
