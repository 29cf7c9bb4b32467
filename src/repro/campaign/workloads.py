"""Executable workloads behind campaign runs.

A workload is a pure function ``(RunConfig, Execution) -> stats dict``:
it builds a fresh simulation from the config, runs it to completion the
way the :class:`~repro.checkpoint.Execution` says, and reduces the
outcome to a canonical, JSON-serialisable stats dictionary.  Purity
is the load-bearing property — the result cache and the determinism
tests rely on the same config producing byte-identical stats in any
process.

Five workloads ship by default:

* ``random`` — the CLI's seeded random admitted workload (mixed
  time-constrained and best-effort traffic on a mesh), the same
  :class:`~repro.checkpoint.RandomWorkloadSession` that
  ``repro-router simulate`` runs, so the CLI and campaigns measure the
  same thing.
* ``adversarial`` — the schedulability tightness harness: analyse a
  stress-leaning demand set, then drive it with worst-case phasing and
  report predicted-vs-observed latency per channel
  (:func:`repro.schedulability.measure_tightness`).
* ``chaos`` — one seeded fault-injection soak
  (:func:`repro.faults.run_chaos_soak`).
* ``chaos-tightness`` — the fault-aware schedulability gate: derive
  degraded-but-guaranteed verdicts for a seeded channel set under a
  seeded fault plan, then validate every envelope against a real
  fault-injected run
  (:func:`repro.schedulability.measure_chaos_tightness`).
* ``churn`` — the control-plane service layer under request churn
  (:func:`repro.service.run_service`).

RNG streams inside a workload are derived with
:func:`~repro.campaign.spec.derive_seed` per stage (admission vs.
traffic), so restructuring one stage can never perturb another's
stream.

The stats schema shared by all workloads::

    workload, cycles, channels_established,
    classes: {TC: {delivered, deadline_misses, latency}, BE: {...}},
    latency: {TC: histogram state | None, BE: ...},
    faults: {fault-counter name: total},
    degraded: [labels], duplicates, invariant_failures,
    deadline_misses_undegraded, faults_fired, signature | None
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.campaign.spec import RunConfig, derive_seed
from repro.checkpoint.sessions import Execution

#: An executor maps a config, and how to run it, to its stats dict.
Executor = Callable[[RunConfig, Execution], dict]

#: Registered workload executors, keyed by ``RunConfig.workload``.
WORKLOADS: dict[str, Executor] = {}


def register_workload(name: str, fn: Executor) -> None:
    """Register (or replace) a workload executor under ``name``."""
    WORKLOADS[name] = fn


def workload_for(config: RunConfig) -> Executor:
    try:
        return WORKLOADS[config.workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {config.workload!r} "
            f"(registered: {sorted(WORKLOADS)})"
        ) from None


# ---------------------------------------------------------------------------
# The random admitted workload (shared with the CLI's ``simulate``)
# ---------------------------------------------------------------------------

def build_random_workload(width: int, height: int, channels: int,
                          seed: int,
                          rejects: Optional[dict] = None, *,
                          engine: str = "event"):
    """Admit a seeded random channel set on a fresh mesh.

    Returns ``(net, admitted)`` where ``admitted`` pairs each channel
    with its period.  Admission draws from its own derived RNG
    substream (``derive_seed(seed, "admit")``), independent of the
    traffic stream, so setup and driving are separately reproducible.
    ``rejects``, when given, tallies refused establishments by
    structured :class:`AdmissionError` reason.
    """
    from repro import build_mesh_network
    from repro.channels import AdmissionError
    from repro.schedulability import random_channel_demands

    net = build_mesh_network(width, height, engine=engine)
    # The demand generator replays this workload's historical RNG
    # stream draw for draw, so admission outcomes are unchanged — and
    # the analytic engine can predict them from the same demand list.
    demands = random_channel_demands(width, height, channels, seed)
    admitted = []
    for demand in demands:
        try:
            admitted.append((net.establish_channel(
                demand.source, demand.destinations[0], demand.spec(),
                deadline=demand.deadline,
            ), demand.i_min))
        except AdmissionError as exc:
            if rejects is not None:
                rejects[exc.reason] = rejects.get(exc.reason, 0) + 1
            continue
    return net, admitted


def _network_stats(net) -> dict:
    """The stats a workload reads straight off its drained network."""
    log = net.log
    return {
        "cycles": net.cycle,
        "classes": {cls: log.class_stats(cls) for cls in ("TC", "BE")},
        "latency": {cls: histogram.state() for cls, histogram
                    in log.latency_histograms.items()},
        "faults": net.fault_counters().as_dict(),
        "duplicates": log.duplicate_deliveries,
    }


def _report_classes(tc_delivered: int, tc_misses: int,
                    be_delivered: int) -> dict:
    """The ``classes`` block of a workload that reduces a report, not a
    delivery log: counts only, with the empty latency summary."""
    from repro.network.stats import LatencySummary

    empty = LatencySummary.from_values([]).as_dict()
    return {
        "TC": {"delivered": tc_delivered, "deadline_misses": tc_misses,
               "latency": empty},
        "BE": {"delivered": be_delivered, "deadline_misses": 0,
               "latency": empty},
    }


def run_random(config: RunConfig, execution: Execution) -> dict:
    """Execute one ``random``-workload run and reduce it to stats."""
    from repro.checkpoint import RandomWorkloadSession

    session = RandomWorkloadSession.open(
        config.width, config.height, config.channels, config.ticks,
        config.seed, execution=execution)
    net = session.run()
    return {
        "workload": "random",
        "channels_established": len(session.admitted),
        "admission_rejects": dict(sorted(
            session.admission_rejects.items())),
        **_network_stats(net),
        "degraded": [],
        "invariant_failures": 0,
        "deadline_misses_undegraded": net.log.deadline_misses,
        "faults_fired": 0,
        "signature": None,
    }


# ---------------------------------------------------------------------------
# The adversarial tightness workload (predict, then measure)
# ---------------------------------------------------------------------------

def run_adversarial(config: RunConfig, execution: Execution) -> dict:
    """Predict-then-measure one adversarial channel set.

    Analyses the seeded adversarial demand list, establishes it on a
    real mesh, drives every admitted channel with worst-case phasing
    (aligned sends, bursts up front), and reduces the delivery log to
    per-channel tightness — predicted bound, observed worst case, and
    the gap between them.  Safety failures (a mismatching admission
    verdict, or an observation above its bound) surface as
    ``invariant_failures``.  This workload has a registered campaign
    pre-filter: cells whose demand set is analytically infeasible are
    skipped before simulation (see :mod:`repro.schedulability.prefilter`).
    """
    from repro.schedulability import (TopologySpec,
                                      adversarial_channel_demands,
                                      measure_tightness)

    demands = adversarial_channel_demands(
        config.width, config.height, config.channels, config.seed,
        torus=config.torus)
    net, tightness = measure_tightness(
        TopologySpec(config.width, config.height, torus=config.torus),
        demands, ticks=config.ticks, engine=execution.engine)
    return {
        "workload": "adversarial",
        "channels_established": len(tightness.channels),
        "admission_rejects": dict(sorted(
            tightness.prediction.reject_reasons.items())),
        **_network_stats(net),
        "degraded": [],
        "invariant_failures": (len(tightness.mismatches)
                               + len(tightness.violations)),
        "deadline_misses_undegraded": net.log.deadline_misses,
        "faults_fired": 0,
        "signature": tightness.signature(),
        "tightness": tightness.as_dict(),
    }


# ---------------------------------------------------------------------------
# The chaos tightness workload (fault-aware predict, then inject)
# ---------------------------------------------------------------------------

def chaos_tightness_inputs(config: RunConfig):
    """The ``(topology, demands, plan)`` a chaos-tightness cell runs on.

    Shared verbatim by the workload and its campaign pre-filter so the
    analytic skip decision and the executed run always describe the
    same experiment.  The fault plan draws from its own derived
    substream and lands every event inside the driving window, where
    losses actually exercise the recovery envelope.
    """
    from repro.core import RouterParams
    from repro.faults.plan import FaultPlan
    from repro.schedulability import TopologySpec, random_channel_demands

    demands = random_channel_demands(
        config.width, config.height, config.channels, config.seed,
        torus=config.torus)
    slot = RouterParams().slot_cycles
    window = (slot, max(2 * slot, config.ticks * slot * 2 // 3))
    plan = FaultPlan.random(
        derive_seed(config.seed, "faultplan"),
        config.width, config.height,
        cuts=config.cuts, flaps=config.flaps,
        corruptions=config.corruptions, drops=config.drops,
        babblers=config.babblers, window=window)
    topology = TopologySpec(config.width, config.height,
                            torus=config.torus)
    return topology, demands, plan


def run_chaos_tightness(config: RunConfig, execution: Execution) -> dict:
    """Predict fault-aware verdicts, then validate them by injection.

    Derives degraded-but-guaranteed bounds for the seeded channel set
    under a seeded fault plan, replays the plan through a real
    fault-injected run on the configured engine, and gates every
    guaranteed/degraded channel on ``observed <= predicted`` with zero
    deadline misses and zero lost messages.  Gate failures (and any
    predicted-vs-simulated admission mismatch) surface as
    ``invariant_failures``.  Cells whose base problem is infeasible or
    whose plan leaves channels at risk are skipped by a registered
    pre-filter (see :mod:`repro.schedulability.prefilter`).
    """
    from repro.schedulability import measure_chaos_tightness
    from repro.schedulability.faultmodel import DEGRADED_GUARANTEED

    topology, demands, plan = chaos_tightness_inputs(config)
    net, report = measure_chaos_tightness(
        topology, demands, plan, ticks=config.ticks,
        engine=execution.engine)
    prediction = report.prediction
    return {
        "workload": "chaos-tightness",
        "channels_established": len(report.channels),
        "admission_rejects": dict(sorted(
            prediction.base.reject_reasons.items())),
        **_network_stats(net),
        "degraded": [verdict.label for verdict in prediction.verdicts
                     if verdict.status == DEGRADED_GUARANTEED],
        "invariant_failures": (len(report.mismatches)
                               + len(report.violations)),
        "deadline_misses_undegraded": report.total_misses,
        "faults_fired": len(plan),
        "signature": report.signature(),
        "fault_tightness": report.as_dict(),
    }


# ---------------------------------------------------------------------------
# The chaos soak workload
# ---------------------------------------------------------------------------

def run_chaos(config: RunConfig, execution: Execution) -> dict:
    """Execute one seeded fault-injection soak and reduce it to stats."""
    from repro.faults import ChaosConfig, run_chaos_soak

    report = run_chaos_soak(ChaosConfig(
        seed=config.seed, width=config.width, height=config.height,
        cycles=config.cycles, settle_cycles=config.settle_cycles,
        cuts=config.cuts, flaps=config.flaps,
        corruptions=config.corruptions, drops=config.drops,
        babblers=config.babblers, unicast_channels=config.channels,
    ), execution=execution)
    return {
        "workload": "chaos",
        "cycles": report.cycles,
        "channels_established": report.channels_established,
        "admission_rejects": dict(sorted(
            report.admission_rejects.items())),
        "classes": _report_classes(report.tc_delivered,
                                   report.deadline_misses_total,
                                   report.be_delivered),
        "latency": dict(report.latency),
        "faults": dict(report.counters),
        "degraded": list(report.degraded_labels),
        "duplicates": 0,
        "invariant_failures": len(report.invariant_failures),
        "deadline_misses_undegraded": report.deadline_misses_undegraded,
        "faults_fired": report.faults_fired,
        "signature": report.signature(),
    }


# ---------------------------------------------------------------------------
# The control-plane churn workload (service layer under load)
# ---------------------------------------------------------------------------

def run_churn(config: RunConfig, execution: Execution) -> dict:
    """Execute one service churn run and reduce its SLOs to stats."""
    from repro.service import ServiceRunConfig, run_service

    report = run_service(ServiceRunConfig(
        seed=config.seed, width=config.width, height=config.height,
        requests=config.requests,
        arrival_period_ticks=config.arrival_period_ticks,
        hold_ticks=config.hold_ticks,
        be_fraction_pct=config.be_fraction_pct,
        util_threshold_pct=config.util_threshold_pct,
        buffer_watermark_pct=config.buffer_watermark_pct,
        queue_limit=config.queue_limit,
    ), execution=execution)
    slo = report.as_dict()
    return {
        "workload": "churn",
        "cycles": report.cycles,
        "channels_established": report.accepted_tc,
        "admission_rejects": dict(slo["admission_reject_reasons"]),
        "classes": _report_classes(report.tc_delivered_total,
                                   report.tc_misses_total,
                                   report.be_delivered),
        "latency": {"TC": None, "BE": None},
        "faults": {},
        "degraded": list(slo["demoted_labels"]),
        "duplicates": 0,
        "invariant_failures": 0,
        "deadline_misses_undegraded": report.tc_misses_guaranteed,
        "faults_fired": 0,
        "signature": report.signature(),
        "slo": slo,
    }


register_workload("random", run_random)
register_workload("adversarial", run_adversarial)
register_workload("chaos", run_chaos)
register_workload("chaos-tightness", run_chaos_tightness)
register_workload("churn", run_churn)
