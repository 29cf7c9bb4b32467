"""Campaign pre-filtering: skip provably-infeasible sweep cells.

A prefilter maps a :class:`~repro.campaign.spec.RunConfig` to either
``None`` (run the cell) or a verdict dict explaining why the cell is
analytically infeasible (skip it).  The campaign runner consults the
registry on every cache miss and records skips in the report — they
are never silently dropped (see ``CampaignReport.infeasible``).

Only workloads with a registered prefilter are ever filtered; the
default workloads stay untouched.  A verdict must be a pure function
of the config so the decision is identical across runner invocations
and resumes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.campaign.spec import RunConfig

#: workload name -> prefilter callable.
PREFILTERS: dict[str, Callable[[RunConfig], Optional[dict]]] = {}


def register_prefilter(name: str,
                       fn: Callable[[RunConfig], Optional[dict]]) -> None:
    """Register ``fn`` as the feasibility pre-filter for workload
    ``name`` (replacing any previous registration)."""
    PREFILTERS[name] = fn


def prefilter_verdict(config: RunConfig) -> Optional[dict]:
    """The registered verdict for ``config``; ``None`` means run it."""
    fn = PREFILTERS.get(config.workload)
    if fn is None:
        return None
    return fn(config)


def _adversarial_prefilter(config: RunConfig) -> Optional[dict]:
    """Analyse the adversarial demand set before paying for simulation.

    The adversarial workload treats any analytic rejection as an
    infeasible cell: its whole point is measuring tightness on fully
    admitted sets, so a cell whose demand list cannot be admitted in
    full carries no signal worth simulating.
    """
    from repro.schedulability.engine import analyze
    from repro.schedulability.spec import (TopologySpec,
                                           adversarial_channel_demands)

    demands = adversarial_channel_demands(
        config.width, config.height, config.channels, config.seed,
        torus=config.torus)
    report = analyze(
        TopologySpec(config.width, config.height, torus=config.torus),
        demands)
    if not report.rejected:
        return None
    return {
        "reason": "analytically infeasible channel set",
        "rejected": report.rejected,
        "total": len(report.channels),
        "reject_reasons": report.reject_reasons,
    }


def _chaos_tightness_prefilter(config: RunConfig) -> Optional[dict]:
    """Skip cells the fault model already refuses to guarantee.

    The chaos-tightness workload gates ``observed <= predicted`` for
    every guaranteed and degraded-guaranteed channel; a cell whose base
    problem is analytically infeasible, or whose fault plan leaves
    channels at risk (no reroute path, no reroute capacity, retry
    budget exhausted), has no envelope to validate.  The skip verdict
    records the at-risk labels and reasons so the decision is auditable
    in the campaign report, never silent.
    """
    from repro.campaign.workloads import chaos_tightness_inputs
    from repro.schedulability.faultmodel import analyze_with_faults

    topology, demands, plan = chaos_tightness_inputs(config)
    report = analyze_with_faults(topology, demands, plan)
    if report.ok:
        return None
    at_risk = [{"label": verdict.label, "reason": verdict.reason}
               for verdict in report.at_risk]
    return {
        "reason": ("fault plan leaves channels at risk" if at_risk
                   else "analytically infeasible channel set"),
        "rejected": report.base.rejected,
        "total": len(report.base.channels),
        "reject_reasons": report.base.reject_reasons,
        "at_risk": at_risk,
        "plan_signature": report.plan_signature,
    }


register_prefilter("adversarial", _adversarial_prefilter)
register_prefilter("chaos-tightness", _chaos_tightness_prefilter)
