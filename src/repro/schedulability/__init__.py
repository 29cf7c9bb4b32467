"""Analytic schedulability engine: predict, then validate by campaign.

The subsystem answers "will this channel set be admitted, and what is
each channel's worst-case latency?" without running a simulated cycle
(:func:`analyze`), and backs every bound with a predict-then-measure
harness that drives the simulator adversarially and reports the
tightness gap (:func:`measure`); :func:`slot_model` runs the
same admitted set on the slot-level model.  A fault-aware layer
(:func:`analyze_with_faults`) re-derives each admitted channel's
verdict under an explicit :class:`~repro.faults.plan.FaultPlan` —
guaranteed, degraded-guaranteed with a quantified recovery envelope,
or at-risk with a structured reason — and
:func:`measure` given the same plan validates those envelopes against
a real fault-injected run.  See ``docs/schedulability.md`` for the model
and verdict schema.
"""

from repro.schedulability.engine import (LOAD_INDEPENDENT_REASONS,
                                         ChannelVerdict, ScheduleReport,
                                         analyze, edf_response_bound,
                                         predict_admission)
from repro.schedulability.faultmodel import (AT_RISK, DEGRADED_GUARANTEED,
                                             GUARANTEED,
                                             NO_REROUTE_CAPACITY,
                                             NO_REROUTE_PATH,
                                             RETRY_BUDGET_EXHAUSTED,
                                             FaultAwareReport,
                                             FaultVerdict, RecoveryModel,
                                             analyze_problem_with_faults,
                                             analyze_with_faults)
from repro.schedulability.prefilter import (PREFILTERS, prefilter_verdict,
                                            register_prefilter)
from repro.schedulability.spec import (I_MIN_CHOICES, ChannelDemand,
                                       Problem, TopologySpec,
                                       adversarial_channel_demands,
                                       random_channel_demands)
from repro.schedulability.validate import (ChannelTightness,
                                           TightnessReport, drive, measure,
                                           slot_model, worst_case_arrivals,
                                           worst_case_sends)

__all__ = [
    "AT_RISK",
    "ChannelDemand",
    "ChannelTightness",
    "ChannelVerdict",
    "DEGRADED_GUARANTEED",
    "FaultAwareReport",
    "FaultVerdict",
    "GUARANTEED",
    "I_MIN_CHOICES",
    "LOAD_INDEPENDENT_REASONS",
    "NO_REROUTE_CAPACITY",
    "NO_REROUTE_PATH",
    "PREFILTERS",
    "Problem",
    "RETRY_BUDGET_EXHAUSTED",
    "RecoveryModel",
    "ScheduleReport",
    "TightnessReport",
    "TopologySpec",
    "adversarial_channel_demands",
    "analyze",
    "analyze_problem_with_faults",
    "analyze_with_faults",
    "drive",
    "edf_response_bound",
    "measure",
    "predict_admission",
    "prefilter_verdict",
    "random_channel_demands",
    "register_prefilter",
    "slot_model",
    "worst_case_arrivals",
    "worst_case_sends",
]
