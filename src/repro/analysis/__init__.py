"""Analytical results of the real-time channel model (paper section 2, 4.3).

The per-hop buffer formula and the admission test live in
:mod:`repro.channels.admission` (``buffer_bound``,
``AdmissionController``); this package holds the min-plus curve algebra
and the clock-rollover arithmetic.
"""

from repro.analysis.netcalc import (
    ArrivalCurve,
    ServiceCurve,
    TokenBucket,
    backlog_bound,
    channel_delay_bound,
    delay_bound,
    residual_service,
)
from repro.analysis.rollover import (
    RolloverWindow,
    classify,
    is_safe,
    live_window,
    required_clock_bits,
)

__all__ = [
    "ArrivalCurve",
    "RolloverWindow",
    "ServiceCurve",
    "TokenBucket",
    "backlog_bound",
    "channel_delay_bound",
    "classify",
    "delay_bound",
    "is_safe",
    "live_window",
    "required_clock_bits",
    "residual_service",
]
