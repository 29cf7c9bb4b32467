"""Control-plane overhead under churn: the service layer must be cheap.

Acceptance gate for the service subsystem (``repro.service``): pushing
a thousand channel-setup requests through one run — every headroom
projection, admission attempt, retry, teardown and overload-manager
tick — must cost at most 10% of the run's wall-clock time.  The
data-plane simulation stays the dominant cost; the control plane is
bookkeeping on top, exactly as the paper's hardware/software split
intends (§4.1).

The session separates the two itself: ``control_plane_seconds``
accumulates wall-clock time inside each tick's submit, advance and
due_sends calls (dispatching the due sends is data plane and not
counted) and never enters the deterministic state, so measuring it is
free of instrumentation bias in the simulated outcome.
"""

import time

from conftest import fmt_table

from repro.service import ServiceRunConfig, ServiceSession

#: At least a thousand setup requests (the issue's floor), dense
#: enough that flows genuinely overlap and teardowns interleave.
CONFIG = ServiceRunConfig(seed=3, requests=1000,
                          arrival_period_ticks=2, hold_ticks=80)

MAX_CONTROL_FRACTION = 0.10


def test_churn_control_plane_overhead_within_bound(report):
    """Gate: >=1000 setup requests, control plane <=10% of wall-clock,
    and the run still holds the guaranteed-traffic SLO."""
    session = ServiceSession(CONFIG)
    started = time.perf_counter()
    slo = session.run()
    total = time.perf_counter() - started
    control = session.control_plane_seconds
    fraction = control / total

    requests_per_second = slo.requests_total / total
    rows = [
        ["setup requests", slo.requests_total],
        ["simulated cycles", slo.cycles],
        ["accepted (TC/BE)", f"{slo.accepted_tc}/{slo.accepted_be}"],
        ["teardowns", slo.teardowns],
        ["guaranteed deadline misses", slo.tc_misses_guaranteed],
        ["wall-clock total (s)", f"{total:.2f}"],
        ["control plane (s)", f"{control:.2f}"],
        ["control-plane fraction", f"{fraction:.1%}"],
        ["setup requests / s", f"{requests_per_second:.0f}"],
    ]
    report("service_churn", fmt_table(["metric", "value"], rows))

    assert slo.requests_total >= 1000
    assert slo.teardowns > 0, "no churn actually happened"
    assert slo.tc_misses_guaranteed == 0
    assert fraction <= MAX_CONTROL_FRACTION, (
        f"control plane took {fraction:.1%} of wall-clock "
        f"(bound {MAX_CONTROL_FRACTION:.0%})")
