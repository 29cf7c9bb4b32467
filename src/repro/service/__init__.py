"""Control-plane service layer: churn, overload, graceful degradation.

The paper splits the router into a hard-real-time data path and a
software control plane driven through the four-write control interface
(section 4.1).  This package models that control plane as a
*long-running service*: a seeded churn workload issues channel
setup/teardown requests continuously, a service controller decides
each one against occupancy thresholds (accept / reject / queue with
bounded retry / demote to best-effort), an overload manager sheds load
gracefully and recovers hysteretically, and the outcome is reduced to
an :class:`~repro.service.slo.SLOReport` with a stable signature.

Entry points:

* :func:`~repro.service.session.run_service` — run one configured
  service workload to completion.
* :class:`~repro.service.session.ServiceSession` — the service run as
  a workload of the one session driver
  (:class:`repro.checkpoint.Session`); ``ServiceSession.open`` resumes
  from a checkpoint store or starts fresh.
* the ``churn`` campaign workload (:mod:`repro.campaign.workloads`) —
  threshold sweeps over grids of
  :class:`~repro.service.session.ServiceRunConfig` parameters.
"""

from repro.service.controller import (
    COUNTER_NAMES,
    SETUP_LATENCY_BUCKETS,
    Flow,
    ServiceConfig,
    ServiceController,
)
from repro.service.overload import OverloadManager
from repro.service.session import (
    ServiceRunConfig,
    ServiceSession,
    run_service,
)
from repro.service.slo import SLOReport, build_slo_report
from repro.service.workload import ChannelRequest, ChurnWorkload

__all__ = [
    "COUNTER_NAMES",
    "ChannelRequest",
    "ChurnWorkload",
    "Flow",
    "OverloadManager",
    "SETUP_LATENCY_BUCKETS",
    "SLOReport",
    "ServiceConfig",
    "ServiceController",
    "ServiceRunConfig",
    "ServiceSession",
    "build_slo_report",
    "run_service",
]
