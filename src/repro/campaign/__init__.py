"""Campaign layer: sharded simulation sweeps over worker pools.

The paper's evaluation is a grid of router configurations; this
package turns "run the grid" into one declarative, resumable job:

* :mod:`repro.campaign.spec` — :class:`RunConfig` /
  :class:`CampaignSpec`: frozen JSON-serialisable run descriptions
  with stable content hashes, grid/zip/list sweep expansion, and
  deterministic seed derivation (:func:`derive_seed`).
* :mod:`repro.campaign.workloads` — the executable workloads
  (``random``, ``adversarial``, ``chaos``, ``churn``), registerable
  by name.
* :mod:`repro.campaign.cache` — :class:`ResultCache`: atomic,
  content-addressed JSONL result shards; interrupted campaigns resume
  from whatever finished.
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`: per-run
  worker processes with timeouts, bounded retry with exponential
  backoff, and quarantine for poisoned configs.
* :mod:`repro.campaign.aggregate` — per-class summary tables with
  campaign-wide latency percentiles from merged histograms.

Quickstart::

    from repro.campaign import (CampaignRunner, CampaignSpec,
                                ResultCache)

    spec = CampaignSpec(
        name="admission-region", master_seed=42, mode="grid",
        base={"workload": "random", "width": 4, "height": 4,
              "ticks": 200},
        axes={"channels": [4, 8, 16], "replica": [0, 1, 2]},
    )
    report = CampaignRunner(spec, ResultCache("sweep.cache"),
                            workers=4).run()
    print("\\n".join(report.summary_lines()))
"""

from repro.campaign.aggregate import (
    campaign_signature,
    delivery_table,
    fault_table,
    fault_totals,
    merged_latency,
    summary_lines,
    tightness_summary,
    tightness_table,
)
from repro.campaign.cache import ResultCache
from repro.campaign.runner import (
    CampaignReport,
    CampaignRunner,
    QuarantinedRun,
)
from repro.campaign.spec import (
    CampaignSpec,
    RunConfig,
    canonical_dumps,
    derive_seed,
)
from repro.campaign.worker import execute_run, run_and_store
from repro.campaign.workloads import (
    WORKLOADS,
    build_random_workload,
    register_workload,
)

__all__ = [
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "QuarantinedRun",
    "ResultCache",
    "RunConfig",
    "WORKLOADS",
    "build_random_workload",
    "campaign_signature",
    "canonical_dumps",
    "delivery_table",
    "derive_seed",
    "execute_run",
    "fault_table",
    "fault_totals",
    "merged_latency",
    "register_workload",
    "run_and_store",
    "summary_lines",
    "tightness_summary",
    "tightness_table",
]
