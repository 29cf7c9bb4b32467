"""The benchmark's metric and counter tables (one source of truth).

``BENCHMARK.json`` lists the same names; ``test_perf_smoke.py`` checks
that the two agree.
"""

from __future__ import annotations

WORKLOADS = ("dense_tc", "wormhole_be", "sparse_churn", "chaos_faults")

#: Host end-to-end metrics, on every workload:
#: name -> (unit, better, regression bound as a share of the base).
#: The two timings have the widest bound the contract allows: on the
#: shared two-core host this was sized on, the medians of two unchanged
#: ten-run sets taken twelve minutes apart differed by 7-19 %, and single
#: runs of one workload spread by 3-13 % of their median.
HOST_METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "router_cycles_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: Sim end-to-end metrics: deterministic for a seed, compared by
#: equality, and emitted only on the workloads named (never as a filler
#: value elsewhere).  name -> (unit, better, workloads).
SIM_METRICS = {
    "bound_gap_max_ticks": ("ticks", "lower",
                            ("dense_tc", "chaos_faults")),
    "recovery_latency_max_ticks": ("ticks", "lower", ("chaos_faults",)),
    "be_latency_p50_cycles": ("cycles", "lower", ("wormhole_be",)),
    "be_latency_p95_cycles": ("cycles", "lower", ("wormhole_be",)),
}

#: Exact per-layer counters: name -> (unit, better).
COUNTERS = {
    "network.engine.cycles_stepped": ("cycles", "lower"),
    "network.engine.cycles_fast_forwarded": ("cycles", "higher"),
    "network.engine.executed_share": ("share", "lower"),
    "core.comparator_tree.keys_computed": ("count", "lower"),
    "core.comparator_tree.keys_reused": ("count", "higher"),
    "core.comparator_tree.evaluations": ("count", "lower"),
    "core.packet_memory.bus_busy_cycles": ("cycles", "lower"),
    "core.packet_memory.peak_occupancy": ("packets", "lower"),
    "core.router.tc_transmitted": ("packets", "higher"),
    "core.router.be_worms_routed": ("packets", "higher"),
    "network.stats.tc_delivered": ("packets", "higher"),
    "network.stats.be_delivered": ("packets", "higher"),
    "channels.admission.rejects": ("count", "lower"),
    "faults.links_detected": ("count", "higher"),
    "faults.channels_rerouted": ("count", "higher"),
    "faults.tc_retransmitted": ("packets", "lower"),
    "faults.retransmit_recovered": ("packets", "higher"),
    "faults.tc_unroutable": ("packets", "lower"),
    "service.queued_total": ("count", "lower"),
    "service.retries_total": ("count", "lower"),
}

#: Traced drive time over the untraced median drive time.
OVERHEAD_RATIO = "trace.overhead_ratio"
#: Share of the traced drive region spent inside no boundary.
UNATTRIBUTED_SHARE = "trace.unattributed_share"
TRACE_UNITS = {OVERHEAD_RATIO: "ratio", UNATTRIBUTED_SHARE: "share"}


def per_layer_unit(metric: str) -> str:
    """Unit of a per-layer metric: a counter, a trace ratio or a
    ``<boundary>.<stat>``."""
    if metric in COUNTERS:
        return COUNTERS[metric][0]
    if metric in TRACE_UNITS:
        return TRACE_UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"
