"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload is a function ``execute(seed, size, mark)`` that generates
its inputs from the seed, builds the network (the *build* region), calls
``mark()`` at the first simulated cycle, runs to drained (the *drive*
region) and returns a :class:`Run`; ``reduce(run)`` then turns the run
into an :class:`Outcome` outside the timed regions.

Seeds are *stratified*: the demand profile of a workload (how many flows,
their hop counts, periods, sizes, arrival ticks) comes from the library's
generators under a fixed ``PROFILE_SEED``; ``--seed`` redraws only the
*placement* (which nodes) and, on ``chaos_faults``, the fault plan.  The
benchmark contract measures the spread of every end-to-end metric across
seeds and refuses one wider than the metric's bound; with i.i.d. inputs
per seed the affordable instance sizes (about three seconds of drive)
put that spread at 10-60 %, because total work then swings with the
seed.  Fixing the profile keeps total work near constant while every
seed still gives a different contention pattern.
"""

from __future__ import annotations

import hashlib
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

import repro.schedulability.validate as validate
from repro.campaign.spec import canonical_dumps, derive_seed
from repro.core.ports import RECEPTION
from repro.faults.plan import CUT, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork
from repro.network.topology import Mesh
from repro.schedulability.engine import analyze
from repro.schedulability.faultmodel import DEGRADED_GUARANTEED
from repro.schedulability.spec import TopologySpec, random_channel_demands
from repro.service.session import ServiceRunConfig, ServiceSession
from repro.traffic.trace import TraceEvent, TrafficTrace, replay_trace

#: Seed of every workload's demand profile (see module docstring).
PROFILE_SEED = 1

#: Datagram payload sizes of ``wormhole_be`` (bytes), drawn uniformly.
BE_PAYLOADS = (16, 36, 76, 156)

#: ``horizon`` is the simulated window of one instance in cycles: past
#: the drain the fabric idles (fast-forwarded, near free) up to it, so
#: ``router_cycles_per_s`` has the same numerator for every seed.  When a
#: drain ends, its length is set by the one slowest packet (a maximum,
#: which swings by 2x with the seed on ``chaos_faults``), while the work
#: done — the denominator — is a sum over all of them and steady.
SIZES = {
    "dense_tc": {
        "bench": dict(width=6, height=6, offered=200, ticks=24,
                      horizon=5_000),
        "smoke": dict(width=4, height=4, offered=48, ticks=8,
                      horizon=2_000),
    },
    "wormhole_be": {
        "bench": dict(width=8, height=8, ticks=88, per_tick=2.5,
                      horizon=4_000),
        "smoke": dict(width=4, height=4, ticks=12, per_tick=2.5,
                      horizon=2_400),
    },
    "sparse_churn": {
        "bench": dict(width=16, height=16, requests=10,
                      arrival_period_ticks=48, hold_ticks=20,
                      horizon=24_000),
        "smoke": dict(width=6, height=6, requests=4,
                      arrival_period_ticks=12, hold_ticks=6,
                      horizon=4_400),
    },
    "chaos_faults": {
        "bench": dict(width=6, height=6, offered=40, ticks=40,
                      horizon=8_000),
        "smoke": dict(width=4, height=4, offered=8, ticks=12,
                      horizon=6_000),
    },
}


@dataclass
class Run:
    """What one executed instance hands to :func:`reduce`."""

    workload: str
    net: MeshNetwork
    report: object = None          # Tightness / ChaosTightness / SLO report
    sent: int = 0                  # messages or datagrams offered
    ticks: int = 0                 # driving window (tightness workloads)


@dataclass
class Outcome:
    """One instance reduced to the numbers the ledger keeps."""

    router_cycles: int
    attempted: int
    failed: int
    failures: dict
    sim: dict                      # sim end-to-end metrics of this workload
    counters: dict                 # the exact per-layer counters
    signature: str
    hard_errors: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Seeded placement
# ---------------------------------------------------------------------------

def place(rng: random.Random, mesh: Mesh, hops: int):
    """A seeded (source, destination) pair exactly ``hops`` links apart."""
    while True:
        source = (rng.randrange(mesh.width), rng.randrange(mesh.height))
        dx = rng.randint(max(0, hops - (mesh.height - 1)),
                         min(hops, mesh.width - 1))
        dy = hops - dx
        targets = sorted({(source[0] + sx * dx, source[1] + sy * dy)
                          for sx in (1, -1) for sy in (1, -1)})
        targets = [node for node in targets if mesh.contains(node)]
        if targets:
            return source, rng.choice(targets)


def placed_demands(name: str, seed: int, width: int, height: int,
                   offered: int):
    """The profile's channel demands, endpoints redrawn from ``seed``."""
    rng = random.Random(derive_seed(seed, "perf", name, "placement"))
    mesh = Mesh(width, height)
    demands = []
    for demand in random_channel_demands(width, height, offered,
                                         PROFILE_SEED):
        hops = mesh.hop_distance(demand.source, demand.destinations[0])
        source, destination = place(rng, mesh, hops)
        demands.append(replace(demand, source=source,
                               destinations=(destination,)))
    return demands


@dataclass(frozen=True)
class PlacedChurnConfig(ServiceRunConfig):
    """A service run whose churn profile is fixed and placement seeded.

    ``seed`` (the profile seed) still shapes arrivals, classes, periods
    and holding times; ``placement_seed`` redraws each request's
    endpoints at its profile hop distance.
    """

    placement_seed: int = 0

    def churn_workload(self):
        workload = super().churn_workload()
        rng = random.Random(derive_seed(self.placement_seed, "perf",
                                        "sparse_churn", "placement"))
        mesh = Mesh(self.width, self.height)
        placed = []
        for request in workload.requests:
            source, destination = place(
                rng, mesh,
                mesh.hop_distance(request.source, request.destination))
            placed.append(replace(request, source=source,
                                  destination=destination))
        workload.requests = placed
        return workload


# ---------------------------------------------------------------------------
# Executing one instance
# ---------------------------------------------------------------------------

@contextmanager
def drive_marked(attribute: str, mark: Callable[[], None]):
    """Mark the build/drive boundary inside a predict-then-measure call.

    ``measure_tightness`` and ``measure_chaos_tightness`` build and drive
    in one call; the first simulated cycle is their call to the public
    ``drive_worst_case`` / ``drive_chaos``.  For the duration of one
    instance that module attribute is replaced by a shim that calls
    ``mark()`` and then the real function (one call per instance, so it
    costs the end-to-end numbers nothing).
    """
    original = getattr(validate, attribute)

    def shim(*args, **kwargs):
        mark()
        return original(*args, **kwargs)

    setattr(validate, attribute, shim)
    try:
        yield
    finally:
        setattr(validate, attribute, original)


def idle_to_horizon(net: MeshNetwork, size: dict) -> None:
    """Let the drained fabric idle up to the instance's fixed horizon."""
    net.run(max(0, size["horizon"] - net.cycle))


def execute_dense_tc(seed: int, size: dict, mark) -> Run:
    demands = placed_demands("dense_tc", seed, size["width"],
                             size["height"], size["offered"])
    with drive_marked("drive_worst_case", mark):
        net, report = validate.measure_tightness(
            TopologySpec(size["width"], size["height"]), demands,
            ticks=size["ticks"], engine="event")
    idle_to_horizon(net, size)
    return Run("dense_tc", net, report, ticks=size["ticks"])


def execute_wormhole_be(seed: int, size: dict, mark) -> Run:
    rng = random.Random(derive_seed(seed, "perf", "wormhole_be",
                                    "placement"))
    profile = random.Random(derive_seed(PROFILE_SEED, "perf",
                                        "wormhole_be", "profile"))
    mesh = Mesh(size["width"], size["height"])
    nodes = list(mesh.nodes())
    trace = TrafficTrace()
    owed = 0.0
    for tick in range(size["ticks"]):
        owed += size["per_tick"]
        while owed >= 1.0:
            owed -= 1.0
            # Hop count of a uniform random pair, from the profile stream.
            source, destination = place(
                rng, mesh, mesh.hop_distance(*profile.sample(nodes, 2)))
            trace.events.append(TraceEvent(
                tick=tick, kind="datagram", source=source,
                destination=destination,
                payload_bytes=profile.choice(BE_PAYLOADS)))
    net = MeshNetwork(size["width"], size["height"], engine="event")
    mark()
    replay_trace(net, trace)
    idle_to_horizon(net, size)
    return Run("wormhole_be", net, sent=len(trace.events))


def execute_sparse_churn(seed: int, size: dict, mark) -> Run:
    config = {key: value for key, value in size.items()
              if key != "horizon"}
    session = ServiceSession(PlacedChurnConfig(
        seed=PROFILE_SEED, placement_seed=seed, be_fraction_pct=25,
        engine="event", **config))
    mark()
    report = session.run()
    idle_to_horizon(session.network, size)
    return Run("sparse_churn", session.network, report)


#: Fault kinds of one ``chaos_faults`` plan, in targeting order.
CHAOS_FAULTS = ("cut", "cut", "flap", "corrupt", "drop", "drop")


def targeted_plan(seed: int, topology: TopologySpec, demands) -> FaultPlan:
    """Two cuts, a flap, a corruption and two drops on used links.

    Each fault lands on a seeded link of the route of one of the
    longest-routed admitted channels (distinct links, like
    ``FaultPlan.random``).  Those channels' periods and deadlines come
    from the profile, so the recovery work a fault causes — retransmit
    timers scale with the deadline — is alike for every seed, and every
    fault is certain to exercise detection and recovery
    (``FaultPlan.random`` often cuts links no channel uses).

    Faults strike before the first byte can reach a mesh link (a packet
    needs 20 cycles to enter its source router).  A link cut while a
    time-constrained packet is crossing it leaves a partial frame in the
    downstream router that nothing ever flushes; the router then never
    reports idle and the drain spins for its whole two-million-cycle
    budget (about three minutes).  With ``FaultPlan.random`` striking
    inside the driving window that happened on 2 of 20 seeds at the seed
    commit.
    """
    rng = random.Random(derive_seed(seed, "perf", "chaos_faults", "plan"))
    routed = sorted((verdict for verdict
                     in analyze(topology, demands).channels
                     if verdict.feasible),
                    key=lambda verdict: -len(verdict.hops))
    used: set = set()
    events = []
    for kind, verdict in zip(CHAOS_FAULTS, routed):
        links = [hop for hop in verdict.hops
                 if hop[1] != RECEPTION and hop not in used]
        if not links:
            continue        # a short route whose links are all taken
        node, direction = rng.choice(links)
        used.add((node, direction))
        cycle = rng.randrange(1, 16)
        if kind == "flap":
            events.append(FaultEvent(cycle, CUT, node, direction))
            events.append(FaultEvent(cycle + rng.randrange(40, 160),
                                     REPAIR, node, direction))
        elif kind == "cut":
            events.append(FaultEvent(cycle, CUT, node, direction))
        else:
            budget = 3 if kind == "corrupt" else 2
            events.append(FaultEvent(cycle, kind, node, direction,
                                     amount=rng.randrange(1, budget + 1)))
    return FaultPlan(events=events, seed=seed)


def execute_chaos_faults(seed: int, size: dict, mark) -> Run:
    demands = placed_demands("chaos_faults", seed, size["width"],
                             size["height"], size["offered"])
    topology = TopologySpec(size["width"], size["height"])
    plan = targeted_plan(seed, topology, demands)
    with drive_marked("drive_chaos", mark):
        net, report = validate.measure_chaos_tightness(
            topology, demands, plan, ticks=size["ticks"], engine="event")
    idle_to_horizon(net, size)
    return Run("chaos_faults", net, report, ticks=size["ticks"])


EXECUTE = {
    "dense_tc": execute_dense_tc,
    "wormhole_be": execute_wormhole_be,
    "sparse_churn": execute_sparse_churn,
    "chaos_faults": execute_chaos_faults,
}


# ---------------------------------------------------------------------------
# Reducing a finished instance
# ---------------------------------------------------------------------------

def _percentile(ordered: list, share: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _messages_sent(i_min: int, b_max: int, ticks: int) -> int:
    """Sends of one channel under ``drive_worst_case`` / ``drive_chaos``."""
    if ticks < 1:
        return 0
    return b_max + sum(1 for tick in range(1, ticks)
                       if tick % i_min == 0)


def exact_counters(run: Run) -> dict:
    """The exact per-layer counters, read from public attributes.

    The admission and service counters live in each workload's report;
    its reducer fills them in.
    """
    net = run.net
    engine = net.engine
    routers = list(net.routers.values())
    faults = net.fault_counters()
    return {
        "network.engine.cycles_stepped": engine.cycles_stepped,
        "network.engine.cycles_fast_forwarded":
            engine.cycles_fast_forwarded,
        "network.engine.executed_share":
            engine.cycles_stepped / max(1, engine.cycle),
        "core.comparator_tree.keys_computed":
            sum(r.tree.keys_computed for r in routers),
        "core.comparator_tree.keys_reused":
            sum(r.tree.keys_reused for r in routers),
        "core.comparator_tree.evaluations":
            sum(r.tree.evaluations for r in routers),
        "core.packet_memory.bus_busy_cycles":
            sum(r.bus.busy_cycles for r in routers),
        "core.packet_memory.peak_occupancy":
            max(r.memory.peak_occupancy for r in routers),
        "core.router.tc_transmitted":
            sum(r.tc_transmitted for r in routers),
        "core.router.be_worms_routed":
            sum(r.be_worms_routed for r in routers),
        "network.stats.tc_delivered": net.log.tc_delivered,
        "network.stats.be_delivered": net.log.be_delivered,
        "channels.admission.rejects": 0,
        "faults.links_detected": faults.links_detected,
        "faults.channels_rerouted": faults.channels_rerouted,
        "faults.tc_retransmitted": faults.tc_retransmitted,
        "faults.retransmit_recovered": faults.retransmit_recovered,
        "faults.tc_unroutable": faults.tc_unroutable,
        "service.queued_total": 0,
        "service.retries_total": 0,
    }


def sim_signature(run: Run) -> str:
    """SHA-256 over everything simulated that must repeat exactly."""
    net = run.net
    records = [
        [r.traffic_class, r.source, r.destination, r.injected_cycle,
         r.delivered_cycle, r.connection_label, r.sequence,
         r.absolute_deadline, r.deadline_met, r.delivered_node,
         r.duplicate]
        for r in net.log.records
    ]
    payload = {
        "records": records,
        "engine": [net.engine.cycle, net.engine.cycles_stepped,
                   net.engine.cycles_fast_forwarded],
        "faults": net.fault_counters().as_dict(),
        "report": (run.report.signature()
                   if run.report is not None else None),
    }
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def _reduce_dense_tc(run: Run, outcome: Outcome) -> None:
    report = run.report
    verdicts = {verdict.label: verdict
                for verdict in report.prediction.channels}
    sent = delivered = 0
    unsafe = []
    gaps = []
    for entry in report.channels:
        verdict = verdicts[entry.label]
        sent += _messages_sent(verdict.i_min, verdict.b_max, run.ticks)
        delivered += entry.deliveries
        if entry.observed is not None and entry.observed <= entry.predicted:
            gaps.append(entry.gap)
        if not entry.safe or entry.misses:
            unsafe.append(entry.as_dict())
    late = report.total_misses
    duplicated = run.net.log.duplicate_deliveries
    dropped = sum(r.tc_dropped for r in run.net.routers.values())
    outcome.attempted = sent
    outcome.failed = (sent - delivered) + late + duplicated
    outcome.failures = {
        "lost": sent - delivered, "late": late, "duplicated": duplicated,
        "bound_violations": len(report.violations), "channels": unsafe,
    }
    if gaps:
        outcome.sim["bound_gap_max_ticks"] = max(gaps)
    outcome.counters["channels.admission.rejects"] = (
        report.prediction.rejected)
    outcome.hard_errors += [f"admission mismatch: {text}"
                            for text in report.mismatches]
    if sent != delivered + dropped:
        outcome.hard_errors.append(
            f"conservation broken: {sent} sent, {delivered} delivered, "
            f"{dropped} counted dropped")


def _reduce_wormhole_be(run: Run, outcome: Outcome) -> None:
    latencies = sorted(record.latency_cycles
                       for record in run.net.log.of_class("BE"))
    outcome.attempted = run.sent
    outcome.failed = abs(run.sent - len(latencies))
    outcome.failures = {"not_delivered_once": outcome.failed}
    if latencies:
        outcome.sim["be_latency_p50_cycles"] = _percentile(latencies, 0.50)
        outcome.sim["be_latency_p95_cycles"] = _percentile(latencies, 0.95)
        outcome.sim["be_latency_samples"] = len(latencies)


def _reduce_sparse_churn(run: Run, outcome: Outcome) -> None:
    report = run.report
    refused = report.rejected + report.demoted_setup
    outcome.attempted = (report.requests_total
                         + report.tc_delivered_guaranteed)
    outcome.failed = refused + report.tc_misses_guaranteed
    outcome.counters.update({
        "channels.admission.rejects":
            sum(report.admission_reject_reasons.values()),
        "service.queued_total": report.queued_total,
        "service.retries_total": report.retries_total,
    })
    outcome.failures = {
        "requests_refused": refused,
        "reject_reasons": dict(report.reject_reasons),
        "guaranteed_misses": report.tc_misses_guaranteed,
    }


def _reduce_chaos_faults(run: Run, outcome: Outcome) -> None:
    report = run.report
    gated = [entry for entry in report.channels if entry.gated]
    violations = [entry for entry in gated
                  if entry.observed is not None
                  and entry.observed > entry.predicted]
    gaps = [entry.gap for entry in gated
            if entry.gap is not None and entry.gap >= 0]
    recovery = [entry.observed for entry in gated
                if entry.status == DEGRADED_GUARANTEED
                and entry.observed is not None]
    undelivered = sum(entry.undelivered for entry in gated)
    late = sum(entry.misses for entry in gated)
    outcome.attempted = sum(entry.deliveries + entry.undelivered
                            for entry in gated)
    outcome.failed = undelivered + late
    outcome.failures = {
        "undelivered": undelivered, "late": late,
        "bound_violations": len(violations),
        "channels": [entry.as_dict() for entry in gated
                     if not entry.safe],
    }
    if gaps:
        outcome.sim["bound_gap_max_ticks"] = max(gaps)
    if recovery:
        outcome.sim["recovery_latency_max_ticks"] = max(recovery)
    outcome.counters["channels.admission.rejects"] = (
        report.prediction.base.rejected)
    outcome.hard_errors += [f"admission mismatch: {text}"
                            for text in report.mismatches]


_REDUCE = {
    "dense_tc": _reduce_dense_tc,
    "wormhole_be": _reduce_wormhole_be,
    "sparse_churn": _reduce_sparse_churn,
    "chaos_faults": _reduce_chaos_faults,
}


def reduce(run: Run) -> Outcome:
    """Reduce a finished instance (outside every timed region)."""
    net = run.net
    outcome = Outcome(
        router_cycles=net.cycle * len(net.routers),
        attempted=0, failed=0, failures={}, sim={},
        counters=exact_counters(run), signature=sim_signature(run))
    _REDUCE[run.workload](run, outcome)
    return outcome
