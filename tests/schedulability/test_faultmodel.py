"""Fault-aware schedulability: verdicts, envelopes, recovery model.

Covers the verdict taxonomy (guaranteed / degraded-guaranteed /
at-risk with structured reasons), the recovery envelope's composition,
and — critically — that every analytic constant is the one the
fault-tolerance implementation runs on (watchdog threshold, controller
backoff margin, retry limit), never a copy.
"""

import dataclasses

import pytest

from repro.faults import install_fault_tolerance
from repro.faults.recovery import RETRANSMIT_LIMIT, TC_MARGIN_TICKS
from repro.faults.plan import (
    BABBLE,
    CORRUPT,
    CUT,
    DROP,
    FaultEvent,
    FaultPlan,
)
from repro.network.network import MeshNetwork
from repro.schedulability import (
    AT_RISK,
    DEGRADED_GUARANTEED,
    GUARANTEED,
    NO_REROUTE_CAPACITY,
    NO_REROUTE_PATH,
    RETRY_BUDGET_EXHAUSTED,
    ChannelDemand,
    RecoveryModel,
    TopologySpec,
    analyze,
    analyze_problem_with_faults,
    analyze_with_faults,
    measure,
    random_channel_demands,
)
from repro.schedulability.spec import Problem


def one_cut_plan(node=(1, 1), direction=0, cycle=600):
    return FaultPlan(events=[
        FaultEvent(cycle=cycle, kind=CUT, node=node, direction=direction)])


class TestRecoveryModel:
    """Satellite: the envelope's constants come from the implementation."""

    def test_derive_matches_live_default_install(self):
        net = MeshNetwork(2, 2)
        tolerance = install_fault_tolerance(net)
        derived = RecoveryModel.derive(net.params)
        assert derived.miss_threshold == tolerance.watchdog.miss_threshold
        assert derived.tc_margin_ticks == TC_MARGIN_TICKS
        assert derived.retransmit_limit == RETRANSMIT_LIMIT
        assert derived.slot_cycles == net.params.slot_cycles

    def test_detection_latency_follows_threshold(self):
        base = RecoveryModel.derive()
        slower = dataclasses.replace(
            base, miss_threshold=base.miss_threshold * 10)
        assert base.detection_ticks >= 1
        assert slower.detection_ticks > base.detection_ticks

    def test_backoff_doubles_from_the_deadline(self):
        model = RecoveryModel.derive()
        period = 100 + model.tc_margin_ticks
        assert model.retry_fire_ticks(100, 0) == 0
        assert model.retry_fire_ticks(100, 1) == period
        assert model.retry_fire_ticks(100, 2) == 3 * period
        assert model.retry_fire_ticks(100, 3) == 7 * period

    def test_retries_to_cover_clears_the_detection_window(self):
        model = RecoveryModel.derive()
        retries = model.retries_to_cover(64, 32)
        assert 1 <= retries <= model.retransmit_limit + 1
        earliest = ((64 + model.tc_margin_ticks)
                    + (32 + model.tc_margin_ticks) * (2 ** retries - 2))
        assert earliest >= 64 + model.detection_ticks


class TestVerdictTaxonomy:
    def test_empty_plan_leaves_everything_guaranteed(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        report = analyze_with_faults(topology, demands, FaultPlan())
        assert report.ok
        assert report.counts() == {GUARANTEED: 4,
                                   DEGRADED_GUARANTEED: 0, AT_RISK: 0}
        for verdict in report.verdicts:
            assert not verdict.affected
            assert verdict.degraded_bound == verdict.fault_free_bound
            assert verdict.degradation == 0
        # A saturated 6x6 instance: with no plan, every admitted
        # channel's fault-aware bound is the one ``measure`` gates
        # without a plan: ``analyze``'s refined bound (Σd_j when
        # unrefined).
        topology = TopologySpec(6, 6)
        for seed in (1, 2, 3):
            demands = random_channel_demands(6, 6, 200, seed)
            report = analyze_with_faults(topology, demands, FaultPlan())
            gated = {verdict.label: (verdict.refined_bound
                                     or verdict.predicted_bound)
                     for verdict in analyze(topology, demands).channels
                     if verdict.feasible}
            assert len(report.verdicts) == len(gated) > 150
            for verdict in report.verdicts:
                assert (verdict.fault_free_bound == verdict.degraded_bound
                        == gated[verdict.label]), (seed, verdict.label)

    @pytest.mark.parametrize("engine", ["exact", "event"])
    @pytest.mark.parametrize("size", [(4, 4, 4, 1), (6, 6, 40, 1)])
    def test_empty_plan_measures_like_no_plan(self, size, engine):
        # A fault-free run is a chaos run with no plan: the empty plan
        # predicts, observes and gates every channel the same way.
        topology = TopologySpec(*size[:2])
        demands = random_channel_demands(*size)

        def outcome(report):
            return [(entry.predicted, entry.observed, entry.deliveries,
                     entry.misses, entry.safe) for entry in report.channels]

        __, bare = measure(topology, demands, ticks=100, engine=engine)
        net, empty = measure(topology, demands, FaultPlan(), ticks=100,
                             engine=engine)
        assert outcome(bare) == outcome(empty)
        assert len(bare.channels) == size[2]
        assert net.fault_counters().tc_retransmitted == 0

    def test_babble_never_degrades_a_tc_verdict(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        plan = FaultPlan(events=[
            FaultEvent(cycle=100 + 10 * shot, kind=BABBLE, node=(0, 0),
                       target=(3, 3), amount=8)
            for shot in range(4)])
        report = analyze_with_faults(topology, demands, plan)
        assert report.ok
        assert report.counts()[GUARANTEED] == 4

    BABBLE_PLAN = FaultPlan(events=[FaultEvent(
        cycle=100, kind=BABBLE, node=(0, 0), target=(2, 2), amount=8)])

    def test_a_babbler_on_a_torus_is_refused_where_the_plan_lands(self):
        # A babble is a best-effort packet and offset routing is
        # mesh-only: it used to die mid-run with NotImplementedError.
        from repro.faults import FaultInjector

        with pytest.raises(ValueError, match="mesh-only"):
            analyze_with_faults(TopologySpec(3, 3, torus=True), [],
                                self.BABBLE_PLAN)
        with pytest.raises(ValueError, match="mesh-only"):
            FaultInjector(MeshNetwork(3, 3, torus=True), self.BABBLE_PLAN)
        FaultInjector(MeshNetwork(3, 3), self.BABBLE_PLAN)  # a mesh: fine

    def test_torus_multicast_detour_crosses_wrap_links(self):
        demand = ChannelDemand(label="mc", source=(0, 0),
                               destinations=((3, 0), (0, 3)), i_min=10,
                               deadline=60)
        (verdict,) = analyze_with_faults(
            TopologySpec(4, 4, torus=True), [demand],
            one_cut_plan(node=(0, 0), direction=0)).verdicts
        assert verdict.status == DEGRADED_GUARANTEED
        assert verdict.detour_hops == [((0, 0), 1), ((0, 0), 3),
                                       ((3, 0), 4), ((0, 3), 4)]
        assert verdict.detour_bound < verdict.fault_free_bound

    def test_cut_degrades_crossed_channels_only(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        report = analyze_with_faults(topology, demands, one_cut_plan())
        affected = [v for v in report.verdicts if v.affected]
        assert len(affected) == 1
        verdict = affected[0]
        assert verdict.status == DEGRADED_GUARANTEED
        assert verdict.degraded_bound > verdict.fault_free_bound
        assert verdict.degradation > 0
        assert verdict.retries_needed >= 1
        assert verdict.detour_hops          # re-admitted on a detour
        assert verdict.detour_bound is not None
        # The envelope's accounting is part of the verdict.
        assert verdict.detail["lost"] >= 1
        assert verdict.detail["resends"] >= verdict.detail["lost"]
        assert report.ok                     # degraded still means bounded
        unaffected = [v for v in report.verdicts if not v.affected]
        assert all(v.status == GUARANTEED for v in unaffected)

    def test_corruption_budget_charges_failed_attempts(self):
        topology = TopologySpec(2, 2)
        demands = [ChannelDemand(label="c", source=(0, 0),
                                 destinations=((1, 0),), i_min=16,
                                 deadline=400)]
        plan = FaultPlan(events=[
            FaultEvent(cycle=100, kind=CORRUPT, node=(0, 0), direction=0,
                       amount=2)])
        report = analyze_with_faults(topology, demands, plan)
        verdict = report.verdicts[0]
        assert verdict.affected
        assert verdict.status in (GUARANTEED, DEGRADED_GUARANTEED)
        assert verdict.retries_needed == 2
        assert not verdict.detour_hops       # route itself survives

    def test_no_reroute_path(self):
        # Both links out of (0, 0) are cut: no surviving route exists,
        # so recovery would demote the channel to best-effort.
        topology = TopologySpec(2, 2)
        demands = [ChannelDemand(label="c", source=(0, 0),
                                 destinations=((1, 1),), i_min=16,
                                 deadline=100)]
        plan = FaultPlan(events=[
            FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=0),
            FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=2)])
        report = analyze_with_faults(topology, demands, plan)
        verdict = report.verdicts[0]
        assert verdict.status == AT_RISK
        assert verdict.reason == NO_REROUTE_PATH
        assert verdict.degraded_bound is None
        assert verdict.guaranteed_bound is None
        assert not report.ok
        assert report.at_risk == [verdict]

    def test_no_reroute_capacity(self):
        # The only detour shares a link two saturators fill completely,
        # so the surviving path exists but fails re-admission.
        topology = TopologySpec(2, 2)
        demands = [ChannelDemand(label="victim", source=(0, 0),
                                 destinations=((1, 0),), i_min=4,
                                 deadline=120)]
        demands += [ChannelDemand(label=f"sat-{k}", source=(0, 1),
                                  destinations=((1, 1),), i_min=4,
                                  deadline=80) for k in range(2)]
        plan = one_cut_plan(node=(0, 0), direction=0, cycle=100)
        report = analyze_with_faults(topology, demands, plan)
        verdict = report.verdict_for("victim")
        assert verdict.status == AT_RISK
        assert verdict.reason == NO_REROUTE_CAPACITY
        assert verdict.detail["rejection"]["reason"]
        assert not report.ok

    def test_reroute_frees_the_old_paths_connection_ids(self, monkeypatch):
        # Three ids per router, two channels over the cut link: the
        # second reroute needs the id the first one's old path held at
        # (0, 0).  The fault model keeps the ids a real network keeps.
        from repro.core import RouterParams
        from repro.schedulability import faultmodel

        params = RouterParams(connections=3)
        topology = TopologySpec(3, 3)
        demands = [ChannelDemand(label=f"c{k}", source=(0, 0),
                                 destinations=((2, 0),), i_min=16,
                                 deadline=400) for k in range(2)]
        plan = one_cut_plan(node=(0, 0), direction=0, cycle=100)
        managers = []
        establish = faultmodel._analyze_live

        def keep_manager(*args, **kwargs):
            report, manager = establish(*args, **kwargs)
            managers.append(manager)
            return report, manager

        monkeypatch.setattr(faultmodel, "_analyze_live", keep_manager)
        report = analyze_with_faults(topology, demands, plan,
                                     params=params)
        assert not report.at_risk
        assert {v.status for v in report.verdicts} <= {
            GUARANTEED, DEGRADED_GUARANTEED}
        assert all(v.detour_hops for v in report.verdicts)

        net = MeshNetwork(3, 3, params=params)
        for demand in demands:
            net.establish_channel(demand.source, demand.destinations,
                                  demand.spec(), deadline=demand.deadline,
                                  label=demand.label)
        net.fail_link((0, 0), 0)
        for demand in demands:
            net.recover_channel(net.manager.find(demand.label))
        [manager] = managers
        assert manager._used_ids == net.manager._used_ids
        assert any(len(ids) == 2 for ids in manager._used_ids.values())

    def test_retry_budget_exhausted(self):
        topology = TopologySpec(2, 2)
        demands = [ChannelDemand(label="c", source=(0, 0),
                                 destinations=((1, 0),), i_min=16,
                                 deadline=200)]
        limit = RecoveryModel.derive().retransmit_limit
        plan = FaultPlan(events=[
            FaultEvent(cycle=100, kind=DROP, node=(0, 0), direction=0,
                       amount=limit + 1)])
        report = analyze_with_faults(topology, demands, plan)
        verdict = report.verdicts[0]
        assert verdict.status == AT_RISK
        assert verdict.reason == RETRY_BUDGET_EXHAUSTED
        assert verdict.retries_needed == limit + 1
        assert verdict.detail["retransmit_limit"] == limit


class TestReport:
    def test_signature_is_deterministic(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        a = analyze_with_faults(topology, demands, one_cut_plan())
        b = analyze_with_faults(topology, demands, one_cut_plan())
        assert a.signature() == b.signature()
        assert a.plan_signature == one_cut_plan().signature()

    def test_problem_wrapper_matches_direct_call(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        direct = analyze_with_faults(topology, demands, one_cut_plan())
        wrapped = analyze_problem_with_faults(
            Problem(topology=topology, channels=list(demands)),
            one_cut_plan())
        assert direct.signature() == wrapped.signature()

    def test_verdict_for_unknown_label_raises(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        report = analyze_with_faults(topology, demands, FaultPlan())
        with pytest.raises(KeyError):
            report.verdict_for("nope")

    def test_rows_cover_every_admitted_channel(self):
        topology = TopologySpec(4, 4)
        demands = random_channel_demands(4, 4, 4, 1)
        report = analyze_with_faults(topology, demands, one_cut_plan())
        rows = report.verdict_rows()
        assert [row[0] for row in rows] == [v.label
                                            for v in report.verdicts]
        assert dict(report.summary_rows())["admitted channels"] == "4"
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["counts"][DEGRADED_GUARANTEED] == 1
        assert payload["recovery"]["detection_ticks"] >= 1
