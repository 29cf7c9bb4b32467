"""The ``chaos-tightness`` campaign workload and its pre-filter.

One cell = analyse a random admitted set under a seed-derived fault
plan, replay the plan through a real chaos run, and gate observed
latency against the fault-aware envelope.  Cells whose plan leaves
channels at risk are skipped by the registered pre-filter — recorded
in the campaign report with the at-risk labels, never silent.
"""

from repro.campaign import CampaignRunner, CampaignSpec, ResultCache
from repro.campaign.spec import RunConfig
from repro.campaign.workloads import run_chaos_tightness
from repro.checkpoint import Execution
from repro.schedulability import prefilter_verdict

#: With seed 1 on a 4x4 mesh (5 channels, 100 ticks): one cut leaves
#: every channel bounded (one degraded); two cuts exhaust a retry
#: budget and the pre-filter skips the cell.
BOUNDED_CUTS, AT_RISK_CUTS = 1, 2


def spec(cuts):
    return CampaignSpec(
        name="chaos-tightness", mode="grid",
        base={"workload": "chaos-tightness", "width": 4, "height": 4,
              "channels": 5, "ticks": 100, "seed": 1,
              "flaps": 1, "corruptions": 1, "drops": 1},
        axes={"cuts": cuts},
    )


def config(cuts):
    return RunConfig(workload="chaos-tightness", channels=5, ticks=100,
                     seed=1, cuts=cuts, flaps=1, corruptions=1, drops=1)


class TestPrefilter:
    def test_bounded_cell_runs(self):
        assert prefilter_verdict(config(BOUNDED_CUTS)) is None

    def test_at_risk_cell_is_skipped_with_reasons(self):
        verdict = prefilter_verdict(config(AT_RISK_CUTS))
        assert verdict is not None
        assert verdict["reason"] == "fault plan leaves channels at risk"
        assert verdict["at_risk"]
        assert all(entry["reason"] for entry in verdict["at_risk"])
        assert verdict["plan_signature"]


class TestWorkload:
    def test_gate_holds_and_stats_are_deterministic(self):
        first = run_chaos_tightness(config(BOUNDED_CUTS), Execution())
        second = run_chaos_tightness(config(BOUNDED_CUTS), Execution())
        assert first == second
        assert first["workload"] == "chaos-tightness"
        assert first["channels_established"] == 5
        assert first["invariant_failures"] == 0
        assert first["deadline_misses_undegraded"] == 0
        assert first["degraded"], "the cut must degrade a channel"
        assert first["fault_tightness"]["ok"] is True
        assert first["faults_fired"] > 0


class TestRunnerIntegration:
    def test_skips_recorded_and_bounded_cells_executed(self, tmp_path):
        runner = CampaignRunner(
            spec([BOUNDED_CUTS, AT_RISK_CUTS]),
            ResultCache(tmp_path / "cache"), backoff_base=0.01)
        report = runner.run()
        assert len(report.results) == 1
        assert len(report.infeasible) == 1
        assert report.ok
        (verdict,) = report.infeasible.values()
        assert verdict["at_risk"]
        summary = "\n".join(report.summary_lines())
        assert "INFEASIBLE" in summary

    def test_prefilter_off_executes_the_at_risk_cell(self, tmp_path):
        runner = CampaignRunner(
            spec([AT_RISK_CUTS]), ResultCache(tmp_path / "cache"),
            backoff_base=0.01, prefilter=False)
        report = runner.run()
        assert not report.infeasible
        assert len(report.results) == 1
