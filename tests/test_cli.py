"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from tests.traffic.test_trace import MALFORMED, write_trace


class TestDatasheet:
    def test_default(self, capsys):
        assert main(["datasheet"]) == 0
        out = capsys.readouterr().out
        assert "transistors" in out
        assert "905," in out

    def test_custom_slots(self, capsys):
        assert main(["datasheet", "--slots", "64"]) == 0
        out = capsys.readouterr().out
        assert "64" in out


class TestExperiments:
    def test_e1(self, capsys):
        assert main(["experiment", "e1"]) == 0
        out = capsys.readouterr().out
        assert "overhead" in out

    def test_a1(self, capsys):
        assert main(["experiment", "a1"]) == 0
        out = capsys.readouterr().out
        assert "horizon" in out

    def test_a3(self, capsys):
        assert main(["experiment", "a3"]) == 0
        out = capsys.readouterr().out
        assert "real-time" in out

    def test_f7(self, capsys):
        assert main(["experiment", "f7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "deadline misses: 0" in out

    def test_a4(self, capsys):
        assert main(["experiment", "a4"]) == 0
        out = capsys.readouterr().out
        assert "cut-through" in out

    def test_unknown_rejected(self, capsys):
        assert main(["experiment", "zz"]) != 0
        assert "invalid choice" in capsys.readouterr().err


class TestTraceCommands:
    def test_generate_and_replay(self, capsys, tmp_path):
        trace_path = tmp_path / "w.jsonl"
        assert main(["generate-trace", str(trace_path),
                     "--width", "2", "--height", "2",
                     "--channels", "2", "--ticks", "30",
                     "--seed", "4"]) == 0
        assert trace_path.exists()
        assert main(["replay", str(trace_path),
                     "--width", "2", "--height", "2"]) == 0
        out = capsys.readouterr().out
        assert "deadline misses" in out


class TestSimulate:
    def test_small_run(self, capsys, tmp_path):
        csv_path = tmp_path / "log.csv"
        code = main(["simulate", "--width", "2", "--height", "2",
                     "--channels", "2", "--ticks", "30",
                     "--seed", "3", "--csv", str(csv_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "deadline misses" in out
        assert csv_path.exists()

    def test_requires_command(self, capsys):
        assert main([]) != 0
        assert "usage" in capsys.readouterr().err


class TestRemovedSelectors:
    """``--engine``, ``--shards`` and the ``shards`` config field are
    gone; inputs that still carry them fail cleanly with exit status 2
    and never half-work."""

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--shards", "2"], "unrecognized arguments"),
        (["simulate", "--engine", "exact"], "unrecognized arguments"),
        (["chaos", "--shards", "2"], "unrecognized arguments"),
        (["service", "--engine", "event"], "unrecognized arguments"),
        (["analyze", "problem.json", "--engine", "exact"],
         "unrecognized arguments"),
        (["campaign", "SPEC"], "unknown RunConfig fields: ['shards']"),
    ], ids=["simulate-shards", "simulate-engine", "chaos-shards",
            "service-engine", "analyze-engine", "campaign-spec-shards"])
    def test_old_inputs_exit_two(self, capsys, tmp_path, argv, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "old", "master_seed": 3, "mode": "grid",
            "base": {"workload": "random", "width": 2, "height": 2,
                     "channels": 2, "ticks": 10, "shards": 2},
            "axes": {"replica": [0]}}))
        argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err


class TestErrorHandling:
    """Bad usage and unreadable inputs: stderr + exit status, never a
    traceback or an escaping SystemExit."""

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_replay_missing_file(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_replay_directory(self, capsys, tmp_path):
        assert main(["replay", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED)
    def test_replay_malformed_trace(self, capsys, tmp_path, line):
        path = write_trace(tmp_path / "t.jsonl", line)
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "t.jsonl:2:" in err
        assert "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "repro-router" in capsys.readouterr().out

    def test_bad_option_value(self, capsys):
        assert main(["simulate", "--width", "wide"]) == 2
        assert "invalid" in capsys.readouterr().err


class TestCheckpointCli:
    """Checkpoint/restore flags on ``simulate`` and ``chaos``: happy
    path resumes, a re-run into the same ``--checkpoint-dir`` resumes,
    every bad ``--resume-from`` input exits non-zero with a clear
    message, never a traceback."""

    SIM = ["simulate", "--width", "2", "--height", "2", "--channels",
           "2", "--ticks", "30", "--seed", "3"]

    def _checkpointed_run(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main([*self.SIM, "--checkpoint-dir", str(ckpt_dir),
                     "--checkpoint-interval", "200"]) == 0
        capsys.readouterr()
        ckpts = sorted(ckpt_dir.glob("ckpt-*.json"),
                       key=lambda p: int(p.name.split("-")[1]))
        assert ckpts, "run wrote no checkpoints"
        return ckpts

    def test_resume_from_checkpoint(self, capsys, tmp_path):
        ckpts = self._checkpointed_run(capsys, tmp_path)
        assert main([*self.SIM, "--resume-from", str(ckpts[0])]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint at cycle" in out
        assert "deadline misses" in out

    def test_check_invariants_flag(self, capsys):
        assert main([*self.SIM, "--check-invariants", "100"]) == 0
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATION" not in out

    def test_resume_missing_checkpoint(self, capsys, tmp_path):
        code = main([*self.SIM, "--resume-from",
                     str(tmp_path / "nope.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "not found" in err
        assert "Traceback" not in err

    def test_resume_corrupt_checkpoint(self, capsys, tmp_path):
        bad = tmp_path / "ckpt-100-feedbeefcafe.json"
        bad.write_text('{"format": 1, "cycle": 100, "stat')
        code = main([*self.SIM, "--resume-from", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "corrupt" in err
        assert "Traceback" not in err

    def test_resume_fingerprint_mismatch(self, capsys, tmp_path):
        ckpts = self._checkpointed_run(capsys, tmp_path)
        other_seed = [arg if arg != "3" else "4" for arg in self.SIM]
        code = main([*other_seed, "--resume-from", str(ckpts[0])])
        err = capsys.readouterr().err
        assert code == 2
        assert "fingerprint" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,summary", [
        (SIM, "deadline misses"),
        (["chaos", "--seed", "7", "--cycles", "600"], "signature:"),
    ], ids=["simulate", "chaos"])
    def test_rerun_into_same_dir_resumes(self, capsys, tmp_path, argv,
                                         summary):
        """One ``--checkpoint-dir`` meaning: after a crash, re-run the
        same command — it resumes from the directory's latest
        checkpoint and reports what the first run reported."""
        flags = ["--checkpoint-dir", str(tmp_path / "ckpts"),
                 "--checkpoint-interval", "200"]
        assert main([*argv, *flags]) == 0
        first = capsys.readouterr().out
        assert "resumed from checkpoint" not in first
        assert main([*argv, *flags]) == 0
        second = capsys.readouterr().out.splitlines()
        assert second[0].startswith("resumed from checkpoint at cycle ")
        assert summary in first
        assert second[1:] == first.splitlines()

    @pytest.mark.parametrize("argv", [
        SIM, ["chaos", "--seed", "3", "--cycles", "600"],
    ], ids=["simulate", "chaos"])
    def test_other_run_into_same_dir_is_refused(self, capsys, tmp_path,
                                                argv):
        flags = ["--checkpoint-dir", str(tmp_path / "ckpts"),
                 "--checkpoint-interval", "200"]
        assert main([*argv, *flags]) == 0
        before = sorted((tmp_path / "ckpts").iterdir())
        capsys.readouterr()
        other_seed = [arg if arg != "3" else "4" for arg in argv]
        assert main([*other_seed, *flags]) == 2
        err = capsys.readouterr().err
        assert "fingerprint" in err
        assert "Traceback" not in err
        assert sorted((tmp_path / "ckpts").iterdir()) == before

    def test_resume_wrong_workload_kind(self, capsys, tmp_path):
        ckpts = self._checkpointed_run(capsys, tmp_path)
        code = main(["chaos", "--resume-from", str(ckpts[0])])
        err = capsys.readouterr().err
        assert code == 2
        assert "'random'" in err
        assert "Traceback" not in err


class TestServiceCommand:
    """The ``service`` subcommand: happy path, SLO export, checkpoint
    resume, and every bad input exiting non-zero without a traceback."""

    SVC = ["service", "--width", "2", "--height", "2",
           "--requests", "12", "--hold-ticks", "40", "--seed", "5"]

    def test_small_run(self, capsys, tmp_path):
        report_path = tmp_path / "slo.jsonl"
        assert main([*self.SVC, "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "accept rate" in out
        assert "signature:" in out
        record = json.loads(report_path.read_text().splitlines()[-1])
        assert record["requests_total"] == 12
        assert record["ok"] is True

    def test_repeat_verifies_determinism(self, capsys):
        assert main([*self.SVC, "--repeat"]) == 0
        out = capsys.readouterr().out
        assert "repeat run identical" in out

    def test_checkpoint_and_resume(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main([*self.SVC, "--checkpoint-dir", str(ckpt_dir),
                     "--checkpoint-interval", "2000"]) == 0
        reference = capsys.readouterr().out
        ckpts = sorted(ckpt_dir.glob("ckpt-*.json"),
                       key=lambda p: int(p.name.split("-")[1]))
        assert ckpts, "run wrote no checkpoints"
        assert main([*self.SVC, "--resume-from", str(ckpts[0])]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from checkpoint at cycle" in resumed
        signature = [line for line in reference.splitlines()
                     if line.startswith("signature:")]
        assert signature[0] in resumed

    def test_unknown_workload(self, capsys):
        assert main(["service", "--workload", "avalanche"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'avalanche'" in err
        assert "Traceback" not in err

    def test_invalid_threshold(self, capsys):
        assert main([*self.SVC, "--util-threshold", "150"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "threshold" in err
        assert "Traceback" not in err

    def test_invalid_queue_limit(self, capsys):
        assert main([*self.SVC, "--queue-limit", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_report_path(self, capsys, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code = main([*self.SVC, "--report",
                     str(blocker / "slo.jsonl")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err


class TestObservabilityCommands:
    def test_trace_export(self, capsys, tmp_path):
        out_path = tmp_path / "events.jsonl"
        snap_path = tmp_path / "snaps.jsonl"
        assert main(["trace", str(out_path),
                     "--width", "2", "--height", "2",
                     "--channels", "2", "--ticks", "30", "--seed", "3",
                     "--snapshots", str(snap_path),
                     "--period", "200"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        events = [json.loads(line)
                  for line in out_path.read_text().splitlines()]
        assert events
        assert {"enqueue", "deliver"} <= {e["event"] for e in events}
        snaps = [json.loads(line)
                 for line in snap_path.read_text().splitlines()]
        assert snaps
        assert all(s["cycle"] % 200 == 0 for s in snaps)

    def test_metrics_report(self, capsys, tmp_path):
        json_path = tmp_path / "metrics.jsonl"
        assert main(["metrics", "--width", "2", "--height", "2",
                     "--channels", "2", "--ticks", "30", "--seed", "3",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "engine.cycles_stepped" in out
        assert "delivery.tc_delivered" in out
        snaps = [json.loads(line)
                 for line in json_path.read_text().splitlines()]
        assert snaps
        final = snaps[-1]
        assert final["engine.cycle"] == final["cycle"]


class TestCampaignCommand:
    def _spec_path(self, tmp_path):
        from repro.campaign import CampaignSpec
        spec = CampaignSpec(
            name="mini", master_seed=3, mode="grid",
            base={"workload": "random", "width": 2, "height": 2,
                  "channels": 2, "ticks": 10},
            axes={"replica": [0, 1]},
        )
        return spec.save(tmp_path / "spec.json")

    def test_run_then_resume_from_cache(self, capsys, tmp_path):
        spec_path = self._spec_path(tmp_path)
        assert main(["campaign", str(spec_path), "--quiet"]) == 0
        first = capsys.readouterr().out
        assert "runs: 2 total, 2 executed, 0 cached" in first
        assert (tmp_path / "mini.cache").is_dir()

        # Re-invocation resumes from the cache: zero simulations run.
        assert main(["campaign", str(spec_path), "--quiet"]) == 0
        second = capsys.readouterr().out
        assert "runs: 2 total, 0 executed, 2 cached" in second

        def signature(text):
            return [line for line in text.splitlines()
                    if line.startswith("signature: ")]
        assert signature(first) == signature(second)

    def test_rerun_flag_ignores_cache(self, capsys, tmp_path):
        spec_path = self._spec_path(tmp_path)
        assert main(["campaign", str(spec_path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", str(spec_path), "--quiet",
                     "--rerun"]) == 0
        assert "2 executed, 0 cached" in capsys.readouterr().out

    def test_summary_file(self, capsys, tmp_path):
        spec_path = self._spec_path(tmp_path)
        summary = tmp_path / "out" / "summary.txt"
        assert main(["campaign", str(spec_path), "--quiet",
                     "--summary", str(summary)]) == 0
        text = summary.read_text()
        assert "class" in text
        assert "signature: " in text

    def test_progress_lines_by_default(self, capsys, tmp_path):
        spec_path = self._spec_path(tmp_path)
        assert main(["campaign", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "[1/2] " in out
        assert "[2/2] " in out

    def test_missing_spec_is_an_error(self, capsys, tmp_path):
        assert main(["campaign", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_spec_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "mode": "shuffle"}\n')
        assert main(["campaign", str(bad)]) == 2
        assert "mode" in capsys.readouterr().err


class TestAnalyzeCommand:
    def _problem_path(self, tmp_path, channels=4, extra=None):
        from repro.schedulability import (
            Problem,
            TopologySpec,
            random_channel_demands,
        )

        demands = tuple(random_channel_demands(4, 4, channels, seed=1))
        if extra is not None:
            demands += tuple(extra)
        problem = Problem(topology=TopologySpec(4, 4), channels=demands)
        return problem.save(tmp_path / "problem.json")

    def test_feasible_problem_exits_zero(self, capsys, tmp_path):
        path = self._problem_path(tmp_path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "admissible" in out
        assert "signature: " in out
        assert "bottleneck" in out

    def test_infeasible_problem_exits_one(self, capsys, tmp_path):
        from repro.schedulability import ChannelDemand

        doomed = ChannelDemand(label="doomed", source=(0, 0),
                               destinations=((3, 3),), i_min=24,
                               deadline=2)
        path = self._problem_path(tmp_path, extra=[doomed])
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr().out
        assert "NO" in out

    def test_json_export(self, capsys, tmp_path):
        path = self._problem_path(tmp_path)
        out_path = tmp_path / "reports" / "verdict.json"
        assert main(["analyze", str(path),
                     "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["admitted"] == 4
        assert len(payload["channels"]) == 4
        assert "wrote " in capsys.readouterr().out

    def test_validate_prints_gap_table(self, capsys, tmp_path):
        path = self._problem_path(tmp_path)
        out_path = tmp_path / "verdict.json"
        assert main(["analyze", str(path), "--validate",
                     "--ticks", "60", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "observed" in out
        assert "MISMATCH" not in out
        assert "VIOLATED" not in out
        payload = json.loads(out_path.read_text())
        assert payload["tightness"]["ok"] is True

    def test_missing_problem_is_an_error(self, capsys, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "invalid problem JSON" in err

    def test_unknown_field_is_an_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"topology": {"width": 2, "height": 2},'
                       ' "channels": [], "bogus": 1}\n')
        assert main(["analyze", str(bad)]) == 2
        assert "unknown problem fields" in capsys.readouterr().err

    @pytest.mark.parametrize("torus", [False, True])
    def test_endpoint_outside_the_mesh_is_an_error(self, capsys, tmp_path,
                                                   torus):
        # Never a verdict: at the parent this printed "feasible yes".
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "topology": {"width": 4, "height": 4, "torus": torus},
            "channels": [{"label": "stray", "source": [0, 0],
                          "destinations": [[9, 9]], "i_min": 16,
                          "deadline": 400}]}))
        assert main(["analyze", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "'stray'" in captured.err and "(9, 9)" in captured.err
        assert "Traceback" not in captured.err
        assert "feasible" not in captured.out
        assert "stray" not in captured.out


class TestAnalyzeFaultPlan:
    """``analyze --fault-plan``: verdicts, chaos gating, exit codes."""

    def _problem_path(self, tmp_path, topology=None, demands=None):
        from repro.schedulability import (
            Problem,
            TopologySpec,
            random_channel_demands,
        )

        topology = topology or TopologySpec(4, 4)
        if demands is None:
            demands = tuple(random_channel_demands(4, 4, 4, seed=1))
        problem = Problem(topology=topology, channels=tuple(demands))
        return problem.save(tmp_path / "problem.json")

    def _plan_path(self, tmp_path, events):
        from repro.faults.plan import FaultPlan

        return FaultPlan(events=events).save(tmp_path / "plan.json")

    def test_degraded_but_guaranteed_exits_zero(self, capsys, tmp_path):
        from repro.faults.plan import CUT, FaultEvent

        problem = self._problem_path(tmp_path)
        plan = self._plan_path(tmp_path, [
            FaultEvent(cycle=600, kind=CUT, node=(1, 1), direction=0)])
        out_path = tmp_path / "verdict.json"
        assert main(["analyze", str(problem), "--fault-plan", str(plan),
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "fault plan: 1 events" in out
        assert "degraded-guaranteed" in out
        assert "AT RISK" not in out
        payload = json.loads(out_path.read_text())
        assert payload["faults"]["ok"] is True
        assert payload["faults"]["counts"]["degraded-guaranteed"] == 1

    def test_at_risk_exits_one(self, capsys, tmp_path):
        from repro.faults.plan import CUT, FaultEvent
        from repro.schedulability import ChannelDemand, TopologySpec

        demands = [ChannelDemand(label="c", source=(0, 0),
                                 destinations=((1, 1),), i_min=16,
                                 deadline=100)]
        problem = self._problem_path(tmp_path, TopologySpec(2, 2),
                                     demands)
        plan = self._plan_path(tmp_path, [
            FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=0),
            FaultEvent(cycle=100, kind=CUT, node=(0, 0), direction=2)])
        assert main(["analyze", str(problem),
                     "--fault-plan", str(plan)]) == 1
        out = capsys.readouterr().out
        assert "AT RISK: c (no-reroute-path)" in out

    def test_malformed_plan_exits_two(self, capsys, tmp_path):
        problem = self._problem_path(tmp_path)
        bad = tmp_path / "plan.json"
        bad.write_text("{nope")
        assert main(["analyze", str(problem),
                     "--fault-plan", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "invalid fault plan JSON" in err
        assert "Traceback" not in err

    def test_babbler_on_a_torus_exits_two(self, capsys, tmp_path):
        from repro.faults.plan import BABBLE, FaultEvent
        from repro.schedulability import TopologySpec

        problem = self._problem_path(tmp_path, TopologySpec(4, 4, torus=True))
        plan = self._plan_path(tmp_path, [FaultEvent(
            cycle=100, kind=BABBLE, node=(0, 0), target=(2, 2), amount=8)])
        assert main(["analyze", str(problem), "--fault-plan", str(plan),
                     "--validate"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "mesh-only" in err

    def test_missing_plan_exits_two(self, capsys, tmp_path):
        problem = self._problem_path(tmp_path)
        assert main(["analyze", str(problem), "--fault-plan",
                     str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_gates_the_chaos_run(self, capsys, tmp_path):
        from repro.faults.plan import CUT, FaultEvent

        problem = self._problem_path(tmp_path)
        plan = self._plan_path(tmp_path, [
            FaultEvent(cycle=600, kind=CUT, node=(1, 1), direction=0)])
        out_path = tmp_path / "verdict.json"
        assert main(["analyze", str(problem), "--fault-plan", str(plan),
                     "--validate", "--ticks", "120",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "observed" in out
        assert "BOUND VIOLATED" not in out
        assert "PREDICTION MISMATCH" not in out
        payload = json.loads(out_path.read_text())
        assert payload["fault_tightness"]["ok"] is True
        assert payload["fault_tightness"]["total_misses"] == 0


class TestChaosPlanFile:
    """``chaos --plan-file``: explicit plans replace seed-derived ones."""

    CHAOS = ["chaos", "--width", "4", "--height", "4",
             "--cycles", "6000", "--seed", "9"]

    def _plan_path(self, tmp_path):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.random(77, 4, 4, cuts=1, flaps=1, corruptions=1,
                                drops=0, babblers=1, window=(400, 3000))
        return plan.save(tmp_path / "plan.json")

    def test_plan_file_run_is_deterministic(self, capsys, tmp_path):
        plan = self._plan_path(tmp_path)
        assert main([*self.CHAOS, "--plan-file", str(plan),
                     "--repeat"]) == 0
        out = capsys.readouterr().out
        assert "repeat run identical" in out

    def test_plan_file_changes_the_run(self, capsys, tmp_path):
        assert main(self.CHAOS) == 0
        derived = capsys.readouterr().out
        plan = self._plan_path(tmp_path)
        assert main([*self.CHAOS, "--plan-file", str(plan)]) == 0
        replayed = capsys.readouterr().out
        sig = [line for line in derived.splitlines()
               if line.startswith("signature:")]
        assert sig and sig[0] not in replayed

    def test_malformed_plan_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text('{"events": 3}')
        assert main([*self.CHAOS, "--plan-file", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestServiceFaultPlan:
    """``service --fault-plan``: fault-aware intake screening."""

    SVC = ["service", "--requests", "40", "--seed", "1234"]

    def _plan_path(self, tmp_path, **kwargs):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.random(3, 4, 4, **kwargs)
        return plan.save(tmp_path / "plan.json")

    def test_benign_plan_rejects_nothing(self, capsys, tmp_path):
        plan = self._plan_path(tmp_path, cuts=1, flaps=0, corruptions=0,
                               drops=0, babblers=0,
                               window=(4000, 8000))
        report = tmp_path / "slo.jsonl"
        assert main([*self.SVC, "--fault-plan", str(plan),
                     "--report", str(report)]) == 0
        record = json.loads(report.read_text().splitlines()[-1])
        assert record["rejected"] == 0

    def test_harsh_plan_screens_at_risk_requests(self, capsys, tmp_path):
        plan = self._plan_path(tmp_path, cuts=6, flaps=1, corruptions=0,
                               drops=2, babblers=0, window=(40, 200))
        report = tmp_path / "slo.jsonl"
        assert main([*self.SVC, "--fault-plan", str(plan),
                     "--report", str(report)]) == 0
        record = json.loads(report.read_text().splitlines()[-1])
        assert record["rejected"] > 0
        assert any(reason.startswith("fault-at-risk-")
                   for reason in record["reject_reasons"])

    def test_malformed_plan_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "plan.json"
        bad.write_text("[]")
        assert main([*self.SVC, "--fault-plan", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
