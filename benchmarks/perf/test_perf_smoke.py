"""Smoke checks of the benchmark harness.

Run explicitly with ``PYTHONPATH=src python -m pytest benchmarks/perf``;
tier-1's ``testpaths`` do not collect this file.  Three smoke runs of the
whole command (about fifteen seconds each) back every assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import run as harness  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(seed: int) -> tuple[dict, dict]:
    """One ``--smoke`` run of every workload: (ledger, spans by workload)."""
    subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                    "--seed", str(seed)], check=True,
                   capture_output=True, timeout=120)
    ledger = json.loads((harness.OUT / "ledger.json").read_text())
    spans = {name: json.loads(
        (harness.OUT / f"spans-{name}.json").read_text())
        for name in metrics.WORKLOADS}
    return ledger, spans


@pytest.fixture(scope="module")
def runs():
    first, spans = smoke_run(1)
    again, _ = smoke_run(1)
    other, _ = smoke_run(2)
    return first, again, other, spans


def contract_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        check=True, capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert BENCHMARK["run_seconds"] == harness.DEFAULT_SECONDS
    assert ([w["name"] for w in BENCHMARK["workloads"]]
            == list(metrics.WORKLOADS))
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]} == metrics.HOST_METRICS
    assert ([m["name"] for m in BENCHMARK["per_layer"]]
            == harness.per_layer_names())
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == harness.per_layer_unit(metric["name"])


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_contract_lines_carry_every_name_with_its_unit(workload):
    for trace, listed in ((0, BENCHMARK["end_to_end"]),
                          (1, BENCHMARK["per_layer"])):
        result = contract_run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert ({name: entry["unit"]
                 for name, entry in result["metrics"].items()}
                == {m["name"]: m["unit"] for m in listed})


def test_sim_metrics_only_on_their_workloads(runs):
    ledger = runs[0]
    for metric, (unit, _, workloads) in metrics.SIM_METRICS.items():
        for name, record in ledger["workloads"].items():
            entry = record["end_to_end"].get(metric)
            if name in workloads:
                assert entry is not None and entry["unit"] == unit
            else:
                assert entry is None


def test_sim_results_repeat_for_a_seed_and_differ_across_seeds(runs):
    first, again, other, _ = runs
    for name in metrics.WORKLOADS:
        a, b, c = (ledger["workloads"][name]
                   for ledger in (first, again, other))
        assert a["exact"] == b["exact"]
        assert (a["attempted"], a["failed"]) == (b["attempted"],
                                                 b["failed"])
        assert a["exact"]["sim_signature"] != c["exact"]["sim_signature"]


def test_span_trees_are_well_formed(runs):
    for name, traced in runs[3].items():
        spans = traced["spans"]
        assert traced["spans_dropped"] == 0
        for span in spans:
            assert span["self_s"] >= 0 and span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]
        boundaries = traced["boundaries"]
        assert set(tracing.boundary_names()) <= set(boundaries)
        assert all(stat["self_s"] >= 0 for stat in boundaries.values())
        # Self times partition the instance: nothing counted twice or lost.
        total = sum(stat["self_s"] for stat in boundaries.values())
        assert total == pytest.approx(traced["instance_s"], rel=0.05)
        drive = sum(stat["drive_self_s"] for key, stat in boundaries.items()
                    if key != tracing.BUILD)
        assert drive == pytest.approx(traced["drive_s"], rel=0.05)


def test_bypassed_layers_report_zero_calls(runs):
    layers = {name: record["per_layer"]
              for name, record in runs[0]["workloads"].items()}
    assert layers["wormhole_be"][
        "core.comparator_tree.select_for_port.calls"] == 0
    for name in ("dense_tc", "wormhole_be", "sparse_churn"):
        assert all(value == 0 for metric, value in layers[name].items()
                   if metric.startswith("faults.")
                   and metric.endswith(".calls"))
    assert layers["chaos_faults"]["faults.watchdog.step.calls"] > 0
    assert layers["sparse_churn"]["service.controller.submit.calls"] > 0


def test_wrapped_attributes_are_restored():
    def current():
        return [vars(owner)[attribute]
                for _, owner, attribute, _ in tracing.BOUNDARIES]

    before = current()
    add_wiring = tracing.SynchronousEngine.add_wiring
    with tracing.Tracer().instance():
        assert all(now is not was
                   for now, was in zip(current(), before))
    assert all(now is was for now, was in zip(current(), before))
    assert tracing.SynchronousEngine.add_wiring is add_wiring


def test_compare_flags_regressions(runs):
    first, again, _, _ = runs
    _, failed = harness.compare.compare(first, first)
    assert not failed
    slower = json.loads(json.dumps(again))
    entry = slower["workloads"]["dense_tc"]["end_to_end"][
        "router_cycles_per_s"]
    for key in ("median", "q1", "q3", "min"):
        entry[key] = first["workloads"]["dense_tc"]["end_to_end"][
            "router_cycles_per_s"][key] / 2
    entry["samples"] = [value / 2 for value in first["workloads"][
        "dense_tc"]["end_to_end"]["router_cycles_per_s"]["samples"]]
    rows, failed = harness.compare.compare(first, slower)
    assert failed
    assert any("dense_tc router_cycles_per_s" in row
               and row.endswith("regressed") for row in rows)
