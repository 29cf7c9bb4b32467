"""The repo benchmark's own instances, checked against the guarantee.

The demand placements and the fault plan come read-only from
``benchmarks/perf/workloads.py`` (the frozen benchmark definition), so
these tests run exactly what the benchmark runs.  One pins the
benchmark's known failure as a strict xfail: the fix has to flip it.
"""

import pathlib
import runpy

import pytest

import repro.faults
from repro.faults import install_fault_tolerance
from repro.schedulability import (
    TopologySpec,
    analyze,
    measure,
    slot_model,
    worst_case_arrivals,
)

WORKLOADS = runpy.run_path(str(
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "perf" / "workloads.py"))
SIZES = WORKLOADS["SIZES"]
placed_demands = WORKLOADS["placed_demands"]
targeted_plan = WORKLOADS["targeted_plan"]


def instance(name, seed):
    size = SIZES[name]["bench"]
    demands = placed_demands(name, seed, size["width"], size["height"],
                             size["offered"])
    return TopologySpec(size["width"], size["height"]), demands, size


def test_slot_model_meets_every_deadline_on_dense_tc():
    """Admission is right for the slot model: every admitted set of
    ``dense_tc`` meets every deadline there under the adversarial
    arrivals the chip is driven with."""
    for seed in range(1, 21):
        topology, demands, size = instance("dense_tc", seed)
        report = analyze(topology, demands)
        sim = slot_model(report, worst_case_arrivals(report, size["ticks"]))
        sim.run_until_drained()
        assert len(sim.channels) == report.admitted > 0
        assert sim.deadline_misses() == 0, f"seed {seed}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the host injection port is a shared serial resource admission "
    "does not charge: rand-155 misses 4 deadlines"))
def test_dense_tc_chip_meets_every_deadline():
    topology, demands, size = instance("dense_tc", 1)
    __, report = measure(topology, demands, ticks=size["ticks"])
    assert report.total_misses == 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_faults_delivers_everything(seed, monkeypatch):
    """Every message sent is delivered, and nothing is still owed.
    Lateness is not asserted: whether a degraded delivery is judged
    against the envelope or the fault-free deadline is still open."""
    installed = []

    def install(net):
        installed.append(install_fault_tolerance(net))
        return installed[-1]

    monkeypatch.setattr(repro.faults, "install_fault_tolerance", install)
    topology, demands, size = instance("chaos_faults", seed)
    plan = targeted_plan(seed, topology, demands)
    __, report = measure(topology, demands, plan, ticks=size["ticks"])
    assert sum(entry.undelivered for entry in report.channels
               if entry.gated) == 0
    (tolerance,) = installed
    assert tolerance.controller.pending_retransmits == 0
    assert tolerance.controller.pending_be_retries == 0
