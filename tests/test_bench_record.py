"""``scripts/bench_record.py``: two ledgers reduced to one BENCH record."""

import copy
import runpy

import pytest

reduce_pair = runpy.run_path("scripts/bench_record.py")["reduce_pair"]


def _ledger(commit, rate_samples, signature="abc"):
    ordered = sorted(rate_samples)
    return {
        "host": {"cores": 2, "python": "3.11", "platform": "linux",
                 "commit": commit},
        "seed": 1, "seconds": 16, "size": "bench",
        "workloads": {"sparse_churn": {
            "attempted": 21, "failed": 0,
            "exact": {"sim_signature": signature, "router_cycles": 6},
            "end_to_end": {
                "router_cycles_per_s": {
                    "kind": "host", "unit": "1/s", "better": "higher",
                    "bound": 0.25, "median": ordered[len(ordered) // 2],
                    "q1": ordered[0], "q3": ordered[-1],
                    "min": ordered[0], "samples": rate_samples},
                "bound_gap_max_ticks": {
                    "kind": "sim", "unit": "ticks", "better": "lower",
                    "value": 12},
            }}},
    }


def test_reduces_both_sides_per_workload_and_metric():
    record = reduce_pair(_ledger("aaa", [8.0, 7.0, 9.0]),
                         _ledger("bbb", [24.0, 25.0, 23.0, 26.0, 27.0]), 17)
    assert record["pr"] == 17
    assert record["commits"] == {"parent": "aaa", "change": "bbb"}
    assert record["hosts"]["parent"]["cores"] == 2
    workload = record["workloads"]["sparse_churn"]
    assert workload["attempted"] == {"parent": 21, "change": 21}
    assert workload["failed"] == {"parent": 0, "change": 0}
    assert workload["exact_equal"] is True
    rate = workload["end_to_end"]["router_cycles_per_s"]
    assert rate["parent"] == {"median": 8.0, "q1": 7.0, "q3": 9.0,
                              "min": 7.0, "n": 3}
    assert rate["change"]["n"] == 5
    assert rate["change_over_parent"] == 25.0 / 8.0
    assert workload["end_to_end"]["bound_gap_max_ticks"] == {
        "unit": "ticks", "better": "lower", "parent": 12, "change": 12}


def test_flags_a_differing_exact_block_and_an_uncommitted_change():
    parent = _ledger("aaa", [8.0])
    change = _ledger("aaa", [9.0], signature="different")
    record = reduce_pair(parent, change, 3)
    assert record["workloads"]["sparse_churn"]["exact_equal"] is False
    assert record["commits"]["change"] == "uncommitted tree on aaa"


def test_refuses_ledgers_of_different_runs():
    parent = _ledger("aaa", [8.0])
    other_seed = copy.deepcopy(parent)
    other_seed["seed"] = 2
    with pytest.raises(ValueError, match="seed"):
        reduce_pair(parent, other_seed, 3)


_module = runpy.run_path("scripts/bench_record.py")
exact_differs, effort_gate = _module["exact_differs"], _module["effort_gate"]

_EXACT = {
    "sim_signature": "abc",
    "network.engine.cycles_stepped": 4_823,
    "network.engine.cycles_fast_forwarded": 177,
    "network.engine.executed_share": 0.9646,
    "core.comparator_tree.keys_computed": 19_621,
    "core.comparator_tree.keys_reused": 14_938,
    "core.comparator_tree.evaluations": 20_575,
    "network.stats.tc_delivered": 477,
}


def test_names_the_exact_keys_that_differ():
    change = dict(_EXACT, sim_signature="def",
                  **{"network.engine.cycles_stepped": 1_943})
    assert exact_differs(_EXACT, _EXACT) == {}
    assert exact_differs(_EXACT, change) == {
        "network.engine.cycles_stepped": {"parent": 4_823, "change": 1_943},
        "sim_signature": {"parent": "abc", "change": "def"}}
    record = reduce_pair(_ledger("aaa", [8.0]),
                         _ledger("bbb", [9.0], signature="different"), 3)
    assert record["workloads"]["sparse_churn"]["exact_differs"] == {
        "sim_signature": {"parent": "abc", "change": "different"}}


def test_gate_passes_less_effort_and_nothing_else():
    cheaper = dict(_EXACT, sim_signature="def", **{
        "network.engine.cycles_stepped": 1_943,
        "network.engine.cycles_fast_forwarded": 3_057,
        "network.engine.executed_share": 0.3886,
        "core.comparator_tree.keys_computed": 12_694,
        # Fewer tournaments reuse fewer keys: not a worse cache.
        "core.comparator_tree.keys_reused": 4_820})
    assert effort_gate(_EXACT, _EXACT) == []
    assert effort_gate(_EXACT, cheaper) == []


@pytest.mark.parametrize("key,value,complaint", [
    ("core.comparator_tree.evaluations", 20_000, "is behaviour"),
    ("network.stats.tc_delivered", 476, "is behaviour"),
    ("network.engine.cycles_stepped", 4_900, "got worse"),
    ("network.engine.cycles_fast_forwarded", 100, "got worse"),
    ("core.comparator_tree.keys_computed", 19_700, "got worse"),
    ("core.comparator_tree.keys_reused", 16_000, "lookups rose"),
])
def test_gate_names_what_moved_the_wrong_way(key, value, complaint):
    problems = effort_gate(_EXACT, dict(_EXACT, **{key: value}))
    assert any(complaint in problem for problem in problems)
