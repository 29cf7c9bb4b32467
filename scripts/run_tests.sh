#!/usr/bin/env bash
# Test pipeline.  Usage:
#
#   scripts/run_tests.sh                # all jobs
#   scripts/run_tests.sh tier1
#   scripts/run_tests.sh chaos
#   scripts/run_tests.sh perf-smoke
#   scripts/run_tests.sh perf-pair      # parent commit vs this tree
#   scripts/run_tests.sh experiments    # the paper's figures and tables
#   scripts/run_tests.sh observability
#   scripts/run_tests.sh campaign
#   scripts/run_tests.sh checkpoint
#   scripts/run_tests.sh service
#   scripts/run_tests.sh event
#   scripts/run_tests.sh schedulability
#   scripts/run_tests.sh schedulability-faults

set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

job="${1:-all}"

run_tier1() {
    echo "== tier-1: full correctness suite (chaos soaks excluded) =="
    python -m pytest -x -q -m "not chaos"
}

run_chaos() {
    echo "== chaos: seeded fault-injection soaks =="
    python -m pytest -q -m chaos
}

run_perf_smoke() {
    echo "== perf-smoke: the repo benchmark's own smoke tests (benchmarks/perf) =="
    python -m pytest -q -p no:cacheprovider benchmarks/perf
}

run_perf_pair() {
    echo "== perf-pair: repo benchmark (smoke size), parent commit vs this tree =="
    # The parent's committed files go into a temporary tree; each side
    # runs its own copy of the harness.  Fails on a 'regressed' row
    # (compare's exit status), on a behaviour digest or a hash of the
    # router documents (--documents) that differs, or on an exact block
    # that differs in anything but simulator effort spent, or differs
    # there for the worse.
    local tmp
    tmp="$(mktemp -d)"
    trap "rm -rf '$tmp'" EXIT
    mkdir "$tmp/parent"
    git archive HEAD~1 | tar -x -C "$tmp/parent"
    (cd "$tmp/parent" && python3 benchmarks/perf/run.py --smoke --seed 2)
    python3 benchmarks/perf/run.py --smoke --seed 2
    python3 benchmarks/perf/run.py compare \
        "$tmp/parent/benchmarks/perf/out/ledger.json" \
        benchmarks/perf/out/ledger.json
    python3 scripts/bench_record.py --gate \
        "$tmp/parent/benchmarks/perf/out/ledger.json" \
        benchmarks/perf/out/ledger.json
    python3 scripts/behaviour_digest.py --smoke --seed 2 --documents \
        --root "$tmp/parent" > "$tmp/digest-parent.txt"
    python3 scripts/behaviour_digest.py --smoke --seed 2 --documents \
        | tee "$tmp/digest-change.txt"
    # The smoke wormhole instance is 4x4 with 30 datagrams: too few for
    # sustained contention on one output, so that one also at bench size.
    python3 scripts/behaviour_digest.py --workload wormhole_be --seed 2 \
        --documents --root "$tmp/parent" >> "$tmp/digest-parent.txt"
    python3 scripts/behaviour_digest.py --workload wormhole_be --seed 2 \
        --documents | tee -a "$tmp/digest-change.txt"
    if ! cmp -s "$tmp/digest-parent.txt" "$tmp/digest-change.txt"; then
        echo "perf-pair: the workloads simulated something else than at the parent" >&2
        diff "$tmp/digest-parent.txt" "$tmp/digest-change.txt" >&2 || true
        return 1
    fi
}

run_experiments() {
    echo "== experiments: paper figures/tables regenerate with no diff =="
    python -m pytest -q -p no:cacheprovider --benchmark-disable \
        benchmarks/bench_[tfeam][0-9]*.py
    git diff --exit-code benchmarks/results
}

run_observability() {
    echo "== observability: tracing/metrics suites + overhead gate =="
    python -m pytest -q \
        tests/observability \
        tests/network/test_delivery_duplicates.py \
        tests/network/test_engine_accounting.py \
        tests/integration/test_trace_replay.py \
        tests/test_reporting.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        "benchmarks/bench_sim_performance.py::test_disabled_tracer_overhead_within_bound"
}

run_campaign() {
    echo "== campaign: sweep runner, cache, determinism, kill/resume =="
    python -m pytest -q \
        tests/campaign \
        tests/test_reporting.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_campaign_scaling.py
}

run_checkpoint() {
    echo "== checkpoint: resume equivalence, kill/resume, overhead gate =="
    python -m pytest -q \
        tests/checkpoint \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_checkpoint.py
}

run_event() {
    echo "== event: scheduler-vs-oracle equivalence, firing order, accounting, next-event contract =="
    python -m pytest -q \
        tests/network/test_engine_accounting.py \
        tests/network/test_event_firing_order.py \
        tests/integration/test_event_engine_equivalence.py \
        tests/integration/test_next_event_contract.py \
        tests/traffic/test_generators.py
}

run_service() {
    echo "== service: churn, overload, SLO determinism + churn gate =="
    python -m pytest -q \
        tests/service \
        tests/channels/test_teardown_restore.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_service_churn.py
}

run_schedulability() {
    echo "== schedulability: analytic verdicts, oracle, tightness gate =="
    python -m pytest -q \
        tests/schedulability \
        tests/analysis/test_netcalc_oracle.py \
        tests/service/test_preadmission.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        benchmarks/bench_schedulability.py
}

run_schedulability_faults() {
    echo "== schedulability-faults: fault-aware verdicts + chaos gate =="
    python -m pytest -q \
        tests/faults/test_plan.py \
        tests/faults/test_overlap.py \
        tests/schedulability/test_faultmodel.py \
        tests/schedulability/test_chaos_tightness.py \
        tests/campaign/test_chaos_tightness_workload.py \
        tests/service/test_fault_screen.py \
        tests/test_cli.py
    python -m pytest -q -p no:cacheprovider \
        "benchmarks/bench_schedulability.py::test_degraded_tightness_gap_is_quantified_and_safe"
}

case "$job" in
    tier1) run_tier1 ;;
    chaos) run_chaos ;;
    perf-smoke) run_perf_smoke ;;
    perf-pair) run_perf_pair ;;
    experiments) run_experiments ;;
    observability) run_observability ;;
    campaign) run_campaign ;;
    checkpoint) run_checkpoint ;;
    service) run_service ;;
    event) run_event ;;
    schedulability) run_schedulability ;;
    schedulability-faults) run_schedulability_faults ;;
    all)   run_tier1; run_chaos; run_perf_smoke; run_perf_pair; run_experiments; run_observability; run_campaign; run_checkpoint; run_service; run_event; run_schedulability; run_schedulability_faults ;;
    *)     echo "unknown job '$job' (tier1|chaos|perf-smoke|perf-pair|experiments|observability|campaign|checkpoint|service|event|schedulability|schedulability-faults|all)" >&2
           exit 2 ;;
esac
