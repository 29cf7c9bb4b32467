#!/usr/bin/env python3
"""The repo's benchmark: four mesh workloads, measured end to end and by layer.

    python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--smoke]
        every workload, each in its own interpreter, one after another;
        prints every metric by name with its unit and writes
        out/ledger.json and out/spans-<workload>.json
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this interpreter; the last line of standard
        output is the result object of the benchmark contract
    python3 benchmarks/perf/run.py compare A/ledger.json B/ledger.json

A run is one reduced-size warm-up instance (untimed) followed by at least
five timed instances of identical work, repeated until ``--seconds`` of
measuring are used up; host metrics are medians over those instances.
Tracing is off for them.  ``--trace 1`` adds one traced instance after
them, which gives the per-layer numbers and the tracing overhead.
See README.md for the metrics, the workloads and how they interact.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
# The benchmark measures the checkout it sits in, not an installed copy.
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from metrics import (COUNTERS, HOST_METRICS, OVERHEAD_RATIO,  # noqa: E402
                     SIM_METRICS, TRACE_UNITS, UNATTRIBUTED_SHARE,
                     WORKLOADS, per_layer_unit)
from tracing import DRIVE, Tracer, stat_names  # noqa: E402
from workloads import EXECUTE, SIZES, reduce  # noqa: E402

#: Timed instances of a run, however short ``--seconds`` is: single
#: instances of fixed work scatter by 10 % on a shared two-core host,
#: their median over five by a few percent.
MIN_INSTANCES = 5
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 16
#: A run that is still going after this long is wedged (the contract
#: stops a run at 180 s); give up with a message rather than be killed.
RUN_LIMIT_S = 150


def timed_instance(name: str, seed: int, size: dict, tracer=None):
    """Execute one instance; returns (its host timings, its outcome).

    With a ``tracer`` the instance runs with every boundary wrapped.
    """
    gc.collect()
    marks: list[float] = []

    def mark() -> None:
        marks.append(time.perf_counter())
        if tracer is not None:
            tracer.mark()

    with tracer.instance() if tracer is not None else nullcontext():
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        run = EXECUTE[name](seed, size, mark)
        wall_end, cpu_end = time.perf_counter(), time.process_time()
    if len(marks) != 1:
        raise RuntimeError(
            f"{name}: the build/drive boundary was marked {len(marks)} "
            f"times, not once (see README, 'API surface')")
    outcome = reduce(run)
    drive = wall_end - marks[0]
    return {
        "start": wall_start,
        "setup_s": marks[0] - wall_start,
        "drive_s": drive,
        "wall_s": wall_end - wall_start,
        "process_time_s": cpu_end - cpu_start,
        "router_cycles_per_s": outcome.router_cycles / drive,
    }, outcome


def summary(values: list[float]) -> dict:
    """Median, quartiles and minimum of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "samples": values}


def measure(name: str, seed: int, seconds: float, smoke: bool,
            trace: bool) -> dict:
    """One run of one workload; returns its ledger record."""
    size = SIZES[name]["smoke" if smoke else "bench"]
    load_start = os.getloadavg()[0]
    timed_instance(name, seed, SIZES[name]["smoke"])    # warm-up, untimed

    samples, outcomes = [], []
    began = time.perf_counter()
    while (len(samples) < MIN_INSTANCES
           or (time.perf_counter() - began
               + statistics.median(s["wall_s"] for s in samples)
               <= seconds)):
        sample, outcome = timed_instance(name, seed, size)
        samples.append(sample)
        outcomes.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome = outcomes[0]
    errors = list(outcome.hard_errors)
    if len({o.signature for o in outcomes}) != 1:
        errors.append("instances of one run disagree on sim_signature: "
                      + ", ".join(o.signature[:12] for o in outcomes))
    if outcome.attempted < 1:
        errors.append("the workload attempted nothing")

    end_to_end = {metric: summary([s[metric] for s in samples])
                  for metric in ("setup_s", "router_cycles_per_s")}
    end_to_end["peak_rss_mb"] = summary([peak_rss_mb])
    for metric, (unit, better, bound) in HOST_METRICS.items():
        end_to_end[metric].update(unit=unit, better=better, bound=bound,
                                  kind="host")
    for metric, value in outcome.sim.items():
        if metric in SIM_METRICS:
            unit, better, _ = SIM_METRICS[metric]
            end_to_end[metric] = {"value": value, "unit": unit,
                                  "better": better, "kind": "sim"}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "size": size,
        "instances": len(samples),
        "samples": [{key: value for key, value in s.items()
                     if key != "start"} for s in samples],
        "end_to_end": end_to_end,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures,
        "exact": {"sim_signature": outcome.signature,
                  "router_cycles": outcome.router_cycles,
                  **outcome.sim, **outcome.counters},
        "errors": errors,
    }
    if trace:
        record["trace"], record["per_layer"] = traced_pass(
            name, seed, size, outcome,
            end_to_end_drive=statistics.median(s["drive_s"]
                                               for s in samples),
            errors=errors)
    record["loadavg_1m"] = {"start": load_start,
                            "end": os.getloadavg()[0]}
    return record


def traced_pass(name: str, seed: int, size: dict, untraced, *,
                end_to_end_drive: float, errors: list) -> tuple[dict, dict]:
    """One traced instance: per-layer metrics, spans and overhead."""
    tracer = Tracer()
    sample, outcome = timed_instance(name, seed, size, tracer)
    if outcome.signature != untraced.signature:
        errors.append("the traced instance simulated something else: "
                      f"{outcome.signature[:12]} against "
                      f"{untraced.signature[:12]} untraced")
    drive_self = tracer.drive_self_s()
    start = sample["start"]
    for span in tracer.spans:
        span["start"] -= start
        span["end"] -= start
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}.json").write_text(json.dumps({
        "workload": name, "seed": seed,
        "instance_s": sample["wall_s"], "build_s": sample["setup_s"],
        "drive_s": sample["drive_s"],
        "boundaries": {
            boundary: {"calls": stat[0], "busy_s": stat[1],
                       "self_s": stat[2],
                       "drive_self_s": drive_self.get(boundary)}
            for boundary, stat in tracer.stats.items()},
        "spans_dropped": tracer.spans_dropped,
        "spans": tracer.spans,
    }) + "\n")
    per_layer = {
        **tracer.per_layer(), **untraced.counters,
        OVERHEAD_RATIO: sample["drive_s"] / end_to_end_drive,
        UNATTRIBUTED_SHARE: drive_self[DRIVE] / sample["drive_s"]}
    trace = {"drive_s": sample["drive_s"], "build_s": sample["setup_s"],
             "spans": len(tracer.spans),
             "spans_dropped": tracer.spans_dropped}
    return trace, per_layer


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run emits, in a fixed order."""
    return [*stat_names(), *COUNTERS, *TRACE_UNITS]


def print_record(record: dict) -> None:
    """Every metric of one run by name, with its unit."""
    name = record["workload"]
    print(f"== {name}  seed {record['seed']}  "
          f"{record['instances']} instances  size {record['size']}")
    for metric, entry in record["end_to_end"].items():
        if entry["kind"] == "sim":
            print(f"{name} {metric} = {entry['value']} {entry['unit']}"
                  f"  (sim, exact)")
        else:
            print(f"{name} {metric} = {entry['median']:.6g} "
                  f"{entry['unit']}  (q1 {entry['q1']:.6g}, "
                  f"q3 {entry['q3']:.6g}, min {entry['min']:.6g}, "
                  f"n={len(entry['samples'])})")
    share = record["failed"] / record["attempted"]
    print(f"{name} failed = {record['failed']} of {record['attempted']} "
          f"attempted ({share:.2%})  "
          + json.dumps({key: value
                        for key, value in record["failures"].items()
                        if key != "channels"}))
    for channel in record["failures"].get("channels", ()):
        print(f"{name}   unsafe channel {json.dumps(channel)}")
    print(f"{name} sim_signature = {record['exact']['sim_signature']}")
    print(f"{name} loadavg_1m = {record['loadavg_1m']['start']:.2f} -> "
          f"{record['loadavg_1m']['end']:.2f}")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name} {metric} = {value:.6g} {per_layer_unit(metric)}")
    for error in record["errors"]:
        print(f"{name} HARD CHECK FAILED: {error}", file=sys.stderr)


def contract_line(record: dict, trace: bool) -> str:
    """The result object the benchmark contract asks for."""
    if trace:
        metrics = {metric: {"value": record["per_layer"][metric],
                            "unit": per_layer_unit(metric)}
                   for metric in per_layer_names()}
    else:
        metrics = {metric: {"value": record["end_to_end"][metric]["median"],
                            "unit": unit}
                   for metric, (unit, _, _) in HOST_METRICS.items()}
    return json.dumps({"correct": not record["errors"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def host_info() -> dict:
    commit = None            # a source checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def run_one(args) -> int:
    """One workload in this interpreter (what the contract's driver runs)."""
    def wedged(signum, frame):
        raise RuntimeError(
            f"{args.workload} seed {args.seed}: still running after "
            f"{RUN_LIMIT_S} s; a simulation is wedged or the host is far "
            f"slower than the workloads are sized for")

    signal.signal(signal.SIGALRM, wedged)
    signal.alarm(RUN_LIMIT_S)
    record = measure(args.workload, args.seed, args.seconds, args.smoke,
                     trace=bool(args.trace))
    signal.alarm(0)
    record["host"] = host_info()
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(contract_line(record, bool(args.trace)))
    return 1 if record["errors"] else 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one after another.

    Never concurrently: the host has two cores and the load generator is
    the single simulator thread, so a second run would be measured too.
    """
    records = {}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "1"]
        if args.smoke:
            command.append("--smoke")
        record_file = OUT / f"record-{name}.json"
        record_file.unlink(missing_ok=True)     # never read a stale one
        status |= subprocess.run(command).returncode
        if record_file.exists():
            records[name] = json.loads(record_file.read_text())
            record_file.unlink()
    ledger = {"host": host_info(), "seed": args.seed,
              "seconds": args.seconds,
              "size": "smoke" if args.smoke else "bench",
              "workloads": records}
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"ledger: {OUT / 'ledger.json'}")
    return 1 if status or len(records) != len(WORKLOADS) else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default "
                             f"{DEFAULT_SECONDS}; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0 if args.smoke else DEFAULT_SECONDS
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
