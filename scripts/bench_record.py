#!/usr/bin/env python3
"""Reduce a parent/change pair of benchmark ledgers to ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py A/ledger.json B/ledger.json --pr N

``A`` is the parent commit's ledger and ``B`` the change's, each written
by a full-size ``python3 benchmarks/perf/run.py --seed 1`` in its own
checkout.  The reduced record lands at the repo root so the perf
trajectory is read from committed numbers: per workload and end-to-end
metric the median, quartiles, minimum and sample count of both sides
(exact simulated metrics: both values), ``attempted``/``failed``,
which keys of the ``exact`` block (``sim_signature`` and counters)
differ, with both values, and the hosts and commits that produced them.

    python3 scripts/bench_record.py A/ledger.json B/ledger.json --gate

writes nothing: it fails unless every ``exact`` block differs only in
simulator effort, and in the cheaper direction (``perf-pair`` runs it
next to ``scripts/behaviour_digest.py``, which compares what was
simulated).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

#: The ``exact`` counters that measure what the simulator executed, not
#: what it simulated, and the direction that is cheaper.
EFFORT = {
    "network.engine.cycles_stepped": "lower",
    "network.engine.cycles_fast_forwarded": "higher",
    "network.engine.executed_share": "lower",
    "core.comparator_tree.keys_computed": "lower",
}
#: Effort too, but gated as key lookups (computed + reused): a change
#: that runs fewer tournaments reuses fewer keys, which is not a worse
#: cache, whatever direction BENCHMARK.json calls better.
KEYS_REUSED = "core.comparator_tree.keys_reused"


def exact_differs(parent: dict, change: dict) -> dict:
    """The keys of two ``exact`` blocks that differ, with both values."""
    return {key: dict(zip(SIDES, (parent.get(key), change.get(key))))
            for key in sorted(set(parent) | set(change))
            if parent.get(key) != change.get(key)}


def effort_gate(parent: dict, change: dict) -> list[str]:
    """Why two ``exact`` blocks are not "same behaviour, no more
    effort" (empty: they are).  ``sim_signature`` hashes the engine's
    cycle split, so it moves whenever the effort does."""
    problems = []
    for key, values in exact_differs(parent, change).items():
        if key in ("sim_signature", KEYS_REUSED):
            continue
        better = EFFORT.get(key)
        if better is None:
            problems.append(f"{key} is behaviour and moved: "
                            f"{values['parent']} -> {values['change']}")
        elif (values["change"] > values["parent"]) == (better == "lower"):
            problems.append(f"{key} got worse ({better} is better): "
                            f"{values['parent']} -> {values['change']}")
    lookups = [side.get("core.comparator_tree.keys_computed", 0)
               + side.get(KEYS_REUSED, 0) for side in (parent, change)]
    if lookups[1] > lookups[0]:
        problems.append(f"sorting-key lookups rose: {lookups[0]} -> "
                        f"{lookups[1]}")
    return problems


def _reduce_metric(entries: list[dict]) -> dict:
    first = entries[0]
    reduced = {"unit": first["unit"], "better": first["better"]}
    for side, entry in zip(SIDES, entries):
        if first["kind"] == "sim":
            reduced[side] = entry["value"]
        else:
            reduced[side] = {"median": entry["median"], "q1": entry["q1"],
                             "q3": entry["q3"], "min": entry["min"],
                             "n": len(entry["samples"])}
    if first["kind"] == "host":
        reduced["change_over_parent"] = round(
            entries[1]["median"] / entries[0]["median"], 4)
    return reduced


def reduce_pair(parent: dict, change: dict, pr: int) -> dict:
    """The ``BENCH_<pr>.json`` document of one ledger pair."""
    for key in ("seed", "seconds", "size"):
        if parent[key] != change[key]:
            raise ValueError(f"ledgers differ in {key!r}: "
                             f"{parent[key]!r} vs {change[key]!r}")
    if set(parent["workloads"]) != set(change["workloads"]):
        raise ValueError("ledgers hold different workloads")
    commits = {side: ledger["host"]["commit"]
               for side, ledger in zip(SIDES, (parent, change))}
    if commits["change"] == commits["parent"]:
        # Measured on the working tree, before the change had a commit.
        commits["change"] = f"uncommitted tree on {commits['parent']}"
    workloads = {}
    for name, a in parent["workloads"].items():
        b = change["workloads"][name]
        workloads[name] = {
            "attempted": dict(zip(SIDES, (a["attempted"], b["attempted"]))),
            "failed": dict(zip(SIDES, (a["failed"], b["failed"]))),
            "exact_equal": a["exact"] == b["exact"],
            "exact_differs": exact_differs(a["exact"], b["exact"]),
            "end_to_end": {
                metric: _reduce_metric([entry, b["end_to_end"][metric]])
                for metric, entry in a["end_to_end"].items()},
        }
    return {
        "pr": pr,
        "benchmark": f"python3 benchmarks/perf/run.py --seed {parent['seed']}",
        "seed": parent["seed"], "seconds": parent["seconds"],
        "size": parent["size"],
        "hosts": {side: {key: ledger["host"][key]
                         for key in ("cores", "python", "platform")}
                  for side, ledger in zip(SIDES, (parent, change))},
        "commits": commits,
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="A/ledger.json")
    parser.add_argument("change", type=Path, help="B/ledger.json")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pr", type=int)
    mode.add_argument("--gate", action="store_true",
                      help="write nothing; fail unless the exact blocks "
                           "differ only in simulator effort, for the better")
    args = parser.parse_args(argv)
    try:
        parent = json.loads(args.parent.read_text())
        change = json.loads(args.change.read_text())
        if args.gate:
            problems = [
                f"{name}: {problem}"
                for name, a in parent["workloads"].items()
                for problem in effort_gate(
                    a["exact"], change["workloads"][name]["exact"])]
            print("\n".join(problems) or "exact blocks: behaviour equal, "
                  "effort no worse")
            return 1 if problems else 0
        record = reduce_pair(parent, change, args.pr)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    target = ROOT / f"BENCH_{args.pr}.json"
    target.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
