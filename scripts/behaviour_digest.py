#!/usr/bin/env python3
"""What the benchmark workloads *simulated*, as one sha256 per instance.

    python3 scripts/behaviour_digest.py [--seed N ...] [--workload W ...]
                                        [--smoke] [--root CHECKOUT]

Prints ``<workload> seed=<n> <sha256>`` for every workload and seed: the
hash of every delivery record (the eleven fields ``sim_signature``
hashes), ``fault_counters().as_dict()`` and ``report.signature()`` —
behaviour only, none of the simulator-effort counters the ledger's
``sim_signature`` also folds in.  Two checkouts simulate the same thing
exactly when their outputs are equal; ``--root`` runs another checkout's
``src`` and ``benchmarks/perf/workloads.py`` (unmodified) with this
script, so a parent commit that predates it can be digested too.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digest(run, canonical_dumps) -> str:
    net = run.net
    payload = {
        "records": [
            [r.traffic_class, r.source, r.destination, r.injected_cycle,
             r.delivered_cycle, r.connection_label, r.sequence,
             r.absolute_deadline, r.deadline_met, r.delivered_node,
             r.duplicate]
            for r in net.log.records
        ],
        "faults": net.fault_counters().as_dict(),
        "report": (run.report.signature()
                   if run.report is not None else None),
    }
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, action="append")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--root", type=Path, default=HERE.parent)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.root / "src"),
                    str(args.root / "benchmarks" / "perf")]
    import workloads
    from repro.campaign.spec import canonical_dumps

    size = "smoke" if args.smoke else "bench"
    for name in args.workload or list(workloads.EXECUTE):
        for seed in args.seed or [1]:
            run = workloads.EXECUTE[name](seed, workloads.SIZES[name][size],
                                          lambda: None)
            print(f"{name} seed={seed} {digest(run, canonical_dumps)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
