"""Compare two ledgers: ``run.py compare A/ledger.json B/ledger.json``.

One row per workload and end-to-end metric, with both medians and
quartiles, the ratio of B to A (A is the base), and a verdict:

* ``ok`` — B is not worse than A by more than the metric's bound;
* ``regressed`` — it is;
* ``unresolved`` — one side's own quartile spread is wider than the
  bound and the two sides' samples interleave (not every sample of one
  side beats every sample of the other), so the medians decide nothing.

Sim metrics are exact (bound 0): any worsening is ``regressed``, an
improvement is ``changed``.  ``failed/attempted`` is compared as a
share.  The command exits non-zero on ``regressed`` or on a larger
failed share.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if better == "lower" else -change


def _separated(a: list, b: list) -> bool:
    return max(a) < min(b) or max(b) < min(a)


def host_verdict(a: dict, b: dict) -> str:
    bound = a["bound"]
    spread = max((side["q3"] - side["q1"]) / side["median"]
                 for side in (a, b))
    if spread > bound and not _separated(a["samples"], b["samples"]):
        return "unresolved"
    if _worse_by(a["median"], b["median"], a["better"]) > bound:
        return "regressed"
    return "ok"


def sim_verdict(a: dict, b: dict) -> str:
    if a["value"] == b["value"]:
        return "ok"
    worse = _worse_by(a["value"], b["value"], a["better"]) > 0
    return "regressed" if worse else "changed"


def compare(ledger_a: dict, ledger_b: dict) -> tuple[list[str], bool]:
    """The comparison rows and whether anything regressed."""
    rows = []
    failed = False
    for name, a in ledger_a["workloads"].items():
        b = ledger_b["workloads"].get(name)
        if b is None:
            rows.append(f"{name}: missing from B")
            failed = True
            continue
        for metric, entry_a in a["end_to_end"].items():
            entry_b = b["end_to_end"].get(metric)
            if entry_b is None:
                rows.append(f"{name} {metric}: missing from B")
                failed = True
                continue
            if entry_a["kind"] == "sim":
                verdict = sim_verdict(entry_a, entry_b)
                rows.append(
                    f"{name} {metric} [{entry_a['unit']}]: "
                    f"A {entry_a['value']}  B {entry_b['value']}  "
                    f"(exact)  {verdict}")
            else:
                verdict = host_verdict(entry_a, entry_b)
                ratio = entry_b["median"] / entry_a["median"]
                rows.append(
                    f"{name} {metric} [{entry_a['unit']}, "
                    f"{entry_a['better']} is better, bound "
                    f"{entry_a['bound']:.0%}]: "
                    f"A {entry_a['median']:.6g} "
                    f"({entry_a['q1']:.6g}..{entry_a['q3']:.6g})  "
                    f"B {entry_b['median']:.6g} "
                    f"({entry_b['q1']:.6g}..{entry_b['q3']:.6g})  "
                    f"B/A {ratio:.3f}x of A  {verdict}")
            failed |= verdict == "regressed"
        share_a = a["failed"] / a["attempted"]
        share_b = b["failed"] / b["attempted"]
        verdict = "regressed" if share_b > share_a else "ok"
        failed |= share_b > share_a
        rows.append(
            f"{name} failed/attempted: A {a['failed']}/{a['attempted']} "
            f"({share_a:.2%})  B {b['failed']}/{b['attempted']} "
            f"({share_b:.2%})  {verdict}")
        differing = sorted(key for key in a["exact"]
                           if a["exact"][key] != b["exact"].get(key))
        rows.append(f"{name} exact block (sim_signature, counters): "
                    + ("equal" if not differing
                       else "differs in " + ", ".join(differing)))
    return rows, failed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A/ledger.json B/ledger.json",
              file=sys.stderr)
        return 2
    ledger_a, ledger_b = (json.loads(Path(path).read_text())
                          for path in argv)
    for side, ledger in (("A", ledger_a), ("B", ledger_b)):
        host = ledger["host"]
        print(f"{side}: commit {host['commit']}  seed {ledger['seed']}  "
              f"size {ledger['size']}  {host['cores']} cores  "
              f"python {host['python']}")
    rows, failed = compare(ledger_a, ledger_b)
    print("\n".join(rows))
    return 1 if failed else 0
