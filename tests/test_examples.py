"""Smoke tests: the shipped examples run end to end.

Each example asserts its own success criteria (e.g. zero deadline
misses) and raises on failure, so running ``main()`` is a real check,
not just an import test.  The slowest examples are excluded to keep
the suite quick; they are exercised by CI-style full runs instead.
"""

import runpy
import sys

import pytest

EXAMPLES = [
    "examples/quickstart.py",
    "examples/capacity_planning.py",
    "examples/chip_datasheet.py",
    "examples/fault_recovery.py",
    "examples/qos_switch.py",
    "examples/adaptive_routing.py",
    "examples/avionics_control.py",
    "examples/factory_cell.py",
]

#: Lines an example must print.  capacity_planning counts what
#: ``AdmissionController.admit`` accepts on one hop, which charges the
#: hop overhead: d = 3/6/12 admit 1/4/10 connections.  Its clock width
#: is the narrowest whose rollover rule admits h + d = 12 + 12 < 2^5.
EXPECTED = {
    "examples/capacity_planning.py": [
        *(f"d = {deadline:>3} ticks -> {count} connections"
          for deadline, count in ((3, 1), (6, 4), (12, 10))),
        "required scheduler clock width: 6 bits",
    ],
}


@pytest.mark.parametrize("path", EXAMPLES)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example prints a report
    for line in EXPECTED.get(path, []):
        assert line in out
