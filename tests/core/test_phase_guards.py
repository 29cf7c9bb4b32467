"""The guarded ``step`` against the step as it is defined.

``RealTimeRouter.step`` enters a phase only when derived state says the
phase has input, and remembers its activity answer.  The reference chip
(``tests/reference.py``) enters every phase on every working cycle, in
the documented order (``RealTimeRouter._enter_every_phase``, selected
by nothing but the reference), and remembers nothing; fed the same
seeded mixed time-constrained and best-effort traffic, the two routers'
documents, deliveries and ``next_event_cycle`` answers must be equal
after every cycle — under a dense script, where the router never
sleeps, and a sparse one, where it mostly does.
"""

import pathlib
import re

import pytest

from tests.reference import (
    ChipPair,
    SparseUpstream,
    Upstream,
    compare,
    program,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_guarded_step_equals_all_phases_every_cycle(seed):
    pair = ChipPair(Upstream(seed), program)
    compare(pair, range(1, 2_501))
    guarded, reference = pair.routers
    assert guarded.tc_transmitted > 20 and guarded.be_worms_routed > 20
    assert guarded.quiescent and reference.quiescent


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_guarded_step_equals_all_phases_around_dormant_spans(seed):
    # The working steps that end in dormancy, the replay that opens the
    # next one and the lag field in between, document for document.
    pair = ChipPair(SparseUpstream(seed), program)
    counts = compare(pair, range(1, 6_001))
    guarded = pair.routers[0]
    assert counts["dormant"] > 1_500 and counts["replays"] > 10
    assert guarded.tc_transmitted > 10 and guarded.be_worms_routed > 3


def test_only_the_reference_enters_every_phase():
    # The unguarded phase order is a hook for the reference chip, not a
    # knob: the router sets it off once, and nothing else in the
    # package names it.
    router = SRC / "repro" / "core" / "router.py"
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        if path == router:
            assert re.findall(r"_every_phase\s*=(?!=)\s*(\S+)", text) == [
                "False"]
        else:
            assert "_every_phase" not in text, path
