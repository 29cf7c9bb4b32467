"""Every checkpoint of a framed run resumes with invariants on.

A committed frame's timing (``_TCStream.base``) is never serialised: a
checkpoint holds the per-byte loop's document, where a stream staged
whole steps per byte.  The restore frames it again, where its next
transmit would (``OutputSide.reframe``), so the invariant check that
runs once after every resume finds every stream framed where
``_check_frames`` says it must be, the checks at cadence after it stay
clean, and the resumed run delivers what the reference chip
(``tests/reference.py``) delivers uninterrupted.  Under a fault plan
with the watchdog installed the links frame too.
"""

import pytest

from repro.checkpoint import ChaosSession, Execution, RandomWorkloadSession
from repro.faults import ChaosConfig
from tests.reference import framed, records, reference_session

CHECK_EVERY = 50


def resume_every_checkpoint(cls, spec, directory, interval):
    """Run ``cls(*spec)`` checkpointing every ``interval`` cycles, then
    resume each checkpoint with invariants on; returns how many there
    were and how many restores framed a stream again."""
    written = cls.open(*spec, execution=Execution(
        checkpoint_dir=str(directory), checkpoint_interval=interval))
    written.run()
    expected = records(written.network)
    assert expected == records(reference_session(cls, *spec).network)
    paths = sorted(directory.glob("ckpt-*.json"))
    reframed = 0
    for path in paths:
        session = cls.open(*spec, execution=Execution(
            resume_from=str(path), check_every=CHECK_EVERY))
        # The check once after the restore has run; nothing has stepped.
        assert session.invariant_failures == [], path.name
        reframed += bool(framed(session.network))
        session.run()
        assert session.invariant_failures == [], path.name
        assert records(session.network) == expected, path.name
    return len(paths), reframed


def test_every_checkpoint_of_a_framed_run_resumes_with_invariants_on(
        tmp_path):
    count, reframed = resume_every_checkpoint(
        RandomWorkloadSession, (6, 6, 40, 200, 3), tmp_path, 333)
    assert count == 12
    assert reframed >= 6


@pytest.mark.parametrize("seed", [1, 7])
def test_every_checkpoint_of_a_chaos_run_resumes_with_invariants_on(
        tmp_path, seed):
    config = ChaosConfig(seed=seed, cycles=2000, settle_cycles=500,
                         invariant_check_every=CHECK_EVERY)
    count, reframed = resume_every_checkpoint(
        ChaosSession, (config,), tmp_path, 250)
    assert count >= 10
    assert reframed >= 1
