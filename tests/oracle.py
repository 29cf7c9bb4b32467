"""Assertions that an equivalence test really compared against the oracle.

Since the event scheduler became the default engine, a reference side
built from defaults would silently compare event with event.  Every
equivalence suite calls :func:`assert_oracle_ran` on its reference
engine: the bare per-cycle loop names itself ``"exact"`` and never
skips a cycle.
"""


def assert_oracle_ran(engine):
    """``engine`` ran the bare per-cycle loop from cycle 0."""
    assert engine.mode == "exact"
    assert engine.cycles_fast_forwarded == 0
    assert engine.cycles_stepped == engine.cycle


def assert_scheduler_skipped(engine):
    """``engine`` ran the event scheduler and jumped over idle spans."""
    assert engine.mode == "event"
    assert engine.cycles_fast_forwarded > 0
    assert (engine.cycles_stepped + engine.cycles_fast_forwarded
            == engine.cycle)


def assert_ran_as(engine, mode):
    """``engine`` ran in ``mode``; the oracle, additionally, never
    skipped (for suites parametrised over both modes)."""
    assert engine.mode == mode
    if mode == "exact":
        assert_oracle_ran(engine)
