"""``AdmissionController.occupancy`` is remembered between reservation
changes.

The service layer reads the occupancy summary on every tick, while the
reservations behind it change only when a channel is admitted,
released, degraded, re-windowed by a horizon reduction or restored.
Over random sequences of those operations the remembered summary must
always equal one computed afresh from the link schedules and buffer
accounts, and a caller that edits the dict it was handed must not
change what the next caller reads.
"""

from hypothesis import given, settings, strategies as st

from repro.channels import AdmissionError, TrafficSpec
from repro.channels.admission import ConnectionLoad
from repro.core.ports import port_mask
from tests.channels.test_manager import bare_manager

WIDTH = HEIGHT = 3
NODES = [(x, y) for x in range(WIDTH) for y in range(HEIGHT)]


def _recomputed(admission):
    """The summary, read straight off every schedule and account."""
    link_utils = [sum(load.packets / load.i_min for load in schedule.loads)
                  for schedule in admission._links.values()
                  if schedule.loads]
    capacity = admission.params.tc_packet_slots
    fills = [buffers.reserved_total / capacity
             for buffers in admission._nodes.values()
             if buffers.reserved_total]
    return {
        "max_link_utilisation": max(link_utils, default=0.0),
        "mean_link_utilisation": (sum(link_utils) / len(link_utils)
                                  if link_utils else 0.0),
        "links_loaded": len(link_utils),
        "max_buffer_fill": max(fills, default=0.0),
        "buffers_reserved": sum(buffers.reserved_total
                                for buffers in admission._nodes.values()),
    }


def _snapshot(controls, manager):
    return ({node: control.state() for node, control in controls.items()},
            manager.state(), manager.admission.state())


def _restore(controls, manager, snapshot):
    tables, channels, admission = snapshot
    for node, state in tables.items():
        controls[node].load_state(state)
    manager.load_state(channels)
    manager.admission.load_state(admission)


node = st.sampled_from(NODES)
ADMIT = st.tuples(st.just("admit"), node,
                  st.lists(node, min_size=1, max_size=2, unique=True),
                  st.integers(4, 12), st.integers(1, 2), st.integers(8, 40))
PICK = st.tuples(st.sampled_from(["release", "degrade"]),
                 st.integers(0, 50))
REDUCE = st.tuples(st.just("reduce_horizon"), node, st.integers(0, 3),
                   st.integers(0, 12))
RESTORE = st.tuples(st.sampled_from(["snapshot", "load_state"]))


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(st.one_of(ADMIT, PICK, REDUCE, RESTORE),
                      max_size=25))
def test_occupancy_is_always_a_fresh_recomputation(steps):
    controls, manager = bare_manager(WIDTH, HEIGHT)
    for control in controls.values():
        control.write_horizon(port_mask(0, 1, 2, 3, 4), 12)
    admission = manager.admission
    snapshot = _snapshot(controls, manager)
    measured = []
    measure = admission._measure_occupancy
    admission._measure_occupancy = lambda: measured.append(1) or measure()
    read_at = None  # the generation of the last summary handed out
    for step in steps:
        kind = step[0]
        if kind == "admit":
            _, source, destinations, i_min, b_max, deadline = step
            destinations = [d for d in destinations if d != source]
            if destinations:
                try:
                    manager.establish(
                        source, destinations,
                        TrafficSpec(i_min=i_min, b_max=b_max), deadline)
                except AdmissionError:
                    pass
        elif kind in ("release", "degrade") and manager.channels:
            channel = manager.channels[step[1] % len(manager.channels)]
            getattr(manager, "teardown" if kind == "release"
                    else "degrade")(channel)
        elif kind == "reduce_horizon":
            _, where, port, lower = step
            current = controls[where].horizons[port]
            manager.reduce_horizon(where, port, min(lower, current))
        elif kind == "snapshot":
            snapshot = _snapshot(controls, manager)
        elif kind == "load_state":
            _restore(controls, manager, snapshot)

        if kind == "load_state":
            assert admission.generation != read_at
        expected = _recomputed(admission)
        count = len(measured)
        handed = admission.occupancy()
        assert handed == expected, step
        # Recomputed exactly when a reservation changed since last read.
        assert len(measured) - count == (admission.generation != read_at)
        read_at = admission.generation
        # A caller may scribble on its copy...
        handed["max_link_utilisation"] = 2.0
        handed["links_loaded"] = -1
        handed["scribbled"] = True
        # ...and the next reader, with no change in between, still gets
        # the summary, without a recomputation.
        count = len(measured)
        assert admission.occupancy() == expected, step
        assert len(measured) == count


def test_no_change_no_recomputation():
    controls, manager = bare_manager(WIDTH, HEIGHT)
    admission = manager.admission
    measured = []
    measure = admission._measure_occupancy
    admission._measure_occupancy = lambda: measured.append(1) or measure()
    for _ in range(5):
        admission.occupancy()
    assert len(measured) == 1
    channel = manager.establish((0, 0), (2, 2), TrafficSpec(i_min=10),
                                deadline=40)
    first = admission.occupancy()
    assert first["links_loaded"] == 5 and len(measured) == 2
    for _ in range(5):
        assert admission.occupancy() == first
    assert len(measured) == 2
    manager.teardown(channel)
    assert admission.occupancy()["links_loaded"] == 0
    assert len(measured) == 3


def test_every_reservation_change_is_seen():
    # Each of the four primitive changes on its own, outside any
    # admission: the next read reflects it.
    __, manager = bare_manager(WIDTH, HEIGHT)
    admission = manager.admission
    load = ConnectionLoad(packets=1, i_min=4, b_max=1, deadline=3)
    schedule = admission.link((0, 0), 0)
    buffers = admission.node((1, 1))
    for change, links, buffered in [
            (lambda: schedule.add(load), 1, 0),
            (lambda: buffers.reserve(2, 3), 1, 3),
            (lambda: schedule.remove(load), 0, 3),
            (lambda: buffers.release(2, 3), 0, 0)]:
        admission.occupancy()
        before = admission.generation
        change()
        assert admission.generation > before
        occupancy = admission.occupancy()
        assert occupancy == _recomputed(admission)
        assert (occupancy["links_loaded"], occupancy["buffers_reserved"]) \
            == (links, buffered)
