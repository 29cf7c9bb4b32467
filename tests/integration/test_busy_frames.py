"""Frames crossing routers that are awake, against the reference chip.

``tests/integration/test_frames_in_flight.py`` pins frames on a chain
sparse enough that the routers they cross mostly sleep.  On a loaded
mesh (the ``dense_tc`` benchmark) they do not: a router steps every
cycle for other work while a committed frame crosses it, and the frame
still moves as one record — its sender moves ``sent``, ``staging`` and
``tc_bytes`` only at its last byte or when read, the receiver's
synchroniser holds its bytes as one run that ``capture`` takes whole
once the last of them matures, and the injection port feeds a host
packet whole at its last byte.  Here back-to-back time-constrained
packets and best-effort worms share links, and a multicast leaves one
router on two ports; against the reference chip (``tests/reference.py``)
the delivery records, every router document and the bytes each output
has sent must be equal at every cycle, between cycles and mid-cycle,
and a checkpoint taken mid-run resumes under both engines.
"""

import pytest

from tests.reference import (
    FabricPair,
    busy_mesh,
    compare,
    documents,
    records,
    restore,
    resume_everywhere,
    save,
)

CYCLES = 1_200


def test_awake_frames_equal_the_router_that_steps_every_byte():
    pair = FabricPair(busy_mesh, every=(1, 5))
    counts = compare(pair, range(1, CYCLES))
    net = pair.nets[0]
    assert counts["mid_cycle_reads"] == CYCLES - 1
    # Busy: both classes delivered, the multicast on both branches, and
    # frames crossing awake routers on most cycles.
    kinds = {(record.traffic_class, record.connection_label,
              record.delivered_node) for record in net.log.records}
    assert {("TC", "fan", (2, 0)), ("TC", "fan", (2, 1))} <= kinds
    assert sum(record.traffic_class == "BE"
               for record in net.log.records) > 10
    assert len(records(net)) > CYCLES // 20
    assert counts["awake_in_flight"] > CYCLES


@pytest.mark.parametrize("writer,reader", [
    ("event", "event"), ("event", "exact"), ("exact", "event")])
def test_a_busy_checkpoint_resumes(writer, reader):
    assert resume_everywhere(busy_mesh, writer, reader,
                             range(131, CYCLES, 257), CYCLES) >= 2


def test_a_restored_host_packet_is_one_run_again():
    # A document lists the host packet's unfed bytes one phit each; a
    # restore compacts them into one run again, placed in time by the
    # first feed, and refuses a list that is not one packet's bytes.
    writing = busy_mesh()
    net = writing.net
    for stop in range(1, CYCLES):
        writing.run_to(stop)
        feeding = [node for node, router in net.routers.items()
                   if router.inputs.tc_inject is not None
                   and 0 < router.inputs.tc_inject.index]
        if feeding:
            break
    node = feeding[0]
    run = net.routers[node].inputs.tc_inject
    state = save(net)
    restored = restore(busy_mesh().net, state)
    again = restored.routers[node].inputs.tc_inject
    assert (again.ready, again.data, again.index, again.ends) == (
        None, run.data, run.index, True)
    assert documents(restored) == documents(net)
    document = next(document for document in state["network"]["routers"]
                    if document["tc_inject_phits"])
    del document["tc_inject_phits"][1]  # a byte missing
    with pytest.raises(ValueError, match="tc_inject_phits"):
        restore(busy_mesh().net, state)
