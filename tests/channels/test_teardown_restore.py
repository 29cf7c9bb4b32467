"""Teardown must restore *exact* baseline occupancy.

A long-running control plane (the service layer) admits and tears
channels down thousands of times per run; any residue left by a
teardown — a lingering link load, an unreleased buffer, a connection
id never returned, a table slot left programmed — accumulates until
admission wrongly refuses everything.  These tests pin the full
occupancy snapshot across admit → teardown → re-admit cycles, and the
rollback paths of establishments that fail *after* the reservation was
committed (the id-exhaustion leak).
"""

import pytest

from repro.channels import AdmissionError, ChannelManager, TrafficSpec
from repro.channels.admission import AdmissionController
from repro.core import RealTimeRouter, RouterParams


def make_fabric(width=3, height=3, params=None):
    params = params or RouterParams()
    routers = {
        (x, y): RealTimeRouter(params, router_id=(x, y))
        for x in range(width) for y in range(height)
    }
    controls = {node: router.control for node, router in routers.items()}
    return routers, ChannelManager(controls, AdmissionController(params),
                                   params)


def occupancy_snapshot(routers, manager):
    """Everything establishment consumes, in one comparable value."""
    admission = manager.admission
    links = {
        key: sorted(
            (load.packets, load.i_min, load.b_max, load.deadline)
            for load in schedule.loads
        )
        for key, schedule in admission._links.items()
        if schedule.loads
    }
    buffers = {
        node: (node_buffers.reserved_total,
               tuple(sorted((port, packets) for port, packets
                            in node_buffers.reserved_per_port.items()
                            if packets)))
        for node, node_buffers in admission._nodes.items()
        if node_buffers.reserved_total
    }
    used_ids = {node: tuple(sorted(ids))
                for node, ids in manager._used_ids.items() if ids}
    programmed = {node: tuple(router.control.table.programmed_ids())
                  for node, router in routers.items()
                  if router.control.table.programmed_ids()}
    return {
        "links": links,
        "buffers": buffers,
        "used_ids": used_ids,
        "programmed": programmed,
        "live_channels": len(manager.channels),
    }


class TestTeardownRestoresOccupancy:
    def test_unicast_admit_teardown_readmit(self):
        routers, manager = make_fabric()
        baseline = occupancy_snapshot(routers, manager)
        spec = TrafficSpec(i_min=10)

        channel = manager.establish((0, 0), (2, 2), spec, deadline=60,
                                    adaptive=False)
        loaded = occupancy_snapshot(routers, manager)
        assert loaded != baseline

        manager.teardown(channel)
        assert occupancy_snapshot(routers, manager) == baseline

        # Re-admitting the identical channel lands on the identical
        # occupancy: nothing from the first round lingered.
        manager.establish((0, 0), (2, 2), spec, deadline=60,
                          adaptive=False)
        assert occupancy_snapshot(routers, manager) == loaded

    def test_multicast_admit_teardown_readmit(self):
        routers, manager = make_fabric()
        baseline = occupancy_snapshot(routers, manager)
        spec = TrafficSpec(i_min=16)

        channel = manager.establish((0, 0), [(2, 0), (0, 2)], spec,
                                    deadline=96)
        loaded = occupancy_snapshot(routers, manager)
        assert loaded != baseline

        manager.teardown(channel)
        assert occupancy_snapshot(routers, manager) == baseline

        manager.establish((0, 0), [(2, 0), (0, 2)], spec, deadline=96)
        assert occupancy_snapshot(routers, manager) == loaded

    def test_churn_cycle_leaves_no_residue(self):
        routers, manager = make_fabric()
        baseline = occupancy_snapshot(routers, manager)
        spec = TrafficSpec(i_min=12)
        for round_number in range(20):
            channels = [
                manager.establish((0, 0), (2, 2), spec, deadline=72,
                                  adaptive=False),
                manager.establish((2, 0), (0, 2), spec, deadline=72,
                                  adaptive=False),
            ]
            for channel in channels:
                manager.teardown(channel)
            assert occupancy_snapshot(routers, manager) == baseline, (
                f"residue after churn round {round_number}"
            )

    def test_teardown_label_and_forget_degraded(self):
        routers, manager = make_fabric()
        baseline = occupancy_snapshot(routers, manager)
        spec = TrafficSpec(i_min=10)
        channel = manager.establish((0, 0), (1, 1), spec, deadline=40,
                                    label="svc-0", adaptive=False)
        assert manager.teardown_label("svc-0") is True
        assert manager.teardown_label("svc-0") is False
        assert occupancy_snapshot(routers, manager) == baseline

        channel = manager.establish((0, 0), (1, 1), spec, deadline=40,
                                    label="svc-1", adaptive=False)
        manager.degrade(channel)
        # Degradation already freed the guaranteed-service state...
        assert occupancy_snapshot(routers, manager) == baseline
        assert manager.find("svc-1") is channel
        # ...and forgetting drops the handle so the table stays bounded.
        assert manager.forget_degraded("svc-1") is True
        assert manager.find("svc-1") is None
        assert manager.forget_degraded("svc-1") is False


class TestFailedEstablishmentRollback:
    def test_id_exhaustion_releases_reservation(self):
        """The historical leak: admission committed, ids exhausted.

        With one connection id per router, the second establishment
        fails at id allocation *after* its reservation was committed.
        The failure must roll the reservation back — occupancy returns
        to the single-channel load, and after tearing the first channel
        down the fabric is exactly at baseline again.
        """
        params = RouterParams(connections=1)
        routers, manager = make_fabric(params=params)
        baseline = occupancy_snapshot(routers, manager)
        spec = TrafficSpec(i_min=20)

        first = manager.establish((0, 0), (1, 1), spec, deadline=80,
                                  adaptive=False)
        loaded = occupancy_snapshot(routers, manager)

        with pytest.raises(AdmissionError) as excinfo:
            manager.establish((0, 0), (1, 1), spec, deadline=80,
                              adaptive=False)
        assert excinfo.value.reason == "connection-ids"
        assert occupancy_snapshot(routers, manager) == loaded

        manager.teardown(first)
        assert occupancy_snapshot(routers, manager) == baseline

        # The fabric is genuinely reusable after the failed attempt.
        manager.establish((0, 0), (1, 1), spec, deadline=80,
                          adaptive=False)
        assert occupancy_snapshot(routers, manager) == loaded

    def test_multicast_id_exhaustion_releases_reservation(self):
        params = RouterParams(connections=1)
        routers, manager = make_fabric(params=params)
        baseline = occupancy_snapshot(routers, manager)
        spec = TrafficSpec(i_min=20)

        first = manager.establish((0, 0), (1, 1), spec, deadline=80,
                                  adaptive=False)
        loaded = occupancy_snapshot(routers, manager)

        with pytest.raises(AdmissionError) as excinfo:
            manager.establish((0, 0), [(2, 0), (0, 2)], spec,
                              deadline=120)
        assert excinfo.value.reason == "connection-ids"
        assert occupancy_snapshot(routers, manager) == loaded

        manager.teardown(first)
        assert occupancy_snapshot(routers, manager) == baseline


class TestStructuredAdmissionError:
    def test_link_schedulability_details(self):
        routers, manager = make_fabric(width=2, height=1)
        spec = TrafficSpec(i_min=4)
        manager.establish((0, 0), (1, 0), spec, deadline=16,
                          adaptive=False)
        with pytest.raises(AdmissionError) as excinfo:
            for index in range(8):
                manager.establish((0, 0), (1, 0), spec, deadline=16,
                                  adaptive=False)
        error = excinfo.value
        assert error.reason in ("link-schedulability", "buffer-capacity")
        details = error.details()
        assert details["reason"] == error.reason
        assert details["node"] is not None
        assert details["demanded"] is not None
        assert details["available"] is not None

    def test_deadline_too_tight_details(self):
        __, manager = make_fabric()
        with pytest.raises(AdmissionError) as excinfo:
            manager.establish((0, 0), (2, 2), TrafficSpec(i_min=10),
                              deadline=5, adaptive=False)
        assert excinfo.value.reason == "deadline-too-tight"
        assert excinfo.value.available == 5

    def test_details_are_json_serialisable(self):
        import json

        __, manager = make_fabric()
        with pytest.raises(AdmissionError) as excinfo:
            manager.establish((0, 0), (2, 2), TrafficSpec(i_min=10),
                              deadline=5, adaptive=False)
        json.dumps(excinfo.value.details())
