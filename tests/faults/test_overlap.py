"""Overlapping-fault semantics on a single link.

These tests pin the rules documented in
:meth:`repro.faults.injector.FaultInjector._fire`: cuts are
idempotent, repairs of live links are no-ops, a second corruptor on a
link replaces the first (last write wins, unspent budget discarded),
and corruptors are wire properties that survive cut/repair cycles.
The JSON file format refuses overlapping cut windows outright
(`tests/faults/test_plan.py`); the injector rules below govern plans
built programmatically.
"""

import pytest

from repro.checkpoint.codec import SaveContext
from repro.faults.injector import (
    BitFlipCorruptor,
    FaultInjector,
    PacketDropCorruptor,
)
from repro.faults.plan import CORRUPT, CUT, DROP, REPAIR, FaultEvent, FaultPlan
from repro.network.network import MeshNetwork

LINK_NODE = (0, 0)
LINK_DIR = 0  # east out of the origin; exists on any 2x2+ mesh
LINK = (LINK_NODE, LINK_DIR)


def _install(events):
    net = MeshNetwork(2, 2)
    injector = FaultInjector(net, FaultPlan(events=events))
    net.engine.add_component(injector)
    return net, injector


class TestCutOverlap:
    def test_cut_is_idempotent(self):
        net, injector = _install([
            FaultEvent(cycle=10, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=20, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        injector.step(15)
        assert (LINK_NODE, LINK_DIR) in net.failed_links
        injector.step(25)  # second cut of the same dead link: no-op
        assert (LINK_NODE, LINK_DIR) in net.failed_links
        assert len(injector.fired) == 2

    def test_repair_after_double_cut_still_restores(self):
        net, injector = _install([
            FaultEvent(cycle=10, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=20, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=30, kind=REPAIR, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        injector.step(30)
        assert (LINK_NODE, LINK_DIR) not in net.failed_links

    def test_repair_of_live_link_is_noop(self):
        net, injector = _install([
            FaultEvent(cycle=10, kind=REPAIR, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        injector.step(10)
        assert (LINK_NODE, LINK_DIR) not in net.failed_links
        assert injector.fired == injector.plan.events


class TestCorruptorOverlap:
    def test_last_corruptor_wins(self):
        net, injector = _install([
            FaultEvent(cycle=10, kind=CORRUPT, node=LINK_NODE,
                       direction=LINK_DIR, amount=3),
            FaultEvent(cycle=20, kind=DROP, node=LINK_NODE,
                       direction=LINK_DIR, amount=1),
        ])
        injector.step(10)
        first = net.link_monitors[LINK].corruptor
        assert isinstance(first, BitFlipCorruptor)
        assert first.remaining == 3
        injector.step(20)
        second = net.link_monitors[LINK].corruptor
        assert isinstance(second, PacketDropCorruptor)
        # The replacement starts from its own budget; the first
        # corruptor's three unspent packets are discarded, never
        # merged into the new one.
        assert second.remaining == 1
        # The wire holds the one corruptor, and saves only it.
        [saved] = net.state(SaveContext())["corruptors"]
        assert saved == [list(LINK_NODE), LINK_DIR, second.state()]

    def test_same_kind_replacement_discards_unspent_budget(self):
        net, injector = _install([
            FaultEvent(cycle=10, kind=DROP, node=LINK_NODE,
                       direction=LINK_DIR, amount=5),
            FaultEvent(cycle=20, kind=DROP, node=LINK_NODE,
                       direction=LINK_DIR, amount=2),
        ])
        injector.step(20)
        corruptor = net.link_monitors[LINK].corruptor
        assert corruptor.remaining == 2

    def test_corruptor_survives_cut_and_repair(self):
        net, injector = _install([
            FaultEvent(cycle=10, kind=CORRUPT, node=LINK_NODE,
                       direction=LINK_DIR, amount=2),
            FaultEvent(cycle=20, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=30, kind=REPAIR, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        injector.step(10)
        installed = net.link_monitors[LINK].corruptor
        injector.step(30)
        assert (LINK_NODE, LINK_DIR) not in net.failed_links
        assert net.link_monitors[LINK].corruptor is installed
        assert installed.remaining == 2


class TestFileFormatRefusesOverlap:
    """The JSON loader rejects what the injector would silently no-op."""

    def test_overlapping_cut_windows_rejected(self):
        plan = FaultPlan(events=[
            FaultEvent(cycle=10, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=20, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        with pytest.raises(ValueError, match="overlapping cut windows"):
            FaultPlan.from_json(plan.to_json())

    def test_orphan_repair_rejected(self):
        plan = FaultPlan(events=[
            FaultEvent(cycle=10, kind=REPAIR, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        with pytest.raises(ValueError, match="without a preceding cut"):
            FaultPlan.from_json(plan.to_json())

    def test_sequential_cut_windows_accepted(self):
        plan = FaultPlan(events=[
            FaultEvent(cycle=10, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=20, kind=REPAIR, node=LINK_NODE,
                       direction=LINK_DIR),
            FaultEvent(cycle=30, kind=CUT, node=LINK_NODE,
                       direction=LINK_DIR),
        ])
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.events == plan.events
