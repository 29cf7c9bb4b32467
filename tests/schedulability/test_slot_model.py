"""The slot-level model of an analysed problem (``slot_model``).

The analysis admits, routes and decomposes deadlines with the real
``ChannelManager``; the slot model must run exactly that admitted set,
so a miss in it is an admission bug, not a modelling difference.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.ports import DISPLACEMENT
from repro.network.topology import Mesh
from repro.schedulability import (
    ChannelDemand,
    TopologySpec,
    analyze,
    drive,
    measure,
    random_channel_demands,
    slot_model,
    worst_case_arrivals,
    worst_case_sends,
)
from repro.traffic import hotspot, transpose


def pattern_demands(width, count, seed, pattern):
    """The random demand stream with destinations re-pointed by a
    traffic pattern (same deadline recipe); self-loops are dropped."""
    mesh = Mesh(width, width)
    demands = []
    for demand in random_channel_demands(width, width, count, seed):
        destination = pattern(mesh, demand.source)
        if destination == demand.source:
            continue
        hops = mesh.hop_distance(demand.source, destination)
        demands.append(replace(demand, destinations=(destination,),
                               deadline=demand.i_min * (hops + 1) + 10))
    return demands


def run_worst_case(topology, demands, ticks=60):
    report = analyze(topology, demands)
    sim = slot_model(report, worst_case_arrivals(report, ticks))
    sim.run_until_drained()
    return report, sim


class TestAnalysedProblems:
    def test_single_channel(self):
        demand = ChannelDemand(label="one", source=(0, 0),
                               destinations=((2, 2),), i_min=10,
                               deadline=60)
        report = analyze(TopologySpec(3, 3), [demand])
        sim = slot_model(report, {"one": [10 * k for k in range(10)]})
        sim.run_until_drained()
        assert len(sim.delivered()) == 10
        assert sim.deadline_misses() == 0
        # Four links and the reception port, each its own EDF hop.
        channel, = sim.channels
        assert channel.links == report.channels[0].hops
        assert len(channel.links) == 5

    def test_random_channels_never_miss(self):
        report, sim = run_worst_case(
            TopologySpec(4, 4), random_channel_demands(4, 4, 40, seed=5))
        assert report.admitted > 0
        assert len(sim.channels) == report.admitted
        assert sim.deadline_misses() == 0
        assert len(sim.delivered()) == len(sim.packets)
        links = {event.link for event in sim.events}
        assert 0 < max(sim.link_utilisation(link) for link in links) <= 1.0

    def test_transpose_pattern(self):
        report, sim = run_worst_case(
            TopologySpec(4, 4), pattern_demands(4, 16, 2, transpose))
        assert report.admitted > 0
        assert sim.deadline_misses() == 0

    def test_hotspot_pattern_limits_admission(self):
        spread, __ = run_worst_case(
            TopologySpec(4, 4), random_channel_demands(4, 4, 30, seed=3))
        focused, sim = run_worst_case(
            TopologySpec(4, 4), pattern_demands(4, 30, 3, hotspot))
        # Every hotspot channel needs the one reception port, so fewer
        # are admitted than in the spread-out case.
        assert focused.admitted < spread.admitted
        assert sim.deadline_misses() == 0

    def test_admission_refuses_overload(self):
        demands = [ChannelDemand(label=f"o{index}", source=(0, 0),
                                 destinations=((1, 0),), i_min=4,
                                 deadline=8)
                   for index in range(10)]
        report, sim = run_worst_case(TopologySpec(2, 1), demands)
        assert 1 <= report.admitted <= 2
        assert report.reject_reasons == {
            "link-schedulability": 10 - report.admitted}
        assert sim.deadline_misses() == 0

    def test_only_admitted_channels_are_modelled(self):
        report, sim = run_worst_case(
            TopologySpec(2, 1),
            [ChannelDemand(label="ok", source=(0, 0),
                           destinations=((1, 0),), i_min=4, deadline=8),
             ChannelDemand(label="tight", source=(0, 0),
                           destinations=((1, 0),), i_min=4, deadline=2)])
        assert [channel.label for channel in sim.channels] == ["ok"]
        with pytest.raises(KeyError):
            slot_model(report, {})


class TestMulticastTree:
    DEMAND = ChannelDemand(label="mc", source=(0, 0),
                           destinations=((3, 0), (0, 3)), i_min=10,
                           deadline=40)

    def test_one_leaf_per_destination(self):
        report = analyze(TopologySpec(4, 4), [self.DEMAND])
        sim = slot_model(report, {"mc": [0, 10, 20]})
        sim.run_until_drained()
        verdict, = report.channels
        for packet in sim.packets:
            leaves = [verdict.hops[hop][0]
                      for hop, __ in packet.leaf_deliveries]
            assert sorted(leaves) == sorted(self.DEMAND.destinations)
        assert sim.deadline_misses() == 0

    def test_parents_follow_the_feeding_link(self):
        verdict, = analyze(TopologySpec(4, 4), [self.DEMAND]).channels
        for hop, parent in zip(verdict.hops, verdict.parents):
            if parent < 0:
                assert hop[0] == self.DEMAND.source
                continue
            (x, y), port = verdict.hops[parent]
            dx, dy = DISPLACEMENT[port]
            assert hop[0] == (x + dx, y + dy)

    def test_only_a_tree_writes_parents(self):
        unicast = ChannelDemand(label="u", source=(0, 0),
                                destinations=((3, 0),), i_min=10,
                                deadline=40)
        tree, chain = analyze(TopologySpec(4, 4),
                              [self.DEMAND, unicast]).channels
        assert tree.as_dict()["parents"] == tree.parents
        assert chain.parents is None
        assert "parents" not in chain.as_dict()


class TestWorstCaseSchedule:
    BURSTY = ChannelDemand(label="b", source=(0, 0),
                           destinations=((1, 0),), i_min=6, deadline=12,
                           b_max=3)

    def test_burst_then_periodic(self):
        assert worst_case_sends(self.BURSTY, 13) == [0, 0, 0, 6, 12]
        assert worst_case_sends(self.BURSTY, 0) == []

    def test_arrivals_are_stamped_by_the_logical_clock(self):
        report = analyze(TopologySpec(2, 1), [self.BURSTY])
        # The burst's messages arrive i_min apart; the periodic sends
        # queue behind them.
        assert worst_case_arrivals(report, 13) == {
            "b": [0, 6, 12, 18, 24]}

    def test_drive_sends_in_tick_then_channel_order(self):
        class Recorder:
            tick = 0

            def __init__(self):
                self.sent = []
                # The driver resolves every send's handle by label.
                self.manager = SimpleNamespace(find=lambda label: label)

            def send_message(self, channel):
                self.sent.append((self.tick, channel))

            def run_ticks(self, ticks):
                self.tick += ticks

            def drain(self, max_cycles):
                pass

        periodic = replace(self.BURSTY, label="p", i_min=3, b_max=1)
        net = Recorder()
        drive(net, [self.BURSTY, periodic], 9)
        assert net.sent == [(0, "b"), (0, "b"), (0, "b"), (0, "p"),
                            (3, "p"), (6, "b"), (6, "p")]

    def test_chip_stamps_the_same_arrivals(self):
        topology = TopologySpec(3, 3)
        demands = [self.BURSTY,
                   ChannelDemand(label="c", source=(2, 2),
                                 destinations=((0, 1),), i_min=6,
                                 deadline=40, b_max=2)]
        net, report = measure(topology, demands, ticks=20)
        assert report.prediction.admitted == 2
        stamped = {}
        for record in net.log.records:
            bound = report.prediction.verdict_for(
                record.connection_label).predicted_bound
            stamped.setdefault(record.connection_label, []).append(
                record.absolute_deadline - bound)
        expected = worst_case_arrivals(report.prediction, 20)
        assert {label: sorted(times) for label, times in stamped.items()} \
            == expected
