"""Tests for the shared comparator tree and its pipeline (paper Fig. 5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clock import RolloverClock
from repro.core.comparator_tree import ComparatorTree, SchedulerPipeline
from repro.core.leaf_state import LeafArray
from repro.core.params import OUTPUT_PORTS, RouterParams
from repro.core.sorting_key import compute_key


def make_tree(slots: int = 16) -> tuple[ComparatorTree, LeafArray, RolloverClock]:
    params = RouterParams(tc_packet_slots=slots)
    leaves = LeafArray(params)
    return ComparatorTree(params, leaves), leaves, RolloverClock(bits=8)


class TestSelection:
    def test_empty_tree_selects_nothing(self):
        tree, __, clock = make_tree()
        assert tree.select_for_port(0, clock, 0) is None

    def test_selects_min_deadline_on_time(self):
        tree, leaves, clock = make_tree()
        clock.set(50)
        leaves.install(0, arrival=40, deadline=70, port_mask=1)
        leaves.install(1, arrival=45, deadline=60, port_mask=1)
        leaves.install(2, arrival=30, deadline=90, port_mask=1)
        selection = tree.select_for_port(0, clock, 0)
        assert selection.leaf_index == 1
        assert selection.transmissible

    def test_on_time_beats_early_regardless_of_field(self):
        tree, leaves, clock = make_tree()
        clock.set(50)
        leaves.install(0, arrival=51, deadline=61, port_mask=1)  # early, near
        leaves.install(1, arrival=10, deadline=170, port_mask=1)  # on-time, far
        selection = tree.select_for_port(0, clock, 0)
        assert selection.leaf_index == 1

    def test_port_eligibility_respected(self):
        tree, leaves, clock = make_tree()
        leaves.install(0, arrival=0, deadline=5, port_mask=0b00001)
        leaves.install(1, arrival=0, deadline=9, port_mask=0b00010)
        assert tree.select_for_port(0, clock, 0).leaf_index == 0
        assert tree.select_for_port(1, clock, 0).leaf_index == 1
        assert tree.select_for_port(2, clock, 0) is None

    def test_early_marked_untransmissible_beyond_horizon(self):
        tree, leaves, clock = make_tree()
        clock.set(10)
        leaves.install(0, arrival=20, deadline=30, port_mask=1)
        assert not tree.select_for_port(0, clock, 5).transmissible
        assert tree.select_for_port(0, clock, 10).transmissible

    def test_tie_breaks_to_lower_index(self):
        tree, leaves, clock = make_tree()
        clock.set(5)
        leaves.install(3, arrival=0, deadline=9, port_mask=1)
        leaves.install(7, arrival=0, deadline=9, port_mask=1)
        assert tree.select_for_port(0, clock, 0).leaf_index == 3

    def test_select_all_ports(self):
        tree, leaves, clock = make_tree()
        leaves.install(0, 0, 3, port_mask=0b11111)
        selections = tree.select_all_ports(clock, [0] * OUTPUT_PORTS)
        assert all(s.leaf_index == 0 for s in selections)


class TestAgainstSortedReference:
    @settings(max_examples=60)
    @given(
        now=st.integers(0, 255),
        packets=st.lists(
            st.tuples(st.integers(-100, 100),   # arrival offset from now
                      st.integers(1, 27),       # delay
                      st.integers(1, 31)),      # port mask
            min_size=1, max_size=16,
        ),
    )
    def test_matches_key_sort(self, now, packets):
        """The tournament winner equals min over computed keys."""
        tree, leaves, clock = make_tree(slots=16)
        clock.set(now)
        for index, (offset, delay, mask) in enumerate(packets):
            arrival = (now + offset) & 255
            leaves.install(index, arrival, (arrival + delay) & 255, mask)
        for port in range(OUTPUT_PORTS):
            eligible = [
                (compute_key(clock, leaves[i].arrival, leaves[i].deadline), i)
                for i, (__, __, mask) in enumerate(packets)
                if mask & (1 << port)
            ]
            selection = tree.select_for_port(port, clock, 0)
            if not eligible:
                assert selection is None
            else:
                best_key, best_index = min(
                    eligible, key=lambda pair: (pair[0]._rank(), pair[1])
                )
                assert selection.leaf_index == best_index
                assert selection.key == best_key


class TestStructure:
    def test_comparator_count(self):
        tree, __, __ = make_tree(slots=256)
        assert tree.comparator_count == 256  # 255 interior + horizon

    def test_depth(self):
        tree, __, __ = make_tree(slots=256)
        assert tree.depth == 8
        tree2, __, __ = make_tree(slots=16)
        assert tree2.depth == 4


class TestSchedulerPipeline:
    def make(self, stages: int = 2):
        params = RouterParams(tc_packet_slots=8, pipeline_stages=stages)
        leaves = LeafArray(params)
        tree = ComparatorTree(params, leaves)
        return SchedulerPipeline(params, tree), leaves

    def test_latency_matches_stage_count(self):
        pipeline, leaves = self.make(stages=2)
        clock = RolloverClock(bits=8)
        leaves.install(0, 0, 5, port_mask=1)
        pipeline.request(0)
        results = []
        for cycle in range(20):
            results.extend(pipeline.step(cycle, clock, [0] * OUTPUT_PORTS))
            if results:
                break
        # Started at cycle 0, latency 2 * 3 cycles.
        assert cycle == pipeline.latency
        port, selection = results[0]
        assert port == 0 and selection.leaf_index == 0

    def test_one_outstanding_request_per_port(self):
        pipeline, __ = self.make()
        assert pipeline.request(1) is True
        assert pipeline.request(1) is False
        assert pipeline.has_request(1)

    def test_initiation_interval_throttles(self):
        pipeline, leaves = self.make()
        clock = RolloverClock(bits=8)
        leaves.install(0, 0, 5, port_mask=0b11)
        for port in (0, 1):
            pipeline.request(port)
        completions = {}
        for cycle in range(30):
            for port, sel in pipeline.step(cycle, clock, [0] * OUTPUT_PORTS):
                completions[port] = cycle
        assert completions[1] - completions[0] == pipeline.initiation_interval

    def test_sustains_paper_throughput(self):
        """Five ports, one decision each per 20-cycle slot time."""
        pipeline, leaves = self.make()
        clock = RolloverClock(bits=8)
        leaves.install(0, 0, 5, port_mask=0b11111)
        done = []
        for cycle in range(20):
            done.extend(pipeline.step(cycle, clock, [0] * OUTPUT_PORTS))
            for port in range(OUTPUT_PORTS):
                pipeline.request(port)
        assert len(done) >= OUTPUT_PORTS

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), stages=st.integers(1, 3))
    def test_wake_cycle_says_exactly_when_step_can_act(self, seed, stages):
        """``wake_cycle`` against brute force: a ``step`` at ``cycle``
        does something iff ``wake_cycle <= cycle``, over random request
        sequences, skipped spans and a ``load_state`` round trip."""
        import random

        rng = random.Random(seed)
        pipeline, leaves = self.make(stages=stages)
        clock = RolloverClock(bits=8)
        leaves.install(0, 0, 5, port_mask=0b11111)
        horizons = [0] * OUTPUT_PORTS
        cycle = 0
        for _ in range(120):
            if rng.random() < 0.4:
                pipeline.request(rng.randrange(OUTPUT_PORTS))
            if rng.random() < 0.1:
                restored, __ = self.make(stages=stages)
                restored.tree = pipeline.tree
                restored.load_state(pipeline.state())
                assert restored.wake_cycle == pipeline.wake_cycle
                pipeline = restored
            before = pipeline.state()
            wake = pipeline.wake_cycle
            assert (wake is None) == (not pipeline.busy)
            completed = pipeline.step(cycle, clock, horizons)
            acted = bool(completed) or pipeline.state() != before
            assert acted == (wake is not None and wake <= cycle), (
                f"cycle {cycle}: wake_cycle {wake}, step acted: {acted}")
            cycle += rng.choice((1, 1, 1, 2, 5))
