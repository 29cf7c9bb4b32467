"""Tests for route selection and multicast tree construction."""

import pytest

from repro.channels.admission import AdmissionController, ConnectionLoad
from repro.channels.routing import (
    dimension_ordered_route,
    least_loaded_route,
    minimal_routes,
    multicast_tree,
    multicast_tree_avoiding,
    route_length,
    tree_parents,
    y_first_route,
)
from repro.core.ports import EAST, NORTH, RECEPTION, SOUTH, WEST


class TestDimensionOrdered:
    def test_x_then_y(self):
        route = dimension_ordered_route((0, 0), (2, 1))
        assert route == [
            ((0, 0), EAST), ((1, 0), EAST), ((2, 0), NORTH),
            ((2, 1), RECEPTION),
        ]

    def test_negative_directions(self):
        route = dimension_ordered_route((2, 2), (0, 0))
        ports = [p for __, p in route]
        assert ports == [WEST, WEST, SOUTH, SOUTH, RECEPTION]

    def test_self_route_is_reception_only(self):
        assert dimension_ordered_route((1, 1), (1, 1)) == [((1, 1), RECEPTION)]

    def test_route_length(self):
        route = dimension_ordered_route((0, 0), (3, 2))
        assert route_length(route) == 5
        assert len(route) == 6  # plus reception hop

    def test_y_first_differs(self):
        xy = dimension_ordered_route((0, 0), (1, 1))
        yx = y_first_route((0, 0), (1, 1))
        assert xy != yx
        assert xy[-1] == yx[-1]  # same destination

    def test_minimal_routes_dedupes_straight_lines(self):
        assert len(minimal_routes((0, 0), (3, 0))) == 1
        assert len(minimal_routes((0, 0), (2, 2))) == 2


class TestLeastLoaded:
    def test_prefers_unloaded_dimension_order(self):
        admission = AdmissionController()
        route = least_loaded_route(admission, (0, 0), (1, 1))
        assert route == dimension_ordered_route((0, 0), (1, 1))

    def test_avoids_congested_first_link(self):
        admission = AdmissionController()
        # Load the (0,0) east link heavily.
        admission.link((0, 0), EAST).add(
            ConnectionLoad(packets=1, i_min=2, b_max=1, deadline=2)
        )
        route = least_loaded_route(admission, (0, 0), (1, 1))
        assert route == y_first_route((0, 0), (1, 1))


class TestMulticastTree:
    def test_single_destination_degenerates_to_route(self):
        ports, order = multicast_tree((0, 0), [(2, 0)])
        assert order[0] == (0, 0)
        assert ports[(2, 0)] == {RECEPTION}
        assert ports[(0, 0)] == {EAST}

    def test_shared_prefix_merged(self):
        ports, order = multicast_tree((0, 0), [(2, 0), (2, 1)])
        # Both paths go east through (1,0) and (2,0) — single link used.
        assert ports[(0, 0)] == {EAST}
        assert ports[(1, 0)] == {EAST}
        assert ports[(2, 0)] == {RECEPTION, NORTH}
        assert ports[(2, 1)] == {RECEPTION}

    def test_branching_at_source(self):
        ports, order = multicast_tree((1, 1), [(0, 1), (2, 1)])
        assert ports[(1, 1)] == {EAST, WEST}

    def test_order_is_parents_first(self):
        ports, order = multicast_tree((0, 0), [(2, 0), (2, 2)])
        parents = tree_parents(ports, order)
        seen = set()
        for node in order:
            parent = parents[node]
            assert parent is None or parent in seen
            seen.add(node)

    def test_destination_on_path_gets_reception(self):
        ports, __ = multicast_tree((0, 0), [(1, 0), (2, 0)])
        assert RECEPTION in ports[(1, 0)]
        assert EAST in ports[(1, 0)]

    def test_a_torus_tree_may_cross_wrap_links(self):
        # Both destinations are one wrap link from the source.
        ports, order = multicast_tree_avoiding(
            4, 4, (0, 0), [(3, 0), (0, 3)], set(), torus=True)
        assert ports == {(0, 0): {WEST, SOUTH}, (3, 0): {RECEPTION},
                         (0, 3): {RECEPTION}}
        assert order[0] == (0, 0) and set(order) == set(ports)
        assert tree_parents(ports, order, (4, 4)) == {
            (0, 0): None, (3, 0): (0, 0), (0, 3): (0, 0)}

    def test_rejects_empty_destinations(self):
        with pytest.raises(ValueError):
            multicast_tree((0, 0), [])
