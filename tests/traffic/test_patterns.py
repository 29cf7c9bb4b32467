"""Tests for the spatial traffic patterns."""

import pytest

from repro.network.topology import Mesh
from repro.traffic import (
    all_pairs,
    bit_complement,
    hotspot,
    transpose,
    uniform_random,
)


class TestPatterns:
    def test_transpose(self):
        mesh = Mesh(4, 4)
        assert transpose(mesh, (1, 3)) == (3, 1)

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            transpose(Mesh(2, 3), (0, 0))

    def test_bit_complement(self):
        mesh = Mesh(4, 4)
        assert bit_complement(mesh, (0, 0)) == (3, 3)
        assert bit_complement(mesh, (1, 2)) == (2, 1)

    def test_hotspot_default_centre(self):
        mesh = Mesh(4, 4)
        assert hotspot(mesh, (0, 0)) == (2, 2)

    def test_hotspot_custom(self):
        mesh = Mesh(4, 4)
        assert hotspot(mesh, (0, 0), spot=(3, 3)) == (3, 3)
        with pytest.raises(ValueError):
            hotspot(mesh, (0, 0), spot=(9, 9))

    def test_uniform_random_excludes_self(self):
        mesh = Mesh(2, 2)
        stream = uniform_random(mesh, (0, 0), seed=1)
        destinations = {next(stream) for _ in range(50)}
        assert (0, 0) not in destinations
        assert destinations <= {(1, 0), (0, 1), (1, 1)}

    def test_all_pairs_count(self):
        mesh = Mesh(3, 3)
        pairs = list(all_pairs(mesh))
        assert len(pairs) == 9 * 8
