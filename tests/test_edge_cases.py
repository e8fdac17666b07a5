"""Cross-cutting edge cases: degenerate inputs across the whole stack."""

import numpy as np
import pytest

from repro import (
    DeclusteredStore,
    NearOptimalDeclusterer,
    PagedEngine,
    PagedStore,
    ParallelEngine,
    SequentialEngine,
    knn_best_first,
    knn_linear_scan,
)
from repro.index.bulk import bulk_load


class TestOneDimensionalData:
    """d = 1 is the smallest valid space: 2 buckets, 2 colors."""

    def test_end_to_end(self, rng):
        points = rng.random((500, 1))
        declusterer = NearOptimalDeclusterer(1)
        assert declusterer.num_disks == 2
        store = PagedStore(points=points, declusterer=declusterer)
        engine = PagedEngine(store)
        query = np.array([0.37])
        result = engine.query(query, 3)
        oracle = knn_linear_scan(points, query, 3)
        assert [n.oid for n in result.neighbors] == [n.oid for n in oracle]


class TestKLargerThanN:
    def test_tree_returns_everything(self, rng):
        points = rng.random((7, 4))
        tree = bulk_load(points)
        result, _ = knn_best_first(tree, rng.random(4), 100)
        assert len(result) == 7

    def test_parallel_returns_everything(self, rng):
        points = rng.random((9, 4))
        store = DeclusteredStore(points, NearOptimalDeclusterer(4, 4))
        result = ParallelEngine(store).query(rng.random(4), 50)
        assert len(result.neighbors) == 9


class TestDegenerateGeometry:
    def test_all_identical_points(self):
        points = np.tile([[0.3, 0.7, 0.1]], (100, 1))
        tree = bulk_load(points)
        tree.check_invariants()
        result, _ = knn_best_first(tree, np.zeros(3), 5)
        assert len(result) == 5
        assert len({n.distance for n in result}) == 1

    def test_collinear_points(self, rng):
        t = rng.random(300)
        points = np.column_stack([t, t, t])
        tree = bulk_load(points)
        query = np.array([0.5, 0.5, 0.5])
        result, _ = knn_best_first(tree, query, 4)
        oracle = knn_linear_scan(points, query, 4)
        assert result[-1].distance == pytest.approx(oracle[-1].distance)

    def test_points_on_split_boundaries(self):
        """Coordinates exactly at 0.5 land deterministically in the upper
        quadrant."""
        points = np.full((50, 3), 0.5)
        declusterer = NearOptimalDeclusterer(3)
        assignment = declusterer.assign(points)
        assert np.unique(assignment).size == 1
        # The bucket is (1,1,1) = 7, col(7) = 1^2^3 = 0.
        assert assignment[0] == declusterer.disk_for_bucket(7)

    def test_query_far_outside_data_space(self, rng):
        points = rng.random((400, 5))
        store = PagedStore(points=points,
                           declusterer=NearOptimalDeclusterer(5, 8))
        query = np.full(5, 10.0)
        result = PagedEngine(store).query(query, 2)
        oracle = knn_linear_scan(points, query, 2)
        assert [n.oid for n in result.neighbors] == [n.oid for n in oracle]


class TestTinyStores:
    def test_single_point(self):
        points = np.array([[0.2, 0.8]])
        store = PagedStore(points=points,
                           declusterer=NearOptimalDeclusterer(2))
        result = PagedEngine(store).query(np.zeros(2), 1)
        assert [n.oid for n in result.neighbors] == [0]

    def test_fewer_points_than_disks(self, rng):
        points = rng.random((3, 6))
        store = DeclusteredStore(points, NearOptimalDeclusterer(6, 8))
        result = ParallelEngine(store).query(rng.random(6), 2)
        assert len(result.neighbors) == 2

    def test_sequential_engine_single_point(self):
        engine = SequentialEngine(np.array([[0.5, 0.5]]))
        result = engine.query(np.zeros(2), 1)
        assert result.max_pages == 1


class TestAsciiChart:
    def test_renders_bars(self):
        from repro.experiments.harness import ResultTable

        table = ResultTable("Speed", ["disks", "speedup"])
        table.add_row(1, 1.0)
        table.add_row(16, 12.0)
        chart = table.to_ascii_chart("speedup")
        assert "Speed — speedup" in chart
        lines = chart.splitlines()
        assert lines[1].count("#") < lines[2].count("#")

    def test_empty_chart(self):
        from repro.experiments.harness import ResultTable

        table = ResultTable("Empty", ["x", "y"])
        assert "(empty)" in table.to_ascii_chart("y")
