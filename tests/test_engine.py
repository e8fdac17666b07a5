"""Tests for the item-level parallel engine (coordinated + independent)."""

import numpy as np
import pytest

from repro.baselines import RoundRobinDeclusterer
from repro.core import NearOptimalDeclusterer
from repro.index.knn import knn_linear_scan
from repro.parallel.disks import DiskParameters
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.store import DeclusteredStore


@pytest.fixture
def setup(medium_uniform):
    store = DeclusteredStore(medium_uniform, RoundRobinDeclusterer(8, 4))
    return medium_uniform, store, ParallelEngine(store)


class TestCorrectness:
    @pytest.mark.parametrize("mode", ["coordinated", "independent"])
    def test_parallel_equals_oracle(self, setup, rng, mode):
        points, _, engine = setup
        for query in rng.random((10, 8)):
            for k in (1, 7):
                result = engine.query(query, k, mode=mode)
                oracle = knn_linear_scan(points, query, k)
                got = [n.distance for n in result.neighbors]
                assert got == pytest.approx([n.distance for n in oracle])

    def test_parallel_equals_sequential(self, setup, rng):
        points, _, engine = setup
        sequential = SequentialEngine(points)
        query = rng.random(8)
        p = engine.query(query, 5)
        s = sequential.query(query, 5)
        assert [n.oid for n in p.neighbors] == [n.oid for n in s.neighbors]

    def test_declusterer_independence(self, medium_uniform, rng):
        """Any declustering returns the same result set."""
        query = rng.random(8)
        oracle = knn_linear_scan(medium_uniform, query, 5)
        for declusterer in (
            RoundRobinDeclusterer(8, 7),
            NearOptimalDeclusterer(8, 16),
        ):
            store = DeclusteredStore(medium_uniform, declusterer)
            result = ParallelEngine(store).query(query, 5)
            assert [n.oid for n in result.neighbors] == [
                n.oid for n in oracle
            ]

    def test_invalid_mode(self, setup):
        _, _, engine = setup
        with pytest.raises(ValueError):
            engine.query(np.zeros(8), 1, mode="bogus")


class TestAccounting:
    def test_pages_attributed_to_disks(self, setup, rng):
        _, store, engine = setup
        result = engine.query(rng.random(8), 10)
        assert result.pages_per_disk.shape == (store.num_disks,)
        assert result.total_pages >= result.max_pages
        assert result.max_pages > 0

    def test_parallel_time_is_busiest_disk(self, setup, rng):
        _, _, engine = setup
        result = engine.query(rng.random(8), 10)
        t_page = engine.parameters.page_service_time_ms
        assert result.parallel_time_ms == pytest.approx(
            result.max_pages * t_page
        )

    def test_coordinated_reads_fewer_pages_than_independent(
        self, setup, rng
    ):
        """The shared pruning bound can only reduce per-disk reads."""
        _, _, engine = setup
        for query in rng.random((5, 8)):
            coordinated = engine.query(query, 5, mode="coordinated")
            independent = engine.query(query, 5, mode="independent")
            assert coordinated.total_pages <= independent.total_pages

    def test_custom_disk_parameters(self, medium_uniform, rng):
        store = DeclusteredStore(medium_uniform, RoundRobinDeclusterer(8, 4))
        slow = ParallelEngine(
            store, DiskParameters(seek_ms=100.0)
        )
        fast = ParallelEngine(
            store, DiskParameters(seek_ms=0.1)
        )
        query = rng.random(8)
        assert (
            slow.query(query, 3).parallel_time_ms
            > fast.query(query, 3).parallel_time_ms
        )


class TestSequentialEngine:
    def test_counts_leaf_pages_by_default(self, medium_uniform, rng):
        from repro.index.knn import knn_best_first

        engine = SequentialEngine(medium_uniform)
        query = rng.random(8)
        result = engine.query(query, 5)
        _, stats = knn_best_first(engine.tree, query, 5)
        assert result.max_pages == stats.leaf_accesses
        assert result.max_pages < stats.page_accesses

    def test_prebuilt_tree_reused(self, medium_uniform):
        from repro.index.bulk import bulk_load

        tree = bulk_load(medium_uniform)
        engine = SequentialEngine(None, tree=tree)
        assert engine.tree is tree

    def test_speedup_grows_with_disks(self, rng):
        """More disks -> lower parallel time (sanity of the whole
        pipeline)."""
        points = rng.random((4000, 8))
        queries = rng.random((5, 8))
        sequential = SequentialEngine(points)
        times = []
        for num_disks in (1, 4, 16):
            store = DeclusteredStore(
                points, RoundRobinDeclusterer(8, num_disks)
            )
            engine = ParallelEngine(store)
            times.append(
                np.mean([engine.query(q, 10).parallel_time_ms
                         for q in queries])
            )
        assert times[0] > times[1] > times[2]
        seq_time = np.mean(
            [sequential.query(q, 10).parallel_time_ms for q in queries]
        )
        assert times[0] == pytest.approx(seq_time, rel=0.25)
