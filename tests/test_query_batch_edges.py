"""Edge-case tests for the engines' ``query_batch`` API.

Gaps left by the PR 5 oracle suite: empty batches, ``k`` larger than
the store, duplicate queries inside one batch, single-point trees, and
scalar-kernel parity through the batch path.  All three
implementations (item-level, paged, sequential) are covered.
"""

import numpy as np
import pytest

from repro.index.knn import knn_linear_scan
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.store import DeclusteredStore
from repro.registry import make_declusterer
from tests.scalar_oracle import scalar_kernels

DIMENSION = 2
NUM_DISKS = 4


def points_of(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((n, DIMENSION))


def engines_for(points: np.ndarray, cache=None):
    """One engine per ``query_batch`` implementation over ``points``."""
    declusterer = make_declusterer("col", DIMENSION, NUM_DISKS)
    return {
        "item": ParallelEngine(
            DeclusteredStore(points, declusterer), cache=cache
        ),
        "paged": PagedEngine(
            PagedStore(points, declusterer), cache=cache
        ),
        "sequential": SequentialEngine(points, cache=cache),
    }


def neighbor_tuples(result):
    return [(int(n.oid), float(n.distance)) for n in result.neighbors]


class TestEmptyBatch:
    @pytest.mark.parametrize("name", ("item", "paged", "sequential"))
    @pytest.mark.parametrize(
        "empty",
        (
            [],
            np.empty((0, DIMENSION)),
            np.array([]),
        ),
        ids=("list", "0xd-array", "flat-array"),
    )
    def test_empty_batch_returns_empty_result(self, name, empty):
        engine = engines_for(points_of(50))[name]
        batch = engine.query_batch(empty, k=3)
        assert len(batch) == 0
        assert list(batch) == []
        assert batch.neighbors == []
        assert batch.total_pages == 0
        assert batch.max_pages == 0
        assert not batch.pages_per_disk.any()
        assert batch.cache_stats is None

    def test_empty_batch_keeps_disk_vector_width(self):
        engines = engines_for(points_of(50))
        assert len(engines["item"].query_batch([], k=1).pages_per_disk) \
            == NUM_DISKS
        assert len(engines["paged"].query_batch([], k=1).pages_per_disk) \
            == NUM_DISKS
        assert len(
            engines["sequential"].query_batch([], k=1).pages_per_disk
        ) == 1

    def test_empty_batch_leaves_cache_untouched(self):
        engine = engines_for(points_of(50), cache=16)["paged"]
        before = engine.cache.stats()
        engine.query_batch([], k=3)
        after = engine.cache.stats()
        assert after.accesses == before.accesses


class TestKLargerThanStore:
    @pytest.mark.parametrize("name", ("item", "paged", "sequential"))
    def test_k_exceeding_n_returns_all_points(self, name):
        points = points_of(7, seed=3)
        engine = engines_for(points)[name]
        queries = points_of(3, seed=4)
        batch = engine.query_batch(queries, k=50)
        assert len(batch) == 3
        for query, result in zip(queries, batch):
            assert len(result.neighbors) == len(points)
            oracle = knn_linear_scan(points, query, 50)
            assert neighbor_tuples(result) == [
                (int(o.oid), float(o.distance)) for o in oracle
            ]


class TestDuplicateQueries:
    @pytest.mark.parametrize("name", ("item", "paged", "sequential"))
    def test_duplicates_get_identical_answers_and_pages(self, name):
        points = points_of(80, seed=5)
        engine = engines_for(points)[name]
        query = points_of(1, seed=6)[0]
        batch = engine.query_batch(np.stack([query] * 4), k=5)
        assert len(batch) == 4
        first = batch.results[0]
        for result in batch.results[1:]:
            assert neighbor_tuples(result) == neighbor_tuples(first)
            assert np.array_equal(
                result.pages_per_disk, first.pages_per_disk
            )
        # Cacheless: the batch pays full price for every duplicate.
        assert np.array_equal(
            batch.pages_per_disk, 4 * first.pages_per_disk
        )

    def test_duplicates_hit_a_shared_pool(self):
        points = points_of(80, seed=5)
        engine = engines_for(points, cache=256)["paged"]
        query = points_of(1, seed=6)[0]
        batch = engine.query_batch(np.stack([query] * 4), k=5)
        stats = batch.cache_stats
        assert stats is not None
        # Later duplicates ride the first query's pages.
        assert stats.hits >= 3 * batch.results[0].cache_stats.accesses \
            - stats.misses
        assert batch.results[-1].cache_stats.misses == 0


class TestSinglePointTree:
    @pytest.mark.parametrize("name", ("item", "paged", "sequential"))
    @pytest.mark.parametrize("k", (1, 4))
    def test_single_point_store(self, name, k):
        points = points_of(1, seed=8)
        engine = engines_for(points)[name]
        batch = engine.query_batch(points_of(2, seed=9), k=k)
        for result in batch:
            assert len(result.neighbors) == 1
            assert result.neighbors[0].oid == 0
        assert batch.total_pages > 0


class TestScalarKernelParity:
    @pytest.mark.parametrize("name", ("item", "paged", "sequential"))
    def test_env_scalar_batch_matches_vectorized(self, name):
        """``query_batch`` under ``scalar_kernels()`` gives the
        vectorized path's answers and counters bit-for-bit."""
        points = points_of(120, seed=10)
        queries = points_of(5, seed=11)
        fast = engines_for(points)[name].query_batch(queries, k=4)
        with scalar_kernels():
            slow = engines_for(points)[name].query_batch(queries, k=4)
        assert np.array_equal(fast.pages_per_disk, slow.pages_per_disk)
        for left, right in zip(fast, slow):
            assert neighbor_tuples(left) == neighbor_tuples(right)
            assert np.array_equal(
                left.pages_per_disk, right.pages_per_disk
            )
