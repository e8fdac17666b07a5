"""Randomized oracle tests for the cached query engines.

Across ~50 seeded (dimension, disks, k, mode, cache size) combinations,
the parallel kNN result must exactly match the brute-force
``knn_linear_scan`` oracle with the cache enabled *and* disabled, and a
capacity-0 cache must reproduce the uncached page counts bit-for-bit —
the buffer pool may only ever change *where* a page is served from,
never which pages a query touches or what it answers.
"""

import itertools

import numpy as np
import pytest

from repro.baselines import RoundRobinDeclusterer
from repro.core import NearOptimalDeclusterer
from repro.index.knn import knn_linear_scan
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.store import DeclusteredStore

# 3 dims x 2 disk counts x 2 k x 2 modes x 2 cache sizes = 48 combos,
# plus the PagedStore and SequentialEngine suites below.
COMBOS = list(itertools.product(
    (2, 5, 8),            # dimension
    (3, 8),               # num_disks
    (1, 6),               # k
    ("coordinated", "independent"),
    (32, 4096),           # warm cache capacity (pages)
))

_STORES = {}


def _store(dimension, num_disks):
    """One DeclusteredStore per (dimension, disks) pair, reused across
    the parametrized combos (the engines never mutate it)."""
    key = (dimension, num_disks)
    if key not in _STORES:
        rng = np.random.default_rng(100 * dimension + num_disks)
        points = rng.random((400, dimension))
        _STORES[key] = (points, DeclusteredStore(
            points, RoundRobinDeclusterer(dimension, num_disks)
        ))
    return _STORES[key]


@pytest.mark.parametrize(
    "dimension,num_disks,k,mode,cache_pages", COMBOS
)
def test_parallel_knn_matches_oracle(
    dimension, num_disks, k, mode, cache_pages
):
    points, store = _store(dimension, num_disks)
    rng = np.random.default_rng(dimension * 1000 + num_disks * 10 + k)
    queries = rng.random((3, dimension))

    uncached = ParallelEngine(store)
    cold = ParallelEngine(store, cache=0)
    warm = ParallelEngine(store, cache=cache_pages)

    for query in queries:
        oracle = knn_linear_scan(points, query, k)
        oracle_oids = [n.oid for n in oracle]

        # Cache disabled entirely: the reference behavior.
        reference = uncached.query(query, k, mode=mode)
        assert [n.oid for n in reference.neighbors] == oracle_oids
        assert reference.cache_stats is None

        # Capacity 0: identical answers AND identical page counts.
        zero = cold.query(query, k, mode=mode)
        assert [n.oid for n in zero.neighbors] == oracle_oids
        assert np.array_equal(
            zero.pages_per_disk, reference.pages_per_disk
        )
        assert zero.cache_stats.hits == 0

        # Warm cache (queried twice): still the exact oracle answer,
        # never more disk reads than cold.
        for _ in range(2):
            cached = warm.query(query, k, mode=mode)
            assert [n.oid for n in cached.neighbors] == oracle_oids
            assert cached.total_pages <= reference.total_pages


@pytest.mark.parametrize("cache_pages", [0, 16, 4096])
def test_paged_engine_matches_oracle(cache_pages):
    rng = np.random.default_rng(55)
    points = rng.random((600, 6))
    store = PagedStore(
        points=points, declusterer=NearOptimalDeclusterer(6, 8)
    )
    uncached = PagedEngine(store)
    cached = PagedEngine(store, cache=cache_pages)
    for query in rng.random((4, 6)):
        oracle = [n.oid for n in knn_linear_scan(points, query, 5)]
        reference = uncached.query(query, 5)
        result = cached.query(query, 5)
        assert [n.oid for n in result.neighbors] == oracle
        assert [n.oid for n in reference.neighbors] == oracle
        if cache_pages == 0:
            assert np.array_equal(
                result.pages_per_disk, reference.pages_per_disk
            )


def test_sequential_engine_cache_oracle(small_uniform, rng):
    uncached = SequentialEngine(small_uniform)
    cold = SequentialEngine(
        small_uniform, tree=uncached.tree, cache=0
    )
    warm = SequentialEngine(
        small_uniform, tree=uncached.tree,
        cache=4096,
    )
    for query in rng.random((5, 6)):
        oracle = [n.oid for n in knn_linear_scan(small_uniform, query, 4)]
        reference = uncached.query(query, 4)
        zero = cold.query(query, 4)
        assert [n.oid for n in reference.neighbors] == oracle
        assert [n.oid for n in zero.neighbors] == oracle
        assert zero.pages == reference.pages
        first = warm.query(query, 4)
        second = warm.query(query, 4)
        assert [n.oid for n in second.neighbors] == oracle
        assert second.pages == 0          # fully served from RAM
        assert second.cache_stats.hit_ratio == 1.0
        assert first.pages <= reference.pages


def test_warm_repeat_charges_nothing():
    """A repeated query under a big cache touches no disk at all."""
    rng = np.random.default_rng(9)
    points = rng.random((500, 4))
    store = DeclusteredStore(points, RoundRobinDeclusterer(4, 5))
    for mode in ("coordinated", "independent"):
        engine = ParallelEngine(store, cache=4096)
        query = points[17]
        engine.query(query, 3, mode=mode)
        repeat = engine.query(query, 3, mode=mode)
        assert repeat.total_pages == 0
        assert repeat.cache_stats.misses == 0
        assert repeat.cache_stats.hit_ratio == 1.0
