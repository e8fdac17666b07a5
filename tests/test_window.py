"""Tests for parallel window and partial-match queries."""

import numpy as np
import pytest

from repro.baselines import DiskModuloDeclusterer, FXDeclusterer
from repro.core import NearOptimalDeclusterer
from repro.obs import RecordingTracer
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.window import partial_match_window


@pytest.fixture
def store(medium_uniform):
    return PagedStore(
        points=medium_uniform, declusterer=NearOptimalDeclusterer(8, 8)
    )


class TestParallelWindowQuery:
    def test_matches_brute_force(self, store, medium_uniform):
        low, high = np.full(8, 0.3), np.full(8, 0.8)
        result = PagedEngine(store).window(low, high)
        expected = {
            i
            for i, p in enumerate(medium_uniform)
            if (p >= low).all() and (p <= high).all()
        }
        assert {e.oid for e in result.entries} == expected

    def test_accounting(self, store):
        low, high = np.full(8, 0.2), np.full(8, 0.9)
        result = PagedEngine(store).window(low, high)
        assert result.pages_per_disk.shape == (8,)
        assert result.total_pages >= result.max_pages > 0
        assert result.parallel_time_ms > 0

    def test_empty_window(self, store):
        result = PagedEngine(store).window(np.full(8, 2.0), np.full(8, 3.0))
        assert result.entries == []
        assert result.total_pages == 0

    def test_full_window_reads_all_data_pages(self, store):
        result = PagedEngine(store).window(np.zeros(8), np.ones(8))
        assert len(result.entries) == len(store)
        assert result.total_pages == len(store.leaves)

    def test_empty_store(self):
        empty = PagedStore(
            points=np.zeros((0, 4)),
            declusterer=NearOptimalDeclusterer(4, 4),
        )
        result = PagedEngine(empty).window(np.zeros(4), np.ones(4))
        assert result.entries == []

    @pytest.mark.parametrize("cache", (None, 16))
    def test_traced_pages_equal_pages_per_disk(self, store, cache):
        """The shell's charge site serves windows too: ``page_read``
        totals equal ``pages_per_disk``, with or without a pool."""
        tracer = RecordingTracer()
        engine = PagedEngine(store, cache=cache, tracer=tracer)
        totals = np.zeros(8, dtype=np.int64)
        for center in np.random.default_rng(0).random((4, 8)):
            totals += engine.window(
                np.maximum(center - 0.3, 0.0), np.minimum(center + 0.3, 1.0)
            ).pages_per_disk
        assert totals.sum() > 0
        assert tracer.pages_per_disk(8) == totals.tolist()

    def test_repeated_window_on_warm_pool_charges_nothing(self, store):
        engine = PagedEngine(store, cache=len(store.leaves))
        low, high = np.full(8, 0.2), np.full(8, 0.9)
        first = engine.window(low, high)
        second = engine.window(low, high)
        assert first.cache_stats.misses == first.total_pages > 0
        assert second.total_pages == 0
        assert second.cache_stats.hits == first.total_pages
        assert second.cache_stats.misses == 0
        assert [e.oid for e in second.entries] == [
            e.oid for e in first.entries
        ]


class TestPartialMatchWindow:
    def test_docstring_example(self):
        low, high = partial_match_window(3, {1: 0.5}, tolerance=0.1)
        assert low.tolist() == [0.0, 0.4, 0.0]
        assert high.tolist() == [1.0, 0.6, 1.0]

    def test_clipping_at_bounds(self):
        low, high = partial_match_window(2, {0: 0.01, 1: 0.99},
                                         tolerance=0.05)
        assert low[0] == 0.0
        assert high[1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_match_window(3, {5: 0.5})
        with pytest.raises(ValueError):
            partial_match_window(3, {0: 0.5}, tolerance=-1)

    def test_end_to_end_partial_match(self, medium_uniform):
        """Partial-match queries run against every declusterer."""
        low, high = partial_match_window(8, {0: 0.5, 3: 0.2},
                                         tolerance=0.1)
        reference = None
        for declusterer in (
            NearOptimalDeclusterer(8, 8),
            DiskModuloDeclusterer(8, 8),
            FXDeclusterer(8, 8),
        ):
            store = PagedStore(points=medium_uniform,
                               declusterer=declusterer)
            result = PagedEngine(store).window(low, high)
            oids = sorted(e.oid for e in result.entries)
            if reference is None:
                reference = oids
            assert oids == reference
        assert reference  # the band is wide enough to match something
