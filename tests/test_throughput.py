"""Tests for simultaneous batches: every arrival at t = 0."""

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.parallel.events import EventDrivenSimulator, QueryArrival
from repro.parallel.paged import PagedStore


def batch(queries, k=5):
    """A simultaneous batch: every query arrives at t = 0."""
    return [QueryArrival(0.0, query, k) for query in queries]


@pytest.fixture
def simulator(medium_uniform):
    store = PagedStore(
        points=medium_uniform, declusterer=NearOptimalDeclusterer(8, 8)
    )
    return EventDrivenSimulator(store)


class TestThroughputSimulator:
    def test_report_fields(self, simulator, rng):
        report = simulator.run(batch(rng.random((6, 8))))
        assert len(report.latencies_ms) == 6
        assert report.completion_ms > 0
        assert report.mean_latency_ms > 0
        assert report.throughput_qps > 0
        assert report.pages_per_disk.sum() > 0

    def test_makespan_is_busiest_disk(self, simulator, rng):
        report = simulator.run(batch(rng.random((4, 8))))
        t_page = report.page_service_time_ms
        assert report.completion_ms == pytest.approx(
            report.pages_per_disk.max() * t_page
        )

    def test_latency_at_least_single_query_time(self, simulator, rng):
        """Under FCFS each query's latency in the batch is at least its
        latency alone."""
        queries = rng.random((6, 8))
        alone = [
            simulator.run(batch([query])).latencies_ms[0]
            for query in queries
        ]
        together = simulator.run(batch(queries))
        assert (together.latencies_ms >= np.array(alone) - 1e-9).all()

    def test_throughput_grows_with_disks(self, medium_uniform, rng):
        queries = rng.random((8, 8))
        rates = []
        for num_disks in (1, 4, 8):
            store = PagedStore(
                points=medium_uniform,
                declusterer=NearOptimalDeclusterer(8, num_disks),
            )
            report = EventDrivenSimulator(store).run(batch(queries))
            rates.append(report.throughput_qps)
        assert rates == sorted(rates)
        assert rates[-1] > 2 * rates[0]

    def test_utilization_bounded(self, simulator, rng):
        report = simulator.run(batch(rng.random((6, 8))))
        utilization = report.utilization
        assert (utilization <= 1.0 + 1e-9).all()
        assert utilization.max() == pytest.approx(1.0)

    def test_aggregate_imbalance(self, simulator, rng):
        pages = simulator.run(batch(rng.random((6, 8)))).pages_per_disk
        assert pages.max() / pages.mean() >= 1.0

    def test_empty_batch(self, simulator):
        report = simulator.run(batch(np.zeros((0, 8))))
        assert len(report.latencies_ms) == 0
        assert report.completion_ms == 0.0
        assert report.throughput_qps == 0.0

    def test_single_query_matches_engine(self, simulator, rng):
        from repro.parallel.paged import PagedEngine

        query = rng.random(8)
        report = simulator.run(batch([query]))
        engine_result = PagedEngine(
            simulator.store, simulator.parameters
        ).query(query, 5)
        assert report.completion_ms == pytest.approx(
            engine_result.parallel_time_ms
        )


class TestThroughputWithCache:
    def test_no_cache_report_has_no_stats(self, simulator, rng):
        report = simulator.run(batch(rng.random((3, 8))))
        assert report.cache_stats is None

    def test_capacity_zero_matches_uncached(self, medium_uniform, rng):
        store = PagedStore(
            points=medium_uniform, declusterer=NearOptimalDeclusterer(8, 8)
        )
        queries = batch(rng.random((5, 8)))
        cold = EventDrivenSimulator(store).run(queries)
        zero = EventDrivenSimulator(store, cache=0).run(queries)
        assert np.array_equal(cold.pages_per_disk, zero.pages_per_disk)
        assert zero.completion_ms == pytest.approx(cold.completion_ms)
        assert zero.cache_stats.hits == 0

    def test_repeated_stream_charges_misses_only(self, medium_uniform,
                                                 rng):
        store = PagedStore(
            points=medium_uniform, declusterer=NearOptimalDeclusterer(8, 8)
        )
        query = rng.random(8)
        repeated = batch(np.tile(query, (6, 1)))
        cold = EventDrivenSimulator(store).run(repeated)
        warm = EventDrivenSimulator(store, cache=4096).run(repeated)
        # Only the first occurrence misses; five repeats hit the pool.
        single = EventDrivenSimulator(store).run(batch([query]))
        assert np.array_equal(
            warm.pages_per_disk, single.pages_per_disk
        )
        assert warm.completion_ms < cold.completion_ms
        assert warm.cache_stats.hit_ratio > 0.5
