"""Tests for the event-driven disk-queue simulation."""

import numpy as np
import pytest

from repro.core import NearOptimalDeclusterer
from repro.obs import RecordingTracer
from repro.parallel.events import (
    EventDrivenSimulator,
    QueryArrival,
    poisson_arrivals,
)
from repro.parallel.paged import PagedEngine, PagedStore
from repro.registry import make_declusterer
from tests.trace_checks import assert_clocks_monotonic


@pytest.fixture
def store(medium_uniform):
    return PagedStore(
        points=medium_uniform, declusterer=NearOptimalDeclusterer(8, 8)
    )


@pytest.fixture
def simulator(store):
    return EventDrivenSimulator(store)


class TestPoissonArrivals:
    def test_times_increasing(self, rng):
        arrivals = poisson_arrivals(rng.random((50, 4)), rate_qps=10.0,
                                    seed=1)
        times = [a.time_ms for a in arrivals]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_rate_controls_spacing(self, rng):
        queries = rng.random((200, 4))
        fast = poisson_arrivals(queries, rate_qps=100.0, seed=2)
        slow = poisson_arrivals(queries, rate_qps=1.0, seed=2)
        assert fast[-1].time_ms < slow[-1].time_ms

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            poisson_arrivals(rng.random((5, 4)), rate_qps=0.0)


class TestQueryArrival:
    @pytest.mark.parametrize(
        "time_ms", [-5.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_rejects_bad_arrival_times(self, time_ms):
        with pytest.raises(ValueError, match="time_ms"):
            QueryArrival(time_ms, np.zeros(2), 5)


class TestEventDrivenSimulator:
    def test_single_query_latency_equals_busiest_disk(self, store,
                                                      simulator, rng):
        query = rng.random(8)
        report = simulator.run([QueryArrival(0.0, query, 5)])
        expected = PagedEngine(store).query(query, 5).parallel_time_ms
        assert report.latencies_ms[0] == pytest.approx(expected)
        assert report.throughput_qps > 0

    def test_spread_out_arrivals_have_unqueued_latency(self, simulator,
                                                       rng):
        """Arrivals far apart never queue: each latency equals its own
        service demand."""
        queries = rng.random((5, 8))
        relaxed = simulator.run(
            [QueryArrival(i * 1e7, q, 5) for i, q in enumerate(queries)]
        )
        solo = [
            simulator.run([QueryArrival(0.0, q, 5)]).latencies_ms[0]
            for q in queries
        ]
        assert relaxed.latencies_ms == pytest.approx(np.array(solo))

    def test_simultaneous_arrivals_queue(self, simulator, rng):
        """Same queries arriving together must wait on each other."""
        queries = rng.random((6, 8))
        together = simulator.run(
            [QueryArrival(0.0, q, 5) for q in queries]
        )
        apart = simulator.run(
            [QueryArrival(i * 1e7, q, 5) for i, q in enumerate(queries)]
        )
        assert together.mean_latency_ms > apart.mean_latency_ms

    def test_latency_grows_with_offered_load(self, store, rng):
        simulator = EventDrivenSimulator(store)
        queries = rng.random((30, 8))
        light = simulator.run(poisson_arrivals(queries, 0.5, seed=3, k=5))
        heavy = simulator.run(poisson_arrivals(queries, 50.0, seed=3, k=5))
        assert heavy.mean_latency_ms > light.mean_latency_ms
        assert heavy.p95_latency_ms >= heavy.mean_latency_ms

    def test_utilization_bounded(self, simulator, rng):
        report = simulator.run(
            poisson_arrivals(rng.random((10, 8)), 5.0, seed=4, k=5)
        )
        assert (report.utilization <= 1.0 + 1e-9).all()

    def test_empty_stream(self, simulator):
        report = simulator.run([])
        assert report.mean_latency_ms == 0.0
        assert report.completion_ms == 0.0

    def test_page_totals_match_engine(self, store, simulator, rng):
        queries = rng.random((4, 8))
        report = simulator.run(
            [QueryArrival(float(i), q, 5) for i, q in enumerate(queries)]
        )
        engine = PagedEngine(store)
        expected = sum(
            engine.query(q, 5).pages_per_disk for q in queries
        )
        assert np.array_equal(report.pages_per_disk, expected)


class TestInputOrder:
    @pytest.mark.parametrize("shape", ["stream", "batch"])
    @pytest.mark.parametrize("scheme", ["col", "rr"])
    def test_shuffled_arrivals_give_the_same_outputs(self, scheme, shape):
        """A tied stream (four arrivals per instant) or a batch (all at
        t = 0) runs once time-sorted and once as a seeded shuffle of the
        whole list: every arrival gets the same result at its own input
        position, the per-disk totals agree, and the shuffled run's
        trace clocks only move forward."""
        rng = np.random.default_rng(7)
        points, queries = rng.random((300, 6)), rng.random((24, 6))
        store = PagedStore(
            points=points, declusterer=make_declusterer(scheme, 6, 8)
        )
        group = 4 if shape == "stream" else len(queries)
        arrivals = [
            QueryArrival(3.0 * (i // group), q, 5)
            for i, q in enumerate(queries)
        ]
        order = np.random.default_rng(11).permutation(len(arrivals))
        shuffled = [arrivals[i] for i in order]
        times = [arrival.time_ms for arrival in shuffled]
        assert (times != sorted(times)) == (shape == "stream")
        tracer = RecordingTracer()
        base = EventDrivenSimulator(store).run(arrivals, keep_results=True)
        run = EventDrivenSimulator(store, tracer=tracer).run(
            shuffled, keep_results=True
        )
        assert np.array_equal(run.pages_per_disk, base.pages_per_disk)
        for position, original in enumerate(order):
            ours = run.query_results[position]
            theirs = base.query_results[original]
            assert [(n.oid, n.distance) for n in ours.neighbors] == [
                (n.oid, n.distance) for n in theirs.neighbors
            ]
            assert np.array_equal(ours.pages_per_disk, theirs.pages_per_disk)
        assert_clocks_monotonic(tracer.events)


class TestEventSimWithCache:
    def test_no_cache_report_has_no_stats(self, simulator, rng):
        report = simulator.run(
            poisson_arrivals(rng.random((4, 8)), 5.0, seed=6, k=5)
        )
        assert report.cache_stats is None

    def test_capacity_zero_matches_uncached(self, store, rng):
        arrivals = poisson_arrivals(rng.random((6, 8)), 5.0, seed=7, k=5)
        cold = EventDrivenSimulator(store).run(arrivals)
        zero = EventDrivenSimulator(store, cache=0).run(arrivals)
        assert np.array_equal(cold.pages_per_disk, zero.pages_per_disk)
        assert np.allclose(cold.latencies_ms, zero.latencies_ms)
        assert zero.cache_stats.hits == 0

    def test_hot_stream_stays_fast_under_warm_cache(self, store, rng):
        query = rng.random(8)
        arrivals = [
            QueryArrival(float(i) * 10.0, query, 5) for i in range(8)
        ]
        cold = EventDrivenSimulator(store).run(arrivals)
        warm = EventDrivenSimulator(store, cache=4096).run(arrivals)
        assert warm.pages_per_disk.sum() < cold.pages_per_disk.sum()
        assert warm.mean_latency_ms < cold.mean_latency_ms
        assert warm.cache_stats.hit_ratio > 0.5
        # Repeats after the first arrival are served entirely from RAM.
        assert warm.latencies_ms[-1] == 0.0
