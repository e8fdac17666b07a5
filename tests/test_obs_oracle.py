"""Oracle tests: tracer page accounting vs. the engines' own counters.

The contract (see ``docs/observability.md``): for every engine and
every cache configuration, summing a :class:`RecordingTracer`'s
``page_read`` events per disk reproduces the engine's simulated
:class:`~repro.parallel.disks.DiskArray` counters **bit-for-bit** — and
attaching any tracer (null or recording) never changes the query results
themselves.
"""

from functools import partial

import numpy as np
import pytest

from repro.obs import MetricsRegistry, NullTracer, RecordingTracer, observe
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.events import (
    EventDrivenSimulator,
    QueryArrival,
    poisson_arrivals,
)
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.store import DeclusteredStore
from repro.registry import make_declusterer
from repro.storage import MmapStore, save_paged_store

DIMENSION = 4
DISKS = 5
CACHES = (None, 0, 16)


def workload(seed=0, n=400, queries=4):
    rng = np.random.default_rng(seed)
    return rng.random((n, DIMENSION)), rng.random((queries, DIMENSION))


def declusterer():
    return make_declusterer("col", DIMENSION, DISKS)


def result_fingerprint(result):
    return (
        [neighbor.oid for neighbor in result.neighbors],
        result.pages_per_disk.tolist(),
        result.parallel_time_ms,
    )


class TestPagedEngineOracle:
    @pytest.mark.parametrize("cache", CACHES)
    def test_trace_matches_disk_counters(self, cache):
        points, queries = workload()
        store = PagedStore(points, declusterer())
        tracer = RecordingTracer(metrics=MetricsRegistry())
        engine = PagedEngine(store, cache=cache, tracer=tracer)
        totals = np.zeros(DISKS, dtype=np.int64)
        for query in queries:
            totals += engine.query(query, k=5).pages_per_disk
        assert tracer.pages_per_disk(DISKS) == totals.tolist()
        registry = tracer.metrics
        assert (
            registry.vector_counter("pages_read_per_disk").values
            + [0] * DISKS
        )[:DISKS] == totals.tolist()
        assert registry.counter("pages_read_total").value == totals.sum()

    @pytest.mark.parametrize("cache", CACHES)
    def test_tracer_does_not_change_results(self, cache):
        points, queries = workload(seed=1)
        store = PagedStore(points, declusterer())
        plain = PagedEngine(store, cache=cache)
        nulled = PagedEngine(store, cache=cache, tracer=NullTracer())
        traced = PagedEngine(store, cache=cache, tracer=RecordingTracer())
        for query in queries:
            expected = result_fingerprint(plain.query(query, k=5))
            plain.reset_cache()
            assert result_fingerprint(nulled.query(query, k=5)) == expected
            nulled.reset_cache()
            assert result_fingerprint(traced.query(query, k=5)) == expected
            traced.reset_cache()

    def test_cache_misses_equal_page_reads(self):
        points, queries = workload(seed=2)
        store = PagedStore(points, declusterer())
        tracer = RecordingTracer(metrics=MetricsRegistry())
        engine = PagedEngine(store, cache=32, tracer=tracer)
        for query in queries:
            engine.query(query, k=5)
        kinds = [event.kind for event in tracer.events]
        assert kinds.count("cache_miss") == kinds.count("page_read")
        stats = engine.cache.stats()
        registry = tracer.metrics
        assert registry.counter("cache_hits_total").value == stats.hits
        assert registry.counter("cache_misses_total").value == stats.misses


class TestParallelEngineOracle:
    @pytest.mark.parametrize("mode", ("coordinated", "independent"))
    @pytest.mark.parametrize("cache", CACHES)
    def test_trace_matches_disk_counters(self, mode, cache):
        points, queries = workload()
        store = DeclusteredStore(points, declusterer())
        tracer = RecordingTracer()
        engine = ParallelEngine(store, cache=cache, tracer=tracer)
        totals = np.zeros(DISKS, dtype=np.int64)
        for query in queries:
            totals += engine.query(query, k=5, mode=mode).pages_per_disk
        assert tracer.pages_per_disk(DISKS) == totals.tolist()

    @pytest.mark.parametrize("mode", ("coordinated", "independent"))
    def test_tracer_does_not_change_results(self, mode):
        points, queries = workload(seed=3)
        store = DeclusteredStore(points, declusterer())
        plain = ParallelEngine(store)
        traced = ParallelEngine(store, tracer=RecordingTracer())
        for query in queries:
            assert result_fingerprint(
                traced.query(query, k=5, mode=mode)
            ) == result_fingerprint(plain.query(query, k=5, mode=mode))


class TestSequentialEngineOracle:
    @pytest.mark.parametrize("cache", CACHES)
    def test_trace_matches_page_counts(self, cache):
        points, queries = workload()
        tracer = RecordingTracer()
        engine = SequentialEngine(points, cache=cache, tracer=tracer)
        total = 0
        for query in queries:
            total += engine.query(query, k=5).max_pages
        assert tracer.pages_per_disk(1) == [total]

    def test_tracer_does_not_change_page_counts(self):
        points, queries = workload(seed=4)
        plain = SequentialEngine(points)
        traced = SequentialEngine(points, tracer=RecordingTracer())
        for query in queries:
            assert result_fingerprint(
                traced.query(query, k=5)
            ) == result_fingerprint(plain.query(query, k=5))


def test_rejected_query_opens_no_span(tmp_path):
    """``k < 1`` or a query of the wrong width is refused before the
    span opens: no event, no open span, pool and counters untouched —
    so the next valid query traces exactly as on a fresh engine."""
    points, queries = workload(seed=5)
    store = PagedStore(points, declusterer())
    items = DeclusteredStore(points, declusterer())
    save_paged_store(store, tmp_path / "store")
    with MmapStore(tmp_path / "store") as mmap_store:
        for make_engine, mode in (
            (partial(PagedEngine, store), {}),
            (partial(PagedEngine, mmap_store), {}),
            (partial(ParallelEngine, items), {"mode": "coordinated"}),
            (partial(ParallelEngine, items), {"mode": "independent"}),
            (partial(SequentialEngine, points), {}),
        ):
            tracer, fresh = RecordingTracer(), RecordingTracer()
            engine = make_engine(cache=16, tracer=tracer)
            for query, k in (
                (queries[0], 0), (queries[0][:-1], 3), (queries[:2], 3)
            ):
                with pytest.raises(ValueError):
                    engine.query(query, k, **mode)
            assert tracer.events == [] and tracer._spans == {}
            assert engine.cache.stats().accesses == 0
            engine.query(queries[1], 3, **mode)
            make_engine(cache=16, tracer=fresh).query(queries[1], 3, **mode)
            assert tracer.events == fresh.events
        tracer, fresh = RecordingTracer(), RecordingTracer()
        engine = PagedEngine(store, cache=16, tracer=tracer)
        low, high = queries[0], queries[0] + 0.25
        for corners in (
            (low[:-1], high[:-1]), (low, high[:-1]), (queries[:2],) * 2,
            (high, low),
        ):
            with pytest.raises(ValueError):
                engine.window(*corners)
        assert tracer.events == [] and tracer._spans == {}
        assert engine.cache.stats().accesses == 0
        engine.window(low, high)
        PagedEngine(store, cache=16, tracer=fresh).window(low, high)
        assert tracer.events == fresh.events


def closest_leaf(trees, query):
    return min(
        (leaf for tree in trees for leaf in tree.leaves()),
        key=lambda leaf: leaf.mbr.mindist(query),
    )


@pytest.mark.parametrize("cache", (None, 16))
def test_two_block_leaf_charged_alike_in_both_modes(cache):
    """One charge site: a hand-built two-block data page costs two
    pages on every in-process entry point — untraced, traced, or with
    a zero-page pool — and the ``page_read`` totals still equal
    ``pages_per_disk``."""
    points, queries = workload(seed=6)
    query = queries[0]
    items = DeclusteredStore(points, declusterer())
    sequential = SequentialEngine(points)
    paged = PagedStore(points, declusterer())
    fat_page = closest_leaf([paged.tree], query)
    runs = {
        "coordinated": (
            partial(ParallelEngine, items),
            lambda engine: engine.query(query, k=5),
        ),
        "independent": (
            partial(ParallelEngine, items),
            lambda engine: engine.query(query, k=5, mode="independent"),
        ),
        "sequential": (
            partial(SequentialEngine, None, tree=sequential.tree),
            lambda engine: engine.query(query, k=5),
        ),
        "window": (
            partial(PagedEngine, paged),
            lambda engine: engine.window(
                fat_page.mbr.low, fat_page.mbr.high
            ),
        ),
    }
    fat = [
        closest_leaf(items.trees, query),
        closest_leaf([sequential.tree], query),
        fat_page,
    ]
    charged = {}
    for blocks in (1, 2):
        for leaf in fat:
            leaf.blocks = blocks
        for name, (make_engine, run) in runs.items():
            for pool, tracer in (
                (cache, None), (cache, RecordingTracer()),
                (0, RecordingTracer()),
            ):
                engine = make_engine(cache=pool, tracer=tracer)
                result = run(engine)
                if tracer is not None:
                    assert tracer.pages_per_disk(engine.num_disks) == (
                        result.pages_per_disk.tolist()
                    )
                charged.setdefault((blocks, name), set()).add(
                    result.total_pages
                )
    for name in runs:
        (one,) = charged[1, name]
        assert charged[2, name] == {one + 1}


class TestAmbientContextOracle:
    def test_observe_traces_engine_without_argument(self):
        points, queries = workload()
        store = PagedStore(points, declusterer())
        engine = PagedEngine(store)
        tracer = RecordingTracer()
        totals = np.zeros(DISKS, dtype=np.int64)
        with observe(tracer):
            for query in queries:
                totals += engine.query(query, k=5).pages_per_disk
        assert tracer.pages_per_disk(DISKS) == totals.tolist()
        # Outside the block the same engine is silent again.
        engine.query(queries[0], k=5)
        assert tracer.pages_per_disk(DISKS) == totals.tolist()


class TestSimulatorMetrics:
    def test_throughput_simulator_publishes_aggregates(self):
        points, queries = workload(n=300, queries=6)
        store = PagedStore(points, declusterer())
        simulator = EventDrivenSimulator(store)
        registry = MetricsRegistry()
        report = simulator.run(
            [QueryArrival(0.0, query, 5) for query in queries],
            metrics=registry,
        )
        latency = registry.histogram("stream_latency_ms")
        assert latency.count == len(queries)
        assert latency.max == report.completion_ms
        assert registry.histogram("disk_utilization").count == DISKS

    def test_event_simulator_traces_stream_and_publishes(self):
        points, queries = workload(n=300, queries=6)
        store = PagedStore(points, declusterer())
        tracer = RecordingTracer(metrics=MetricsRegistry())
        simulator = EventDrivenSimulator(store, tracer=tracer)
        arrivals = poisson_arrivals(queries, rate_qps=5.0, seed=0, k=5)
        report = simulator.run(arrivals)
        kinds = [event.kind for event in tracer.events]
        assert kinds.count("query_arrival") == len(arrivals)
        assert kinds.count("query_completion") == len(arrivals)
        assert tracer.pages_per_disk(DISKS) == report.pages_per_disk.tolist()
        registry = tracer.metrics
        assert registry.histogram("stream_latency_ms").count == len(arrivals)
        completions = [
            event for event in tracer.events
            if event.kind == "query_completion"
        ]
        assert completions[-1].t_ms <= report.completion_ms + 1e-9
