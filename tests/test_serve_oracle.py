"""Oracle tests: the serving layer's bit-for-bit determinism contract.

Scheduling only *groups* requests — it never reorders them — so serving
a fixed arrival trace through :class:`~repro.serve.QueryService` must
produce neighbors, ``pages_per_disk``, and ``cache_stats`` identical to
issuing the same queries directly through ``query_batch`` in arrival
order on an identically configured engine.  Hypothesis draws the
arrival traces and policy parameters; the assertions are exact
(``==`` / ``array_equal``), never approximate.

Also here: the input-order invariance replay (a shuffled trace serves
every request the same answer at its own input position), the served
trace's clock and page-counter checks, and the satellite property test that
``BatchQueryResult.cache_stats`` merging conserves hit/miss totals
under arbitrary batch splits.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import RecordingTracer
from repro.parallel.cache import CacheStats, merge_cache_stats
from repro.serve import (
    QueryRequest,
    QueryService,
    WorkloadSpec,
    build_engine,
    make_scheduler,
)
from tests.trace_checks import assert_clocks_monotonic

SCHEMES = ("col", "fx", "hil")
ENGINES = ("item", "paged")


def spec_for(engine: str, scheme: str, cache_pages=None) -> WorkloadSpec:
    return WorkloadSpec(
        n=128, d=2, k=4, num_disks=4, scheme=scheme, engine=engine,
        cache_pages=cache_pages, seed=11,
    )


def neighbor_tuples(result):
    return [(int(n.oid), float(n.distance)) for n in result.neighbors]


def assert_cache_stats_equal(left, right):
    """Exact CacheStats comparison (dataclass ``==`` is ambiguous on
    numpy fields)."""
    if left is None or right is None:
        assert left is None and right is None
        return
    assert left.hits == right.hits
    assert left.misses == right.misses
    assert left.evictions == right.evictions
    assert np.array_equal(left.hits_per_disk, right.hits_per_disk)
    assert np.array_equal(left.misses_per_disk, right.misses_per_disk)


def make_trace(spec: WorkloadSpec, arrivals, rng_seed: int):
    rng = np.random.default_rng(rng_seed)
    queries = rng.random((len(arrivals), spec.d))
    return [
        QueryRequest(
            query=queries[i], k=spec.k, arrival_ms=float(arrivals[i])
        )
        for i in range(len(arrivals))
    ]


def reference_batch(spec: WorkloadSpec, trace):
    """Direct ``query_batch`` over the trace in arrival order, on a
    fresh identically configured engine."""
    order = sorted(
        range(len(trace)), key=lambda i: trace[i].arrival_ms
    )
    engine = build_engine(spec)
    batch = engine.query_batch(
        np.stack([trace[i].query for i in order]), k=spec.k
    )
    by_input = [None] * len(trace)
    for position, index in enumerate(order):
        by_input[index] = batch.results[position]
    return batch, by_input


arrival_lists = st.lists(
    st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12,
).map(sorted)
policies = st.one_of(
    st.just(("fifo", {})),
    st.tuples(
        st.just("max-batch"),
        st.fixed_dictionaries({
            "batch_size": st.integers(1, 6),
            "deadline_ms": st.floats(
                0.0, 30.0, allow_nan=False, allow_infinity=False
            ),
        }),
    ),
)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=12, deadline=None)
@given(arrivals=arrival_lists, policy=policies, data_seed=st.integers(0, 99))
def test_served_run_matches_direct_query_batch(
    engine, scheme, arrivals, policy, data_seed
):
    """The tentpole acceptance oracle, cacheless: neighbors and
    per-disk page counts are bit-for-bit the direct run's."""
    spec = spec_for(engine, scheme)
    trace = make_trace(spec, arrivals, data_seed)
    name, kwargs = policy
    service = QueryService(build_engine(spec), name, **kwargs)
    report = service.run_trace(trace)
    batch, by_input = reference_batch(spec, trace)
    assert np.array_equal(report.pages_per_disk, batch.pages_per_disk)
    for served, direct in zip(report.query_results, by_input):
        assert neighbor_tuples(served) == neighbor_tuples(direct)
        assert np.array_equal(
            served.pages_per_disk, direct.pages_per_disk
        )
    assert_cache_stats_equal(report.cache_stats, batch.cache_stats)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=10, deadline=None)
@given(arrivals=arrival_lists, policy=policies)
def test_served_run_matches_direct_with_warm_cache(
    engine, arrivals, policy
):
    """With a shared buffer pool the contract still holds: the service
    executes in arrival order, so hits/misses — not just answers —
    match the direct batch exactly."""
    spec = spec_for(engine, "col", cache_pages=64)
    trace = make_trace(spec, arrivals, 7)
    name, kwargs = policy
    service = QueryService(build_engine(spec), name, **kwargs)
    report = service.run_trace(trace)
    batch, by_input = reference_batch(spec, trace)
    assert np.array_equal(report.pages_per_disk, batch.pages_per_disk)
    for served, direct in zip(report.query_results, by_input):
        assert neighbor_tuples(served) == neighbor_tuples(direct)
    assert report.cache_stats is not None
    assert_cache_stats_equal(report.cache_stats, batch.cache_stats)


def test_served_mixed_trace_matches_direct_with_warm_cache():
    """Windows share the pool with kNN queries: a mixed trace served
    through a cached engine gives every request the direct call's
    answer, pages and cache deltas, in arrival order."""
    spec = spec_for("paged", "col", cache_pages=64)
    trace = []
    for i, point in enumerate(np.random.default_rng(13).random((12, spec.d))):
        if i % 3 == 1:
            low = point * 0.7
            trace.append(QueryRequest(
                query=low, high=low + 0.3, kind="window", arrival_ms=float(i)
            ))
        else:
            trace.append(
                QueryRequest(query=point, k=spec.k, arrival_ms=float(i))
            )
    service = QueryService(
        build_engine(spec), "max-batch", batch_size=4, deadline_ms=5.0
    )
    report = service.run_trace(trace)
    direct = build_engine(spec)
    for request, served in zip(trace, report.query_results):
        if request.kind == "window":
            expected = direct.window(request.query, request.high)
            assert [e.oid for e in served.entries] == [
                e.oid for e in expected.entries
            ]
        else:
            expected = direct.query(request.query, request.k)
            assert neighbor_tuples(served) == neighbor_tuples(expected)
        assert np.array_equal(served.pages_per_disk, expected.pages_per_disk)
        assert_cache_stats_equal(served.cache_stats, expected.cache_stats)
    assert report.cache_stats.hits > 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_policy_yields_identical_results(scheme):
    """Scheduling policy changes batching, never results: every
    registered policy (and parameterization) agrees bit-for-bit."""
    spec = spec_for("paged", scheme)
    trace = make_trace(spec, np.linspace(0.0, 40.0, 9), 3)
    baseline = None
    for policy in (
        make_scheduler("fifo"),
        make_scheduler("max-batch", batch_size=1, deadline_ms=0.0),
        make_scheduler("max-batch", batch_size=3, deadline_ms=10.0),
        make_scheduler("max-batch", batch_size=64, deadline_ms=500.0),
    ):
        report = QueryService(build_engine(spec), policy).run_trace(trace)
        summary = (
            [neighbor_tuples(r) for r in report.query_results],
            report.pages_per_disk.tolist(),
        )
        if baseline is None:
            baseline = summary
        else:
            assert summary == baseline, f"policy {policy.name} diverged"


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), policy=policies)
def test_shuffled_trace_never_changes_outputs(seed, policy):
    """Serving a seeded shuffle of a tied trace gives every request the
    answer it gets in the time-sorted trace, at its own input position,
    and the same per-disk page counts."""
    spec = spec_for("paged", "col")
    # Coincident arrivals on purpose: three groups of ties.
    arrivals = [0.0, 0.0, 0.0, 10.0, 10.0, 20.0, 20.0, 20.0]
    trace = make_trace(spec, arrivals, 5)
    order = np.random.default_rng(seed).permutation(len(trace))
    name, kwargs = policy
    base = QueryService(build_engine(spec), name, **kwargs).run_trace(trace)
    shuffled = QueryService(build_engine(spec), name, **kwargs).run_trace(
        [trace[i] for i in order]
    )
    assert np.array_equal(base.pages_per_disk, shuffled.pages_per_disk)
    for position, original in enumerate(order):
        assert neighbor_tuples(shuffled.query_results[position]) == (
            neighbor_tuples(base.query_results[original])
        )


class TestServedTrace:
    def test_serve_event_stream_is_clean(self):
        """The serve run's engine-level event stream keeps its clocks
        moving forward and sums to the report's page counters (k = 30
        over 1 000 points reads several pages from one disk per query)."""
        spec = WorkloadSpec(
            n=1000, d=2, k=30, num_disks=4, scheme="col", seed=11
        )
        tracer = RecordingTracer()
        engine = build_engine(spec, tracer=tracer)
        service = QueryService(engine, "fifo", tracer=tracer)
        report = service.run_trace(
            make_trace(spec, np.linspace(0.0, 30.0, 6), 17)
        )
        assert_clocks_monotonic(tracer.events)
        assert tracer.pages_per_disk(spec.num_disks) == (
            report.pages_per_disk.tolist()
        )


class TestProcessEngineServing:
    """Serve-over-process: a :class:`ProcessParallelEngine` pool (one
    worker per disk over a temp on-disk store) behind the service must
    uphold the same bit-for-bit contract as the in-process engines.
    These cells spawn real worker processes, so they stay deterministic
    and small rather than hypothesis-driven."""

    def test_served_process_run_matches_direct_batch(self):
        spec = spec_for("process", "col")
        trace = make_trace(spec, np.linspace(0.0, 40.0, 7), 21)
        service = QueryService(
            build_engine(spec), "max-batch", batch_size=3,
            deadline_ms=5.0, own_engine=True,
        )
        try:
            report = service.run_trace(trace)
        finally:
            service.close()

        # build_engine is deterministic from spec.seed, so a separately
        # built pool is an exact reference.
        order = sorted(
            range(len(trace)), key=lambda i: trace[i].arrival_ms
        )
        reference = build_engine(spec)
        try:
            batch = reference.query_batch(
                np.stack([trace[i].query for i in order]), k=spec.k
            )
        finally:
            reference.close()
        by_input = [None] * len(trace)
        for position, index in enumerate(order):
            by_input[index] = batch.results[position]

        assert np.array_equal(report.pages_per_disk, batch.pages_per_disk)
        for served, direct in zip(report.query_results, by_input):
            assert neighbor_tuples(served) == neighbor_tuples(direct)
            assert np.array_equal(
                served.pages_per_disk, direct.pages_per_disk
            )

    def test_process_engine_rejects_cache_pages(self):
        with pytest.raises(ValueError, match="cacheless"):
            spec_for("process", "col", cache_pages=32)

    def test_service_stop_tears_down_worker_pool(self):
        """``own_engine=True`` transfers pool ownership to the service:
        ``stop()`` must close the engine, joining every worker."""
        spec = spec_for("process", "col")
        engine = build_engine(spec)
        service = QueryService(engine, "fifo", own_engine=True)

        async def go():
            await service.start()
            outcome = await service.knn(
                np.full(spec.d, 0.5), k=spec.k
            )
            await service.stop()
            return outcome

        outcome = asyncio.run(go())
        assert len(outcome.result.neighbors) == spec.k
        assert engine._procs == []

    def test_run_trace_then_close_tears_down_worker_pool(self):
        spec = spec_for("process", "col")
        engine = build_engine(spec)
        service = QueryService(engine, "fifo", own_engine=True)
        try:
            report = service.run_trace(
                make_trace(spec, [0.0, 3.0, 9.0], 4)
            )
            assert len(report.query_results) == 3
        finally:
            service.close()
        assert engine._procs == []


class TestCacheStatsConservation:
    """Satellite: ``BatchQueryResult.cache_stats`` merging conserves
    hit+miss totals under batch splits."""

    delta_arrays = st.lists(
        st.one_of(
            st.none(),
            st.lists(
                st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=3, max_size=3,
            ),
        ),
        min_size=0, max_size=8,
    )

    @staticmethod
    def as_stats(rows):
        hits = np.array([h for h, _ in rows], dtype=np.int64)
        misses = np.array([m for _, m in rows], dtype=np.int64)
        return CacheStats(
            hits=int(hits.sum()), misses=int(misses.sum()),
            evictions=0, hits_per_disk=hits, misses_per_disk=misses,
        )

    @settings(max_examples=50, deadline=None)
    @given(deltas=delta_arrays, split=st.integers(0, 8))
    def test_merge_is_associative_over_splits(self, deltas, split):
        stats = [
            None if rows is None else self.as_stats(rows)
            for rows in deltas
        ]
        split = min(split, len(stats))
        whole = merge_cache_stats(stats)
        left = merge_cache_stats(stats[:split])
        right = merge_cache_stats(stats[split:])
        recombined = merge_cache_stats([left, right])
        assert_cache_stats_equal(whole, recombined)
        if whole is not None:
            real = [s for s in stats if s is not None]
            assert whole.accesses == sum(s.accesses for s in real)
            assert whole.hits == int(whole.hits_per_disk.sum())
            assert whole.misses == int(whole.misses_per_disk.sum())

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=8, deadline=None)
    @given(
        split=st.integers(0, 10),
        data_seed=st.integers(0, 99),
    )
    def test_engine_batch_split_conserves_totals(
        self, engine, split, data_seed
    ):
        """Splitting one batch into two consecutive ``query_batch``
        calls on the same warm engine conserves cache accounting: the
        merged split stats equal the unsplit batch's bit-for-bit."""
        spec = spec_for(engine, "col", cache_pages=32)
        queries = np.random.default_rng(data_seed).random((10, spec.d))
        split = min(split, len(queries))
        whole = build_engine(spec).query_batch(queries, k=spec.k)
        split_engine = build_engine(spec)
        first = split_engine.query_batch(queries[:split], k=spec.k)
        second = split_engine.query_batch(queries[split:], k=spec.k)
        merged = merge_cache_stats(
            [first.cache_stats, second.cache_stats]
        )
        assert_cache_stats_equal(whole.cache_stats, merged)
        assert np.array_equal(
            whole.pages_per_disk,
            first.pages_per_disk + second.pages_per_disk,
        )
        assert whole.cache_stats is not None
        assert whole.cache_stats.accesses == sum(
            r.cache_stats.accesses for r in whole.results
        )
