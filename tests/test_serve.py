"""Tests for the serving layer (repro.serve).

Covers the scheduler policies, the virtual-time batching planner, the
asyncio front door, the load generator's arrival models, the CLI
subcommands, and the ``serve_*`` observability surface (trace events
and metrics byte-for-byte against golden files under
``tests/golden/``).  The bit-for-bit determinism contract against
direct ``query_batch`` runs lives in ``test_serve_oracle.py``.
"""

import asyncio
import json
import pathlib

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.obs import (
    EVENT_KINDS,
    MetricsRegistry,
    RecordingTracer,
    events_to_jsonl,
    metrics_to_json,
    observe,
)
from repro.serve import (
    SCHEDULERS,
    ClosedLoopSource,
    FifoPolicy,
    ListSource,
    MaxBatchPolicy,
    QueryRequest,
    QueryService,
    SchedulerPolicy,
    WorkloadSpec,
    available_policies,
    build_engine,
    make_scheduler,
    points_to_table,
    poisson_trace,
    run_closed_loop,
    sweep,
    uniform_trace,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

SPEC = WorkloadSpec(n=192, d=2, k=3, num_disks=4, scheme="col", seed=7)


def scripted_report(tracer=None, metrics=None):
    """A fixed serve run: 6 uniform arrivals, max-batch(3, 5 ms).

    Uniform arrivals at 100 q/s give 10 ms gaps — slower than the
    flush deadline, so batch composition is decided by executor
    availability (batches grow as the queue backs up), exercising both
    the deadline and size triggers deterministically.
    """
    service = QueryService(
        build_engine(SPEC), "max-batch", tracer=tracer,
        batch_size=3, deadline_ms=5.0,
    )
    trace = uniform_trace(SPEC, 6, rate_qps=100.0, seed=3)
    return service.run_trace(trace, metrics=metrics)


class TestSchedulerPolicies:
    def test_registry_contents(self):
        assert available_policies() == ("fifo", "max-batch")
        assert set(SCHEDULERS) == {"fifo", "max-batch"}

    def test_fifo_policy_shape(self):
        policy = FifoPolicy()
        assert policy.max_batch is None
        assert policy.deadline_ms == 0.0
        assert not policy.size_triggered(10_000)
        assert policy.take(17) == 17
        assert policy.flush_deadline(4.0) == 4.0

    def test_max_batch_policy_shape(self):
        policy = MaxBatchPolicy(batch_size=4, deadline_ms=2.5)
        assert policy.size_triggered(4)
        assert not policy.size_triggered(3)
        assert policy.take(9) == 4
        assert policy.flush_deadline(1.0) == 3.5

    def test_make_scheduler_lookup_and_passthrough(self):
        assert make_scheduler("fifo").name == "fifo"
        assert make_scheduler("max-batch", batch_size=2).max_batch == 2
        prebuilt = MaxBatchPolicy()
        assert make_scheduler(prebuilt) is prebuilt

    def test_make_scheduler_rejects_unknowns(self):
        with pytest.raises(ValueError, match="registered"):
            make_scheduler("lifo")
        with pytest.raises(ValueError, match="keyword"):
            make_scheduler(FifoPolicy(), batch_size=2)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SchedulerPolicy(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerPolicy(deadline_ms=-1.0)


class TestQueryRequest:
    def test_validation(self):
        point = np.zeros(2)
        with pytest.raises(ValueError, match="kind"):
            QueryRequest(query=point, kind="scan")
        with pytest.raises(ValueError, match="high"):
            QueryRequest(query=point, kind="window")
        with pytest.raises(ValueError, match="k must"):
            QueryRequest(query=point, k=0)
        for arrival_ms in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="arrival_ms"):
                QueryRequest(query=point, arrival_ms=arrival_ms)


class TestVirtualTimePlanner:
    def test_fifo_batches_grow_under_backlog(self):
        engine = build_engine(SPEC)
        service = QueryService(engine, "fifo")
        # The first request flushes alone; the rest arrive while it
        # executes (service time >> 4 ms) and form one backlog batch.
        trace = [
            QueryRequest(
                query=np.full(2, 0.5), k=3, arrival_ms=float(i)
            )
            for i in range(5)
        ]
        report = service.run_trace(trace)
        assert report.batch_sizes == [1, 4]
        assert report.num_batches == 2
        assert len(report.outcomes) == 5

    def test_max_batch_size_trigger(self):
        service = QueryService(
            build_engine(SPEC), "max-batch", batch_size=2,
            deadline_ms=1000.0,
        )
        trace = [
            QueryRequest(query=np.full(2, 0.5), k=3, arrival_ms=0.0)
            for _ in range(4)
        ]
        report = service.run_trace(trace)
        assert report.batch_sizes == [2, 2]

    def test_deadline_trigger_flushes_lone_request(self):
        service = QueryService(
            build_engine(SPEC), "max-batch", batch_size=8,
            deadline_ms=5.0,
        )
        trace = [QueryRequest(query=np.full(2, 0.5), k=3, arrival_ms=2.0)]
        report = service.run_trace(trace)
        assert report.outcomes[0].flush_ms == 7.0
        assert report.outcomes[0].wait_ms == 5.0

    def test_completion_uses_busiest_disk_model(self):
        engine = build_engine(SPEC)
        service = QueryService(engine, "fifo")
        trace = [QueryRequest(query=np.full(2, 0.5), k=3)]
        report = service.run_trace(trace)
        expected = (
            report.outcomes[0].result.pages_per_disk.max()
            * engine.parameters.page_service_time_ms
        )
        assert report.outcomes[0].completion_ms == pytest.approx(expected)
        assert report.completion_ms == report.outcomes[0].completion_ms

    def test_outcomes_restored_to_input_order(self):
        service = QueryService(build_engine(SPEC), "fifo")
        rng = np.random.default_rng(5)
        queries = rng.random((6, 2))
        # Arrival times deliberately reversed relative to input order.
        trace = [
            QueryRequest(query=queries[i], k=3, arrival_ms=float(60 - 10 * i))
            for i in range(6)
        ]
        report = service.run_trace(trace)
        for request, outcome in zip(trace, report.outcomes):
            assert outcome.request.arrival_ms == request.arrival_ms
            assert np.array_equal(outcome.request.query, request.query)

    def test_window_requests_served(self):
        service = QueryService(build_engine(SPEC), "fifo")
        trace = [
            QueryRequest(
                query=np.array([0.1, 0.1]), high=np.array([0.4, 0.4]),
                kind="window",
            ),
            QueryRequest(query=np.array([0.5, 0.5]), k=3),
        ]
        report = service.run_trace(trace)
        window, knn = report.query_results
        assert window.entries  # some points fall inside the box
        assert len(knn.neighbors) == 3
        assert report.total_pages == (
            int(window.pages_per_disk.sum())
            + int(knn.pages_per_disk.sum())
        )

    def test_window_requires_paged_store(self):
        spec = WorkloadSpec(
            n=64, d=2, k=3, num_disks=4, scheme="col", engine="item",
            seed=7,
        )
        service = QueryService(build_engine(spec), "fifo")
        trace = [
            QueryRequest(
                query=np.zeros(2), high=np.ones(2), kind="window"
            )
        ]
        with pytest.raises(ValueError, match="PagedStore"):
            service.run_trace(trace)

    def test_empty_trace(self):
        report = QueryService(build_engine(SPEC), "fifo").run_trace([])
        assert report.outcomes == []
        assert report.num_batches == 0
        assert report.completion_ms == 0.0
        assert report.p50_latency_ms == 0.0
        assert report.mean_batch_size == 0.0

    def test_empty_run_throughput_is_zero(self):
        """An empty run completes nothing: its throughput is 0.0 like
        every other aggregate, in the served and the simulated report;
        a non-empty run keeps requests over elapsed seconds."""
        from repro.parallel.events import EventDrivenSimulator

        engine = build_engine(SPEC)
        assert QueryService(engine, "fifo").run_trace([]).throughput_qps == 0.0
        simulator = EventDrivenSimulator(engine.store)
        assert simulator.run([]).throughput_qps == 0.0
        served = QueryService(engine, "fifo").run_trace(
            uniform_trace(SPEC, 4, rate_qps=100.0)
        )
        assert served.throughput_qps == pytest.approx(
            4 / (served.completion_ms / 1000.0)
        )

    def test_report_percentiles_nearest_rank(self):
        report = scripted_report()
        ordered = np.sort(report.latencies_ms)
        assert report.p50_latency_ms == ordered[2]  # 6 samples -> rank 3
        assert report.p99_latency_ms == ordered[-1]
        with pytest.raises(ValueError):
            report.latency_quantile(1.5)

    def test_list_source_protocol(self):
        request = QueryRequest(query=np.zeros(2), arrival_ms=3.0)
        source = ListSource([(0, request)])
        assert source.peek_ms() == 3.0
        assert source.pop() == (0, request)
        assert source.peek_ms() is None


class TestServeObservability:
    def golden(self, name: str) -> str:
        return (GOLDEN_DIR / name).read_text().rstrip("\n")

    def test_serve_kinds_are_catalogued(self):
        for kind in ("serve_enqueue", "serve_flush", "serve_complete"):
            assert kind in EVENT_KINDS

    def test_trace_jsonl_matches_golden(self):
        tracer = RecordingTracer()
        scripted_report(tracer=tracer)
        assert events_to_jsonl(tracer.events) == self.golden(
            "serve_trace.jsonl"
        )

    def test_metrics_json_matches_golden(self):
        registry = MetricsRegistry()
        scripted_report(metrics=registry)
        assert metrics_to_json(registry) == self.golden(
            "serve_metrics.json"
        )

    def test_events_carry_stream_clock(self):
        tracer = RecordingTracer()
        report = scripted_report(tracer=tracer)
        flushes = [e for e in tracer.events if e.kind == "serve_flush"]
        completes = [
            e for e in tracer.events if e.kind == "serve_complete"
        ]
        assert len(flushes) == len(completes) == report.num_batches
        for flush, complete in zip(flushes, completes):
            assert flush.data["batch"] == complete.data["batch"]
            assert complete.t_ms >= flush.t_ms
        enqueues = [e for e in tracer.events if e.kind == "serve_enqueue"]
        assert [e.t_ms for e in enqueues] == sorted(
            e.t_ms for e in enqueues
        )

    def test_ambient_tracer_is_used(self):
        tracer = RecordingTracer(metrics=MetricsRegistry())
        with observe(tracer):
            scripted_report()
        kinds = {event.kind for event in tracer.events}
        assert "serve_flush" in kinds
        assert "query_start" in kinds  # engine spans share the tracer
        assert tracer.metrics.counter("serve_requests_total").value == 6

    def test_metrics_totals(self):
        registry = MetricsRegistry()
        report = scripted_report(metrics=registry)
        assert registry.counter("serve_requests_total").value == 6
        assert (
            registry.counter("serve_batches_total").value
            == report.num_batches
        )
        assert registry.histogram("serve_batch_size").count == (
            report.num_batches
        )
        assert registry.histogram("serve_latency_ms").count == 6
        assert registry.histogram(
            "serve_latency_ms"
        ).max == pytest.approx(float(report.latencies_ms.max()))


class TestAsyncFrontDoor:
    def run_async(self, coroutine):
        return asyncio.run(coroutine)

    def test_submit_before_start_raises(self):
        service = QueryService(build_engine(SPEC), "fifo")

        async def go():
            await service.submit(QueryRequest(query=np.zeros(2), k=3))

        with pytest.raises(RuntimeError, match="not started"):
            self.run_async(go())

    def test_double_start_raises(self):
        service = QueryService(build_engine(SPEC), "fifo")

        async def go():
            await service.start()
            try:
                await service.start()
            finally:
                await service.stop()

        with pytest.raises(RuntimeError, match="already started"):
            self.run_async(go())

    def test_concurrent_submitters_are_batched(self):
        service = QueryService(
            build_engine(SPEC), "max-batch", batch_size=4,
            deadline_ms=50.0,
        )
        queries = np.random.default_rng(2).random((8, 2))

        async def go():
            await service.start()
            outcomes = await asyncio.gather(
                *[service.knn(query, k=3) for query in queries]
            )
            await service.stop()
            return outcomes

        outcomes = self.run_async(go())
        assert len(outcomes) == 8
        assert all(len(o.result.neighbors) == 3 for o in outcomes)
        # 8 concurrent submitters under batch_size=4 -> 2 full batches.
        assert sorted({o.batch_id for o in outcomes}) == [0, 1]
        assert {o.batch_size for o in outcomes} == {4}

    def test_async_results_match_direct_query(self):
        engine = build_engine(SPEC)
        service = QueryService(engine, "fifo")
        query = np.array([0.25, 0.75])

        async def go():
            await service.start()
            outcome = await service.knn(query, k=3)
            await service.stop()
            return outcome

        outcome = self.run_async(go())
        direct = build_engine(SPEC).query(query, 3)
        assert [
            (n.oid, n.distance) for n in outcome.result.neighbors
        ] == [(n.oid, n.distance) for n in direct.neighbors]

    def test_stop_without_start_is_noop(self):
        service = QueryService(build_engine(SPEC), "fifo")
        self.run_async(service.stop())

    def test_engine_error_propagates_to_submitter(self):
        service = QueryService(build_engine(SPEC), "fifo")

        async def go():
            await service.start()
            try:
                await service.submit(
                    QueryRequest(
                        query=np.zeros(2), high=np.ones(2),
                        kind="window",
                    )
                )
            finally:
                await service.stop()

        # Paged store *does* serve windows; force the failure with an
        # item-level engine instead.
        spec = WorkloadSpec(
            n=64, d=2, k=3, num_disks=4, engine="item", seed=7
        )
        service = QueryService(build_engine(spec), "fifo")
        with pytest.raises(ValueError, match="PagedStore"):
            self.run_async(go())


class TestLoadGenerator:
    def test_workload_spec_validation(self):
        with pytest.raises(ValueError, match="engine"):
            WorkloadSpec(engine="grpc")
        with pytest.raises(ValueError, match="empty"):
            WorkloadSpec(tenants={})
        with pytest.raises(ValueError, match=">= 0"):
            WorkloadSpec(tenants={"a": -1.0})

    def test_poisson_trace_is_seeded_and_sorted(self):
        first = poisson_trace(SPEC, 16, 100.0, seed=5)
        second = poisson_trace(SPEC, 16, 100.0, seed=5)
        assert len(first) == 16
        arrivals = [request.arrival_ms for request in first]
        assert arrivals == sorted(arrivals)
        for a, b in zip(first, second):
            assert a.arrival_ms == b.arrival_ms
            assert np.array_equal(a.query, b.query)
        assert poisson_trace(SPEC, 16, 100.0, seed=6)[0].arrival_ms != (
            first[0].arrival_ms
        )

    def test_uniform_trace_spacing(self):
        trace = uniform_trace(SPEC, 4, 200.0)
        assert [r.arrival_ms for r in trace] == [5.0, 10.0, 15.0, 20.0]
        with pytest.raises(ValueError):
            uniform_trace(SPEC, 4, 0.0)

    def test_tenant_mix_is_sampled(self):
        spec = WorkloadSpec(
            n=64, seed=7, tenants={"gold": 3.0, "free": 1.0}
        )
        trace = poisson_trace(spec, 64, 100.0, seed=2)
        tenants = {request.tenant for request in trace}
        assert tenants == {"gold", "free"}

    def test_closed_loop_completes_population(self):
        report = run_closed_loop(
            QueryService(build_engine(SPEC), "fifo"), SPEC,
            num_clients=3, requests_per_client=4, think_ms=2.0, seed=9,
        )
        assert len(report.outcomes) == 12
        # A client never has two requests in flight: per-batch client
        # multiplicity would require it.
        assert report.completion_ms > 0

    def test_closed_loop_source_respects_in_flight(self):
        source = ClosedLoopSource(
            SPEC, num_clients=2, requests_per_client=2, seed=1
        )
        source.pop()
        source.pop()
        # Both clients in flight: nothing ready until completions land.
        assert source.peek_ms() is None

    def test_sweep_and_table(self):
        points = sweep(
            SPEC, ["col", "fx"], [100.0, 400.0], policy="fifo",
            requests=8,
        )
        assert len(points) == 4
        assert {p.scheme for p in points} == {"col", "fx"}
        table = points_to_table(points)
        assert table.columns[0] == "scheme"
        assert len(table.rows) == 4
        # Same seeded stream in every cell: completed counts agree.
        assert {p.completed for p in points} == {8}


class TestServeCli:
    def test_serve_poisson(self, capsys):
        assert cli_main([
            "serve", "--n", "192", "--requests", "8",
            "--rate-qps", "300", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "8 requests" in out
        assert "p99" in out

    def test_serve_closed_loop_with_trace(self, capsys, tmp_path):
        trace_file = tmp_path / "serve.jsonl"
        assert cli_main([
            "serve", "--n", "192", "--arrivals", "closed",
            "--clients", "2", "--requests", "6", "--seed", "7",
            "--trace-out", str(trace_file),
        ]) == 0
        lines = trace_file.read_text().strip().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"serve_enqueue", "serve_flush", "serve_complete"} <= kinds

    def test_serve_invalid_scheme(self, capsys):
        assert cli_main([
            "serve", "--scheme", "bogus", "--n", "64",
        ]) == 2
        assert "error" in capsys.readouterr().err

    def test_loadgen_table(self, capsys):
        assert cli_main([
            "loadgen", "--n", "192", "--schemes", "col,fx",
            "--rates", "100,400", "--requests", "6", "--seed", "7",
            "--policy", "fifo",
        ]) == 0
        out = capsys.readouterr().out
        assert "p99_ms" in out
        assert "col" in out and "fx" in out

    def test_loadgen_json_output(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.json"
        assert cli_main([
            "loadgen", "--n", "192", "--schemes", "col",
            "--rates", "200", "--requests", "6", "--seed", "7",
            "--format", "json", "--out", str(out_file),
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro.result_table/v1"
        assert len(payload["rows"]) == 1

    def test_loadgen_empty_rates(self, capsys):
        assert cli_main([
            "loadgen", "--rates", "", "--n", "64",
        ]) == 2
        assert "non-empty" in capsys.readouterr().err
