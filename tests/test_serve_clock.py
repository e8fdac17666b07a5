"""Tests for ``repro.serve.clock`` and the clocked service lifecycle.

The :class:`~repro.serve.clock.VirtualClock` contract (forward-only,
``now_ms`` equals the last advanced instant, ends exactly on the
report's completion time), the :class:`~repro.serve.clock.LoopClock`
wall boundary, and the asyncio lifecycle fixes that ride on them —
double-start detection, crashed-task reaping, ownership-transfer stop —
are all pinned here, along with the served-vs-direct bit-for-bit
regression through the new clock path.
"""

import asyncio

import numpy as np
import pytest

from repro.obs import MetricsRegistry, observe
from repro.serve import (
    Clock,
    LoopClock,
    QueryRequest,
    QueryService,
    VirtualClock,
    WorkloadSpec,
    build_engine,
    uniform_trace,
)

SPEC = WorkloadSpec(n=192, d=2, k=3, num_disks=4, scheme="col", seed=7)


def neighbor_pairs(result):
    """(oid, distance) pairs — the bit-for-bit comparison key."""
    return [(int(n.oid), float(n.distance)) for n in result.neighbors]


class TestVirtualClock:
    def test_starts_at_origin(self):
        assert VirtualClock().now_ms() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start_ms=12.5).now_ms() == 12.5

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_ms"):
            VirtualClock(start_ms=-1.0)

    def test_advance_to_is_monotone(self):
        clock = VirtualClock()
        clock.advance_to(4.0)
        clock.advance_to(4.0)  # same instant is fine
        clock.advance_to(9.5)
        assert clock.now_ms() == 9.5

    def test_rewind_raises(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        with pytest.raises(ValueError, match="cannot rewind"):
            clock.advance_to(9.999)
        assert clock.now_ms() == 10.0  # failed rewind leaves time alone

    def test_advance_by_delta(self):
        clock = VirtualClock(start_ms=3.0)
        clock.advance(2.0)
        clock.advance(0.0)
        assert clock.now_ms() == 5.0
        with pytest.raises(ValueError, match="must be >= 0"):
            clock.advance(-0.1)

    def test_satisfies_clock_protocol(self):
        assert isinstance(VirtualClock(), Clock)
        assert isinstance(LoopClock(), Clock)


class TestLoopClock:
    def test_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            LoopClock().now_ms()

    def test_tracks_event_loop_time(self):
        async def go():
            clock = LoopClock()
            loop_ms = asyncio.get_running_loop().time() * 1000.0
            assert clock.now_ms() == pytest.approx(loop_ms, abs=5.0)

        asyncio.run(go())


class TestPlannerClock:
    def trace(self, count=6):
        return uniform_trace(SPEC, count, rate_qps=100.0, seed=3)

    def test_run_trace_lands_on_completion(self):
        service = QueryService(build_engine(SPEC), "fifo")
        clock = VirtualClock()
        report = service.run_trace(self.trace(), clock=clock)
        assert clock.now_ms() == report.completion_ms

    def test_caller_clock_may_start_late(self):
        """A pre-advanced clock only matters if it is ahead of the
        arrivals — batches flush no earlier than the clock allows."""
        service = QueryService(build_engine(SPEC), "fifo")
        clock = VirtualClock(start_ms=1000.0)
        report = service.run_trace(self.trace(), clock=clock)
        assert report.outcomes[0].flush_ms >= 1000.0
        assert clock.now_ms() == report.completion_ms

    def test_clock_does_not_change_results(self):
        baseline = QueryService(build_engine(SPEC), "fifo").run_trace(
            self.trace()
        )
        clocked = QueryService(build_engine(SPEC), "fifo").run_trace(
            self.trace(), clock=VirtualClock()
        )
        assert [
            neighbor_pairs(o.result) for o in clocked.outcomes
        ] == [neighbor_pairs(o.result) for o in baseline.outcomes]
        assert clocked.completion_ms == baseline.completion_ms


class TestClockedServiceLifecycle:
    def run_async(self, coroutine):
        return asyncio.run(coroutine)

    def test_default_clock_is_loop_clock(self):
        service = QueryService(build_engine(SPEC), "fifo")
        assert isinstance(service.clock, LoopClock)

    def test_injected_clock_is_used(self):
        clock = VirtualClock(start_ms=50.0)
        service = QueryService(build_engine(SPEC), "fifo", clock=clock)
        assert service.clock is clock

    def test_double_start_raises_while_running(self):
        service = QueryService(build_engine(SPEC), "fifo")

        async def go():
            await service.start()
            with pytest.raises(RuntimeError, match="already started"):
                await service.start()
            await service.stop()

        self.run_async(go())

    def test_crashed_loop_is_reaped_on_restart(self):
        """A dead serve loop must not wedge the service: the next
        ``start()`` reaps the crashed task and re-raises its error."""
        service = QueryService(build_engine(SPEC), "fifo")

        async def go():
            await service.start()
            # Sabotage the running loop task so it dies with an error.
            service._task.cancel()
            await asyncio.sleep(0)
            with pytest.raises(asyncio.CancelledError):
                await service.start()
            # The wreck is cleared: a fresh start now succeeds.
            await service.start()
            query = np.zeros(SPEC.d, dtype=np.float64)
            outcome = await service.knn(query, k=1)
            assert len(outcome.result.neighbors) == 1
            await service.stop()

        self.run_async(go())

    def test_stop_is_idempotent_and_concurrent_safe(self):
        service = QueryService(build_engine(SPEC), "fifo")

        async def go():
            await service.start()
            # Racing stops: exactly one drains the loop, the others
            # see the ownership already transferred and return.
            await asyncio.gather(
                service.stop(), service.stop(), service.stop()
            )
            assert service._task is None
            await service.stop()  # stopped service: still a no-op

        self.run_async(go())

    def test_restart_cycle_serves_queries(self):
        service = QueryService(build_engine(SPEC), "fifo")
        query = np.zeros(SPEC.d, dtype=np.float64)

        async def go():
            for _ in range(3):
                await service.start()
                outcome = await service.knn(query, k=2)
                assert len(outcome.result.neighbors) == 2
                await service.stop()

        self.run_async(go())


class TestServedVersusDirect:
    def test_async_service_matches_direct_query_batch(self):
        """Regression for the serving-layer determinism contract: the
        asyncio front door (now routed through Clock/to_thread) returns
        bit-for-bit the same neighbors as a direct ``query_batch``."""
        engine = build_engine(SPEC)
        service = QueryService(
            engine, "max-batch", batch_size=4, deadline_ms=2.0
        )
        rng = np.random.default_rng(13)
        queries = rng.standard_normal((8, SPEC.d))

        async def go():
            await service.start()
            outcomes = await asyncio.gather(
                *(service.knn(query, k=SPEC.k) for query in queries)
            )
            await service.stop()
            return outcomes

        served = asyncio.run(go())
        direct = build_engine(SPEC).query_batch(queries, SPEC.k)
        for outcome, expected in zip(served, direct):
            assert neighbor_pairs(outcome.result) == neighbor_pairs(
                expected
            )


class TestLiveLatencyIsMeasured:
    def test_latency_fits_inside_the_awaited_wall_time(self):
        """Live serving reports what a request took, not the page model:
        a served kNN's ``latency_ms``, and its ``serve_latency_ms``
        sample, are at most the wall time measured around its ``await``
        on the same loop clock, while ``batch_ms`` keeps the modelled
        busiest-disk service time under its own name."""
        registry = MetricsRegistry()
        service = QueryService(build_engine(SPEC), "fifo")
        query = np.zeros(SPEC.d, dtype=np.float64)

        async def go():
            loop = asyncio.get_running_loop()
            with observe(metrics=registry):
                await service.start()
                before = loop.time()
                outcome = await service.knn(query, k=SPEC.k)
                waited_ms = (loop.time() - before) * 1000.0
                await service.stop()
            return outcome, waited_ms

        outcome, waited_ms = asyncio.run(go())
        assert len(outcome.result.neighbors) == SPEC.k
        assert 0.0 <= outcome.wait_ms <= outcome.latency_ms <= waited_ms
        latency = registry.histogram("serve_latency_ms")
        assert latency.count == 1 and latency.max <= waited_ms
        modelled = registry.histogram("serve_batch_service_ms")
        assert modelled.max == (
            outcome.result.pages_per_disk.max() * service.page_service_time_ms
        )
