"""Event-driven disk-queue simulation: the one simulated-time model.

Queries arrive over time (e.g. Poisson), each query's page requests join
per-disk FCFS queues, disks serve one page per service time, and a query
completes when its last page is served.  That yields the classic
open-system metrics — per-query latency distribution, saturation behavior
as the offered load approaches disk capacity — with the declustering
quality determining how early each policy saturates.

A simultaneous batch (the paper's future-work *throughput* question) is
an ordinary run with every arrival at t = 0: the completion time is then
the busiest disk's total work and ``throughput_qps`` the batch's
throughput.

The service discipline is FCFS with per-query batches (a disk serves all
pages of a query's request before the next query's — non-preemptive), so
the simulation reduces to a single pass over arrivals in time order, no
event heap needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.context import current_metrics, current_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.cache import BufferPool, CacheStats
from repro.parallel.disks import DiskParameters
from repro.parallel.engine import ParallelQueryResult
from repro.parallel.paged import PagedEngine, PagedStore

__all__ = ["QueryArrival", "EventSimReport", "EventDrivenSimulator",
           "poisson_arrivals"]


@dataclass(frozen=True)
class QueryArrival:
    """One query entering the system at ``time_ms`` (finite, >= 0)."""

    time_ms: float
    query: np.ndarray
    k: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time_ms) and self.time_ms >= 0):
            raise ValueError(
                f"time_ms must be finite and >= 0, got {self.time_ms}"
            )


def poisson_arrivals(
    queries: np.ndarray,
    rate_qps: float,
    seed: int = 0,
    k: int = 10,
) -> List[QueryArrival]:
    """Wrap a query batch into a Poisson arrival stream of ``rate_qps``."""
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    rng = np.random.default_rng(seed)
    gaps_ms = rng.exponential(1000.0 / rate_qps, len(queries))
    times = np.cumsum(gaps_ms)
    return [
        QueryArrival(float(t), q, k) for t, q in zip(times, queries)
    ]


@dataclass
class EventSimReport:
    """Metrics of one simulated query stream.

    ``query_results`` (populated only when the run was asked to
    ``keep_results``) holds each arrival's kNN result indexed by
    *arrival position in the input sequence*, not by processing order.
    """

    latencies_ms: np.ndarray
    completion_ms: float
    pages_per_disk: np.ndarray
    page_service_time_ms: float
    cache_stats: Optional[CacheStats] = None
    query_results: Optional[List["ParallelQueryResult"]] = None

    @property
    def mean_latency_ms(self) -> float:
        """Average query latency over the stream."""
        return float(self.latencies_ms.mean()) if len(self.latencies_ms) \
            else 0.0

    @property
    def p95_latency_ms(self) -> float:
        """95th-percentile query latency over the stream."""
        if not len(self.latencies_ms):
            return 0.0
        return float(np.quantile(self.latencies_ms, 0.95))

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second (0.0 on an empty
        run)."""
        if not len(self.latencies_ms):
            return 0.0
        if self.completion_ms <= 0:
            return float("inf")
        return len(self.latencies_ms) / (self.completion_ms / 1000.0)

    @property
    def utilization(self) -> np.ndarray:
        """Per-disk busy fraction of the total completion time."""
        busy = self.pages_per_disk * self.page_service_time_ms
        if self.completion_ms <= 0:
            return np.zeros_like(busy, dtype=float)
        return busy / self.completion_ms


class EventDrivenSimulator:
    """Simulate a timed query stream against a declustered store."""

    def __init__(
        self,
        store: PagedStore,
        parameters: Optional[DiskParameters] = None,
        cache: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.store = store
        self.parameters = parameters or DiskParameters(
            page_bytes=store.page_bytes
        )
        self._engine = PagedEngine(
            store, self.parameters, cache=cache, tracer=tracer
        )
        self.tracer = tracer

    @property
    def cache(self) -> Optional[BufferPool]:
        """The engine's buffer pool (None when caching is off)."""
        return self._engine.cache

    def run(
        self,
        arrivals: Sequence[QueryArrival],
        metrics: Optional[MetricsRegistry] = None,
        keep_results: bool = False,
    ) -> EventSimReport:
        """Process arrivals in time order; returns the stream metrics.

        With a buffer pool, each arrival only queues its cache *misses*
        at the disks — a stream with locality stays unsaturated far past
        the cold-cache capacity limit.

        Same-timestamp arrivals keep their input order; query results
        and per-disk page totals do not depend on that order.
        ``keep_results`` additionally records each arrival's kNN result
        (indexed by input position) on the report.

        Under an enabled tracer each query's per-page events come from
        the inner engine, bracketed by ``query_arrival`` /
        ``query_completion`` records stamped with the *stream* clock
        (arrival and drain time).  Stream aggregates
        (``stream_latency_ms`` per query, ``disk_utilization`` per disk)
        are published into ``metrics`` — or the ambient registry of an
        enclosing :func:`repro.obs.context.observe` block — when one is
        present.
        """
        arrivals = list(arrivals)
        order = sorted(
            range(len(arrivals)), key=lambda i: arrivals[i].time_ms
        )
        t_page = self.parameters.page_service_time_ms
        num_disks = self.store.num_disks
        tracer = current_tracer(self.tracer)
        traced = tracer.enabled
        cache = self._engine.cache
        cache_before = cache.stats() if cache else None
        disk_free = np.zeros(num_disks)
        totals = np.zeros(num_disks, dtype=np.int64)
        latencies = []
        completion = 0.0
        results: Optional[List[ParallelQueryResult]] = (
            [None] * len(arrivals) if keep_results else None  # type: ignore[list-item]
        )
        for index, original in enumerate(order):
            arrival = arrivals[original]
            if traced:
                tracer.record(
                    "query_arrival", query=index, t_ms=arrival.time_ms,
                    k=arrival.k,
                )
            demand = self._engine.query(arrival.query, arrival.k)
            if results is not None:
                results[original] = demand
            pages = demand.pages_per_disk
            totals += pages
            finish = arrival.time_ms
            for disk in np.nonzero(pages)[0]:
                start = max(arrival.time_ms, disk_free[disk])
                end = start + pages[disk] * t_page
                disk_free[disk] = end
                finish = max(finish, end)
            latencies.append(finish - arrival.time_ms)
            completion = max(completion, finish)
            if traced:
                tracer.record(
                    "query_completion", query=index, t_ms=finish,
                    latency_ms=finish - arrival.time_ms,
                )
        report = EventSimReport(
            latencies_ms=np.array(latencies),
            completion_ms=completion,
            pages_per_disk=totals,
            page_service_time_ms=t_page,
            cache_stats=(
                cache.delta_since(cache_before) if cache else None
            ),
            query_results=results,
        )
        registry = current_metrics(metrics, self.tracer)
        if registry is not None:
            latency_hist = registry.histogram("stream_latency_ms")
            for latency in latencies:
                latency_hist.record(float(latency))
            utilization = registry.histogram("disk_utilization")
            for value in report.utilization:
                utilization.record(float(value))
        return report
