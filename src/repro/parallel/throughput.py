"""Multi-query throughput simulation (the paper's stated future work).

The paper's conclusion: "Another topic which we will address in the future
are declustering techniques which optimize the *throughput* instead of the
search time for a single query."  This module provides that evaluation
axis: a stream of concurrent kNN queries is executed against a declustered
store, page requests queue up per disk, and the simulator reports

* **makespan** — time until every disk drained its queue (all queries
  answered);
* **throughput** — queries per simulated second;
* **mean latency** — average query completion time under fair (round-robin
  across queries) per-disk scheduling;
* **disk utilization** — busy time / makespan per disk.

For a single query, per-query balance (the paper's near-optimality) is
everything; for a saturated stream, *aggregate* balance across the whole
workload dominates — the throughput ablation quantifies the difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.context import current_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.cache import BufferPool, CacheStats
from repro.parallel.disks import DiskParameters
from repro.parallel.engine import CacheSpec, ParallelQueryResult
from repro.parallel.paged import PagedEngine, PagedStore

__all__ = ["ThroughputReport", "ThroughputSimulator"]


@dataclass
class ThroughputReport:
    """Aggregate results of one throughput run.

    With a buffer pool attached, ``pages_per_disk`` counts only cache
    misses (hot pages are served from RAM) and ``cache_stats`` holds the
    hit/miss counters accumulated over the whole run.
    """

    num_queries: int
    makespan_ms: float
    mean_latency_ms: float
    pages_per_disk: np.ndarray
    page_service_time_ms: float
    cache_stats: Optional[CacheStats] = None
    #: Per-query kNN results in *input* order; populated only when the
    #: run was asked to ``keep_results`` (determinism sanitizer).
    query_results: Optional[List["ParallelQueryResult"]] = None

    @property
    def throughput_qps(self) -> float:
        """Completed queries per simulated second."""
        if self.makespan_ms <= 0:
            return float("inf")
        return self.num_queries / (self.makespan_ms / 1000.0)

    @property
    def utilization(self) -> np.ndarray:
        """Per-disk busy fraction of the makespan."""
        busy = self.pages_per_disk * self.page_service_time_ms
        if self.makespan_ms <= 0:
            return np.ones_like(busy, dtype=float)
        return busy / self.makespan_ms

    @property
    def aggregate_imbalance(self) -> float:
        """Busiest-disk pages over mean pages for the whole workload."""
        mean = self.pages_per_disk.mean()
        return float(self.pages_per_disk.max() / mean) if mean else 1.0


class ThroughputSimulator:
    """Executes a batch of concurrent kNN queries against a store.

    The model: every query's page requests are known up front (from the
    kNN engine); disks serve one page per ``page_service_time``; requests
    of concurrent queries interleave fairly (processor sharing per disk).
    Under processor sharing, a query finishes when its last disk finishes
    its share, and the makespan equals the busiest disk's total work —
    both computable in closed form without event simulation.
    """

    def __init__(
        self,
        store: PagedStore,
        parameters: Optional[DiskParameters] = None,
        cache: CacheSpec = None,
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
        queries: np.ndarray,
        k: int = 10,
        metrics: Optional[MetricsRegistry] = None,
        tiebreak_seed: Optional[int] = None,
        keep_results: bool = False,
    ) -> ThroughputReport:
        """Simulate the concurrent execution of ``queries``.

        The buffer pool (if any) persists across the batch: later queries
        hit the pages earlier queries pulled in, so only misses queue up
        at the disks.

        All queries of the batch arrive simultaneously, so their
        execution order is one big timestamp tie: ``tiebreak_seed``
        (the determinism sanitizer's hook point) permutes it, with
        per-query outputs always restored to input positions.  Results
        and per-disk totals must not depend on the seed —
        ``repro.sanitize.replay`` replays and diffs exactly that.
        ``keep_results`` records each query's kNN result on the report.

        Per-query trace events come from the inner
        :class:`~repro.parallel.paged.PagedEngine`; batch aggregates
        (``makespan_ms``, ``throughput_qps``, ``mean_latency_ms``,
        ``disk_utilization``) are published into ``metrics`` — or the
        ambient registry of an enclosing
        :func:`repro.obs.context.observe` block — when one is present.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        t_page = self.parameters.page_service_time_ms
        num_disks = self.store.num_disks
        cache = self._engine.cache
        cache_before = cache.stats() if cache else None
        if tiebreak_seed is None:
            order = list(range(len(queries)))
        else:
            order = [
                int(i)
                for i in np.random.default_rng(tiebreak_seed).permutation(
                    len(queries)
                )
            ]
        per_query_pages: List[np.ndarray] = [None] * len(queries)  # type: ignore[list-item]
        results: Optional[List[ParallelQueryResult]] = (
            [None] * len(queries) if keep_results else None  # type: ignore[list-item]
        )
        for original in order:
            result = self._engine.query(queries[original], k)
            per_query_pages[original] = result.pages_per_disk
            if results is not None:
                results[original] = result
        totals = (
            np.sum(per_query_pages, axis=0)
            if per_query_pages
            else np.zeros(num_disks, dtype=np.int64)
        )
        makespan = float(totals.max()) * t_page

        # Latency under processor sharing with simultaneous arrival: a
        # disk serving several queries finishes them all when its queue
        # drains, so a query completes when the busiest disk *it touches*
        # drains — a tight bound without event-level simulation.
        latencies = []
        for own in per_query_pages:
            busy = np.where(own > 0, totals * t_page, 0.0)
            latencies.append(float(busy.max()) if busy.size else 0.0)
        report = ThroughputReport(
            num_queries=len(queries),
            makespan_ms=makespan,
            mean_latency_ms=float(np.mean(latencies)) if latencies else 0.0,
            pages_per_disk=totals,
            page_service_time_ms=t_page,
            cache_stats=(
                cache.delta_since(cache_before) if cache else None
            ),
            query_results=results,
        )
        registry = current_metrics(metrics, self.tracer)
        if registry is not None:
            registry.histogram("makespan_ms").record(report.makespan_ms)
            if math.isfinite(report.throughput_qps):
                registry.histogram("throughput_qps").record(
                    report.throughput_qps
                )
            registry.histogram("mean_latency_ms").record(
                report.mean_latency_ms
            )
            utilization = registry.histogram("disk_utilization")
            for value in report.utilization:
                utilization.record(float(value))
        return report
