"""Load generation for the serving layer: arrival models and sweeps.

Drives :class:`~repro.serve.service.QueryService` with synthetic
workloads and reports latency percentiles versus offered load under the
simulator service-time model:

* **Open-loop** arrivals — :func:`poisson_trace` (seeded exponential
  interarrivals at a target QPS) and :func:`uniform_trace` (evenly
  spaced) produce fixed traces served via
  :meth:`~repro.serve.service.QueryService.run_trace`; offered load is
  independent of completions, so queues grow when the disks saturate.
* **Closed-loop** arrivals — :class:`ClosedLoopSource` models a fixed
  population of clients that each wait for their previous answer plus a
  think time before issuing the next request (the classic
  interactive-user model); completions feed back through the service's
  ``on_batch`` hook.

:func:`sweep` runs a grid of offered loads across declustering schemes
and :func:`points_to_table` renders the result as a
:class:`~repro.experiments.harness.ResultTable` ready for
:func:`~repro.obs.export.table_to_json` (``repro.result_table/v1``) —
the format ``benchmarks/bench_serve.py`` writes to ``BENCH_serve.json``.

Everything is seeded: the same :class:`WorkloadSpec` and seeds yield the
same stores, traces, and therefore — by the service's determinism
contract — bit-for-bit the same results and page counts.
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.process import ProcessParallelEngine

from repro.experiments.harness import ResultTable
from repro.obs.tracer import Tracer
from repro.serve.service import (
    BatchOutcome,
    QueryRequest,
    QueryService,
    ServeReport,
)

__all__ = [
    "WorkloadSpec",
    "build_engine",
    "poisson_trace",
    "uniform_trace",
    "ClosedLoopSource",
    "run_closed_loop",
    "LoadPoint",
    "sweep",
    "points_to_table",
]

#: Engine families the load generator can build.
ENGINE_KINDS = ("item", "paged", "process")


@dataclass(frozen=True)
class WorkloadSpec:
    """Seeded description of one serving workload.

    ``n`` points in ``d`` dimensions are declustered over ``num_disks``
    disks by ``scheme``; queries ask for ``k`` neighbors.  ``engine``
    selects the item-level :class:`~repro.parallel.engine.ParallelEngine`,
    the page-level :class:`~repro.parallel.paged.PagedEngine`, or the
    out-of-core
    :class:`~repro.parallel.process.ProcessParallelEngine` (one worker
    process per disk over an on-disk store built for the run);
    ``cache_pages`` attaches a shared buffer pool (``None`` = no pool;
    0 = a disabled pool that counts misses, the engines' convention).
    The process engine is cacheless — warm reads are served by the OS
    page cache — so ``cache_pages`` must stay ``None`` with it.
    ``tenants`` maps tenant labels to mix weights used when sampling
    request attribution.
    """

    n: int = 2048
    d: int = 2
    k: int = 10
    num_disks: int = 4
    scheme: str = "col"
    engine: str = "paged"
    cache_pages: Optional[int] = None
    seed: int = 0
    tenants: Mapping[str, float] = field(
        default_factory=lambda: {"default": 1.0}
    )

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.engine == "process" and self.cache_pages is not None:
            raise ValueError(
                "the process engine is cacheless (warm mmap reads are "
                "served by the OS page cache); drop cache_pages or use "
                "engine='paged'"
            )
        if not self.tenants:
            raise ValueError("tenants mix must not be empty")
        if any(weight < 0 for weight in self.tenants.values()):
            raise ValueError("tenant weights must be >= 0")
        if sum(self.tenants.values()) <= 0:
            raise ValueError("tenant weights must sum to > 0")


class _TempStoreProcessEngine(ProcessParallelEngine):
    """A process engine that owns its store's temp directory.

    :func:`build_engine` materialises the spec's points into a fresh
    on-disk :class:`~repro.storage.mmap_store.MmapStore` under a
    temporary directory; closing the engine also closes the store and
    removes the directory, so a serving run leaves nothing behind.
    """

    def __init__(self, store: Any, temp_dir: str, **kwargs: Any):
        super().__init__(store, **kwargs)
        self._temp_dir = temp_dir

    def close(self) -> None:
        """Stop the workers, close the store, remove its directory."""
        super().close()
        self.store.close()
        shutil.rmtree(self._temp_dir, ignore_errors=True)


def build_engine(spec: WorkloadSpec, tracer: Optional[Tracer] = None) -> Any:
    """Build the seeded store + engine a :class:`WorkloadSpec` describes.

    The data points come from ``default_rng(spec.seed)``, so two calls
    with the same spec produce identically declustered stores — the
    property the oracle suite leans on to compare a served run against
    a direct ``query_batch`` reference on a *separate* engine.

    ``engine="process"`` builds an on-disk
    :class:`~repro.storage.mmap_store.MmapStore` in a temporary
    directory and serves it with one worker process per disk; the
    returned engine owns the directory, so call ``close()`` (or let
    :class:`~repro.serve.service.QueryService` with ``own_engine=True``
    do it) to reclaim the workers and the files.
    """
    from repro.registry import make_declusterer

    rng = np.random.default_rng(spec.seed)
    points = rng.random((spec.n, spec.d))
    declusterer = make_declusterer(spec.scheme, spec.d, spec.num_disks)
    if spec.engine == "process":
        from repro.storage import bulk_load_mmap

        temp_dir = tempfile.mkdtemp(prefix="repro-serve-store-")
        engine: Optional[_TempStoreProcessEngine] = None
        try:
            store = bulk_load_mmap(
                points, declusterer, f"{temp_dir}/store"
            )
            engine = _TempStoreProcessEngine(store, temp_dir, tracer=tracer)
            return engine
        finally:
            # A failed build leaves no engine to own the directory.
            if engine is None:
                shutil.rmtree(temp_dir, ignore_errors=True)
    if spec.engine == "item":
        from repro.parallel.engine import ParallelEngine
        from repro.parallel.store import DeclusteredStore

        store = DeclusteredStore(points, declusterer)
        return ParallelEngine(
            store, cache=spec.cache_pages, tracer=tracer
        )
    from repro.parallel.paged import PagedEngine, PagedStore

    store = PagedStore(points, declusterer)
    return PagedEngine(store, cache=spec.cache_pages, tracer=tracer)


def _sample_tenants(
    spec: WorkloadSpec, count: int, rng: np.random.Generator
) -> List[str]:
    """Draw ``count`` tenant labels from the spec's weighted mix."""
    names = sorted(spec.tenants)
    weights = np.array([spec.tenants[name] for name in names], dtype=float)
    picks = rng.choice(len(names), size=count, p=weights / weights.sum())
    return [names[int(pick)] for pick in picks]


def _make_requests(
    spec: WorkloadSpec,
    arrivals_ms: np.ndarray,
    rng: np.random.Generator,
) -> List[QueryRequest]:
    """Seeded kNN requests at the given arrival instants."""
    queries = rng.random((len(arrivals_ms), spec.d))
    tenants = _sample_tenants(spec, len(arrivals_ms), rng)
    return [
        QueryRequest(
            query=queries[index],
            k=spec.k,
            tenant=tenants[index],
            arrival_ms=float(arrivals_ms[index]),
        )
        for index in range(len(arrivals_ms))
    ]


def poisson_trace(
    spec: WorkloadSpec,
    count: int,
    rate_qps: float,
    seed: int = 1,
) -> List[QueryRequest]:
    """Open-loop Poisson arrivals: ``count`` requests at ``rate_qps``.

    Interarrival gaps are exponential with mean ``1000 / rate_qps`` ms,
    drawn from ``default_rng(seed)`` — a trace is a pure function of
    ``(spec, count, rate_qps, seed)``.
    """
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1000.0 / rate_qps, size=count)
    return _make_requests(spec, np.cumsum(gaps), rng)


def uniform_trace(
    spec: WorkloadSpec,
    count: int,
    rate_qps: float,
    seed: int = 1,
) -> List[QueryRequest]:
    """Open-loop deterministic arrivals evenly spaced at ``rate_qps``."""
    if rate_qps <= 0:
        raise ValueError(f"rate_qps must be > 0, got {rate_qps}")
    rng = np.random.default_rng(seed)
    gap = 1000.0 / rate_qps
    arrivals = gap * np.arange(1, count + 1, dtype=float)
    return _make_requests(spec, arrivals, rng)


class ClosedLoopSource:
    """A fixed client population with think times, as an arrival source.

    Each of ``num_clients`` clients issues ``requests_per_client``
    seeded kNN requests; a client only becomes ready again after its
    previous request *completes* plus an exponential think time (mean
    ``think_ms``; 0 disables thinking).  Wire :meth:`on_batch` into
    :meth:`QueryService.run_stream
    <repro.serve.service.QueryService.run_stream>` so completions
    release their clients.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        num_clients: int,
        requests_per_client: int,
        think_ms: float = 0.0,
        seed: int = 1,
    ):
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if requests_per_client < 1:
            raise ValueError(
                "requests_per_client must be >= 1, got "
                f"{requests_per_client}"
            )
        if think_ms < 0:
            raise ValueError(f"think_ms must be >= 0, got {think_ms}")
        rng = np.random.default_rng(seed)
        total = num_clients * requests_per_client
        queries = rng.random((total, spec.d))
        tenants = _sample_tenants(spec, total, rng)
        if think_ms > 0:
            thinks = rng.exponential(
                think_ms, size=(num_clients, requests_per_client)
            )
        else:
            thinks = np.zeros((num_clients, requests_per_client))
        self._spec = spec
        self._queries = queries
        self._tenants = tenants
        self._thinks = thinks
        self._issued = [0] * num_clients
        self._limit = requests_per_client
        self._token = 0
        # (ready_ms, client) min-heap; every client starts after its
        # first think draw, desynchronizing the initial burst.
        self._ready: List[Tuple[float, int]] = [
            (float(thinks[client][0]), client)
            for client in range(num_clients)
        ]
        heapq.heapify(self._ready)
        self._in_flight: Dict[int, int] = {}

    def peek_ms(self) -> Optional[float]:
        """Next ready client's arrival time; None while all are busy."""
        if not self._ready:
            return None
        return self._ready[0][0]

    def pop(self) -> Tuple[int, QueryRequest]:
        """Issue the next ready client's request."""
        ready_ms, client = heapq.heappop(self._ready)
        index = client * self._limit + self._issued[client]
        self._issued[client] += 1
        request = QueryRequest(
            query=self._queries[index],
            k=self._spec.k,
            tenant=self._tenants[index],
            arrival_ms=ready_ms,
        )
        token = self._token
        self._token += 1
        self._in_flight[id(request)] = client
        return token, request

    def on_batch(
        self, requests: List[QueryRequest], outcome: BatchOutcome
    ) -> None:
        """Completion feedback: release each batched client to think."""
        for request in requests:
            client = self._in_flight.pop(id(request), None)
            if client is None:
                continue
            issued = self._issued[client]
            if issued >= self._limit:
                continue
            think = float(self._thinks[client][issued])
            heapq.heappush(
                self._ready, (outcome.completion_ms + think, client)
            )


def run_closed_loop(
    service: QueryService,
    spec: WorkloadSpec,
    num_clients: int,
    requests_per_client: int,
    think_ms: float = 0.0,
    seed: int = 1,
    metrics: Optional[Any] = None,
) -> ServeReport:
    """Run a closed-loop population to completion; returns the report."""
    source = ClosedLoopSource(
        spec,
        num_clients=num_clients,
        requests_per_client=requests_per_client,
        think_ms=think_ms,
        seed=seed,
    )
    return service.run_stream(
        source, metrics=metrics, on_batch=source.on_batch
    )


@dataclass(frozen=True)
class LoadPoint:
    """One (scheme, policy, offered load) cell of a load sweep."""

    scheme: str
    policy: str
    offered_qps: float
    completed: int
    throughput_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    mean_batch_size: float
    max_pages: int


def sweep(
    spec: WorkloadSpec,
    schemes: Sequence[str],
    offered_qps: Sequence[float],
    policy: str = "max-batch",
    requests: int = 64,
    trace_seed: int = 1,
    tracer: Optional[Tracer] = None,
    **policy_kwargs: object,
) -> List[LoadPoint]:
    """Latency-vs-offered-load grid over declustering schemes.

    For every scheme a fresh engine is built from ``spec``; for every
    offered load a Poisson trace of ``requests`` arrivals (same
    ``trace_seed``, so all cells serve the same query stream) runs
    through a :class:`~repro.serve.service.QueryService` under
    ``policy``.  Caches are cold-started between cells.
    """
    points: List[LoadPoint] = []
    for scheme in schemes:
        cell_spec = replace(spec, scheme=scheme)
        engine = build_engine(cell_spec, tracer=tracer)
        service = QueryService(
            engine, policy, tracer=tracer, own_engine=True,
            **policy_kwargs,
        )
        try:
            points.extend(
                _sweep_scheme(
                    service, cell_spec, offered_qps, requests, trace_seed
                )
            )
        finally:
            service.close()
    return points


def _sweep_scheme(
    service: QueryService,
    cell_spec: WorkloadSpec,
    offered_qps: Sequence[float],
    requests: int,
    trace_seed: int,
) -> List[LoadPoint]:
    """Run one scheme's offered-load column of a :func:`sweep`."""
    engine = service.engine
    points: List[LoadPoint] = []
    for qps in offered_qps:
        if engine.cache is not None:
            engine.cache.reset()
        trace = poisson_trace(cell_spec, requests, qps, trace_seed)
        report = service.run_trace(trace)
        points.append(
            LoadPoint(
                scheme=cell_spec.scheme,
                policy=report.policy,
                offered_qps=float(qps),
                completed=len(report.outcomes),
                throughput_qps=round(report.throughput_qps, 3),
                p50_ms=round(report.p50_latency_ms, 3),
                p95_ms=round(report.p95_latency_ms, 3),
                p99_ms=round(report.p99_latency_ms, 3),
                mean_ms=round(report.mean_latency_ms, 3),
                mean_batch_size=round(report.mean_batch_size, 3),
                max_pages=report.max_pages,
            )
        )
    return points


def points_to_table(
    points: Sequence[LoadPoint],
    title: str = "Serve latency vs offered load",
) -> ResultTable:
    """Render sweep points as a ``repro.result_table/v1``-ready table."""
    table = ResultTable(
        title,
        [
            "scheme",
            "policy",
            "offered_qps",
            "completed",
            "throughput_qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "mean_ms",
            "mean_batch_size",
            "max_pages",
        ],
    )
    for point in points:
        table.add_row(
            point.scheme,
            point.policy,
            point.offered_qps,
            point.completed,
            point.throughput_qps,
            point.p50_ms,
            point.p95_ms,
            point.p99_ms,
            point.mean_ms,
            point.mean_batch_size,
            point.max_pages,
        )
    return table
