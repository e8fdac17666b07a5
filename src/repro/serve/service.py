"""``QueryService``: an asyncio front door over the batch query kernels.

The paper's engines answer one query fast; this module serves *many
concurrent clients* — the ROADMAP's inter-query parallelism direction.
Requests (kNN or window) are admitted into a pending queue, a
:class:`~repro.serve.scheduler.SchedulerPolicy` coalesces them into
kernel-friendly batches, and each batch executes through the engine's
``query_batch`` API sharing one buffer pool, so concurrent queries warm
pages for each other.

Two execution surfaces share one batch executor:

* :meth:`QueryService.run_trace` / :meth:`QueryService.run_stream` —
  deterministic **virtual-time** execution of an arrival trace under
  the simulator service-time model (a batch takes its busiest disk's
  pages times the page service time; the single executor models the
  coordinating workstation).  This is what the load generator and the
  oracle tests drive.
* :meth:`QueryService.submit` — the real **asyncio** path: concurrent
  clients ``await`` their result while a background scheduler task
  batches admissions with wall-clock deadlines.  The policy logic is
  the same object, and batches never reorder admissions.  Here a
  request completes when its batch's engine work returns, on the
  service clock — measured, not modelled.

**Determinism contract** (oracle-enforced): scheduling only *groups*
requests — it never reorders them — so a fixed arrival trace yields
neighbors, ``pages_per_disk``, and ``cache_stats`` bit-for-bit
identical to issuing the same queries directly through ``query_batch``
in arrival order on an identically configured engine.

Under an enabled tracer (explicit or ambient
:func:`repro.obs.observe`), the service emits ``serve_enqueue`` /
``serve_flush`` / ``serve_complete`` events stamped with the stream
clock, bracketing the per-query spans of the inner engine, and
publishes the ``serve_*`` catalogued metrics.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.obs.context import current_metrics, current_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.parallel.cache import CacheStats
from repro.parallel.paged import PagedStore
from repro.serve.clock import Clock, LoopClock, VirtualClock
from repro.serve.scheduler import SchedulerPolicy, make_scheduler

__all__ = [
    "QueryRequest",
    "RequestOutcome",
    "BatchOutcome",
    "ServeReport",
    "ArrivalSource",
    "ListSource",
    "QueryService",
]

#: Request kinds the front door accepts.
REQUEST_KINDS = ("knn", "window")


@dataclass(frozen=True)
class QueryRequest:
    """One client request entering the service.

    ``query`` is the kNN query point, or the window's lower corner when
    ``kind == "window"`` (``high`` then carries the upper corner).
    ``arrival_ms`` is the stream-clock arrival used by the virtual-time
    planner; the asyncio path stamps it at admission.  ``tenant`` is a
    free-form client label carried through traces and reports so load
    mixes can be attributed.
    """

    query: np.ndarray
    k: int = 10
    kind: str = "knn"
    high: Optional[np.ndarray] = None
    tenant: str = "default"
    arrival_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )
        if self.kind == "window" and self.high is None:
            raise ValueError("window requests require the 'high' corner")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for corner in (self.query, self.high):
            if corner is not None and not np.isfinite(
                np.asarray(corner, dtype=float)
            ).all():
                raise ValueError("query coordinates must be finite")
        if not (math.isfinite(self.arrival_ms) and self.arrival_ms >= 0):
            raise ValueError(
                f"arrival_ms must be finite and >= 0, got {self.arrival_ms}"
            )


@dataclass
class RequestOutcome:
    """One request's result plus its scheduling timeline.

    ``result`` is the engine's own result object
    (:class:`~repro.parallel.engine.ParallelQueryResult` or
    :class:`~repro.parallel.window.WindowQueryResult`) — bit-for-bit
    what a direct engine call would have returned.
    """

    request: QueryRequest
    result: Any
    batch_id: int
    batch_size: int
    flush_ms: float
    completion_ms: float

    @property
    def wait_ms(self) -> float:
        """Queueing delay: admission to batch flush."""
        return self.flush_ms - self.request.arrival_ms

    @property
    def latency_ms(self) -> float:
        """End-to-end latency: admission to batch completion (modelled
        in virtual time, measured on the live asyncio path)."""
        return self.completion_ms - self.request.arrival_ms


@dataclass
class BatchOutcome:
    """One executed batch: per-request results plus the cost model."""

    batch_id: int
    results: List[Any]
    flush_ms: float
    batch_ms: float
    pages_per_disk: np.ndarray

    @property
    def completion_ms(self) -> float:
        """Stream-clock instant the batch's last page is served."""
        return self.flush_ms + self.batch_ms


@dataclass
class ServeReport:
    """Aggregate outcome of one virtual-time serve run.

    ``outcomes`` is indexed by the *input order* of the arrival trace
    (not the processing order), so the oracle can compare the run
    against a direct ``query_batch`` reference position by position.
    """

    outcomes: List[RequestOutcome]
    pages_per_disk: np.ndarray
    completion_ms: float
    num_batches: int
    page_service_time_ms: float
    policy: str
    cache_stats: Optional[CacheStats] = None
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def query_results(self) -> List[Any]:
        """Per-request engine results, in input order."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def latencies_ms(self) -> np.ndarray:
        """Per-request end-to-end latency, in input order."""
        return np.array(
            [outcome.latency_ms for outcome in self.outcomes], dtype=float
        )

    @property
    def waits_ms(self) -> np.ndarray:
        """Per-request queueing delay, in input order."""
        return np.array(
            [outcome.wait_ms for outcome in self.outcomes], dtype=float
        )

    def latency_quantile(self, q: float) -> float:
        """Nearest-rank latency quantile in ms (0.0 on an empty run)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.outcomes:
            return 0.0
        ordered = np.sort(self.latencies_ms)
        rank = max(0, int(np.ceil(q * len(ordered))) - 1)
        return float(ordered[rank])

    @property
    def p50_latency_ms(self) -> float:
        """Median end-to-end latency."""
        return self.latency_quantile(0.5)

    @property
    def p95_latency_ms(self) -> float:
        """95th-percentile end-to-end latency."""
        return self.latency_quantile(0.95)

    @property
    def p99_latency_ms(self) -> float:
        """99th-percentile end-to-end latency."""
        return self.latency_quantile(0.99)

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency."""
        values = self.latencies_ms
        return float(values.mean()) if values.size else 0.0

    @property
    def throughput_qps(self) -> float:
        """Completed requests per simulated second (0.0 on an empty
        run)."""
        if not self.outcomes:
            return 0.0
        if self.completion_ms <= 0:
            return float("inf")
        return len(self.outcomes) / (self.completion_ms / 1000.0)

    @property
    def mean_batch_size(self) -> float:
        """Average requests per executed batch."""
        if not self.batch_sizes:
            return 0.0
        return float(sum(self.batch_sizes)) / len(self.batch_sizes)

    @property
    def max_pages(self) -> int:
        """Busiest disk's page total over the whole run."""
        return (
            int(self.pages_per_disk.max()) if self.pages_per_disk.size
            else 0
        )

    @property
    def total_pages(self) -> int:
        """Pages read across all disks and requests."""
        return int(self.pages_per_disk.sum())


class ArrivalSource(Protocol):
    """Pull-based arrival stream the virtual-time planner consumes.

    ``peek_ms`` returns the next arrival's stream time without
    consuming it (``None`` when exhausted *for now* — a closed-loop
    source replenishes after completions); ``pop`` consumes it,
    returning a caller-meaningful token (used to order the report) and
    the request.  Arrival times must be non-decreasing across pops.
    """

    def peek_ms(self) -> Optional[float]:
        """Next arrival's stream time, or None when none is ready."""
        ...

    def pop(self) -> Tuple[int, QueryRequest]:
        """Consume the next arrival as ``(token, request)``."""
        ...


class ListSource:
    """A fixed, pre-sorted arrival trace as an :class:`ArrivalSource`."""

    def __init__(self, items: Sequence[Tuple[int, QueryRequest]]):
        self._items = list(items)
        self._next = 0

    def peek_ms(self) -> Optional[float]:
        """Next arrival time, or None once the trace is exhausted."""
        if self._next >= len(self._items):
            return None
        return self._items[self._next][1].arrival_ms

    def pop(self) -> Tuple[int, QueryRequest]:
        """Consume and return the next ``(token, request)`` pair."""
        item = self._items[self._next]
        self._next += 1
        return item


class _Admission:
    """One asyncio admission: the request plus its completion future."""

    __slots__ = ("request", "future")

    def __init__(
        self, request: QueryRequest, future: "asyncio.Future[Any]"
    ):
        self.request = request
        self.future = future


class QueryService:
    """Batching front door over any engine exposing ``query_batch``.

    Parameters
    ----------
    engine:
        A :class:`~repro.parallel.engine.ParallelEngine`,
        :class:`~repro.parallel.engine.SequentialEngine`,
        :class:`~repro.parallel.paged.PagedEngine`, or
        :class:`~repro.parallel.process.ProcessParallelEngine`; batches
        run through its ``query_batch`` and share its buffer pool (the
        process engine is cacheless).  Window requests additionally
        require the engine's store to be a
        :class:`~repro.parallel.paged.PagedStore`.
    policy:
        A :class:`~repro.serve.scheduler.SchedulerPolicy` or a
        registered policy name (see
        :data:`~repro.serve.scheduler.SCHEDULERS`); extra keyword
        arguments via :func:`~repro.serve.scheduler.make_scheduler`.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` for the ``serve_*``
        stream events; when omitted the ambient tracer — if any — is
        used.
    clock:
        The :class:`~repro.serve.clock.Clock` the *asyncio* front door
        stamps admissions and deadlines with; defaults to the event
        loop's :class:`~repro.serve.clock.LoopClock`.  The virtual-time
        planner never reads it — ``run_stream`` drives its own
        :class:`~repro.serve.clock.VirtualClock`.
    own_engine:
        When true the service owns the engine's lifecycle: both
        :meth:`close` and (after draining) :meth:`stop` call the
        engine's ``close()`` — the hand-off :func:`~repro.serve.loadgen.
        build_engine` relies on so a process-engine worker pool (and
        its temp store) never outlives the service.
    """

    #: Attributes a single owner (the scheduler task) mutates; the
    #: ``async-atomicity-violation`` lint rule treats writes to these
    #: as race-free by annotation rather than by lock.
    _SINGLE_WRITER = frozenset({"_async_batches"})

    def __init__(
        self,
        engine: Any,
        policy: Union[str, SchedulerPolicy] = "fifo",
        tracer: Optional[Tracer] = None,
        clock: Optional[Clock] = None,
        own_engine: bool = False,
        **policy_kwargs: object,
    ):
        self.engine = engine
        self.own_engine = bool(own_engine)
        self.policy = make_scheduler(policy, **policy_kwargs)
        self.tracer = tracer
        self.clock: Clock = clock if clock is not None else LoopClock()
        store = getattr(engine, "store", None)
        self.num_disks = int(getattr(store, "num_disks", 1))
        self.page_service_time_ms = float(
            engine.parameters.page_service_time_ms
        )
        self._queue: Optional["asyncio.Queue[Optional[_Admission]]"] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._loop_t0 = 0.0
        self._async_batches = 0

    # ------------------------------------------------------------- helpers

    def close(self) -> None:
        """Release the engine when this service owns it (idempotent).

        With ``own_engine=True`` this calls the engine's ``close()``
        (engines without one — the in-process families — need no
        teardown).  Synchronous runs (:meth:`run_trace`,
        :meth:`run_stream`, :func:`~repro.serve.loadgen.sweep` cells)
        should call it when done; the asyncio front door's
        :meth:`stop` calls it after draining the scheduler.
        """
        if not self.own_engine:
            return
        closer = getattr(self.engine, "close", None)
        if callable(closer):
            closer()

    # ------------------------------------------------------- batch executor

    def execute_batch(
        self,
        requests: Sequence[QueryRequest],
        flush_ms: float = 0.0,
        batch_id: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> BatchOutcome:
        """Execute one batch in admission order; never reorders.

        Contiguous runs of same-``(kind, k)`` requests go through the
        engine's ``query_batch`` (one kernel call per run, shared
        pool); window requests run one
        :meth:`~repro.parallel.paged.PagedEngine.window` each, on the
        same pool.  The
        batch's service time is its busiest disk's page total times the
        page service time — the paper's cost model lifted from one
        query to one batch — and its requests complete, in the trace and
        the ``serve_latency_ms`` histogram, at the modelled
        ``outcome.completion_ms``.
        """
        outcome = self._execute(requests, flush_ms, batch_id, metrics)
        self._complete(requests, outcome, outcome.completion_ms, metrics)
        return outcome

    def _execute(
        self,
        requests: Sequence[QueryRequest],
        flush_ms: float,
        batch_id: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> BatchOutcome:
        """:meth:`execute_batch` up to its completion: the engine work,
        the ``serve_flush`` event and every metric but the latency."""
        results: List[Any] = []
        for start, stop in _contiguous_runs(requests):
            head = requests[start]
            chunk = requests[start:stop]
            if head.kind == "knn":
                batch = self.engine.query_batch(
                    np.stack([request.query for request in chunk]),
                    k=head.k,
                )
                results.extend(batch.results)
            else:
                store = getattr(self.engine, "store", None)
                if not isinstance(store, PagedStore):
                    raise ValueError(
                        "window requests require an engine over a "
                        "PagedStore (got "
                        f"{type(self.engine).__name__})"
                    )
                results.extend(
                    self.engine.window(request.query, request.high)
                    for request in chunk
                )
        pages = np.zeros(self.num_disks, dtype=np.int64)
        for result in results:
            pages += result.pages_per_disk
        batch_ms = (
            float(pages.max()) * self.page_service_time_ms
            if pages.size else 0.0
        )
        outcome = BatchOutcome(
            batch_id=batch_id,
            results=results,
            flush_ms=flush_ms,
            batch_ms=batch_ms,
            pages_per_disk=pages,
        )
        tracer = current_tracer(self.tracer)
        if tracer.enabled:
            tracer.record(
                "serve_flush", t_ms=flush_ms, batch=batch_id,
                size=len(requests), policy=self.policy.name,
            )
        registry = current_metrics(metrics, self.tracer)
        if registry is not None:
            registry.counter("serve_requests_total").inc(len(requests))
            registry.counter("serve_batches_total").inc()
            registry.histogram("serve_batch_size").record(len(requests))
            registry.histogram("serve_batch_service_ms").record(batch_ms)
            for request in requests:
                registry.histogram("serve_queue_wait_ms").record(
                    flush_ms - request.arrival_ms
                )
        return outcome

    def _complete(
        self,
        requests: Sequence[QueryRequest],
        outcome: BatchOutcome,
        completion_ms: float,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """Record a batch's requests as complete at ``completion_ms``
        (modelled in virtual time, measured live): the
        ``serve_complete`` event and the ``serve_latency_ms`` samples."""
        tracer = current_tracer(self.tracer)
        if tracer.enabled:
            tracer.record(
                "serve_complete", t_ms=completion_ms,
                batch=outcome.batch_id, size=len(requests),
                batch_ms=round(outcome.batch_ms, 6),
            )
        registry = current_metrics(metrics, self.tracer)
        if registry is not None:
            latency = registry.histogram("serve_latency_ms")
            for request in requests:
                latency.record(completion_ms - request.arrival_ms)

    # --------------------------------------------------- virtual-time runs

    def run_stream(
        self,
        source: ArrivalSource,
        metrics: Optional[MetricsRegistry] = None,
        on_batch: Optional[
            Callable[[List[QueryRequest], BatchOutcome], None]
        ] = None,
    ) -> ServeReport:
        """Drain an arrival source in virtual time; returns the report.

        The scheduling loop: take the oldest pending request, absorb
        every arrival due before the policy's flush instant (executor
        availability always delays a flush), flush at most
        ``policy.max_batch`` requests — strictly in arrival order —
        and execute.  ``on_batch`` runs after each batch (the
        closed-loop generator's completion feedback hook).

        The run is timed on a fresh
        :class:`~repro.serve.clock.VirtualClock` at 0 ms, advanced to
        each batch's flush and completion instants; when the source is
        drained the clock sits exactly on the report's
        ``completion_ms``, and its monotonicity check turns any
        backwards flush schedule into a hard error.
        """
        tracer = current_tracer(self.tracer)
        traced = tracer.enabled
        clock = VirtualClock()
        cache = getattr(self.engine, "cache", None)
        cache_before = cache.stats() if cache is not None else None
        pending: List[Tuple[int, QueryRequest]] = []
        outcomes: Dict[int, RequestOutcome] = {}
        batch_sizes: List[int] = []
        pages = np.zeros(self.num_disks, dtype=np.int64)
        executor_free = clock.now_ms()
        completion = clock.now_ms()
        batch_id = 0

        def absorb_one() -> bool:
            token, request = source.pop()
            if traced:
                tracer.record(
                    "serve_enqueue", query=token,
                    t_ms=request.arrival_ms, tenant=request.tenant,
                    request_kind=request.kind, k=request.k,
                )
            pending.append((token, request))
            return True

        while True:
            if not pending:
                if source.peek_ms() is None:
                    break
                absorb_one()
            # Decide this batch's flush instant, absorbing every
            # arrival due before it (or until the batch fills).
            while True:
                if self.policy.size_triggered(len(pending)):
                    cap = self.policy.max_batch
                    assert cap is not None
                    flush_ms = max(
                        pending[cap - 1][1].arrival_ms, executor_free
                    )
                    break
                flush_ms = max(
                    self.policy.flush_deadline(pending[0][1].arrival_ms),
                    executor_free,
                )
                next_ms = source.peek_ms()
                if next_ms is not None and next_ms <= flush_ms:
                    absorb_one()
                    continue
                break
            take = self.policy.take(len(pending))
            batch, pending = pending[:take], pending[take:]
            requests = [request for _, request in batch]
            clock.advance_to(flush_ms)
            outcome = self.execute_batch(
                requests, flush_ms=clock.now_ms(), batch_id=batch_id,
                metrics=metrics,
            )
            for (token, request), result in zip(batch, outcome.results):
                outcomes[token] = RequestOutcome(
                    request=request,
                    result=result,
                    batch_id=batch_id,
                    batch_size=len(batch),
                    flush_ms=flush_ms,
                    completion_ms=outcome.completion_ms,
                )
            pages += outcome.pages_per_disk
            batch_sizes.append(len(batch))
            clock.advance_to(outcome.completion_ms)
            executor_free = clock.now_ms()
            completion = max(completion, clock.now_ms())
            batch_id += 1
            if on_batch is not None:
                on_batch(requests, outcome)
        return ServeReport(
            outcomes=[outcomes[token] for token in sorted(outcomes)],
            pages_per_disk=pages,
            completion_ms=completion,
            num_batches=batch_id,
            page_service_time_ms=self.page_service_time_ms,
            policy=self.policy.name,
            cache_stats=(
                cache.delta_since(cache_before)
                if cache is not None else None
            ),
            batch_sizes=batch_sizes,
        )

    def run_trace(
        self,
        trace: Sequence[QueryRequest],
        metrics: Optional[MetricsRegistry] = None,
    ) -> ServeReport:
        """Serve a fixed arrival trace deterministically in virtual time.

        Arrivals are processed in ``arrival_ms`` order, ties in input
        order.  The report's outcomes are restored to input positions,
        and by the determinism contract results and per-disk page
        counts do not depend on the order of the input trace.
        """
        order = sorted(range(len(trace)), key=lambda i: trace[i].arrival_ms)
        source = ListSource([(index, trace[index]) for index in order])
        return self.run_stream(source, metrics=metrics)

    # ------------------------------------------------------- asyncio front

    async def start(self) -> None:
        """Start the background scheduler task.

        Starting twice while the scheduler task is live raises; a
        *finished* task (the scheduler crashed, e.g. the engine raised
        outside a batch) is reaped instead of pinning the service in
        "started" forever — reaping re-raises the task's stored
        exception so the crash cannot pass silently, after which a
        fresh ``start()`` succeeds.
        """
        if self._task is not None:
            if not self._task.done():
                raise RuntimeError("QueryService is already started")
            task = self._task
            self._task = None
            self._queue = None
            task.result()
        queue: "asyncio.Queue[Optional[_Admission]]" = asyncio.Queue()
        self._queue = queue
        self._loop_t0 = self.clock.now_ms()
        self._async_batches = 0
        self._task = asyncio.create_task(self._serve_loop(queue))

    async def stop(self) -> None:
        """Flush remaining admissions and stop the scheduler task.

        Ownership of the task and queue transfers to this coroutine
        *before* it suspends: a concurrent second ``stop()`` (or a
        ``start()``) interleaved at the ``await`` observes the service
        already stopped instead of double-draining the same task.

        When the service owns its engine (``own_engine=True``) the
        engine is closed after the scheduler drains — a process
        engine's worker pool is torn down here — and also when
        ``stop()`` is called on a never-started service, so teardown
        is unconditional.
        """
        task = self._task
        queue = self._queue
        if task is None or queue is None:
            self.close()
            return
        self._task = None
        self._queue = None
        try:
            await queue.put(None)
            await task
        finally:
            self.close()

    def _now_ms(self) -> float:
        """Milliseconds since :meth:`start` on the service clock."""
        return self.clock.now_ms() - self._loop_t0

    async def submit(self, request: QueryRequest) -> RequestOutcome:
        """Admit one request; resolves when its batch completes.

        ``request.arrival_ms`` is restamped with the admission wall
        clock (ms since :meth:`start`); concurrent submitters are
        batched together by the scheduler task in admission order.
        """
        queue = self._queue
        if queue is None:
            raise RuntimeError(
                "QueryService is not started; use 'await service.start()'"
            )
        arrival = self._now_ms()
        stamped = QueryRequest(
            query=request.query, k=request.k, kind=request.kind,
            high=request.high, tenant=request.tenant, arrival_ms=arrival,
        )
        tracer = current_tracer(self.tracer)
        if tracer.enabled:
            tracer.record(
                "serve_enqueue", t_ms=arrival, tenant=stamped.tenant,
                request_kind=stamped.kind, k=stamped.k,
            )
        future: "asyncio.Future[RequestOutcome]" = (
            asyncio.get_running_loop().create_future()
        )
        await queue.put(_Admission(stamped, future))
        return await future

    async def knn(
        self, query: np.ndarray, k: int = 10, tenant: str = "default"
    ) -> RequestOutcome:
        """Convenience wrapper: submit one kNN request."""
        return await self.submit(
            QueryRequest(query=np.asarray(query, dtype=float), k=k,
                         tenant=tenant)
        )

    async def _collect_batch(
        self, queue: "asyncio.Queue[Optional[_Admission]]"
    ) -> Tuple[List[_Admission], bool]:
        """Gather one batch per the policy; True means shutdown seen."""
        first = await queue.get()
        if first is None:
            return [], True
        admissions = [first]
        closing = False
        deadline_ms = self.clock.now_ms() + self.policy.deadline_ms
        while not self.policy.size_triggered(len(admissions)):
            timeout = (deadline_ms - self.clock.now_ms()) / 1000.0
            if timeout <= 0:
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
            if item is None:
                closing = True
                break
            admissions.append(item)
        return admissions, closing

    async def _serve_loop(
        self, queue: "asyncio.Queue[Optional[_Admission]]"
    ) -> None:
        """Scheduler task: batch admissions and resolve their futures.

        The queue arrives as a parameter rather than through
        ``self._queue`` — ``stop()`` nulls that attribute while this
        task is still draining, so rereading it here would race the
        shutdown.  Batch execution is offloaded to a worker thread
        (``asyncio.to_thread`` carries the ambient tracer's
        contextvars) so a large batch never stalls the event loop and
        concurrent submitters keep being admitted.
        """
        while True:
            admissions, closing = await self._collect_batch(queue)
            if admissions:
                requests = [adm.request for adm in admissions]
                flush_ms = self._now_ms()
                batch_id = self._async_batches
                self._async_batches += 1
                try:
                    outcome = await asyncio.to_thread(
                        self._execute, requests, flush_ms, batch_id
                    )
                except (ValueError, TypeError, KeyError, RuntimeError,
                        OSError) as error:
                    # Fan the failure out to every caller awaiting this
                    # batch instead of killing the scheduler task.
                    for adm in admissions:
                        if not adm.future.done():
                            adm.future.set_exception(error)
                    if closing:
                        return
                    continue
                # Measured, not modelled: the wall instant the engine
                # work returned (outcome.batch_ms keeps the model).
                completion_ms = self._now_ms()
                self._complete(requests, outcome, completion_ms)
                for adm, result in zip(admissions, outcome.results):
                    if not adm.future.done():
                        adm.future.set_result(
                            RequestOutcome(
                                request=adm.request,
                                result=result,
                                batch_id=batch_id,
                                batch_size=len(admissions),
                                flush_ms=flush_ms,
                                completion_ms=completion_ms,
                            )
                        )
            if closing:
                return


def _contiguous_runs(
    requests: Sequence[QueryRequest],
) -> List[Tuple[int, int]]:
    """``[start, stop)`` spans of same-``(kind, k)`` request runs.

    Batch execution walks these spans in order, so grouping never
    reorders requests — the invariant behind the determinism contract.
    """
    runs: List[Tuple[int, int]] = []
    start = 0
    for index in range(1, len(requests)):
        previous, current = requests[index - 1], requests[index]
        if (current.kind, current.k) != (previous.kind, previous.k):
            runs.append((start, index))
            start = index
    if requests:
        runs.append((start, len(requests)))
    return runs
