"""True process parallelism: one worker process per simulated disk.

The in-process engines *count* what a disk farm would do; this engine
actually does it.  Each disk of an out-of-core
:class:`~repro.storage.mmap_store.MmapStore` gets a dedicated worker
process that maps only its own page file and answers a query with a
**page-major frontier scan** of its own disk's data pages: one
``mindist_many`` over the disk's flat leaf table
(:meth:`MmapStore.disk_table`), one stable ``argsort``, then that
ascending-``mindist`` order — the order HS 95 best-first visits the
disk's leaves in — is walked in chunks that double (1, 2, 4, ... up to
:data:`_MAX_CHUNK_PAGES`).  A chunk is fetched with one multi-slot
gather, scored with one ``point_keys`` call and folded into an array
top-k, so what a worker pays per page is numpy arithmetic, not
interpreter time.  Workers cooperate through a **shared monotonically
tightening kNN pruning bound** (a ``multiprocessing`` top-k distance
array): every chunk's best candidate distances tighten the bound all
workers cut their scans with.

Determinism contract (see ``docs/performance.md``): the returned
neighbors and per-disk page counts are **bit-for-bit identical** to
:class:`~repro.parallel.paged.PagedEngine` over the same store —
enforced by a sanitizer replay cell — while wall-clock time and the
amount of *speculative* I/O naturally vary run to run.  This works
because of a property of HS 95 best-first search: the set of data pages
a single-process traversal reads is exactly the pages whose ``mindist``
does not exceed the final k-th candidate distance ``B*`` — independent
of visit interleaving.  So the coordinator

1. lets workers race (any stale — i.e. too large — view of the shared
   bound only causes extra speculative reads, never a missed
   candidate, because the shared bound never drops below ``B*``),
2. merges the workers' candidate sets into the exact global top-k
   (squared keys, no sqrt round trip), and
3. derives the charged page set *post hoc* by filtering the directory
   against ``B*`` — the identical arithmetic the single-process engine
   applies incrementally.

The engine is cacheless by design: the OS page cache plays the buffer
pool's role for mmap'd pages, and simulated-pool semantics belong to
the in-process engines.  Boundary ties (two points at exactly distance
``B*``) are outside the contract, as everywhere else in the repo;
generic-position (e.g. random float) data never produces them.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import os
import queue as queue_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.knn import Neighbor
from repro.index.metrics import Euclidean
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.engine import BatchQueryResult, ParallelQueryResult
from repro.storage.pagefile import split_rows

__all__ = ["ProcessParallelEngine"]

_EUCLIDEAN = Euclidean()

#: Most pages one chunk of a worker's frontier scan fetches and scores
#: together.  Chunks start at one page (which almost always yields k
#: candidates and a finite bound) and double up to this; every page of
#: a chunk that a mid-chunk bound would have cut is a speculative read,
#: so the cap trades interpreter time against those.
_MAX_CHUNK_PAGES = 32

#: Seconds the coordinator waits for a worker reply before giving up.
_REPLY_TIMEOUT_S = 120.0

#: Queries in flight during a pipelined ``query_batch``: while the
#: coordinator reduces query ``j``, every worker is already faulting and
#: scoring pages for query ``j + 1``.  Each in-flight query owns a
#: *bank* — its own shared pruning-bound array and its own slice of the
#: shared result arena — so concurrent queries never contaminate each
#: other's bounds or results.
_PIPELINE_DEPTH = 2

#: A candidate set as arrays: ``(keys, oids, points)``, squared keys.
_Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: ``pages -> (rows, counts)``: :meth:`MmapStore.read_pages` of one disk.
_PageReader = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _arena_stride(dimension: int) -> int:
    """Arena floats per candidate row: key, oid (bit-cast), coords."""
    return 2 + dimension


def _arena_base(
    bank: int, disk: int, num_disks: int, max_k: int, stride: int
) -> int:
    """Start offset of one ``(bank, disk)`` result cell in the arena."""
    return (bank * num_disks + disk) * max_k * stride


def _pack_candidates(
    arena: np.ndarray, base: int, found: _Candidates, dimension: int
) -> None:
    """Write a worker's top-k candidates into its arena cell (lock held).

    Keys and coordinates are float64 already; oids are int64 *bit-cast*
    into the float lane (``view``, not a value conversion), so the
    round trip is exact for every representable oid.
    """
    keys, oids, points = found
    stride = _arena_stride(dimension)
    cell = arena[base : base + len(keys) * stride].reshape(-1, stride)
    cell[:, 0] = keys
    cell[:, 1] = oids.view(np.float64)
    cell[:, 2:] = points


def _unpack_candidates(
    arena: np.ndarray, base: int, count: int, dimension: int
) -> _Candidates:
    """Copy one arena cell back out as candidate arrays (lock held)."""
    stride = _arena_stride(dimension)
    cell = arena[base : base + count * stride].reshape(count, stride)
    return (
        cell[:, 0].copy(), cell[:, 1].copy().view(np.int64),
        cell[:, 2:].copy(),
    )


def _merge_shared(view: np.ndarray, k: int, keys: np.ndarray) -> None:
    """Fold candidate keys into the shared top-k array (lock held).

    Each real candidate distance enters the shared array at most once
    per query (a worker scores every page exactly once), so the k-th
    shared value is always >= the true global k-th distance ``B*`` —
    the monotone-safety invariant the pruning relies on.
    """
    merged = np.sort(np.concatenate((view[:k], keys)))[:k]
    view[:k] = merged


def _top_k(found: Sequence[_Candidates], k: int) -> _Candidates:
    """The k best of several candidate sets, in ``(key, oid)`` order —
    the one merge both the workers' fold and the coordinator's reduce
    use."""
    keys, oids, points = (np.concatenate(column) for column in zip(*found))
    best = np.lexsort((oids, keys))[:k]
    return keys[best], oids[best], points[best]


class _BatchPageMemo:
    """Batch-scoped read-through page memo over one disk of a store.

    Within one ``query_batch`` a worker streams its queries
    sequentially, and consecutive kNN spheres overlap heavily, so a
    page fetched for query ``j`` is very likely wanted again by query
    ``j + 1``.  The memo serves those repeat visits from the rows
    already fetched — no mmap gather, no repeated simulated disk
    service time — which the per-call path structurally cannot do (its
    unit of work is a single query).  This intra-batch reuse is a large
    part of the batch fast path's throughput edge.

    The rows live in one buffer indexed by :meth:`MmapStore.disk_table`
    row, so a chunk's memo hits are one gather too.  The buffer really
    holds the payloads: service time is owed for every fetch, and only
    a resident payload excuses one.  Correctness is untouched either
    way — repeat visits return the exact rows the first read produced,
    and the *charged* per-disk page counts are derived post hoc by the
    coordinator from the RAM directory, never from what workers
    physically read.  The buffer is capped (pages past the cap are read
    through every time — no eviction bookkeeping) to bound the worker's
    memory; the memo dies with the batch.
    """

    __slots__ = ("_store", "_disk", "_held", "_rows", "_counts")

    #: Max memoized pages per worker per batch (~64 MB at 4 KB pages —
    #: covers a 1M-point disk's full batch working set; beyond the cap
    #: the memo degrades to read-through, never evicts).
    _CAP = 16384

    def __init__(self, store: Any, disk: int):
        self._store = store
        self._disk = disk
        pages = len(store.disk_table(disk)[2])
        #: Per page of the disk; never set for pages past the cap.
        self._held = np.zeros(pages, dtype=bool)
        self._rows: Optional[np.ndarray] = None
        self._counts = np.zeros(min(pages, self._CAP), dtype=np.uint32)

    def read_pages(self, pages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`MmapStore.read_pages` of this disk, through the memo."""
        fresh = ~self._held[pages]
        if not fresh.any():
            assert self._rows is not None
            return self._rows[pages], self._counts[pages]
        wanted = pages[fresh]
        rows, counts = self._store.read_pages(self._disk, wanted)
        if self._rows is None:
            # Untouched buffer rows cost no RSS until written.
            self._rows = np.empty(
                (len(self._counts), rows.shape[1]), dtype=rows.dtype
            )
        room = wanted < len(self._counts)
        kept = wanted[room]
        self._rows[kept] = rows[room]
        self._counts[kept] = counts[room]
        self._held[kept] = True
        if fresh.all():
            return rows, counts
        # Memoized and fetched rows, back in ``pages`` order.
        mixed = np.empty((len(pages), rows.shape[1]), dtype=rows.dtype)
        mixed_counts = np.empty(len(pages), dtype=counts.dtype)
        mixed[fresh], mixed_counts[fresh] = rows, counts
        mixed[~fresh] = self._rows[pages[~fresh]]
        mixed_counts[~fresh] = self._counts[pages[~fresh]]
        return mixed, mixed_counts


def _worker_query(
    read_pages: _PageReader,
    table: Tuple[np.ndarray, ...],
    query: np.ndarray,
    k: int,
    view: np.ndarray,
    lock: Any,
) -> Tuple[_Candidates, int]:
    """One kNN query on one disk's worker: a page-major frontier scan.

    ``table`` is the disk's :meth:`MmapStore.disk_table`; ``read_pages``
    fetches rows of it.  Pages are taken in ascending ``mindist`` — the
    order best-first search pops a disk's leaves in — one doubling
    chunk at a time: a chunk is the next pages whose ``mindist`` does
    not exceed ``min(local k-th key, shared bound)`` as of the chunk's
    start, fetched with one gather and scored with one ``point_keys``
    call (``einsum`` rows are bit-identical whatever block they are
    scored in).  The scan ends at the first chunk the bound cuts short:
    every later page is farther still, and bounds only tighten.

    Returns the worker's local top-k candidates (squared keys) and the
    number of page blocks it visited (its speculative read count).
    """
    lows, highs, _slots, _counts, blocks = table
    dimension = len(query)
    found: _Candidates = (
        np.empty(0), np.empty(0, dtype=np.int64), np.empty((0, dimension))
    )
    mindists = _EUCLIDEAN.mindist_many(lows, highs, query)
    order = np.argsort(mindists, kind="stable")
    mindists = mindists[order]
    local_bound = math.inf
    start, size = 0, 1
    while start < len(order):
        with lock:
            shared_bound = float(view[k - 1])
        chunk = mindists[start : start + size]
        take = int(np.searchsorted(
            chunk, min(local_bound, shared_bound), side="right"
        ))
        if not take:
            break
        pages = order[start : start + take]
        start += take
        size = min(2 * size, _MAX_CHUNK_PAGES)
        rows, counts = read_pages(pages)
        # STR stores have two distinct entry counts; decode per count.
        payloads = [
            split_rows(rows[counts == count], count, dimension)
            for count in sorted(set(counts.tolist()))
        ]
        chunk_points = np.concatenate([payload[0] for payload in payloads])
        chunk_oids = np.concatenate([payload[1] for payload in payloads])
        chunk_keys = _EUCLIDEAN.point_keys(chunk_points, query)
        better = np.flatnonzero(chunk_keys < local_bound)
        if len(better):
            fresh = (
                chunk_keys[better], chunk_oids[better], chunk_points[better]
            )
            found = _top_k((found, fresh), k)
            if len(found[0]) == k:
                local_bound = float(found[0][-1])
            with lock:
                _merge_shared(view, k, np.sort(fresh[0])[:k])
        if take < len(chunk):
            break
    return found, int(blocks[order[:start]].sum())


def _worker_main(
    directory: str,
    disk: int,
    max_k: int,
    depth: int,
    tasks: Any,
    replies: Any,
    shared: Any,
    locks: Any,
    arena: Any,
    gate: Any,
) -> None:
    """Worker process entry point (spawn-safe, module level).

    Opens its own :class:`MmapStore` handle over ``directory`` — each
    worker maps only its own disk's page file on first read — then
    serves tasks until it receives ``None``:

    ``("one", query_id, query, k)``
        One query against pruning-bound bank 0; the candidate arrays
        travel back through the reply queue.

    ``("batch", queries, k)``
        The pipelined fast path: the whole batch arrives in a single
        message, and the worker streams through it in order.  Query
        ``j`` uses bank ``j % depth``; ``gate`` (this worker's own
        semaphore, ``depth`` permits, one released per query the
        coordinator consumes) stops the worker from running more than
        ``depth`` queries ahead — so the bank it is about to reuse has
        always been fully read and re-armed.  The worker writes its
        top-k into its shared-arena cell and replies with only
        ``(j, disk, count, faults)`` — no payload pickling on the hot
        path.  Pages are fetched through a batch-scoped
        :class:`_BatchPageMemo`, so a page wanted by several of the
        batch's queries is fetched (and pays any simulated disk service
        time) once.
    """
    from repro.storage.mmap_store import MmapStore

    bounds = np.frombuffer(shared, dtype=np.float64)
    arena_view = np.frombuffer(arena, dtype=np.float64)
    store = MmapStore(directory)
    try:
        num_disks = store.num_disks
        dimension = store.tree.dimension
        stride = _arena_stride(dimension)
        table = store.disk_table(disk)
        read_direct = functools.partial(store.read_pages, disk)
        while True:
            task = tasks.get()
            if task is None:
                break
            if task[0] == "one":
                _, query_id, query, k = task
                lock = locks[0]
                with lock:
                    view = bounds[:max_k]
                found, faults = _worker_query(
                    read_direct, table, query, k, view, lock,
                )
                replies.put((query_id, disk, found, faults))
                continue
            _, queries, k = task
            memo = _BatchPageMemo(store, disk)
            for index in range(len(queries)):
                bank = index % depth
                gate.acquire()
                lock = locks[bank]
                with lock:
                    view = bounds[bank * max_k : (bank + 1) * max_k]
                found, faults = _worker_query(
                    memo.read_pages, table, queries[index], k, view, lock,
                )
                with lock:
                    _pack_candidates(
                        arena_view,
                        _arena_base(bank, disk, num_disks, max_k, stride),
                        found,
                        dimension,
                    )
                replies.put((index, disk, len(found[0]), faults))
    finally:
        store.close()


class ProcessParallelEngine:
    """Per-disk worker processes over an :class:`MmapStore`.

    Parameters
    ----------
    store:
        An out-of-core store (must expose ``directory`` and
        ``read_page`` — i.e. an
        :class:`~repro.storage.mmap_store.MmapStore`); workers reopen
        it from its directory path.
    parameters:
        Disk service-time model for the simulated ``parallel_time_ms``
        (page *counts* are exact; times are derived, as everywhere).
    cache:
        Must be ``None``: the OS page cache serves warm mmap reads, and
        simulated buffer-pool semantics belong to the in-process
        engines.
    use_kernels:
        Accepted for signature parity with the in-process engines and
        kept as an attribute for callers that forward it; the workers'
        page-major scan has no scalar twin, and results are identical
        under either setting.
    max_k:
        Capacity of the shared bound array; queries may use any
        ``k <= max_k``.
    start_method:
        ``multiprocessing`` start method; the default ``"spawn"`` is
        safe everywhere (workers re-import, nothing is forked mid-state).

    Workers start lazily on the first query and persist across queries
    (and across a whole ``query_batch``) until :meth:`close`; the engine
    is a context manager.  Queries are answered one at a time, each
    fanned out to every disk in parallel — the paper's execution model.
    """

    def __init__(
        self,
        store: Any,
        parameters: Optional[DiskParameters] = None,
        cache: None = None,
        tracer: Optional[Tracer] = None,
        use_kernels: Optional[bool] = None,
        max_k: int = 64,
        start_method: str = "spawn",
    ):
        if getattr(store, "read_page", None) is None or not hasattr(
            store, "directory"
        ):
            raise TypeError(
                "ProcessParallelEngine requires an out-of-core store "
                "(repro.storage.MmapStore); build one with "
                "save_mmap_store or bulk_load_mmap"
            )
        if cache is not None:
            raise ValueError(
                "ProcessParallelEngine is cacheless: warm mmap reads are "
                "served by the OS page cache; use PagedEngine for "
                "simulated buffer-pool semantics"
            )
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self.store = store
        self.parameters = parameters or DiskParameters(
            page_bytes=store.page_bytes
        )
        self.cache = None
        self.tracer = tracer
        self.use_kernels = use_kernels
        self.max_k = max_k
        self._start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: List[Any] = []
        self._tasks: List[Any] = []
        self._replies: Optional[Any] = None
        self._shared: Optional[Any] = None
        self._locks: List[Any] = []
        self._arena: Optional[Any] = None
        self._gates: List[Any] = []
        self._query_ids = itertools.count()
        self._leaves: Optional[Tuple[np.ndarray, ...]] = None
        #: Pages speculatively faulted by the workers on the last query
        #: (diagnostic only — always >= the charged count, varies run
        #: to run; the charged counts do not).
        self.last_speculative_pages = 0

    # --------------------------------------------------------- lifecycle

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        ctx = self._ctx
        depth = _PIPELINE_DEPTH
        num_disks = self.store.num_disks
        stride = _arena_stride(self.store.tree.dimension)
        # One pruning-bound bank + one arena slice + one gate per
        # in-flight pipeline slot; bank 0 doubles as the single-query
        # path's bound array.
        self._shared = ctx.Array("d", depth * self.max_k, lock=False)
        self._locks = [ctx.Lock() for _ in range(depth)]
        self._arena = ctx.Array(
            "d", depth * num_disks * self.max_k * stride, lock=False
        )
        # One gate per worker, ``depth`` permits each: worker ``w`` may
        # start batch query ``j`` only after the coordinator consumed
        # query ``j - depth``, so arena cells and bound banks are never
        # reused while still live.
        self._gates = [ctx.Semaphore(depth) for _ in range(num_disks)]
        self._replies = ctx.Queue()
        self._tasks = []
        self._procs = []
        directory = os.fspath(self.store.directory)
        try:
            for disk in range(num_disks):
                tasks = ctx.Queue()
                self._tasks.append(tasks)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        directory, disk, self.max_k, depth, tasks,
                        self._replies, self._shared, self._locks,
                        self._arena, self._gates[disk],
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except (OSError, RuntimeError, ValueError):
            # A worker failed to spawn mid-start: tear down the workers
            # and queues that did start (close() handles partial state)
            # so nothing leaks into the caller's error path.
            self.close()
            raise

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        for tasks in self._tasks:
            try:
                tasks.put(None)
            except (ValueError, OSError):  # pragma: no cover - teardown
                pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        for tasks in self._tasks:
            tasks.close()
        if self._replies is not None:
            self._replies.close()
        self._procs = []
        self._tasks = []
        self._replies = None
        self._shared = None
        self._locks = []
        self._arena = None
        self._gates = []

    def __enter__(self) -> "ProcessParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            if self._procs:
                self.close()
        except (OSError, ValueError, RuntimeError, AttributeError):
            # Interpreter teardown: queues/processes may already be gone.
            pass

    # ----------------------------------------------------------- queries

    def _active_tracer(self) -> Tracer:
        """This engine's tracer, else the ambient one, else the null
        tracer."""
        return self.tracer if self.tracer is not None else current_tracer()

    def _leaf_table(self) -> Tuple[np.ndarray, ...]:
        """Flat per-leaf geometry/ownership arrays, built once.

        ``(lows, highs, disks, blocks, entries)`` over every data page,
        disk by disk, from the store's own per-disk directory tables.
        The mmap store's directory is immutable for the engine's
        lifetime, so this replaces a Python node walk per query.
        """
        table = self._leaves
        if table is None:
            store = self.store
            per_disk = [
                store.disk_table(disk) for disk in range(store.num_disks)
            ]
            lows, highs, _slots, entries, blocks = (
                np.concatenate(column) for column in zip(*per_disk)
            )
            disks = np.repeat(
                np.arange(store.num_disks),
                [len(disk_table[2]) for disk_table in per_disk],
            )
            table = self._leaves = (lows, highs, disks, blocks, entries)
        return table

    def _exact_counts(
        self, query: np.ndarray, bound: float
    ) -> Tuple[np.ndarray, int]:
        """Per-disk pages + distance computations of the charged set.

        Filters the RAM directory for data pages with
        ``mindist <= bound`` (ties included — the single-process engine
        reads them too, since its break condition is strictly greater).
        Entry counts come from the store's slot table, so no payload is
        touched.

        A leaf is charged iff its own mindist passes: every ancestor
        MBR contains the leaf's, so ancestor mindists are lower bounds
        and the tree walk's interior filter can never exclude a passing
        leaf.  That makes one vectorized pass over the flat leaf table
        exactly equivalent to the walk — and ``mindist_many``'s row-wise
        ``add.reduce`` is bit-identical to the scalar ``MBR.mindist``
        (see that docstring), so the charged set matches both kernel
        modes.
        """
        store = self.store
        if store.tree.size == 0:
            return np.zeros(store.num_disks, dtype=np.int64), 0
        lows, highs, disks, blocks, entries = self._leaf_table()
        keys = _EUCLIDEAN.mindist_many(lows, highs, query)
        charged = keys <= bound
        counts = np.bincount(
            disks[charged],
            weights=blocks[charged],
            minlength=store.num_disks,
        ).astype(np.int64)
        return counts, int(entries[charged].sum())

    def _check_k(self, k: int) -> None:
        if k > self.max_k:
            raise ValueError(
                f"k={k} exceeds this engine's max_k={self.max_k}; "
                f"construct the engine with a larger max_k"
            )

    def _empty_result(self) -> ParallelQueryResult:
        return ParallelQueryResult(
            [],
            np.zeros(self.store.num_disks, dtype=np.int64),
            0.0,
            0,
            cache_stats=None,
        )

    def _collect_reply(self) -> Tuple[int, int, Any, int]:
        """One worker reply, or a clean teardown on a dead worker."""
        assert self._replies is not None
        try:
            reply = self._replies.get(timeout=_REPLY_TIMEOUT_S)
        except queue_module.Empty:
            self.close()
            raise RuntimeError(
                "a disk worker did not reply; the worker process "
                "likely died (see stderr)"
            ) from None
        reply_id, disk, payload, faults = reply
        return int(reply_id), int(disk), payload, int(faults)

    def _reduce(
        self,
        query: np.ndarray,
        k: int,
        found: List[_Candidates],
        tracer: Tracer,
        traced: bool,
        span: int,
    ) -> ParallelQueryResult:
        """Merge worker candidates into the exact global result.

        Deterministic merge — squared keys, ``(key, oid)`` order — then
        the post-hoc charged page set from the RAM directory.  Shared by
        the per-call path and the pipelined batch path, which is what
        keeps their results bit-for-bit identical.
        """
        keys, oids, points = _top_k(found, k)
        bound = float(keys[-1]) if len(keys) == k else math.inf
        counts, computations = self._exact_counts(query, bound)
        disks = DiskArray.from_counts(counts, self.parameters)
        if traced:
            for disk in range(self.store.num_disks):
                if counts[disk]:
                    tracer.page_read(span, disk, int(counts[disk]))
            tracer.end_query(
                span, time_ms=disks.parallel_time_ms,
                distance_computations=computations,
            )
        return ParallelQueryResult(
            neighbors=[
                Neighbor(_EUCLIDEAN.key_to_distance(key), oid, point)
                for key, oid, point in zip(
                    keys.tolist(), oids.tolist(), points
                )
            ],
            pages_per_disk=disks.pages_per_disk,
            parallel_time_ms=disks.parallel_time_ms,
            distance_computations=computations,
            cache_stats=None,
        )

    def query(
        self, query: Sequence[float], k: int = 1
    ) -> ParallelQueryResult:
        """Run one kNN query across all disk workers in parallel.

        Under an enabled tracer this emits a ``query_start`` ...
        ``query_end`` span with one aggregate ``page_read`` per disk
        (the exact charged counts — per-page event order inside a
        worker is not deterministic and is not traced).
        """
        self._check_k(k)
        query = np.asarray(query, dtype=float)
        tracer = self._active_tracer()
        traced = tracer.enabled
        span = -1
        if traced:
            span = tracer.begin_query(
                "process", k=k, num_disks=self.store.num_disks,
                service_ms=self.parameters.page_service_time_ms,
            )
        if self.store.tree.size == 0:
            if traced:
                tracer.end_query(span)
            return self._empty_result()
        self._ensure_workers()
        assert self._shared is not None and self._locks
        bound_view = np.frombuffer(self._shared, dtype=np.float64)
        lock = self._locks[0]
        with lock:
            bound_view[: self.max_k] = np.inf
        query_id = next(self._query_ids)
        for tasks in self._tasks:
            tasks.put(("one", query_id, query, k))

        found: List[_Candidates] = []
        speculative = 0
        for _ in range(self.store.num_disks):
            reply_id, _disk, worker_found, faults = self._collect_reply()
            if reply_id != query_id:  # pragma: no cover - defensive
                raise RuntimeError(
                    f"out-of-order worker reply: query {reply_id} "
                    f"while waiting for {query_id}"
                )
            found.append(worker_found)
            speculative += faults
        self.last_speculative_pages = speculative
        return self._reduce(query, k, found, tracer, traced, span)

    def query_batch(
        self, queries: np.ndarray, k: int = 1
    ) -> BatchQueryResult:
        """Run a batch of queries over the persistent worker pool,
        pipelined across the pipeline banks.

        The whole batch ships to every worker in **one** task message.
        Workers stream through the queries in order — query ``j`` prunes
        against bank ``j % depth``'s shared bound and deposits its local
        top-k in its shared-memory arena cell, so per-query replies
        carry only four small integers (no payload pickling).  With
        depth 2, workers fault and score pages for query ``j + 1`` while
        the coordinator is still merging query ``j`` — the page I/O of
        the next query overlaps the reduction of the current one.  Each
        worker also reuses page payloads *across* the batch's queries
        (:class:`_BatchPageMemo`): a page whose MBR intersects several
        of the batch's kNN spheres is faulted and materialized once, not
        once per query — the structural throughput edge over per-call
        dispatch, whose unit of work is a single query.

        Results are bit-for-bit identical to calling :meth:`query` per
        query (and to ``PagedEngine``): each query's merge and post-hoc
        charged-page derivation are exactly the per-call path's, and the
        bank discipline (a gate per bank, released only after the
        coordinator consumes the bank) keeps concurrent queries from
        sharing pruning state.
        """
        self._check_k(k)
        queries = np.asarray(queries, dtype=float)
        if queries.size == 0:
            return BatchQueryResult([], self.store.num_disks)
        queries = np.atleast_2d(queries)
        tracer = self._active_tracer()
        traced = tracer.enabled
        if self.store.tree.size == 0:
            results = []
            for _query in queries:
                if traced:
                    span = tracer.begin_query(
                        "process", k=k, num_disks=self.store.num_disks,
                        service_ms=self.parameters.page_service_time_ms,
                    )
                    tracer.end_query(span)
                results.append(self._empty_result())
            return BatchQueryResult(results, self.store.num_disks)
        self._ensure_workers()
        assert self._shared is not None and self._arena is not None
        num_disks = self.store.num_disks
        dimension = self.store.tree.dimension
        stride = _arena_stride(dimension)
        depth = _PIPELINE_DEPTH
        bounds = np.frombuffer(self._shared, dtype=np.float64)
        arena = np.frombuffer(self._arena, dtype=np.float64)
        # All banks are idle between batches; reset every bound.
        for bank in range(depth):
            bank_lock = self._locks[bank]
            with bank_lock:
                bounds[bank * self.max_k : (bank + 1) * self.max_k] = np.inf
        for tasks in self._tasks:
            tasks.put(("batch", queries, k))

        results: List[ParallelQueryResult] = []
        staged: List[List[_Candidates]] = []
        pending: Dict[int, List[Tuple[int, int, int]]] = {}
        speculative = 0
        for index in range(len(queries)):
            replies = pending.pop(index, [])
            while len(replies) < num_disks:
                reply_id, disk, count, faults = self._collect_reply()
                if reply_id == index:
                    replies.append((disk, count, faults))
                else:
                    pending.setdefault(reply_id, []).append(
                        (disk, count, faults)
                    )
            bank = index % depth
            bank_lock = self._locks[bank]
            span = -1
            if traced:
                span = tracer.begin_query(
                    "process", k=k, num_disks=num_disks,
                    service_ms=self.parameters.page_service_time_ms,
                )
            found: List[_Candidates] = []
            for disk, count, faults in replies:
                speculative += faults
                with bank_lock:
                    found.append(
                        _unpack_candidates(
                            arena,
                            _arena_base(
                                bank, disk, num_disks, self.max_k, stride
                            ),
                            count,
                            dimension,
                        )
                    )
            if traced:
                # Keep the per-query reduce inline so the span's
                # page_read/end_query events land between this query's
                # begin_query and the next one's — the event order the
                # golden traces and the sanitizer pin.
                results.append(
                    self._reduce(
                        queries[index], k, found, tracer, traced, span,
                    )
                )
            else:
                staged.append(found)
            # The bank is consumed: re-arm its bound, then let every
            # worker advance one query (into this bank at
            # ``index + depth``).
            with bank_lock:
                bounds[bank * self.max_k : (bank + 1) * self.max_k] = np.inf
            for gate in self._gates:
                gate.release()
        # Untraced hot path: the merge + post-hoc charged-page sweep
        # runs per query *after* the pipeline drains.  The directory
        # sweep is the coordinator's one big numpy pass; doing it while
        # the workers are still crunching the next queries would just
        # time-slice against them on a busy machine (identical results,
        # worse wall clock), so the loop above only unpacks arena cells
        # and keeps the workers fed.
        for index, found in enumerate(staged):
            results.append(
                self._reduce(queries[index], k, found, tracer, False, -1)
            )
        self.last_speculative_pages = speculative
        return BatchQueryResult(results, num_disks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._procs else "idle"
        return (
            f"ProcessParallelEngine(disks={self.store.num_disks}, "
            f"workers={state}, max_k={self.max_k})"
        )
