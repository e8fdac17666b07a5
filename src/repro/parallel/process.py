"""True process parallelism: one worker process per simulated disk.

The in-process engines *count* what a disk farm would do; this engine
actually does it.  Each disk of an out-of-core
:class:`~repro.storage.mmap_store.MmapStore` gets a dedicated worker
process that maps only its own page file and answers a query with a
**page-major frontier scan** of its own disk's data pages: one
``mindist_many`` over the disk's flat leaf table
(:meth:`MmapStore.disk_table`), one ``argsort`` (:func:`_visit_order`),
then that ascending-``mindist`` order — the order HS 95 best-first
visits the disk's leaves in — is walked in chunks that double (1, 2, 4,
... up to :data:`_MAX_CHUNK_PAGES`).  A chunk is one owned copy, the
gather of its pages' ``+inf``-padded point rows (:class:`_DiskPages`),
scored in place (``kernels.block_keys``); only rows that beat the bound
are read back, with their oids, and folded into an array top-k.
Workers cooperate through a **shared monotonically tightening kNN
pruning bound** (a ``multiprocessing`` top-k distance array) that
every chunk's best candidate distances tighten.

Determinism contract (see ``docs/performance.md``): the returned
neighbors and per-disk page counts are **bit-for-bit identical** to
:class:`~repro.parallel.paged.PagedEngine` over the same store —
enforced by a sanitizer replay cell — while wall-clock time and the
amount of *speculative* I/O naturally vary run to run.  This works
because of a property of HS 95 best-first search: the set of data pages
a single-process traversal reads is exactly the pages whose ``mindist``
does not exceed the final k-th candidate distance ``B*`` — independent
of visit interleaving.  So the coordinator

1. lets workers race (a stale, too large view of the shared bound only
   causes speculative reads: the shared bound never drops below ``B*``),
2. merges the workers' candidate sets into the exact global top-k
   (squared keys, no sqrt round trip), and
3. derives the charged page set *post hoc* by cutting each worker's
   **page ledger** — the ascending ``mindist`` prefix it visited, with
   running block and entry totals — at ``B*``, the comparison the
   single-process engine applies incrementally.

Coordinator and workers talk through one **shared-memory query ring**
(no queues, nothing pickled): per pipeline bank a board slot the
coordinator posts a query in, the bank's bound array, and per disk an
arena cell (candidates), a tally cell and a ledger the worker deposits;
a ``go`` semaphore per worker and a ``done`` semaphore per bank carry
the wake-ups.  Every shared read and write holds the bank's lock.

The engine is cacheless by design: the OS page cache plays the buffer
pool's role for mmap'd pages, and simulated-pool semantics belong to
the in-process engines.  Boundary ties (two points at exactly distance
``B*``) are outside the contract, as everywhere else in the repo;
generic-position (e.g. random float) data never produces them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
import os
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.index import kernels
from repro.index.knn import Neighbor
from repro.index.metrics import Euclidean
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.engine import BatchQueryResult, ParallelQueryResult

__all__ = ["ProcessParallelEngine"]

_EUCLIDEAN = Euclidean()

#: Most pages one chunk of a worker's frontier scan fetches and scores
#: together.  Chunks start at one page (which almost always yields k
#: candidates and a finite bound) and double up to this; every page of
#: a chunk that a mid-chunk bound would have cut is a speculative read,
#: so the cap trades per-chunk overhead against those (swept in
#: ``docs/performance.md``: 96 ... 256 within a few per cent, 32 behind).
_MAX_CHUNK_PAGES = 128

#: Seconds the coordinator waits for a worker deposit before giving up.
_REPLY_TIMEOUT_S = 120.0

#: Longest single wait on a ring semaphore.  Between slices the
#: coordinator checks that every worker is alive (a dead one surfaces
#: in about a slice, not after :data:`_REPLY_TIMEOUT_S`), and an idle
#: worker that its parent is (an orphan exits instead of waiting on a
#: semaphore nobody is left to release).
_LIVENESS_SLICE_S = 1.0

#: Queries in flight during a pipelined ``query_batch``: while the
#: coordinator reduces query ``j``, every worker is already scoring
#: pages for query ``j + 1``.  Each in-flight query owns a *bank* of the
#: ring — its own board slot, bound array, arena cells, tallies and
#: ledgers — so concurrent queries never share state.  Post ``p``
#: (counted from 0 since the workers started) uses bank ``p % depth``.
_PIPELINE_DEPTH = 2

#: Board slot: ``[serial, k, batch serial]`` + query coordinates.
#: ``k == 0`` is the stop message; batch serial 0 means per-call.
_SLOT_HEADER = 3

#: Tally cell: ``[serial echo, candidate count, ledger pages]``.  Cell
#: ``bank * num_disks + disk`` of the arena, the tallies and the
#: ledgers belongs to that bank's query on that disk's worker.
_TALLY = 3

#: Ledger rows: ``mindist``, running blocks, running entries.
_LEDGER_ROWS = 3

#: A candidate set as arrays: ``(keys, oids, points)``, squared keys.
_Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _arena_stride(dimension: int) -> int:
    """Arena floats per candidate row: key, oid (bit-cast), coords."""
    return 2 + dimension


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


def _ledger_cell(
    ledgers: np.ndarray, cell: int, max_pages: int, pages: int
) -> np.ndarray:
    """The first ``pages`` columns of ledger cell number ``cell``, as a
    ``(3, pages)`` view (lock held)."""
    size = _LEDGER_ROWS * max_pages
    rows = ledgers[cell * size : (cell + 1) * size]
    return rows.reshape(_LEDGER_ROWS, max_pages)[:, :pages]


def _merge_shared(view: np.ndarray, k: int, keys: np.ndarray) -> None:
    """Fold candidate keys into the shared top-k array (lock held).

    Each real candidate distance enters the shared array at most once
    per query (a worker scores every page exactly once), so the k-th
    shared value is always >= the true global k-th distance ``B*`` —
    the monotone-safety invariant the pruning relies on.
    """
    merged = np.sort(np.concatenate((view[:k], keys)))[:k]
    view[:k] = merged


@contextlib.contextmanager
def _lock_within(lock: Any, seconds: float) -> Iterator[bool]:
    """Yield whether ``lock`` came free within ``seconds``, held if so."""
    held = lock.acquire(timeout=seconds)
    try:
        yield held
    finally:
        if held:
            lock.release()


def _top_k(found: Sequence[_Candidates], k: int) -> _Candidates:
    """The k best of several candidate sets, in ``(key, oid)`` order —
    the one merge both the workers' fold and the coordinator's reduce
    use."""
    keys, oids, points = (np.concatenate(column) for column in zip(*found))
    best = np.lexsort((oids, keys))[:k]
    return keys[best], oids[best], points[best]


def _exact_counts(
    ledgers: Sequence[np.ndarray], bound: float
) -> Tuple[np.ndarray, int]:
    """Per-disk pages + distance computations of the charged set.

    The charged set is every data page with ``mindist <= bound`` (ties
    included: the single-process engine breaks on strictly greater).
    A worker's ledger holds its disk's pages in ascending ``mindist`` up
    to the first one beyond ``min(local, shared) >= B*``, so the charged
    pages are a prefix of it: one ``searchsorted`` per disk, then the
    running totals at the cut (``bound`` is ``inf`` when fewer than k
    points exist; every worker then visited all its pages).

    A leaf is charged iff its own mindist passes: every ancestor MBR
    contains the leaf's, so ancestor mindists are lower bounds and a
    tree walk's interior filter can never exclude a passing leaf.  And
    ``mindist_many``'s row-wise ``add.reduce`` is bit-identical to the
    scalar ``MBR.mindist`` (see that docstring), so the charged set
    matches both kernel modes of the in-process engines.
    """
    counts = np.zeros(len(ledgers), dtype=np.int64)
    computations = 0
    for disk, ledger in enumerate(ledgers):
        charged = int(np.searchsorted(ledger[0], bound, side="right"))
        if charged:
            counts[disk] = int(ledger[1, charged - 1])
            computations += int(ledger[2, charged - 1])
    return counts, computations


class _DiskPages:
    """One disk's data pages: the page source of a worker.

    A chunk is one ``read_pages`` gather of the pages' point rows: an
    owned ``(n, W, d)`` block, ``+inf`` past each page's count (``inf``
    keys never pass ``key < bound``); :meth:`rows` reads back the rows
    kept.  This source decides only who owes the simulated service
    time: per call (batch serial 0) every fetch; in a batch scope
    (:meth:`scope`) a page the first time it is wanted, supernodes
    included, as the batch has it warm after that.  *Charged* page
    counts come from the ledgers, not from here.
    """

    def __init__(self, store: Any, disk: int):
        self._store, self._disk = store, disk
        self._held = np.zeros(len(store.disk_table(disk)[2]), dtype=bool)
        self._batch = 0

    def scope(self, batch: int) -> None:
        """Enter batch ``batch`` (0: per-call); a new serial holds nothing."""
        if batch != self._batch:
            self._batch = batch
            self._held[:] = False

    def chunk(self, pages: np.ndarray) -> np.ndarray:
        """The ``(n, W, d)`` point block of table rows ``pages``
        (distinct), padding rows included."""
        if not self._batch:
            return self._store.read_pages(self._disk, pages)
        block = self._store.read_pages(self._disk, pages, ~self._held[pages])
        self._held[pages] = True
        return block

    def rows(
        self, pages: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(oids, points)`` of flat rows ``rows`` of :meth:`chunk`'s
        block for ``pages``, read back from the page file."""
        return self._store.page_rows(self._disk, pages, rows)


def _visit_order(
    table: Tuple[np.ndarray, ...], query: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Table rows by ascending ``mindist`` to ``query``, and those values.
    Tied pages come in a deterministic order (not table order) that no
    ledger cut (:func:`_exact_counts`) or ``(key, oid)`` merge can see."""
    mindists = _EUCLIDEAN.mindist_many(table[0], table[1], query)
    order = np.argsort(mindists)
    return order, mindists[order]


def _worker_query(
    source: _DiskPages,
    table: Tuple[np.ndarray, ...],
    query: np.ndarray,
    k: int,
    view: np.ndarray,
    lock: Any,
) -> Tuple[_Candidates, np.ndarray]:
    """One kNN query on one disk's worker: a page-major frontier scan.

    ``table`` is the disk's :meth:`MmapStore.disk_table`; ``source``
    gathers rows of it.  Pages are taken in :func:`_visit_order` one
    doubling chunk at a time: the next pages whose ``mindist`` does not
    exceed ``min(local k-th key, shared bound)`` as of the chunk's
    start, gathered at once and scored in place by ``kernels.block_keys``
    (``einsum`` rows are bit-identical whatever block they are scored
    in); only rows that beat the local bound are read back.  The scan
    ends at the first chunk the bound cuts short.

    Returns the local top-k candidates (squared keys) and the page
    ledger: a ``(3, visited)`` array of the visited pages' ``mindist``
    (ascending), running block total (the last one is the worker's
    speculative read count) and running entry total.
    """
    entries, blocks = table[3:]
    found: _Candidates = (
        np.empty(0), np.empty(0, dtype=np.int64), np.empty((0, len(query)))
    )
    order, mindists = _visit_order(table, query)
    tiled: Optional[np.ndarray] = None
    local_bound, start, size = math.inf, 0, 1
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
        block = source.chunk(pages)
        if tiled is None:
            tiled = np.tile(query, block.shape[1])
        chunk_keys = kernels.block_keys(block, tiled)
        better = np.flatnonzero(chunk_keys < local_bound)
        if len(better):
            fresh = (chunk_keys[better], *source.rows(pages, better))
            found = _top_k((found, fresh), k)
            if len(found[0]) == k:
                local_bound = float(found[0][-1])
            with lock:
                _merge_shared(view, k, np.sort(fresh[0])[:k])
        if take < len(chunk):
            break
    visited = order[:start]
    ledger = np.empty((_LEDGER_ROWS, start))
    ledger[0] = mindists[:start]
    ledger[1] = np.cumsum(blocks[visited])
    ledger[2] = np.cumsum(entries[visited])
    return found, ledger


def _worker_main(
    directory: str,
    disk: int,
    simulated_disk_ms: float,
    max_k: int,
    depth: int,
    board: Any,
    bounds: Any,
    arena: Any,
    tallies: Any,
    ledgers: Any,
    locks: Any,
    go: Any,
    done: Any,
) -> None:
    """Worker process entry point (spawn-safe, module level).

    Opens its own :class:`MmapStore` over ``directory`` with the
    coordinator's ``simulated_disk_ms`` (it maps only its own disk's
    page file and builds no tree), then serves the ring: wait on ``go``
    (one permit per post), read the next bank's board slot, scan,
    deposit the top-k in its arena cell, the page ledger in its ledger
    cell and ``[serial echo, candidate count, ledger pages]`` in its
    tally cell, release the bank's ``done``.  A bank is re-armed only
    after it was collected, so a worker never enters an unread bank.

    The slot's batch serial scopes the worker's :class:`_DiskPages`: 0
    is a per-call query (every fetch pays its service time); within one
    non-zero serial a page pays it once.  ``k == 0`` stops the worker.
    """
    from repro.storage.mmap_store import MmapStore

    board_view = np.frombuffer(board, dtype=np.float64)
    bounds_view = np.frombuffer(bounds, dtype=np.float64)
    arena_view = np.frombuffer(arena, dtype=np.float64)
    tallies_view = np.frombuffer(tallies, dtype=np.float64)
    ledgers_view = np.frombuffer(ledgers, dtype=np.float64)
    parent = os.getppid()
    # glibc maps every block above its mmap threshold (128 KB at start)
    # afresh, faults it in and unmaps it on free, and trims the heap top
    # likewise; one freed large block raises both thresholds for good,
    # so the scan's chunk gathers and directory-sized temporaries come
    # from a warm heap (worker minor faults per query without it: 397
    # vs 56 on 1024 pages of d = 16, 1 099 vs 158 on 4096).
    np.empty(1 << 24, dtype=np.uint8)
    store = MmapStore(directory, simulated_disk_ms=simulated_disk_ms)
    try:
        num_disks = store.num_disks
        dimension = store.dimension
        width = _SLOT_HEADER + dimension
        arena_cell = max_k * _arena_stride(dimension)
        max_pages = int(store.disk_loads().max())
        table = store.disk_table(disk)
        source = _DiskPages(store, disk)
        for taken in itertools.count():
            while not go.acquire(timeout=_LIVENESS_SLICE_S):
                if os.getppid() != parent:
                    return
            bank = taken % depth
            lock = locks[bank]
            with lock:
                slot = board_view[bank * width : (bank + 1) * width].copy()
                view = bounds_view[bank * max_k : (bank + 1) * max_k]
            serial, k, batch = (int(x) for x in slot[:_SLOT_HEADER])
            if k == 0:
                return
            source.scope(batch)
            found, ledger = _worker_query(
                source, table, slot[_SLOT_HEADER:], k, view, lock
            )
            cell = bank * num_disks + disk
            pages = ledger.shape[1]
            with lock:
                _pack_candidates(
                    arena_view, cell * arena_cell, found, dimension
                )
                _ledger_cell(ledgers_view, cell, max_pages, pages)[:] = ledger
                tallies_view[cell * _TALLY : (cell + 1) * _TALLY] = (
                    serial, len(found[0]), pages,
                )
            done[bank].release()
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
        max_k: int = 64,
        start_method: str = "spawn",
    ):
        if getattr(store, "read_page", None) is None or not hasattr(
            store, "directory"
        ):
            raise TypeError(
                "ProcessParallelEngine requires an out-of-core store "
                "(repro.storage.MmapStore); build one with "
                "save_paged_store or bulk_load_mmap"
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
        self.max_k = max_k
        self._start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: List[Any] = []
        #: The ring (see the module docstring): shared float64 arrays,
        #: a lock and a ``done`` semaphore per bank, a ``go`` semaphore
        #: per worker; ``None`` / empty while no workers run.
        self._board: Optional[Any] = None
        self._bounds: Optional[Any] = None
        self._arena: Optional[Any] = None
        self._tallies: Optional[Any] = None
        self._ledgers: Optional[Any] = None
        self._locks: List[Any] = []
        self._go: List[Any] = []
        self._done: List[Any] = []
        #: Posts made / collected since the workers started; a post's
        #: serial is its 1-based number, its bank ``number % depth``.
        self._posted = 0
        self._collected = 0
        #: Ledger capacity: the most data pages any one disk owns.
        self._max_pages = 0
        #: Pages speculatively faulted by the workers on the last query
        #: (diagnostic only — always >= the charged count, varies run
        #: to run; the charged counts do not).
        self.last_speculative_pages = 0

    # --------------------------------------------------------- lifecycle

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        # A bad page file raises its PageFormatError here, before a
        # worker could die of it where only its stderr would say why.
        self.store.check_page_files()
        ctx = self._ctx
        depth = _PIPELINE_DEPTH
        num_disks = self.store.num_disks
        dimension = self.store.dimension
        cells = depth * num_disks
        self._max_pages = int(self.store.disk_loads().max())
        self._board = ctx.Array(
            "d", depth * (_SLOT_HEADER + dimension), lock=False
        )
        self._bounds = ctx.Array("d", depth * self.max_k, lock=False)
        self._arena = ctx.Array(
            "d", cells * self.max_k * _arena_stride(dimension), lock=False
        )
        self._tallies = ctx.Array("d", cells * _TALLY, lock=False)
        self._ledgers = ctx.Array(
            "d", cells * _LEDGER_ROWS * self._max_pages, lock=False
        )
        self._locks = [ctx.Lock() for _ in range(depth)]
        self._done = [ctx.Semaphore(0) for _ in range(depth)]
        self._go = [ctx.Semaphore(0) for _ in range(num_disks)]
        self._procs = []
        directory = os.fspath(self.store.directory)
        try:
            for disk in range(num_disks):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        directory, disk, self.store.simulated_disk_ms,
                        self.max_k, depth, self._board,
                        self._bounds, self._arena, self._tallies,
                        self._ledgers, self._locks, self._go[disk],
                        self._done,
                    ),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        except (OSError, RuntimeError, ValueError):
            # A worker failed to spawn mid-start: tear down the workers
            # that did start (close() handles partial state) so nothing
            # leaks into the caller's error path.
            self.close()
            raise

    def close(self) -> None:
        """Stop the worker processes (idempotent).

        Posts the stop message (``k = 0``) in the next bank's slot; a
        worker reaches it after whatever is still posted ahead of it.
        The bank's lock is waited for at most :data:`_LIVENESS_SLICE_S`:
        a worker killed while holding it never releases it, and then
        the workers are terminated without a stop message.
        """
        posted = False
        if self._procs:
            assert self._board is not None
            board = np.frombuffer(self._board, dtype=np.float64)
            bank = self._posted % _PIPELINE_DEPTH
            width = _SLOT_HEADER + self.store.dimension
            with _lock_within(self._locks[bank], _LIVENESS_SLICE_S) as posted:
                if posted:
                    board[bank * width + 1] = 0
            if posted:
                for go in self._go:
                    go.release()
        for proc in self._procs:
            proc.join(timeout=10.0 if posted else 0.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        self._board = self._bounds = self._arena = None
        self._tallies = self._ledgers = None
        self._locks, self._go, self._done = [], [], []
        self._posted = self._collected = 0

    def __enter__(self) -> "ProcessParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            if self._procs:
                self.close()
        except (OSError, ValueError, RuntimeError, AttributeError):
            # Interpreter teardown: semaphores/processes may be gone.
            pass

    # ----------------------------------------------------------- queries

    def _check_k(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > self.max_k:
            raise ValueError(
                f"k={k} exceeds this engine's max_k={self.max_k}; "
                f"construct the engine with a larger max_k"
            )

    def _post(self, query: np.ndarray, k: int, batch: int) -> None:
        """Arm the next bank with one query and wake every worker."""
        assert self._board is not None and self._bounds is not None
        board = np.frombuffer(self._board, dtype=np.float64)
        bounds = np.frombuffer(self._bounds, dtype=np.float64)
        bank = self._posted % _PIPELINE_DEPTH
        self._posted += 1
        width = _SLOT_HEADER + len(query)
        lock = self._locks[bank]
        with lock:
            bounds[bank * self.max_k : (bank + 1) * self.max_k] = np.inf
            board[bank * width : bank * width + _SLOT_HEADER] = (
                self._posted, k, batch,
            )
            board[bank * width + _SLOT_HEADER : (bank + 1) * width] = query
        for go in self._go:
            go.release()

    def _collect(self) -> Tuple[List[_Candidates], List[np.ndarray]]:
        """Every worker's candidates and ledger for the oldest post.

        Waits on the bank's ``done`` once per disk, in slices: a worker
        that died (even while idle, before this query) raises within
        about :data:`_LIVENESS_SLICE_S`, a hung one after
        :data:`_REPLY_TIMEOUT_S`.  Each tally must echo the post's
        serial.  The caller closes the engine on any error here.
        """
        assert self._arena is not None and self._tallies is not None
        assert self._ledgers is not None
        num_disks = self.store.num_disks
        bank = self._collected % _PIPELINE_DEPTH
        serial = self._collected + 1
        done = self._done[bank]
        slices = math.ceil(_REPLY_TIMEOUT_S / _LIVENESS_SLICE_S)
        for _ in range(num_disks):
            while not done.acquire(timeout=_LIVENESS_SLICE_S):
                slices -= 1
                if slices <= 0 or not all(p.is_alive() for p in self._procs):
                    raise RuntimeError(
                        "a disk worker did not reply; the worker process "
                        "likely died (see stderr)"
                    )
        arena = np.frombuffer(self._arena, dtype=np.float64)
        tallies = np.frombuffer(self._tallies, dtype=np.float64)
        ledgers = np.frombuffer(self._ledgers, dtype=np.float64)
        dimension = self.store.dimension
        arena_cell = self.max_k * _arena_stride(dimension)
        found: List[_Candidates] = []
        pages_seen: List[np.ndarray] = []
        lock = self._locks[bank]
        with lock:
            for disk in range(num_disks):
                cell = bank * num_disks + disk
                echo, count, pages = (
                    int(x)
                    for x in tallies[cell * _TALLY : (cell + 1) * _TALLY]
                )
                if echo != serial:
                    raise RuntimeError(
                        f"ring out of step: disk {disk} answered post "
                        f"{echo} in the bank of post {serial}"
                    )
                found.append(_unpack_candidates(
                    arena, cell * arena_cell, count, dimension
                ))
                pages_seen.append(_ledger_cell(
                    ledgers, cell, self._max_pages, pages
                ).copy())
        self._collected += 1
        return found, pages_seen

    def _reduce(
        self,
        k: int,
        found: List[_Candidates],
        ledgers: List[np.ndarray],
        tracer: Tracer,
        traced: bool,
        span: int,
    ) -> ParallelQueryResult:
        """Merge worker candidates into the exact global result.

        Deterministic merge — squared keys, ``(key, oid)`` order — then
        the post-hoc charged page set from the ledgers; shared by the
        per-call and the batch path, which keeps them bit-for-bit equal.
        """
        keys, oids, points = _top_k(found, k)
        bound = float(keys[-1]) if len(keys) == k else math.inf
        counts, computations = _exact_counts(ledgers, bound)
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

    def _run(
        self, queries: np.ndarray, k: int, batched: bool
    ) -> List[ParallelQueryResult]:
        """Answer ``queries`` in order through the ring.

        Keeps :data:`_PIPELINE_DEPTH` queries posted ahead: query
        ``j + depth`` is posted right after query ``j`` is collected, so
        the workers scan the next queries while the coordinator reduces
        this one.  ``batched`` gives the posts a fresh batch serial (the
        workers' page-holding scope); per-call posts carry 0.  Under an
        enabled tracer each query emits ``query_start``, one aggregate
        ``page_read`` per disk (the exact charged counts — per-page
        order inside a worker is not deterministic and is not traced)
        and ``query_end``, in query order.
        """
        store = self.store
        num_disks = store.num_disks
        if queries.shape[1:] != (store.dimension,):
            raise ValueError(
                f"query shape {queries.shape[1:]} does not match the "
                f"store's dimension {store.dimension}"
            )
        tracer = current_tracer(self.tracer)
        traced = tracer.enabled
        service_ms = self.parameters.page_service_time_ms
        total = len(queries)
        results: List[ParallelQueryResult] = []
        if not len(store):
            for _ in range(total):
                if traced:
                    tracer.end_query(tracer.begin_query(
                        "process", k=k, num_disks=num_disks,
                        service_ms=service_ms,
                    ))
                results.append(ParallelQueryResult(
                    [], np.zeros(num_disks, dtype=np.int64), 0.0, 0,
                    cache_stats=None,
                ))
            return results
        self._ensure_workers()
        batch = self._posted + 1 if batched else 0
        speculative = 0
        try:
            for query in queries[:_PIPELINE_DEPTH]:
                self._post(query, k, batch)
            for ahead in range(_PIPELINE_DEPTH, total + _PIPELINE_DEPTH):
                found, ledgers = self._collect()
                if ahead < total:
                    self._post(queries[ahead], k, batch)
                span = -1
                if traced:
                    span = tracer.begin_query(
                        "process", k=k, num_disks=num_disks,
                        service_ms=service_ms,
                    )
                speculative += sum(
                    int(ledger[1, -1]) for ledger in ledgers if ledger.size
                )
                results.append(
                    self._reduce(k, found, ledgers, tracer, traced, span)
                )
        finally:
            if self._posted != self._collected:
                # A post without its collect would leave the ring out
                # of step: reset it (workers respawn lazily, as after
                # any close()).
                self.close()
        self.last_speculative_pages = speculative
        return results

    def query(
        self, query: Sequence[float], k: int = 1
    ) -> ParallelQueryResult:
        """Run one kNN query across all disk workers in parallel: one
        post, one collect (see :meth:`_run` for the traced events)."""
        self._check_k(k)
        queries = np.asarray(query, dtype=float)[None]
        return self._run(queries, k, batched=False)[0]

    def query_batch(
        self, queries: np.ndarray, k: int = 1
    ) -> BatchQueryResult:
        """Run a batch of queries over the persistent worker pool,
        pipelined across the ring's banks.

        The same post / collect / reduce as :meth:`query`, with
        :data:`_PIPELINE_DEPTH` queries in flight (workers score query
        ``j + 1`` while the coordinator merges query ``j``), and a page
        whose MBR intersects several of the batch's kNN spheres pays
        its service time once, not once per query (:class:`_DiskPages`)
        — the structural throughput edge over per-call dispatch.

        Results are bit-for-bit identical to calling :meth:`query` per
        query (and to ``PagedEngine``): the merge and the post-hoc
        charged-page derivation are the same code, and a bank is
        re-armed only after it was collected.
        """
        self._check_k(k)
        queries = np.asarray(queries, dtype=float)
        if queries.size == 0:
            return BatchQueryResult([], self.store.num_disks)
        return BatchQueryResult(
            self._run(np.atleast_2d(queries), k, batched=True),
            self.store.num_disks,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._procs else "idle"
        return (
            f"ProcessParallelEngine(disks={self.store.num_disks}, "
            f"workers={state}, max_k={self.max_k})"
        )
