"""True process parallelism: one worker process per simulated disk.

Each disk of an out-of-core :class:`~repro.storage.mmap_store.MmapStore`
gets a worker process that maps only its own page file and answers a
*post* of up to :data:`_MAX_BATCH` queries (a per-call query is a post
of one) with one page-major scan of its disk's flat leaf table
(:func:`_scan`): each page is gathered once per post, filtered for
every query by one BLAS product (:class:`_Filter`) and refined exactly.
Workers cooperate through a shared, monotonically tightening kNN bound
per query.

Determinism contract (see ``docs/performance.md``): neighbors and
per-disk page counts are **bit-for-bit identical** to
:class:`~repro.parallel.paged.PagedEngine` (``TestLedgerOracle``), while
wall-clock time and *speculative* I/O vary run to run.  HS 95
best-first search reads exactly the pages whose ``mindist`` does not
exceed the final k-th distance ``B*``, whatever the visit order, so the
coordinator lets the workers race (a stale bound never drops below
``B*``), merges their candidates into the exact top-k (squared keys),
and cuts each worker's **page ledger** for the query — its pages within
the query's final bound in ascending ``mindist``, with running block
and entry totals — at ``B*``.  Every key that reaches a top-k list, a
shared bound or the arena is an exact ``point_keys`` key.

Coordinator and workers meet in one **shared-memory query ring** (no
queues, nothing pickled): a board for a post's queries, a bound row per
query, and per (query, disk) an arena cell (candidates), a tally cell
and a ledger; a ``go`` semaphore per worker and one ``done`` semaphore
carry the wake-ups.  Every shared access holds the ring's lock, which
the coordinator waits for at most :data:`_LIVENESS_SLICE_S`.  The engine
is cacheless: the OS page cache plays the buffer pool's role.  Boundary
ties (two points at exactly ``B*``) are outside the contract.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import os
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.knn import Neighbor
from repro.index.metrics import Euclidean
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.engine import BatchQueryResult, ParallelQueryResult

__all__ = ["ProcessParallelEngine"]

_EUCLIDEAN = Euclidean()

#: ``multiprocessing`` start method of the workers: ``"spawn"`` is safe
#: everywhere (workers re-import, nothing is forked mid-state).
_START_METHOD = "spawn"

#: Most pages in one chunk of a worker's scan.  Chunks start at one page
#: per query (its nearest almost always yields its k candidates) and
#: double up to this; the cap trades per-chunk overhead against
#: speculative reads (``docs/performance.md``: 96 ... 256 within a few
#: per cent).
_MAX_CHUNK_PAGES = 128

#: Most queries one post carries; a larger batch is several posts.  The
#: ring's per-query cells are allocated (and zeroed) when the workers
#: start: the ledgers alone take ``16 x disks x 3 x most pages x 8``
#: bytes, 1.5 MB for two disks of 2 048 pages.
_MAX_BATCH = 16

#: Seconds the coordinator waits for a worker deposit before giving up.
_REPLY_TIMEOUT_S = 120.0

#: Longest single wait on a ring semaphore or on the ring's lock.
#: Between slices the coordinator checks that every worker is alive (a
#: dead one surfaces in about a slice, not after
#: :data:`_REPLY_TIMEOUT_S`), and an idle worker that its parent is.
_LIVENESS_SLICE_S = 1.0

#: Board header ``[serial, k, queries]``, then coordinates; ``k == 0`` stops.
_SLOT_HEADER = 3

#: Tally cell: ``[serial echo, candidates, ledger pages, pages gathered
#: by the post]``.  Cell ``query * num_disks + disk`` of the arena, the
#: tallies and the ledgers is that query's on that disk's worker.
_TALLY = 4

#: Ledger rows: ``mindist``, running blocks, running entries.
_LEDGER_ROWS = 3

#: The filter's rounding slack, in units of ``d·2⁻⁵²·(max‖p‖+max‖q‖)²``,
#: and its floor below the normal range (see :class:`_Filter`).
_SLACK_UNITS = 8.0
_SLACK_FLOOR = 2.0**-1060

#: The variable a spawned worker's BLAS reads its thread count from.
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"

#: What the coordinator raises when the ring's lock stays taken.
_STUCK_LOCK = "the ring's lock was not released; its holder likely died"

#: A candidate set as arrays: ``(keys, oids, points)``, squared keys.
_Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _merge_shared(
    view: np.ndarray, row: int, k: int, keys: np.ndarray
) -> None:
    """Fold keys into query ``row``'s shared top-k (lock held).  Workers
    publish each key once (:func:`_scan`), so the k-th shared value stays
    >= the true k-th distance ``B*``: the invariant pruning relies on."""
    shared = view[row]
    shared[:k] = np.sort(np.concatenate((shared[:k], keys)))[:k]


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
    """The k best of several candidate sets, in ``(key, oid)`` order."""
    keys, oids, points = (np.concatenate(column) for column in zip(*found))
    best = np.lexsort((oids, keys))[:k]
    return keys[best], oids[best], points[best]


def _exact_counts(
    ledgers: Sequence[np.ndarray], bound: float
) -> Tuple[np.ndarray, int]:
    """Per-disk pages + distance computations of the charged set: every
    page with ``mindist <= bound`` (ties included, as the single-process
    engine breaks on strictly greater).  Each ledger is its disk's pages
    in ascending ``mindist`` up to some ``bound' >= B*``, so the charged
    pages are a prefix: one ``searchsorted`` per disk, then the running
    totals at the cut.  ``mindist_many`` rows are bit-identical to the
    scalar ``MBR.mindist``, so the set matches ``PagedEngine``'s."""
    counts = np.zeros(len(ledgers), dtype=np.int64)
    computations = 0
    for disk, ledger in enumerate(ledgers):
        charged = int(ledger[0].searchsorted(bound, "right"))
        if charged:
            counts[disk] = int(ledger[1, charged - 1])
            computations += int(ledger[2, charged - 1])
    return counts, computations


class _DiskPages:
    """One disk's data pages: the page source of a worker.

    ``table`` is the disk's :meth:`MmapStore.disk_table`.  A chunk is
    one ``read_pages`` gather of the pages' point rows — an owned ``(n,
    W, d)`` block, ``+inf`` past each page's count — which owes the
    pages' simulated service time; it comes with the rows' squared
    norms, NaN past each page's count.  A page's norms are computed on
    its first gather and kept, so a worker maps only the pages its
    queries reach.  ``largest`` bounds every row's norm by the farthest
    corner of the non-empty pages' MBRs (a row lies in its page's MBR).
    :meth:`rows` reads back the rows kept.
    """

    def __init__(self, store: Any, disk: int):
        self._store, self._disk = store, disk
        self.table = store.disk_table(disk)
        pages = len(self.table[2])
        # A gather of no page opens (and checks) the page file, owes
        # nothing and gives the rows per page W.
        width = store.read_pages(disk, np.zeros(0, dtype=np.intp)).shape[1]
        self._norms = np.empty((pages, width))
        self._known = np.zeros(pages, dtype=bool)
        self._unknown = pages
        lows, highs, _, counts, _ = self.table
        corners = np.maximum(abs(lows), abs(highs))[counts > 0]
        with np.errstate(over="ignore"):
            self.largest = math.sqrt((corners**2).sum(1).max(initial=0.0))

    def chunk(self, pages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(block, norms)`` of (distinct) table rows ``pages``: the
        ``(n, W, d)`` point block, padding rows included, and its rows'
        squared norms ``(n, W)``."""
        block = self._store.read_pages(self._disk, pages)
        if self._unknown and not self._known[pages].all():
            fresh = ~self._known[pages]
            new = pages[fresh]
            self._unknown -= len(new)
            with np.errstate(over="ignore"):
                norms = np.einsum("ijk,ijk->ij", block[fresh], block[fresh])
            width = np.arange(norms.shape[1])
            norms[width >= self.table[3][new, None]] = np.nan
            self._norms[new] = norms
            self._known[new] = True
        return block, self._norms[pages]

    def rows(
        self, pages: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(oids, points)`` of flat rows ``rows`` of :meth:`chunk`'s
        block for ``pages``, read back from the page file."""
        return self._store.page_rows(self._disk, pages, rows)


class _Filter:
    """The BLAS filter of one post's queries on one worker.

    A row ``p`` survives for query ``q`` unless ``â = p·(−2q) + ‖p‖²`` —
    one matrix product per chunk for all the post's queries, row norms
    from :class:`_DiskPages` — exceeds ``bound − ‖q‖² + slack``; the
    survivors are refined with the exact ``point_keys``.  With ``u =
    2⁻⁵³``, ``S = (‖p‖ + ‖q‖)²`` and the standard bounds for a d-term sum
    or dot product in any order (BLAS may block and fuse):

    * ``â`` errs by ``d·u·‖p‖²`` (norm) ``+ 2d·u·‖p‖‖q‖`` (product;
      ``×−2`` is exact) ``+ u·S`` (the add): at most ``(d + 1)·u·S``;
    * ``point_keys`` errs from ``‖p − q‖² ≤ S`` by ``(d + 2)·u·S``;
    * the threshold's roundings cost ``d·u·‖q‖² + 2u·|bound − ‖q‖²|``,
      and only rows near the bound matter, where ``|bound − ‖q‖²| ≤ 2S``
      (above that every row passes: ``â ≤ (1 + (d + 1)·u)·S``).

    So no row whose exact key beats the bound is dropped once ``slack ≥
    (3d + 7)·u·S``.  ``slack = 8·d·2⁻⁵²·(max‖p‖ + max‖q‖)²``, with
    ``max‖p‖`` bounded from the worker's page MBRs and ``max‖q‖`` over
    the post, is ``16·d·u·S`` or more: 1.6× the need at d = 1, more
    above.  Below the normal range an operation errs by up to ``2⁻¹⁰⁷⁵``
    absolute instead, so ``d·2⁻¹⁰⁶⁰`` is added.  Every term and partial
    sum of ``â`` is at most about ``S`` in size, so nothing overflows
    while ``4·S`` is finite; past that (norms near 1e154) every real row
    is refined.
    """

    def __init__(self, queries: np.ndarray, largest: float):
        lengths = np.einsum("ij,ij->i", queries, queries)
        reach = largest + math.sqrt(np.maximum.reduce(lengths))
        dimension = queries.shape[1]
        self.scale = -2.0 * queries.T
        units = _SLACK_UNITS * dimension * 2.0**-52
        self.slack = units * reach * reach + dimension * _SLACK_FLOOR
        self.offsets = self.slack - lengths
        self.exact = not math.isfinite(4.0 * reach * reach)

    def survivors(
        self, block: np.ndarray, norms: np.ndarray,
        bounds: np.ndarray, short: np.ndarray, k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, queries)`` of a gathered ``(n, W, d)`` block that may
        beat ``bounds`` (exact keys), row-major.  ``norms`` are the rows'
        squared norms, NaN (never surviving) for padding; ``short``
        indexes the queries with fewer than k candidates.  Padding makes
        NaN: call it under ``np.errstate(invalid="ignore")``."""
        if self.exact:
            real = np.flatnonzero(~np.isnan(norms)).repeat(len(bounds))
            return real, np.resize(np.arange(len(bounds)), len(real))
        approx = block.reshape(-1, block.shape[2]) @ self.scale
        approx += norms.reshape(-1, 1)
        limits = bounds + self.offsets
        if len(short) and len(approx) >= k:
            # The chunk's own k-th approximate key A (NaN, and ignored,
            # with fewer than k real rows) caps a short query: its k
            # rows with â <= A survive and have exact keys <= A + |q|²
            # + slack, so after the fold the query's k-th exact key is
            # <= that; a row with â > A + 2·slack has an exact key above
            # A + |q|² + slack and cannot enter.
            kth = np.partition(approx[:, short], k - 1, axis=0)[k - 1]
            limits[short] = np.fmin(limits[short], kth + 2.0 * self.slack)
        flat = (approx <= limits).ravel().nonzero()[0]
        return np.divmod(flat, len(limits))


def _scan(
    source: _DiskPages,
    queries: np.ndarray,
    k: int,
    view: np.ndarray,
    lock: Any,
) -> Tuple[List[_Candidates], List[np.ndarray], int]:
    """One post on one disk's worker: a page-major frontier scan.

    Row ``j`` of ``view`` is query ``j``'s shared top-k.  Pages come in
    ascending minimum ``mindist`` over the queries (for one query,
    best-first order) in chunks that double from one page per query:
    the next pages within the largest ``min(local k-th key, shared
    bound)``, less those no query owes (nobody owes them later either:
    bounds only tighten).  A chunk is gathered once and filtered for
    every query (:class:`_Filter`);
    survivors are refined with ``point_keys`` (``einsum`` rows are
    bit-identical whatever rows they are scored with) and folded into
    the local top-k lists with one ``lexsort``.  The scan ends at the
    first chunk the bounds cut short.

    Returns per query its local top-k (``(key, oid)`` order) and its
    ledger — ``mindist`` (ascending), running blocks and running entries
    of its pages within its final ``min(local, shared)`` — and the
    number of pages gathered.
    """
    lows, highs, _, entries, blocks = source.table
    count = len(queries)
    mindists = np.array(
        [_EUCLIDEAN.mindist_many(lows, highs, q) for q in queries]
    )
    nearest = mindists[0] if count == 1 else mindists.min(axis=0)
    order = np.argsort(nearest)
    nearest = nearest[order]
    where = _Filter(queries, source.largest)
    kth = np.array([np.inf] * count)
    short = np.arange(count)
    owner = np.empty(0, dtype=np.intp)
    keys, oids = np.empty(0), np.empty(0, dtype=np.int64)
    points = np.empty((0, queries.shape[1]))
    gathered, start, size = 0, 0, count
    with np.errstate(invalid="ignore", over="ignore"):
        while start < len(order):
            with lock:
                bounds = np.minimum(kth, view[:, k - 1])
            chunk = nearest[start : start + size]
            reach = bounds[0] if count == 1 else bounds.max()
            take = int(chunk.searchsorted(reach, "right"))
            if not take:
                break
            pages = order[start : start + take]
            start += take
            size = min(2 * size, _MAX_CHUNK_PAGES)
            if count > 1:
                pages = pages[(mindists[:, pages] <= bounds[:, None]).any(0)]
            gathered += len(pages)
            block, norms = source.chunk(pages)
            rows, which = where.survivors(block, norms, bounds, short, k)
            if len(rows):
                # Every survivor is folded, even one at or above its
                # query's bound: it is a real candidate, so the list's k-th
                # key stays >= B*, and no key >= a bound >= B* can reach
                # the merged top-k.
                fresh_oids, fresh_points = source.rows(pages, rows)
                against = queries[0] if count == 1 else queries[which]
                fresh = _EUCLIDEAN.point_keys(fresh_points, against)
                old = len(keys)
                keys = np.concatenate((keys, fresh))
                oids = np.concatenate((oids, fresh_oids))
                points = np.concatenate((points, fresh_points))
                # Publish when a list's k-th key fell: its keys new since
                # the last fold, or all of them when it just filled, so
                # each key enters its shared row once.  A post of one skips
                # the owner bookkeeping (30-50 % of a per-call query).
                if count == 1:
                    best = np.lexsort((oids, keys))[:k]
                    keys, oids, points = keys[best], oids[best], points[best]
                    if len(keys) == k and keys[-1] < kth[0]:
                        new = keys if kth[0] == np.inf else keys[best >= old]
                        with lock:
                            _merge_shared(view, 0, k, new)
                        kth, short = keys[-1:], short[:0]
                else:
                    owner = np.concatenate((owner, which))
                    best = np.lexsort((oids, keys, owner))
                    ranked = owner[best]
                    first = np.searchsorted(ranked, ranked)
                    best = best[np.arange(len(best)) - first < k]
                    keys, oids, points = keys[best], oids[best], points[best]
                    owner = owner[best]
                    counts = np.bincount(owner, minlength=count)
                    fallen = np.where(
                        counts == k, keys[np.cumsum(counts) - 1], np.inf
                    )
                    fell = fallen < kth
                    mine = fell[owner]
                    new = (best[mine] >= old) | (kth[owner[mine]] == np.inf)
                    published = np.where(new, keys[mine], np.inf)
                    with lock:
                        for row, values in zip(
                            np.flatnonzero(fell), published.reshape(-1, k)
                        ):
                            _merge_shared(view, row, k, values)
                    kth, short = fallen, np.flatnonzero(fallen == np.inf)
            if take < len(chunk):
                break
    with lock:
        bounds = np.minimum(kth, view[:, k - 1])
    if count == 1:
        found = [(keys, oids, points)]
        owed = [order[: nearest.searchsorted(bounds[0], "right")]]
    else:
        masks = [owner == query for query in range(count)]
        found = [(keys[m], oids[m], points[m]) for m in masks]
        owed = [(row <= b).nonzero()[0] for row, b in zip(mindists, bounds)]
        owed = [m[np.argsort(row[m])] for row, m in zip(mindists, owed)]
    ledgers = [
        np.array((row[m], blocks[m].cumsum(), entries[m].cumsum()))
        for row, m in zip(mindists, owed)
    ]
    return found, ledgers, gathered


def _worker_main(
    directory: str,
    disk: int,
    simulated_disk_ms: float,
    max_k: int,
    board: Any,
    bounds: Any,
    arena: Any,
    tallies: Any,
    ledgers: Any,
    lock: Any,
    go: Any,
    done: Any,
) -> None:
    """Worker process entry point (spawn-safe, module level): open the
    store (only this disk's page file, no tree) and the page source, then
    per post wait on ``go``, read the board, scan, deposit per query the
    top-k, ledger and tally, release ``done``.  ``k == 0`` stops it."""
    from repro.storage.mmap_store import MmapStore

    parent = os.getppid()
    # One freed large block raises glibc's mmap and trim thresholds for
    # good, so the scan's gathers and temporaries come from a warm heap
    # (worker minor faults per query without it: 397 vs 56 on 1024
    # pages of d = 16, 1 099 vs 158 on 4096).
    np.empty(1 << 24, dtype=np.uint8)
    store = MmapStore(directory, simulated_disk_ms=simulated_disk_ms)
    try:
        dimension = store.dimension
        cells = (_MAX_BATCH, store.num_disks)
        max_pages = int(store.disk_loads().max())
        board_view = np.frombuffer(board, dtype=np.float64)
        bounds_view = np.frombuffer(bounds, dtype=np.float64)
        arena_view = np.frombuffer(arena, dtype=np.float64)
        tallies_view = np.frombuffer(tallies, dtype=np.float64)
        ledgers_view = np.frombuffer(ledgers, dtype=np.float64)
        source = _DiskPages(store, disk)
        while True:
            while not go.acquire(timeout=_LIVENESS_SLICE_S):
                if os.getppid() != parent:
                    return
            with lock:
                serial, k, count = (int(x) for x in board_view[:_SLOT_HEADER])
                queries = board_view[_SLOT_HEADER:][: count * dimension]
                queries = queries.reshape(count, dimension).copy()
                view = bounds_view[: count * max_k].reshape(count, max_k)
            if k == 0:
                return
            found, pages, gathered = _scan(source, queries, k, view, lock)
            with lock:
                cell = arena_view[:].reshape(*cells, max_k, 2 + dimension)
                tally = tallies_view[:].reshape(*cells, _TALLY)
                ledger = ledgers_view[:].reshape(*cells, _LEDGER_ROWS, max_pages)
                for query, (keys, oids, points) in enumerate(found):
                    size = pages[query].shape[1]
                    cell[query, disk, : len(keys), 0] = keys
                    cell[query, disk, : len(keys), 1] = oids.view(np.float64)
                    cell[query, disk, : len(keys), 2:] = points
                    ledger[query, disk, :, :size] = pages[query]
                    tally[query, disk] = serial, len(keys), size, gathered
            done.release()
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
    max_k:
        Capacity of the shared bound rows; queries may use any
        ``k <= max_k``.

    Workers start lazily on the first query and persist until
    :meth:`close`; the engine is a context manager.  Every query is
    fanned out to every disk in parallel — the paper's execution model —
    and a batch's queries share each disk's scan.
    """

    def __init__(
        self,
        store: Any,
        parameters: Optional[DiskParameters] = None,
        tracer: Optional[Tracer] = None,
        max_k: int = 64,
    ):
        if getattr(store, "read_page", None) is None or not hasattr(
            store, "directory"
        ):
            raise TypeError(
                "ProcessParallelEngine requires an out-of-core store "
                "(repro.storage.MmapStore); build one with "
                "save_paged_store or bulk_load_mmap"
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
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._procs: List[Any] = []
        #: The ring (module docstring); ``None`` while no workers run.
        self._board: Optional[Any] = None
        self._bounds: Optional[Any] = None
        self._arena: Optional[Any] = None
        self._tallies: Optional[Any] = None
        self._ledgers: Optional[Any] = None
        self._lock: Optional[Any] = None
        self._done: Optional[Any] = None
        self._go: List[Any] = []
        #: Posts made / collected since the workers started (a post's
        #: serial is its 1-based number), and the ledger capacity.
        self._posted = self._collected = self._max_pages = 0
        #: Diagnostics of the last call: pages the workers' ledgers held,
        #: summed over its queries (>= the charged pages, varying run to
        #: run), and pages they gathered (each at most once per post).
        self.last_speculative_pages = 0
        self.last_gathered_pages = 0

    # --------------------------------------------------------- lifecycle

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        # A bad page file raises its PageFormatError here, before a
        # worker could die of it where only its stderr would say why.
        self.store.check_page_files()
        ctx = self._ctx
        num_disks = self.store.num_disks
        dimension = self.store.dimension
        cells = _MAX_BATCH * num_disks
        self._max_pages = int(self.store.disk_loads().max())
        self._board = ctx.Array(
            "d", _SLOT_HEADER + _MAX_BATCH * dimension, lock=False
        )
        self._bounds = ctx.Array("d", _MAX_BATCH * self.max_k, lock=False)
        self._arena = ctx.Array(
            "d", cells * self.max_k * (2 + dimension), lock=False
        )
        self._tallies = ctx.Array("d", cells * _TALLY, lock=False)
        self._ledgers = ctx.Array(
            "d", cells * _LEDGER_ROWS * self._max_pages, lock=False
        )
        self._lock = ctx.Lock()
        self._done = ctx.Semaphore(0)
        self._go = [ctx.Semaphore(0) for _ in range(num_disks)]
        self._procs = []
        directory = os.fspath(self.store.directory)
        # A spawned worker's BLAS reads its thread count once, at start:
        # one thread each, or four workers on two cores would run eight.
        blas_threads = os.environ.get(_BLAS_THREADS)
        os.environ[_BLAS_THREADS] = "1"
        try:
            for disk in range(num_disks):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        directory, disk, self.store.simulated_disk_ms,
                        self.max_k, self._board, self._bounds, self._arena,
                        self._tallies, self._ledgers, self._lock,
                        self._go[disk], self._done,
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
        finally:
            if blas_threads is None:
                del os.environ[_BLAS_THREADS]
            else:
                os.environ[_BLAS_THREADS] = blas_threads

    def close(self) -> None:
        """Stop the worker processes (idempotent).

        Posts the stop message (``k = 0``), which a worker reads after
        whatever is still posted ahead of it.  The ring's lock is waited
        for at most :data:`_LIVENESS_SLICE_S`: a process killed while
        holding it never releases it, and then the workers are
        terminated without a stop message.
        """
        posted = False
        if self._procs:
            assert self._board is not None
            board = np.frombuffer(self._board, dtype=np.float64)
            with _lock_within(self._lock, _LIVENESS_SLICE_S) as posted:
                if posted:
                    board[1] = 0
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
        self._lock = self._done = None
        self._go = []
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

    def _post(self, queries: np.ndarray, k: int) -> None:
        """Put a post's queries on the board and wake every worker."""
        assert self._board is not None and self._bounds is not None
        board = np.frombuffer(self._board, dtype=np.float64)
        bounds = np.frombuffer(self._bounds, dtype=np.float64)
        self._posted += 1
        with _lock_within(self._lock, _LIVENESS_SLICE_S) as held:
            if not held:
                raise RuntimeError(_STUCK_LOCK)
            bounds[: len(queries) * self.max_k] = np.inf
            board[:_SLOT_HEADER] = self._posted, k, len(queries)
            board[_SLOT_HEADER : _SLOT_HEADER + queries.size] = queries.ravel()
        for go in self._go:
            go.release()

    def _collect(
        self, count: int, k: int, tracer: Tracer
    ) -> Tuple[List[ParallelQueryResult], int, int]:
        """The last post's results, the pages its ledgers held and the
        pages its workers gathered.

        Waits on ``done`` once per disk, in slices: a worker that died
        (even idle) raises within about :data:`_LIVENESS_SLICE_S`, a
        hung one after :data:`_REPLY_TIMEOUT_S`.  Tallies must echo the
        post's serial.  Per query, the merge (squared keys, ``(key,
        oid)`` order) and the ledger cut at B* (:func:`_exact_counts`)
        read the cells in place — one path for per-call and batched
        queries.  A tracer gets ``query_start``, one ``page_read`` per
        disk and ``query_end`` per query.
        """
        assert self._arena is not None and self._tallies is not None
        assert self._ledgers is not None and self._done is not None
        num_disks = self.store.num_disks
        slices = math.ceil(_REPLY_TIMEOUT_S / _LIVENESS_SLICE_S)
        for _ in range(num_disks):
            while not self._done.acquire(timeout=_LIVENESS_SLICE_S):
                slices -= 1
                if slices <= 0 or not all(p.is_alive() for p in self._procs):
                    raise RuntimeError(
                        "a disk worker did not reply; the worker process "
                        "likely died (see stderr)"
                    )
        arena_view = np.frombuffer(self._arena, dtype=np.float64)
        tallies_view = np.frombuffer(self._tallies, dtype=np.float64)
        ledgers_view = np.frombuffer(self._ledgers, dtype=np.float64)
        cells = (_MAX_BATCH, num_disks)
        serial = self._collected + 1
        results = []
        speculative = gathered = 0
        with _lock_within(self._lock, _LIVENESS_SLICE_S) as held:
            if not held:
                raise RuntimeError(_STUCK_LOCK)
            arena = arena_view[:].reshape(
                *cells, self.max_k, 2 + self.store.dimension
            )
            ledgers = ledgers_view[:].reshape(
                *cells, _LEDGER_ROWS, self._max_pages
            )
            tallies = tallies_view[: count * num_disks * _TALLY].tolist()
            for query in range(count):
                found, pages = [], []
                for disk in range(num_disks):
                    first = (query * num_disks + disk) * _TALLY
                    echo, size, length, fetched = (
                        int(x) for x in tallies[first : first + _TALLY]
                    )
                    if echo != serial:
                        raise RuntimeError(
                            f"ring out of step: disk {disk} answered post "
                            f"{echo} in place of post {serial}"
                        )
                    cell = arena[query, disk, :size]
                    found.append(
                        (cell[:, 0], cell[:, 1].view(np.int64), cell[:, 2:])
                    )
                    pages.append(ledgers[query, disk, :, :length])
                    speculative += int(pages[-1][1, -1]) if length else 0
                    gathered += 0 if query else fetched
                keys, oids, points = _top_k(found, k)
                bound = float(keys[-1]) if len(keys) == k else math.inf
                counts, computations = _exact_counts(pages, bound)
                disks = DiskArray.from_counts(counts, self.parameters)
                if tracer.enabled:
                    span = tracer.begin_query(
                        "process", k=k, num_disks=num_disks,
                        service_ms=self.parameters.page_service_time_ms,
                    )
                    for disk in np.flatnonzero(counts).tolist():
                        tracer.page_read(span, disk, int(counts[disk]))
                    tracer.end_query(
                        span, time_ms=disks.parallel_time_ms,
                        distance_computations=computations,
                    )
                results.append(ParallelQueryResult(
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
                ))
        self._collected += 1
        return results, speculative, gathered

    def _run(self, queries: np.ndarray, k: int) -> List[ParallelQueryResult]:
        """Answer ``queries`` in order through the ring, one post per
        :data:`_MAX_BATCH` of them (per-page order inside a worker is
        not deterministic and is not traced)."""
        store = self.store
        num_disks = store.num_disks
        if queries.shape[1:] != (store.dimension,):
            raise ValueError(
                f"query shape {queries.shape[1:]} does not match the "
                f"store's dimension {store.dimension}"
            )
        if not np.isfinite(queries).all():
            raise ValueError("query coordinates must be finite")
        tracer = current_tracer(self.tracer)
        results: List[ParallelQueryResult] = []
        if not len(store):
            for _ in range(len(queries)):
                if tracer.enabled:
                    tracer.end_query(tracer.begin_query(
                        "process", k=k, num_disks=num_disks,
                        service_ms=self.parameters.page_service_time_ms,
                    ))
                results.append(ParallelQueryResult(
                    [], np.zeros(num_disks, dtype=np.int64), 0.0, 0,
                    cache_stats=None,
                ))
            return results
        self._ensure_workers()
        speculative = gathered = 0
        try:
            for first in range(0, len(queries), _MAX_BATCH):
                post = queries[first : first + _MAX_BATCH]
                self._post(post, k)
                answers, held, fetched = self._collect(len(post), k, tracer)
                results += answers
                speculative += held
                gathered += fetched
        finally:
            if self._posted != self._collected:
                # A post without its collect would leave the ring out
                # of step: reset it (workers respawn lazily, as after
                # any close()).
                self.close()
        self.last_speculative_pages = speculative
        self.last_gathered_pages = gathered
        return results

    def query(
        self, query: Sequence[float], k: int = 1
    ) -> ParallelQueryResult:
        """Run one kNN query across all disk workers in parallel: a
        batch of one."""
        self._check_k(k)
        queries = np.asarray(query, dtype=float)[None]
        return self._run(queries, k)[0]

    def query_batch(
        self, queries: np.ndarray, k: int = 1
    ) -> BatchQueryResult:
        """Run a batch of queries over the persistent worker pool.

        Each post of up to :data:`_MAX_BATCH` queries is one scan per
        disk: a page several of its queries owe is gathered — and pays
        its simulated service time — once, and filtered for all of them
        by one matrix product.  Results are bit-for-bit identical to
        :meth:`query` per query (and to ``PagedEngine``).
        """
        self._check_k(k)
        queries = np.asarray(queries, dtype=float)
        if queries.size == 0:
            return BatchQueryResult([], self.store.num_disks)
        return BatchQueryResult(
            self._run(np.atleast_2d(queries), k), self.store.num_disks
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._procs else "idle"
        return (
            f"ProcessParallelEngine(disks={self.store.num_disks}, "
            f"workers={state}, max_k={self.max_k})"
        )
