"""True process parallelism: one worker process per simulated disk.

Each disk of an out-of-core :class:`~repro.storage.mmap_store.MmapStore`
gets a worker process that maps only its own page file and answers a
*post* of up to :data:`_MAX_BATCH` queries (a per-call query is a post
of one) with one page-major scan of its disk's flat leaf table
(:func:`_scan`): each page is gathered once per post, filtered for
every query by one BLAS product (:class:`_Filter`) and refined exactly.
Workers cooperate through a shared, monotonically tightening kNN bound
per query.  Under a simulated service time each worker's disk runs on a
device clock (:class:`_Device`): it serves the scan's pages back to back,
drops a page past the bound held when its service would begin, and the
worker filters the pages served so far while the disk works on the next.

Determinism contract (see ``docs/performance.md``): neighbors and
per-disk page counts are **bit-for-bit identical** to
:class:`~repro.parallel.paged.PagedEngine` (``TestLedgerOracle``), while
wall-clock time and *speculative* I/O vary run to run.  HS 95
best-first search reads exactly the pages whose ``mindist`` does not
exceed the final k-th distance ``B*``, whatever the visit order, so the
coordinator lets the workers race (a stale bound never drops below
``B*``), merges their candidates into the exact top-k (squared keys),
and cuts each worker's **page ledger** for the query — the ``mindist``
of every page of its disk within the query's final bound, NaN past it
— at ``B*``.  The hand-off is post-major: a worker deposits a whole
post with one write per field, the coordinator reduces it with one
``lexsort`` and one masked sum.  Every key that reaches a top-k list, a
shared bound or the arena is an exact ``point_keys`` key.

Coordinator and workers meet in one **shared-memory query ring**, a
:class:`_Ring` that owns its layout (no queues, nothing pickled per
query).  It is as wide as the largest k asked since the workers
started, at most the store's point count; a new largest k respawns the
workers on a wider ring.  Workers are forked from ``multiprocessing``'s
fork server, which imports numpy and this engine once per coordinator
(:data:`_PRELOAD`): the first start pays that import, a later start or
a respawn a fork (four workers on two vCPUs: a respawn takes ~50 ms,
against ~0.7 s spawned).  The engine is cacheless: the OS page cache
plays the buffer pool's role.  Boundary ties (two points at exactly
``B*``) are outside the contract.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import math
import multiprocessing
import multiprocessing.forkserver
import os
import time
import weakref
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.knn import Neighbor
from repro.index.metrics import Euclidean
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskParameters
from repro.parallel.engine import BatchQueryResult, ParallelQueryResult

__all__ = ["ProcessParallelEngine"]

_EUCLIDEAN = Euclidean()

#: ``multiprocessing`` start method of the workers: the fork server, a
#: clean interpreter that imports :data:`_PRELOAD` once and forks every
#: worker from that state.  Nothing is inherited from the coordinator: the
#: ring is pickled to each worker, as under ``"spawn"``.
_START_METHOD = "forkserver"

#: What the fork server imports before its first fork, so that a worker
#: starts without importing numpy or this package.
_PRELOAD = ["numpy", "repro.parallel.process", "repro.storage.mmap_store"]

#: The directory that holds the ``repro`` package: put on the fork
#: server's ``PYTHONPATH``, since the server neither takes the
#: coordinator's ``sys.path`` nor reports a preload it cannot import.
_PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Most pages in one chunk of a worker's scan where a page read owes no
#: simulated service time (a store with one is paced page by page on a
#: :class:`_Device`).  A page read past the final bound then costs only
#: its filter rows while every chunk has a fixed cost, so the scan starts
#: at this many pages.  The cap trades that fixed cost against
#: speculative reads (``docs/performance.md``, *The cap, re-derived*;
#: 96 measured against it in *Paced disks*).
_MAX_CHUNK_PAGES = 128

#: Most queries one post carries; a larger batch is several posts.  The
#: ring's per-query cells are allocated (and zeroed) when the workers
#: start: the ledgers alone take ``16 x disks x most pages x 8`` bytes,
#: 0.5 MB for two disks of 2 048 pages.
_MAX_BATCH = 16

#: Seconds the coordinator waits for a worker deposit before giving up.
_REPLY_TIMEOUT_S = 120.0

#: Longest single wait on a ring semaphore or on the ring's lock.
#: Between slices the coordinator checks that every worker is alive (a
#: dead one surfaces in about a slice, not after
#: :data:`_REPLY_TIMEOUT_S`), and an idle worker that its parent is.
_LIVENESS_SLICE_S = 1.0

#: Lengths of the ring's board header and of a disk's tally (their
#: fields: :class:`_Ring`).
_SLOT_HEADER, _TALLY = 3, 5

#: The filter's rounding slack, in units of ``d·2⁻⁵²·(max‖p‖+max‖q‖)²``,
#: and its floor below the normal range (see :class:`_Filter`).
_SLACK_UNITS = 8.0
_SLACK_FLOOR = 2.0**-1060

#: The variable the fork server's BLAS, and so every worker's, reads its
#: thread count from.
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"

#: Engines whose workers run: stopped, then the fork server, at exit.
_RUNNING: "weakref.WeakSet[ProcessParallelEngine]" = weakref.WeakSet()

#: What the coordinator raises when the ring's lock stays taken.
_STUCK_LOCK = "the ring's lock was not released; its holder likely died"

#: One disk's candidates for a post: ``(rows, owner, rank)``, each row
#: ``[squared key, oid bits, point]`` (the arena's format), its query and
#: its rank among that query's rows in ``(key, oid)`` order.
_Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: A reduced post: the top-k rows ``(Q, m, 2 + d)`` (key, oid bits,
#: point; empty rows, NaN keys, last), charged pages per disk ``(Q,
#: disks)`` and distance computations ``(Q,)``.
_Post = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _charge(
    ledgers: np.ndarray, weights: np.ndarray, bound: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Charged pages per disk and distance computations of a post's
    ledgers ``(Q, disks, pages)`` cut at ``bound`` ``(Q,)``: the pages'
    ``weights`` (blocks, entries) summed over ``mindist <= bound`` (ties
    charged, as ``PagedEngine`` breaks on strictly greater; NaN, not
    owed, never).  Float64 sums of integer counts are exact."""
    charged = ledgers <= bound[:, None, None]
    spent = (charged[:, :, None] @ weights)[:, :, 0].astype(np.int64)
    return spent[..., 0], spent[..., 1].sum(1)


@contextlib.contextmanager
def _lock_within(lock: Any, seconds: float) -> Iterator[bool]:
    """Yield whether ``lock`` came free within ``seconds``, held if so."""
    held = lock.acquire(timeout=seconds)
    try:
        yield held
    finally:
        if held:
            lock.release()


@contextlib.contextmanager
def _server_environment() -> Iterator[None]:
    """The environment of a fork server started inside the block, which
    every worker it forks inherits: BLAS on one thread (or four workers
    on two cores would run eight) and :data:`_PACKAGE_ROOT` first on
    ``PYTHONPATH``.  The coordinator's own settings are restored after."""
    names = (_BLAS_THREADS, "PYTHONPATH")
    saved = {name: os.environ.get(name) for name in names}
    os.environ[_BLAS_THREADS] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_PACKAGE_ROOT, saved["PYTHONPATH"]))
    )
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _stop_fork_server() -> None:
    """Stop every running engine's workers, then the fork server, and
    reap it, which folds the workers' usage into ``RUSAGE_CHILDREN``;
    it runs at exit, so that no process outlives the coordinator.  The
    server exits once no process holds its "alive" pipe, which every
    process it forked does, so the workers go first, and the server is
    left to multiprocessing's own exit hook while any other child runs.
    The next engine start starts a new server."""
    for engine in list(_RUNNING):
        engine.close()
    if not multiprocessing.active_children():
        multiprocessing.forkserver._forkserver._stop()


# Registered after multiprocessing's own exit hook (imported above), so it
# runs first: that hook would no longer see workers whose server is gone.
atexit.register(_stop_fork_server)


class _DiskPages:
    """One disk's data pages: the page source of a worker.

    ``table`` is the disk's :meth:`MmapStore.disk_table`.  A chunk is
    one ``read_pages`` gather of the pages' point rows — an owned ``(n,
    W, d)`` block, ``+inf`` past each page's count — with the rows'
    squared norms, NaN past each page's count.  A page's norms are
    computed on its first gather and kept, so a worker maps only the
    pages its queries reach.  ``largest`` bounds every row's norm by the
    farthest corner of the non-empty pages' MBRs (a row lies in its
    page's MBR).  ``free`` says that a page read owes no service time
    (``service_ms``, the store's ``simulated_disk_ms`` a block, is 0);
    else a :class:`_Device` serves it on the store's ``clock`` with its
    ``sleep_until``.  :meth:`rows` reads back the rows kept.
    """

    def __init__(self, store: Any, disk: int):
        self._store, self._disk = store, disk
        self.table = store.disk_table(disk)
        self.service_ms = store.simulated_disk_ms
        self.free = not self.service_ms
        self.clock, self.sleep_until = store.clock, store.sleep_until
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


class _Device:
    """One disk's device clock for a scan under a simulated service time.

    The device serves the scan's pages back to back in ``order``
    (ascending ``nearest``, the minimum ``mindist`` over the post's
    queries), ``blocks x source.service_ms`` each, from the clock's
    reading at the start.  A page is decided when its service begins,
    against the bounds the scan holds then: past every query's bound
    (``mindists``) it is dropped, costs no time and is never served —
    bounds only tighten, so it is never owed later — and once ``nearest``
    passes the largest bound, so is every page after it.  Due instants
    are absolute, so a late wake-up never delays the device.
    """

    def __init__(
        self, source: _DiskPages, order: np.ndarray,
        nearest: np.ndarray, mindists: np.ndarray,
    ):
        self._source, self._order = source, order
        self._nearest, self._mindists = nearest, mindists
        self._seconds = source.table[4] * (source.service_ms / 1000.0)
        #: The clock's last reading, and the instant the device finishes
        #: every page it was given.
        self._now = self._free = source.clock()
        self._next = 0
        #: Pages in service or served, not yet gathered, and when each
        #: one's service ends.
        self._pages: List[int] = []
        self._dues: List[float] = []
        #: Blocks of every page served.
        self.blocks = 0

    def step(self, bounds: np.ndarray, reach: float) -> Optional[np.ndarray]:
        """Decide every page whose service begins by the clock's last
        reading, against ``bounds`` (``reach`` their largest); then sleep
        until the first page in service is due and return every page
        whose service has ended, in order (maybe none).  None when
        nothing is in service and nothing is left to serve."""
        order, blocks = self._order, self._source.table[4]
        while self._free <= self._now and self._next < len(order):
            if self._nearest[self._next] > reach:
                self._next = len(order)
                break
            page = int(order[self._next])
            self._next += 1
            if len(bounds) > 1 and not (self._mindists[:, page] <= bounds).any():
                continue
            self._free += self._seconds[page]
            self._pages.append(page)
            self._dues.append(self._free)
            self.blocks += int(blocks[page])
        if not self._pages:
            return None
        if self._dues[0] > self._now:
            self._now = self._source.sleep_until(self._dues[0])
        ended = bisect.bisect_right(self._dues, self._now)
        pages = np.array(self._pages[:ended], dtype=np.intp)
        del self._pages[:ended], self._dues[:ended]
        return pages


def _scan(
    source: _DiskPages,
    queries: np.ndarray,
    k: int,
    view: np.ndarray,
    lock: Any,
) -> Tuple[_Candidates, np.ndarray, Tuple[int, int, float]]:
    """One post on one disk's worker: a page-major frontier scan.

    Row ``j`` of ``view`` is query ``j``'s shared top-k, k wide (for a
    k beyond the store's points it may be narrower: no list then fills,
    nothing is published and the bound stays infinite).  Pages come in
    ascending minimum ``mindist`` over the queries (for one query,
    best-first order) in chunks, each against the bounds ``min(local
    k-th key, shared bound)`` read before it; a page no query owes
    within them is skipped (nobody owes it later either: bounds only
    tighten).  Where a page read owes service time the chunks come from
    the disk's :class:`_Device`: each step gathers every page whose
    service has ended, and sleeps only until the next is due.  Where it
    owes none (``source.free``) a page past ``B*`` costs only its filter
    rows, so a chunk is the next :data:`_MAX_CHUNK_PAGES` pages within
    the largest bound and the scan ends at the first chunk the bounds cut
    short.  Which pages are read never changes what is found within
    ``B*``.  A chunk is gathered once and filtered for every query
    (:class:`_Filter`); survivors are refined with ``point_keys``
    (``einsum`` rows are bit-identical whatever rows they are scored
    with) and folded into the local top-k lists with one ``lexsort``;
    the keys a fold adds to a list are published to its shared row.

    Returns the post's local top-k lists as one block of rows
    (:data:`_Candidates`), its ledger — a ``(Q, P)`` block, the
    ``mindist`` of each page a query owes within its final ``min(local,
    shared)`` and NaN elsewhere, from one comparison — and its tally:
    the blocks of the ledger's pages, the number of pages gathered and
    the device's milliseconds (blocks served x service ms; 0 if free).
    """
    lows, highs = source.table[:2]
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
    owner = rank = np.empty(0, dtype=np.intp)
    found = np.empty((0, 2 + queries.shape[1]))
    gathered, start = 0, 0
    wide = view.shape[1] == k
    device = None if source.free else _Device(source, order, nearest, mindists)
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            with lock:
                bounds = np.minimum(kth, view[:, -1])
            reach = bounds[0] if count == 1 else bounds.max()
            if device is not None:
                pages = device.step(bounds, reach)
                if pages is None:
                    break
                cut = False
            else:
                chunk = nearest[start : start + _MAX_CHUNK_PAGES]
                take = int(chunk.searchsorted(reach, "right"))
                if not take:
                    break
                pages = order[start : start + take]
                start += take
                if count > 1:
                    pages = pages[(mindists[:, pages] <= bounds[:, None]).any(0)]
                cut = take < len(chunk)
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
                old = len(found)
                fresh = (fresh[:, None], fresh_oids.view(np.float64)[:, None])
                fresh = np.concatenate((*fresh, fresh_points), 1)
                found = np.concatenate((found, fresh))
                keys, oids = found[:, 0], found[:, 1].view(np.int64)
                # Publish the keys each fold adds to a list, whether or
                # not the list is full: each key enters its shared row
                # once, so the row's k-th key stays >= B*, and a disk
                # whose list stays short (its keys all beat the shared
                # bound) still tightens the row.  A row narrower than k
                # (k beyond the store's points) takes none.  A post of one
                # skips the owner bookkeeping (30-50 % of a per-call query).
                if count == 1:
                    best = np.lexsort((oids, keys))[:k]
                    found = found[best]
                    keys = found[:, 0]
                    new = keys[best >= old]
                    if len(new) and wide:
                        with lock:
                            view[0] = np.sort(np.concatenate((view[0], new)))[:k]
                    if len(keys) == k:
                        kth, short = keys[-1:], short[:0]
                else:
                    owner = np.concatenate((owner, which))
                    best = np.lexsort((oids, keys, owner))
                    ranked = owner[best]
                    rank = np.arange(len(best)) - np.searchsorted(ranked, ranked)
                    kept = rank < k
                    best, rank = best[kept], rank[kept]
                    found, owner = found[best], owner[best]
                    keys = found[:, 0]
                    new = (best >= old) & wide
                    lists = np.unique(owner[new])
                    if len(lists):
                        published = np.full((count, k), np.inf)
                        published[owner[new], rank[new]] = keys[new]
                        with lock:
                            merged = np.concatenate((view[lists], published[lists]), 1)
                            view[lists] = np.sort(merged)[:, :k]
                    counts = np.bincount(owner, minlength=count)
                    kth = np.where(
                        counts == k, keys[np.cumsum(counts) - 1], np.inf
                    )
                    short = np.flatnonzero(kth == np.inf)
            if cut:
                break
    with lock:
        bounds = np.minimum(kth, view[:, -1])
    if count == 1:
        owner, rank = np.zeros(len(found), dtype=np.intp), np.arange(len(found))
    owed = mindists <= bounds[:, None]
    ledger = np.where(owed, mindists, np.nan)
    spent = int(source.table[4] @ owed.sum(0))
    served = device.blocks * source.service_ms if device else 0.0
    return (found, owner, rank), ledger, (spent, gathered, served)


class _Ring:
    """The shared-memory query ring of ``store``'s workers, ``capacity``
    k wide: every cell coordinator and workers exchange, the lock each
    method holds while it touches one (the coordinator's wait at most
    :data:`_LIVENESS_SLICE_S` for it) and the semaphores (``go[disk]``
    wakes a worker, ``done`` takes a deposit).  ``ctx`` allocates them:
    a ``multiprocessing`` context, or anything with its ``Array``,
    ``Lock`` and ``Semaphore``.  A worker's (unpickled) copy rebuilds the
    float64 views:

    * ``header`` ``[serial, k, queries]`` and ``queries`` ``(_MAX_BATCH,
      d)``: the board of the current post (``k == 0`` stops a worker);
    * ``bounds`` ``(_MAX_BATCH, capacity)``: per query its shared top-k;
    * per (query, disk) cell: ``arena`` ``(capacity, 2 + d)`` candidate
      rows (key, oid bits, point; a NaN key is an empty row) and
      ``ledgers`` ``(pages,)``: the query's ledger, one ``mindist`` per
      page of the disk (NaN: not owed; 0 past the disk's pages);
    * per disk: ``tallies`` ``[serial echo, ledger blocks, pages
      gathered, device ms, ms slept]`` of the post.

    ``weights`` ``(disks, pages, 2)``, every page's blocks and entries,
    is the coordinator's own (not shared).
    """

    #: What a worker's copy rebuilds (the views) or does without.
    _LOCAL = ("header", "queries", "bounds", "arena", "tallies", "ledgers", "weights")

    def __init__(self, ctx: Any, store: Any, capacity: int):
        disks, d = store.num_disks, store.dimension
        cells, pages = _MAX_BATCH * disks, int(store.disk_loads().max())
        self.capacity, self._shape = capacity, (disks, d, pages)
        self._board = ctx.Array("d", _SLOT_HEADER + _MAX_BATCH * d, lock=False)
        self._bounds = ctx.Array("d", _MAX_BATCH * capacity, lock=False)
        self._arena = ctx.Array("d", cells * capacity * (2 + d), lock=False)
        self._tallies = ctx.Array("d", disks * _TALLY, lock=False)
        self._ledgers = ctx.Array("d", cells * pages, lock=False)
        self.lock, self.done = ctx.Lock(), ctx.Semaphore(0)
        self.go = [ctx.Semaphore(0) for _ in range(disks)]
        self.weights = np.zeros((disks, pages, 2))
        for disk, weights in enumerate(self.weights):
            _, _, _, entries, blocks = store.disk_table(disk)
            weights[: len(blocks)] = np.column_stack((blocks, entries))
        self._view()

    def _view(self) -> None:
        (disks, d, pages), wide = self._shape, self.capacity
        cells = (_MAX_BATCH, disks)
        self.header = np.frombuffer(self._board, count=_SLOT_HEADER)
        self.queries = np.frombuffer(
            self._board, offset=8 * _SLOT_HEADER
        ).reshape(_MAX_BATCH, d)
        self.bounds = np.frombuffer(self._bounds).reshape(_MAX_BATCH, wide)
        self.arena = np.frombuffer(self._arena).reshape(*cells, wide, 2 + d)
        self.tallies = np.frombuffer(self._tallies).reshape(disks, _TALLY)
        self.ledgers = np.frombuffer(self._ledgers).reshape(*cells, pages)

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in vars(self).items() if k not in self._LOCAL}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        vars(self).update(state)
        self._view()

    def post(self, serial: int, queries: np.ndarray, k: int) -> bool:
        """Put a post on the board, reset its bound rows and wake every
        worker; ``k = 0`` with no queries is the stop message.  False,
        posting nothing, when the lock stays taken."""
        with _lock_within(self.lock, _LIVENESS_SLICE_S) as held:
            if held:
                self.bounds[: len(queries)] = np.inf
                self.header[:] = serial, k, len(queries)
                self.queries[: len(queries)] = queries
        if held:
            for go in self.go:
                go.release()
        return held

    def read(self) -> Tuple[int, int, np.ndarray, np.ndarray]:
        """A worker's view of the post: serial, k, a copy of the queries
        and their bound rows (at most k wide)."""
        with self.lock:
            serial, k, count = (int(x) for x in self.header)
            queries = self.queries[:count].copy()
            return serial, k, queries, self.bounds[:count, :k]

    def deposit(
        self, disk: int, serial: int, found: _Candidates,
        ledger: np.ndarray, tally: Tuple[int, int, float, float],
    ) -> None:
        """Write one disk's answer to a post."""
        with self.lock:
            rows, owner, rank = found
            count, pages = ledger.shape
            self.arena[:count, disk, :, 0] = np.nan
            self.arena[owner, disk, rank] = rows
            self.ledgers[:count, disk, :pages] = ledger
            self.tallies[disk] = serial, *tally

    def reduce(
        self, serial: int, count: int, k: int
    ) -> Tuple[_Post, List[List[float]]]:
        """Post ``serial``'s answers, read in place (every tally must echo
        ``serial``): the top-k of every query (:data:`_Post`) from one
        ``lexsort`` of its ``disks x k`` cells (an empty row's NaN key
        sorts after every key); its ``B*``, the k-th key; charged pages
        per disk and distance computations, the ledgers cut at ``B*``
        (:func:`_charge`); and the tallies."""
        with _lock_within(self.lock, _LIVENESS_SLICE_S) as held:
            if not held:
                raise RuntimeError(_STUCK_LOCK)
            tallies = self.tallies.tolist()
            for disk, (echo, *_) in enumerate(tallies):
                if echo != serial:
                    raise RuntimeError(
                        f"ring out of step: disk {disk} answered post "
                        f"{int(echo)} in place of post {serial}"
                    )
            cells = self.arena[:count, :, : min(k, self.capacity)]
            cells = cells.reshape(count, -1, cells.shape[-1])
            oids = cells[..., 1].view(np.int64)
            best = np.lexsort((oids, cells[..., 0]))[:, :k]
            top = cells[np.arange(count)[:, None], best]
            # B*, the k-th key; fmin turns NaN (short of k keys) to +inf.
            kth = top[:, k - 1, 0] if top.shape[1] == k else np.full(count, np.nan)
            bound = np.fmin(kth, np.inf)
            counts, computations = _charge(
                self.ledgers[:count], self.weights, bound
            )
        return (top, counts, computations), tallies


def _worker_main(
    directory: str, disk: int, simulated_disk_ms: float, ring: _Ring
) -> None:
    """Worker process entry point (module level, so that it pickles):
    open the store (only this disk's page file, no tree), then per post
    wait on ``go[disk]``, read, scan, deposit (with the time the store
    measured asleep for the post), release ``done``; ``k == 0`` stops,
    and so does the coordinator's death (its sentinel, not ``getppid``:
    a worker's parent is the fork server)."""
    from repro.storage.mmap_store import MmapStore

    parent = multiprocessing.parent_process()
    if hasattr(os, "sched_setaffinity"):
        # A forked worker starts on the fork server's CPU, and two
        # workers that start on one CPU may stay there: worker d moves to
        # the (d mod n)-th allowed CPU, then may run on any again.
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, [allowed[disk % len(allowed)]])
        os.sched_setaffinity(0, allowed)
    # One freed large block raises glibc's mmap and trim thresholds for
    # good, so the scan's gathers and temporaries come from a warm heap
    # (worker minor faults per query without it: 397 vs 56 on 1024
    # pages of d = 16, 1 099 vs 158 on 4096).
    np.empty(1 << 24, dtype=np.uint8)
    # Outside every virtual-time path, the store's clock is the wall
    # clock: it paces the device and times the sleeps.
    store = MmapStore(
        directory, simulated_disk_ms=simulated_disk_ms, timer=time.perf_counter
    )
    try:
        source = _DiskPages(store, disk)
        while True:
            while not ring.go[disk].acquire(timeout=_LIVENESS_SLICE_S):
                if parent is not None and not parent.is_alive():
                    return
            serial, k, queries, view = ring.read()
            if k == 0:
                return
            asleep = store.slept_ms
            found, ledger, tally = _scan(source, queries, k, view, ring.lock)
            tally += (store.slept_ms - asleep,)
            ring.deposit(disk, serial, found, ledger, tally)
            ring.done.release()
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

    Workers start lazily on the first query and persist until
    :meth:`close`; the engine is a context manager, and takes any k (a
    new largest k respawns the workers once, on a wider ring).  Every
    query is fanned out to every disk in parallel — the paper's
    execution model — and a batch's queries share each disk's scan.
    """

    def __init__(
        self,
        store: Any,
        parameters: Optional[DiskParameters] = None,
        tracer: Optional[Tracer] = None,
    ):
        if getattr(store, "read_page", None) is None or not hasattr(
            store, "directory"
        ):
            raise TypeError(
                "ProcessParallelEngine requires an out-of-core store "
                "(repro.storage.MmapStore); build one with "
                "save_paged_store or bulk_load_mmap"
            )
        self.store = store
        self.parameters = parameters or DiskParameters(
            page_bytes=store.page_bytes
        )
        self.cache = None
        self.tracer = tracer
        self._ctx = multiprocessing.get_context(_START_METHOD)
        self._procs: List[Any] = []
        #: The ring (:class:`_Ring`); ``None`` while no workers run.
        self._ring: Optional[_Ring] = None
        #: Posts made / collected since the workers started (a post's
        #: serial is its 1-based number).
        self._posted = self._collected = 0
        #: Diagnostics of the last call: pages the workers' ledgers held,
        #: summed over its queries (>= the charged pages, varying run to
        #: run), pages they gathered (each at most once per post) and,
        #: per disk, its device's milliseconds (blocks served x service
        #: ms) and the milliseconds its worker slept (``time.sleep``
        #: overshoot included; below the device's, as the worker filters
        #: while its disk works).  Both 0 with no service time.
        self.last_speculative_pages = 0
        self.last_gathered_pages = 0
        self.last_device_ms = np.zeros(store.num_disks)
        self.last_slept_ms = np.zeros(store.num_disks)

    # --------------------------------------------------------- lifecycle

    def _ensure_workers(self, capacity: int) -> _Ring:
        """The workers' ring, at least ``capacity`` k wide: (re)started
        on a fresh ring when there is none or it is narrower.  The first
        start in a process starts the fork server."""
        if self._ring is not None and self._ring.capacity >= capacity:
            return self._ring
        self._stop()
        store = self.store
        # A bad page file raises its PageFormatError here, before a
        # worker could die of it where only its stderr would say why.
        store.check_page_files()
        ring = self._ring = _Ring(self._ctx, store, capacity)
        directory = os.fspath(store.directory)
        self._ctx.set_forkserver_preload(_PRELOAD)
        _RUNNING.add(self)
        try:
            with _server_environment():
                for disk in range(store.num_disks):
                    proc = self._ctx.Process(
                        target=_worker_main,
                        args=(directory, disk, store.simulated_disk_ms, ring),
                        daemon=True,
                    )
                    proc.start()
                    self._procs.append(proc)
        except (OSError, RuntimeError, ValueError):
            # A worker failed to start: stop those that did.
            self._stop()
            raise
        return ring

    def _stop(self) -> None:
        """Stop the workers and drop the ring: :meth:`close` and every
        internal reset (a wider ring, a post left without its collect, a
        failed start).  Workers the stop message (``k = 0``) cannot reach
        — a dead process holds the ring's lock — are terminated."""
        _RUNNING.discard(self)
        ring, self._ring = self._ring, None
        stop = np.empty((0, self.store.dimension))
        posted = bool(ring and self._procs and ring.post(0, stop, 0))
        for proc in self._procs:
            proc.join(timeout=10.0 if posted else 0.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        self._posted = self._collected = 0

    def close(self) -> None:
        """Stop the worker processes (idempotent)."""
        self._stop()

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

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

    def _answers(
        self, tracer: Tracer, k: int, top: np.ndarray,
        counts: np.ndarray, computations: np.ndarray,
    ) -> List[ParallelQueryResult]:
        """A reduced post's results (:data:`_Post`): distances from one
        ``np.sqrt`` (bit-identical to ``math.sqrt``), parallel times from
        one max over the counts, points rows of ``top`` (the post's own
        copy).  A tracer gets per query its ``query_start``, a
        ``page_read`` per charged disk and ``query_end``."""
        service = self.parameters.page_service_time_ms
        distances = np.sqrt(top[..., 0]).tolist()
        oids = top[..., 1].view(np.int64).tolist()
        points, spent = top[..., 2:], computations.tolist()
        results = []
        for query, (near, pages) in enumerate(zip(distances, counts.tolist())):
            size = len(near)
            while size and math.isnan(near[size - 1]):  # an empty row
                size -= 1
            neighbors = list(map(Neighbor, near[:size], oids[query], points[query]))
            # Rounding is monotone: max(c) * s is max(c * s) bit for bit.
            time_ms = max(pages) * service
            if tracer.enabled:
                span = tracer.begin_query(
                    "process", k=k, num_disks=len(pages), service_ms=service
                )
                for disk, charged in enumerate(pages):
                    if charged:
                        tracer.page_read(span, disk, charged)
                tracer.end_query(
                    span, time_ms=time_ms, distance_computations=spent[query]
                )
            results.append(ParallelQueryResult(
                neighbors=neighbors, pages_per_disk=counts[query],
                parallel_time_ms=time_ms,
                distance_computations=spent[query], cache_stats=None,
            ))
        return results

    def _collect(
        self, ring: _Ring, count: int, k: int, tracer: Tracer
    ) -> Tuple[List[ParallelQueryResult], List[List[float]]]:
        """The last post's :meth:`_Ring.reduce`, as results.  Waits on
        ``done`` once per disk, in slices: a worker that died (even idle)
        raises within about :data:`_LIVENESS_SLICE_S`, a hung one after
        :data:`_REPLY_TIMEOUT_S`."""
        slices = math.ceil(_REPLY_TIMEOUT_S / _LIVENESS_SLICE_S)
        for _ in self._procs:
            while not ring.done.acquire(timeout=_LIVENESS_SLICE_S):
                slices -= 1
                if slices <= 0 or not all(p.is_alive() for p in self._procs):
                    raise RuntimeError(
                        "a disk worker did not reply; the worker process "
                        "likely died (see stderr)"
                    )
        post, tallies = ring.reduce(self._collected + 1, count, k)
        self._collected += 1
        return self._answers(tracer, k, *post), tallies

    def _run(self, queries: np.ndarray, k: int) -> List[ParallelQueryResult]:
        """Answer ``queries`` in order through the ring, one post per
        :data:`_MAX_BATCH` of them (per-page order inside a worker is
        not deterministic and is not traced)."""
        store = self.store
        if queries.shape[1:] != (store.dimension,):
            raise ValueError(
                f"query shape {queries.shape[1:]} does not match the "
                f"store's dimension {store.dimension}"
            )
        if not np.isfinite(queries).all():
            raise ValueError("query coordinates must be finite")
        tracer = current_tracer(self.tracer)
        if not len(store):
            counts = np.zeros((len(queries), store.num_disks), dtype=np.int64)
            top = np.empty((len(queries), 0, 2 + store.dimension))
            return self._answers(tracer, k, top, counts, counts[:, 0])
        ring = self._ensure_workers(min(k, len(store)))
        results: List[ParallelQueryResult] = []
        speculative = gathered = 0
        device = [0.0] * store.num_disks
        slept = [0.0] * store.num_disks
        try:
            for first in range(0, len(queries), _MAX_BATCH):
                post = queries[first : first + _MAX_BATCH]
                self._posted += 1
                if not ring.post(self._posted, post, k):
                    raise RuntimeError(_STUCK_LOCK)
                answers, tallies = self._collect(ring, len(post), k, tracer)
                results += answers
                _, owed, fetched, served, asleep = zip(*tallies)
                speculative, gathered = speculative + sum(owed), gathered + sum(fetched)
                device = [a + b for a, b in zip(device, served)]
                slept = [a + b for a, b in zip(slept, asleep)]
        finally:
            if self._posted != self._collected:
                # A post without its collect would leave the ring out
                # of step: reset it (workers respawn lazily).
                self._stop()
        self.last_speculative_pages = int(speculative)
        self.last_gathered_pages = int(gathered)
        self.last_device_ms = np.array(device)
        self.last_slept_ms = np.array(slept)
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
            f"workers={state})"
        )
