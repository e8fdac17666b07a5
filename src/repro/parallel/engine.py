"""Parallel nearest-neighbor query engine over a declustered store.

Reproduces the paper's measurement model: a kNN query is executed against
the per-disk X-trees, every page access is attributed to its disk, and the
query's elapsed time is the service time of the **busiest** disk ("we
determined the disk which accesses most pages during query processing [and]
used the search time of this disk as the search time of the whole parallel
X-tree").

Every in-process engine — :class:`ParallelEngine`,
:class:`SequentialEngine` and
:class:`~repro.parallel.paged.PagedEngine` — is a constructor over the
one best-first search, :func:`repro.index.knn.best_first`: it names the
roots to search and inherits the rest from a shared shell — argument
validation, the trace span, the ``on_node`` hook with its **single
charge site** (buffer pool → ``cache_hit`` | ``cache_miss`` →
:meth:`DiskArray.charge` → ``page_read``), ``query_batch`` and
``reset_cache``.

:class:`ParallelEngine` has two execution modes:

* ``"coordinated"`` (default) — one best-first search over the forest of
  per-disk trees with a shared pruning bound: every disk reads exactly
  the pages whose MBR intersects the global kNN sphere.  This models the
  paper's parallel X-tree, where the coordinating workstation tightens
  the candidate bound across all disks as results stream in.
* ``"independent"`` — one search per disk over its local tree with only
  local pruning, and the coordinator merges the per-disk candidate
  lists.  One round-trip, but more pages read; kept as an ablation of
  the coordination benefit.

:class:`SequentialEngine` provides the single-disk baseline used for
speed-up numbers.

The engines accept a ``cache`` page count: hot pages are then served from
a :class:`~repro.parallel.cache.BufferPool` of that many pages — which
persists across queries — and only misses are charged to the disks.  With
no cache (or capacity 0) the cold page counts of the paper's measurement
are reproduced exactly.

They are instrumented for :mod:`repro.obs`: pass a ``tracer`` (or wrap
the run in :func:`repro.obs.observe`) to receive ``query_start`` /
``node_visit`` / ``page_read`` / ``cache_hit`` / ``cache_miss`` /
``prune`` / ``query_end`` events whose per-disk ``page_read`` totals
equal the returned ``pages_per_disk`` counters bit-for-bit.  The default
:data:`~repro.obs.tracer.NULL_TRACER` emits nothing and leaves every
counter untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.index.knn import Neighbor, SearchStats, _CandidateSet, best_first
from repro.index.node import DEFAULT_PAGE_BYTES, Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.index.bulk import bulk_load
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.cache import BufferPool, CacheStats, merge_cache_stats
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.store import DeclusteredStore

__all__ = [
    "BatchQueryResult",
    "ParallelQueryResult",
    "ParallelEngine",
    "SequentialQueryResult",
    "SequentialEngine",
]


@dataclass
class ParallelQueryResult:
    """Outcome of one parallel kNN query.

    ``pages_per_disk`` counts disk reads — with a buffer pool attached,
    cache hits are excluded and ``cache_stats`` carries the per-query
    hit/miss counters (None when the engine has no cache).
    """

    neighbors: List[Neighbor]
    pages_per_disk: np.ndarray
    parallel_time_ms: float
    distance_computations: int = 0
    cache_stats: Optional[CacheStats] = None

    @property
    def max_pages(self) -> int:
        """Pages read by the busiest disk (the paper's cost metric)."""
        return int(self.pages_per_disk.max())

    @property
    def total_pages(self) -> int:
        """Pages read across all disks."""
        return int(self.pages_per_disk.sum())


@dataclass
class SequentialQueryResult:
    """Outcome of one single-disk kNN query.

    Exposes the same ``pages_per_disk`` / ``max_pages`` / ``total_pages``
    surface as :class:`ParallelQueryResult` (a single-disk engine is a
    one-element disk array), so batch aggregation and reporting code can
    treat every engine uniformly.
    """

    neighbors: List[Neighbor]
    stats: SearchStats
    time_ms: float
    pages: int = 0
    cache_stats: Optional[CacheStats] = None

    @property
    def pages_per_disk(self) -> np.ndarray:
        """The single disk's page count as a one-element array."""
        return np.array([self.pages], dtype=np.int64)

    @property
    def max_pages(self) -> int:
        """Pages read by the busiest (only) disk."""
        return self.pages

    @property
    def total_pages(self) -> int:
        """Pages read in total."""
        return self.pages


class BatchQueryResult:
    """Aggregated outcome of one ``query_batch`` call.

    Behaves as a sequence of the per-query results (``len``, iteration,
    indexing — existing per-query consumers keep working) while exposing
    batch-level aggregates uniformly across :class:`ParallelEngine`,
    :class:`SequentialEngine`, and
    :class:`~repro.parallel.paged.PagedEngine`:

    * ``pages_per_disk`` — per-disk reads summed over the batch;
    * ``max_pages`` — the busiest disk's total over the whole batch (the
      batch's parallel cost under the paper's accounting);
    * ``total_pages`` — reads across all disks and queries;
    * ``cache_stats`` — the merged per-query deltas (``None`` when the
      engine has no buffer pool).
    """

    def __init__(self, results: Sequence, num_disks: int):
        self.results = list(results)
        pages = np.zeros(num_disks, dtype=np.int64)
        for result in self.results:
            pages += result.pages_per_disk
        self.pages_per_disk = pages
        self.cache_stats = merge_cache_stats(
            result.cache_stats for result in self.results
        )

    @property
    def max_pages(self) -> int:
        """Pages read by the busiest disk over the whole batch."""
        return int(self.pages_per_disk.max()) if self.pages_per_disk.size \
            else 0

    @property
    def total_pages(self) -> int:
        """Pages read across all disks and queries."""
        return int(self.pages_per_disk.sum())

    @property
    def neighbors(self) -> List[List[Neighbor]]:
        """Per-query neighbor lists, in input order."""
        return [result.neighbors for result in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchQueryResult(queries={len(self.results)}, "
            f"total_pages={self.total_pages}, max_pages={self.max_pages})"
        )


#: ``on_node`` / ``on_prune`` as :func:`repro.index.knn.best_first`
#: takes them.
NodeHook = Callable[[int, Node], None]
PruneHook = Callable[[int, int], None]


class _BestFirstEngine:
    """The shell the in-process engines share (see the module docstring).

    A subclass names its span and says which roots to search
    (:meth:`_roots`).
    """

    _span_name: str
    #: One index on one disk (:class:`SequentialEngine`): the baseline
    #: traces no ``prune`` events, and an unwatched query is charged
    #: from its ``SearchStats``, not node by node.
    _single_disk = False
    #: Disk of a data page, for a store that spreads the leaves of one
    #: tree over the disks; ``None``: a node lives on its root's tag.
    _disk_of: Optional[Callable[[Node], int]] = None
    #: Out-of-core page source handed to the search as ``payload``.
    _read_page: Optional[
        Callable[[Node], Tuple[np.ndarray, np.ndarray]]
    ] = None
    #: Each engine's public single-query entry point
    #: (:class:`ParallelEngine`'s also takes ``mode``).
    query: Callable[..., Any]

    def __init__(
        self,
        num_disks: int,
        dimension: int,
        page_bytes: int,
        parameters: Optional[DiskParameters],
        cache: Optional[int],
        tracer: Optional[Tracer],
    ):
        self.num_disks = num_disks
        self.dimension = dimension
        self.parameters = parameters or DiskParameters(page_bytes=page_bytes)
        # Capacity 0 still builds a pool: it counts misses, never hits.
        self.cache = None if cache is None else BufferPool(num_disks, cache)
        self.tracer = tracer

    def reset_cache(self) -> None:
        """Drop every cached page (next query runs cold)."""
        if self.cache is not None:
            self.cache.reset()

    def query_batch(
        self, queries: np.ndarray, k: int = 1, **options: Any
    ) -> BatchQueryResult:
        """Run a batch of kNN queries sharing this engine's buffer pool.

        The query matrix is converted to float64 once up front (each
        query is then a zero-copy row view), and the buffer pool — when
        one is attached — stays warm across the batch, so later queries
        hit the pages earlier ones pulled in.  ``options`` are forwarded
        to :meth:`query` (``mode`` on :class:`ParallelEngine`).  The
        returned aggregate iterates as one per-query result in input
        order, each identical to an individual :meth:`query` call, and
        exposes the batch-level ``max_pages`` / ``total_pages`` / merged
        ``cache_stats``.
        """
        queries = np.asarray(queries, dtype=float)
        if queries.size == 0:
            return BatchQueryResult([], self.num_disks)
        return BatchQueryResult(
            [self.query(query, k, **options)
             for query in np.atleast_2d(queries)],
            self.num_disks,
        )

    def _roots(self) -> List[Tuple[int, Node]]:
        """The non-empty trees to search, each root tagged with its disk
        (``-1``: the leaves carry their own, see ``_disk_of``)."""
        raise NotImplementedError

    def _search(
        self,
        query: np.ndarray,
        k: int,
        on_node: Optional[NodeHook],
        on_prune: Optional[PruneHook],
    ) -> Tuple[List[Neighbor], SearchStats]:
        """One search over all the roots: a shared bound."""
        return best_first(
            self._roots(), query, k, on_node=on_node, on_prune=on_prune,
            payload=self._read_page,
        )

    def _run(
        self,
        query: Sequence[float],
        k: int,
        mode: Optional[str] = None,
        search: Optional[Callable[..., Any]] = None,
    ) -> Tuple[List[Neighbor], SearchStats, DiskArray, Optional[CacheStats]]:
        """One query through the shell: validate, open the span, search
        (:meth:`_search` unless told otherwise) with the charging hooks,
        close the span; the caller assembles its result type.

        Arguments are refused before the span opens, so a rejected
        query emits nothing and leaves pool and counters untouched.
        """
        query = np.asarray(query, dtype=float)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if query.shape != (self.dimension,):
            raise ValueError(
                f"query shape {query.shape} does not match the "
                f"engine's dimension {self.dimension}"
            )
        if not np.isfinite(query).all():
            raise ValueError("query coordinates must be finite")
        tracer = current_tracer(self.tracer)
        traced = tracer.enabled
        span = -1
        if traced:
            span = tracer.begin_query(
                self._span_name, k=k, num_disks=self.num_disks, mode=mode,
                service_ms=self.parameters.page_service_time_ms,
            )
        disks = DiskArray(self.num_disks, self.parameters)
        cache = self.cache
        cache_before = cache.stats() if cache else None
        disk_of = self._disk_of

        def on_node(tag: int, node: Node) -> None:
            # The one place a kNN query pays for a page: served from the
            # pool, or charged to its disk.
            leaf = node.is_leaf
            disk = disk_of(node) if leaf and disk_of is not None else tag
            if traced:
                tracer.node_visit(span, disk, leaf=leaf)
            if not leaf:
                return
            pages = node.blocks
            if cache is not None:
                if cache.access(disk, id(node), pages):
                    if traced:
                        tracer.cache_hit(span, disk, pages)
                    return
                if traced:
                    tracer.cache_miss(span, disk, pages)
            disks.charge(disk, pages)
            if traced:
                tracer.page_read(span, disk, pages)

        def on_prune(tag: int, count: int) -> None:
            if traced:
                tracer.prune(span, tag, count)

        search = search or self._search
        # One disk and nobody watching the visits (no pool, no tracer):
        # ``SearchStats`` already holds the charge, and skipping the hook
        # saves ~0.7 us a node, 7-9 % of a query.  (A leaf counts as one
        # page there, which holds for every tree the builders produce:
        # X-tree data nodes always split.)
        watched = not self._single_disk or cache is not None or traced
        neighbors, stats = search(
            query, k, on_node if watched else None,
            on_prune if traced and not self._single_disk else None,
        )
        if not watched:
            disks.charge(0, stats.leaf_accesses)
        if traced:
            tracer.end_query(
                span, time_ms=disks.parallel_time_ms,
                distance_computations=stats.distance_computations,
            )
        return (
            neighbors, stats, disks,
            cache.delta_since(cache_before) if cache else None,
        )

    @staticmethod
    def _parallel_result(
        neighbors: List[Neighbor],
        stats: SearchStats,
        disks: DiskArray,
        cache_stats: Optional[CacheStats],
    ) -> ParallelQueryResult:
        """:meth:`_run`'s outcome as a :class:`ParallelQueryResult`."""
        return ParallelQueryResult(
            neighbors=neighbors,
            pages_per_disk=disks.pages_per_disk,
            parallel_time_ms=disks.parallel_time_ms,
            distance_computations=stats.distance_computations,
            cache_stats=cache_stats,
        )


class ParallelEngine(_BestFirstEngine):
    """kNN execution over a :class:`DeclusteredStore`.

    Only data (leaf) pages are charged to the disks, modeling the paper's
    setting where each workstation caches the small directory in main
    memory.

    ``cache`` attaches a buffer pool of that many pages (see
    :mod:`repro.parallel.cache`) that persists across queries on this
    engine; use :meth:`reset_cache` to cold-start it.

    ``tracer`` attaches an observability tracer (see :mod:`repro.obs`);
    when omitted, the ambient :func:`repro.obs.observe` tracer — if any —
    is used, and otherwise the zero-overhead null tracer.
    """

    _span_name = "parallel"

    def __init__(
        self,
        store: DeclusteredStore,
        parameters: Optional[DiskParameters] = None,
        cache: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(
            store.num_disks, store.dimension, store.page_bytes,
            parameters, cache, tracer,
        )
        self.store = store

    def query(
        self, query: Sequence[float], k: int = 1, mode: str = "coordinated"
    ) -> ParallelQueryResult:
        """Run one kNN query in the given execution mode.

        Under an enabled tracer this emits a full query span
        (``query_start`` ... ``query_end``) with per-disk ``page_read``
        events matching the returned ``pages_per_disk`` exactly; the
        coordinated search also emits ``prune`` when the shared bound
        cuts the queue or skips a child subtree.
        """
        if mode not in ("coordinated", "independent"):
            raise ValueError(
                f"mode must be 'coordinated' or 'independent', got {mode!r}"
            )
        return self._parallel_result(*self._run(
            query, k, mode,
            self._independent if mode == "independent" else None,
        ))

    def _roots(self) -> List[Tuple[int, Node]]:
        return [
            (disk, tree.root)
            for disk, tree in enumerate(self.store.trees)
            if tree.size
        ]

    def _independent(
        self,
        query: np.ndarray,
        k: int,
        on_node: Optional[NodeHook],
        on_prune: Optional[PruneHook],
    ) -> Tuple[List[Neighbor], SearchStats]:
        """One search per disk (local bounds, no ``prune`` events); the
        coordinator merges the per-disk answers."""
        merged = _CandidateSet(k)
        total = SearchStats()
        for root in self._roots():
            neighbors, stats = best_first([root], query, k, on_node=on_node)
            total.merge(stats)
            for neighbor in neighbors:
                merged.offer(
                    neighbor.distance**2, neighbor.oid, neighbor.point
                )
        return merged.neighbors(), total


class SequentialEngine(_BestFirstEngine):
    """Single-disk baseline: one index over the whole data set.

    Charges data (leaf) pages only, matching :class:`ParallelEngine`'s
    accounting.
    """

    _span_name = "sequential"
    _single_disk = True

    def __init__(
        self,
        points: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        tree_cls: Type[RStarTree] = XTree,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        parameters: Optional[DiskParameters] = None,
        tree: Optional[RStarTree] = None,
        cache: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        if tree is not None:
            self.tree = tree
        else:
            self.tree = bulk_load(
                points, oids=oids, tree_cls=tree_cls, page_bytes=page_bytes
            )
        super().__init__(
            1, self.tree.dimension, page_bytes, parameters, cache, tracer,
        )

    def query(self, query: Sequence[float], k: int = 1) -> SequentialQueryResult:
        """Run one kNN query against the single-disk index.

        Under an enabled tracer this emits a ``query_start`` ...
        ``query_end`` span whose ``page_read`` events (all on disk 0)
        total exactly ``result.pages``; cache lookups additionally emit
        ``cache_hit``/``cache_miss``.
        """
        neighbors, stats, disks, cache_stats = self._run(query, k)
        return SequentialQueryResult(
            neighbors, stats, disks.parallel_time_ms, disks.max_pages,
            cache_stats,
        )

    def _roots(self) -> List[Tuple[int, Node]]:
        return [(0, self.tree.root)] if self.tree.size else []
