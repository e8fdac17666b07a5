"""Page-level declustering: one global X-tree, data pages spread over disks.

This is the paper's bucket-to-disk model made concrete: the directory of a
single X-tree is shared (each workstation caches it in RAM — it is a small
fraction of the data pages), while every **data page** (leaf) is stored on
the disk that the declustering method assigns to the page's *quadrant* —
the bucket containing the page's MBR center.

Round robin has no notion of buckets; at page level it is modeled as
assigning pages to disks in arrival (creation) order, which for dynamically
grown indexes is uncorrelated with space.  :func:`arrival_order_assignment`
implements that; :func:`striped_assignment` (pages striped in spatial STR
order) is kept as an ablation of how much arrival order costs.

A kNN query runs one best-first (HS 95) traversal of the shared directory
(:func:`repro.index.knn.best_first` from the single root); each visited
data page is charged to its disk; the query's elapsed time is the busiest
disk's page count times the page service time — exactly the paper's
measurement.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.declustering import BucketDeclusterer, Declusterer
from repro.index import kernels
from repro.index.bulk import bulk_load
from repro.index.mbr import MBR
from repro.index.node import DEFAULT_PAGE_BYTES, LeafEntry, Node
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskParameters
from repro.parallel.engine import (
    NodeHook,
    ParallelQueryResult,
    PruneHook,
    _BestFirstEngine,
)
from repro.parallel.window import WindowQueryResult

__all__ = [
    "PagedStore",
    "PagedEngine",
    "arrival_order_assignment",
    "striped_assignment",
]

AssignmentFunction = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def arrival_order_assignment(num_disks: int, seed: int = 0) -> AssignmentFunction:
    """Round robin over pages in arrival order.

    Page creation order in a dynamically grown index is uncorrelated with
    space, which we model by striping a random permutation of the pages.
    """

    def assign(centers: np.ndarray) -> np.ndarray:
        order = np.random.default_rng(seed).permutation(len(centers))
        disks = np.empty(len(centers), dtype=np.int64)
        disks[order] = np.arange(len(centers)) % num_disks
        return disks

    return assign


def striped_assignment(num_disks: int) -> AssignmentFunction:
    """Pages striped over disks in their (spatial) index order."""

    def assign(centers: np.ndarray) -> np.ndarray:
        return np.arange(len(centers), dtype=np.int64) % num_disks

    return assign


def _decluster_pages(
    declusterer: Union[Declusterer, Callable],
    centers: np.ndarray,
    num_disks: Optional[int],
) -> Tuple[int, np.ndarray]:
    """``(num_disks, page_disks)``: data pages mapped to disks by their
    MBR ``centers`` — a :class:`Declusterer` brings its disk count, a raw
    callable needs ``num_disks``.  The one page-to-disk assignment of
    every store."""
    if isinstance(declusterer, Declusterer):
        num_disks, assign = declusterer.num_disks, declusterer.assign
    elif num_disks is None:
        raise ValueError("num_disks is required for a callable page assignment")
    else:
        assign = declusterer
    if not len(centers):
        return num_disks, np.zeros(0, dtype=np.int64)
    page_disks = np.asarray(assign(centers), dtype=np.int64)
    if len(page_disks) != len(centers):
        raise RuntimeError("page assignment has wrong length")
    if page_disks.min() < 0 or page_disks.max() >= num_disks:
        raise RuntimeError("page assignment outside [0, num_disks)")
    return num_disks, page_disks


class PagedStore:
    """A single global index whose data pages are declustered over disks.

    Parameters
    ----------
    points:
        ``(N, d)`` data array (bulk-loaded into one X-tree), or pass a
        prebuilt ``tree``.
    declusterer:
        Any :class:`~repro.core.declustering.Declusterer` (pages are
        assigned by their MBR center, e.g. by its quadrant for bucket
        declusterers), or a raw callable mapping an ``(L, d)`` array of
        page centers to disk numbers (used for the round-robin page
        model).
    num_disks:
        Required when ``declusterer`` is a callable.
    """

    def __init__(
        self,
        points: Optional[np.ndarray] = None,
        declusterer: Union[BucketDeclusterer, Callable] = None,
        num_disks: Optional[int] = None,
        tree: Optional[RStarTree] = None,
        tree_cls: type = XTree,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        oids: Optional[Sequence[int]] = None,
    ):
        if tree is None:
            if points is None:
                raise ValueError("provide either points or a prebuilt tree")
            tree = bulk_load(
                points, oids=oids, tree_cls=tree_cls, page_bytes=page_bytes
            )
        self.tree = tree
        self.page_bytes = page_bytes
        self.declusterer = declusterer
        self._assign_pages(num_disks)

    def _assign_pages(self, num_disks: Optional[int]) -> None:
        """(Re)compute the page-to-disk map from the current leaves."""
        self.leaves: List[Node] = (
            list(self.tree.leaves()) if self.tree.size else []
        )
        centers = [leaf.mbr.center for leaf in self.leaves]
        self.num_disks, self.page_disks = _decluster_pages(
            self.declusterer, np.array(centers), num_disks
        )
        self._disk_of = {
            id(leaf): int(disk)
            for leaf, disk in zip(self.leaves, self.page_disks)
        }

    # ----------------------------------------------------------- queries

    @property
    def scheme(self) -> str:
        """Name of the declustering scheme behind the page map."""
        return getattr(self.declusterer, "name", "custom")

    def disk_of(self, leaf: Node) -> int:
        """Disk storing a data page."""
        return self._disk_of[id(leaf)]

    def disk_loads(self) -> np.ndarray:
        """Data pages stored per disk."""
        return np.bincount(self.page_disks, minlength=self.num_disks)

    def __len__(self) -> int:
        return self.tree.size

    # ----------------------------------------------------------- updates

    def insert(self, point: Sequence[float], oid: int) -> None:
        """Insert into the global tree; page map is rebuilt lazily."""
        self.tree.insert(point, oid)
        self._assign_pages(self.num_disks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PagedStore(n={self.tree.size}, pages={len(self.leaves)}, "
            f"disks={self.num_disks}, declusterer={self.scheme})"
        )


class PagedEngine(_BestFirstEngine):
    """Parallel kNN over a :class:`PagedStore` (shared directory model).

    ``cache`` attaches a buffer pool of that many pages for the data pages
    (the directory is already RAM-resident in this model).  The pool
    persists across queries, so a repeated query under a warm cache
    charges no disk reads.

    The engine also runs unchanged over an out-of-core
    :class:`~repro.storage.mmap_store.MmapStore`: stores exposing a
    ``read_page(leaf) -> (points, oids)`` hook have their leaf payloads
    fetched through it (an mmap page fault on a cold page) and scored
    via the payload kernel — results, counters, and charging are
    bit-for-bit identical to the in-memory path.
    """

    _span_name = "paged"

    def __init__(
        self,
        store: PagedStore,
        parameters: Optional[DiskParameters] = None,
        cache: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(
            store.num_disks, store.tree.dimension, store.page_bytes,
            parameters, cache, tracer,
        )
        self.store = store
        self._disk_of = store.disk_of
        self._read_page = getattr(store, "read_page", None)

    def query(self, query: Sequence[float], k: int = 1) -> ParallelQueryResult:
        """Run one kNN query over the shared directory.

        Under an enabled tracer this emits a ``query_start`` ...
        ``query_end`` span: ``node_visit`` per popped node (directory
        nodes carry ``disk=-1`` — they are RAM-resident), ``page_read``
        (plus ``cache_hit``/``cache_miss`` when a pool is attached) per
        data page, and ``prune`` when the best-first bound cuts the
        queue or skips a child subtree.
        """
        return self._knn(query, k)

    def window(
        self, low: Sequence[float], high: Sequence[float]
    ) -> WindowQueryResult:
        """All points in ``[low, high]``, charged like a kNN query.

        A depth-first walk of the shared directory: each intersecting
        data page goes through the shell's ``on_node`` — served from the
        pool, or charged to its disk — so the query's elapsed time is
        the busiest disk's page count times the page service time.  The
        corners are checked before the ``"window"`` span opens; under a
        tracer, ``prune`` fires per non-intersecting subtree as it is
        popped, depth-first among the visits.  Leaf entries are read
        from RAM: the store must be an in-memory :class:`PagedStore`.
        """
        window = MBR(self._point(low), self._point(high))
        tree = self.store.tree

        def walk(
            on_node: NodeHook, on_prune: Optional[PruneHook]
        ) -> Tuple[List[LeafEntry], int]:
            entries: List[LeafEntry] = []
            if not tree.size:
                return entries, 0
            root = tree.root
            # Intersection is decided in batch when a node is expanded
            # (the root's here).  Under a tracer, rejected children are
            # still pushed (with a False flag) so their ``prune`` events
            # fire at pop time.
            flagged: List[Tuple[Node, bool]] = [
                (root, root.mbr is not None and root.mbr.intersects(window))
            ]
            while flagged:
                node, intersecting = flagged.pop()
                if not intersecting:
                    if on_prune is not None:
                        on_prune(-1, 1)
                    continue
                on_node(-1, node)
                if node.is_leaf:
                    mask = kernels.leaf_window_mask(
                        node, window.low, window.high
                    )
                    entries.extend(
                        node.entries[index]  # type: ignore[misc]
                        for index in np.nonzero(mask)[0]
                    )
                    continue
                mask = kernels.child_intersects(
                    node, window.low, window.high
                )
                if on_prune is not None:
                    flagged.extend(
                        (child, bool(flag))  # type: ignore[misc]
                        for child, flag in zip(node.entries, mask)
                    )
                else:
                    flagged.extend(
                        (node.entries[index], True)  # type: ignore[misc]
                        for index in np.nonzero(mask)[0]
                    )
            return entries, 0

        entries, _, disks, cache_stats = self._charged(walk, "window")
        return WindowQueryResult(
            entries, disks.pages_per_disk, disks.parallel_time_ms,
            cache_stats,
        )

    def _roots(self) -> List[Tuple[int, Node]]:
        tree = self.store.tree
        return [(-1, tree.root)] if tree.size else []
