"""Parallel window and partial-match queries over a declustered index.

Disk Modulo [DS 82] and FX [KP 88] were designed for *partial-match*
queries — "all objects with ``x_i = v_i`` for a subset of the attributes"
— and the Hilbert method [FB 93] for low-dimensional *range* queries.  To
compare the paper's technique against the baselines on their home turf,
this module executes both query types over a :class:`PagedStore` with the
same busiest-disk accounting as the kNN engine.

A partial-match query over point data is a window query that fixes a
tolerance band around the specified attributes and leaves the others
unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.index import kernels
from repro.index.mbr import MBR
from repro.index.node import LeafEntry, Node
from repro.obs.context import current_tracer
from repro.obs.tracer import Tracer
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.paged import PagedStore

__all__ = ["WindowQueryResult", "parallel_window_query",
           "partial_match_window"]


@dataclass
class WindowQueryResult:
    """Outcome of one parallel window query."""

    entries: List[LeafEntry]
    pages_per_disk: np.ndarray
    parallel_time_ms: float

    @property
    def max_pages(self) -> int:
        """Pages fetched by the busiest disk."""
        return int(self.pages_per_disk.max())

    @property
    def total_pages(self) -> int:
        """Pages fetched across all disks."""
        return int(self.pages_per_disk.sum())


def parallel_window_query(
    store: PagedStore,
    low: Sequence[float],
    high: Sequence[float],
    parameters: Optional[DiskParameters] = None,
    tracer: Optional[Tracer] = None,
) -> WindowQueryResult:
    """All points in ``[low, high]``, with per-disk page accounting.

    Directory traversal is served from the shared cached directory; every
    intersecting data page is charged to its disk, and the query's elapsed
    time is the busiest disk's page count times the page service time.

    Under an enabled tracer (explicit argument or ambient
    :func:`repro.obs.context.observe`) the traversal emits a
    ``query_start`` ... ``query_end`` span with ``node_visit`` per
    intersecting node (directory nodes carry ``disk=-1``), ``page_read``
    per data page, and ``prune`` per non-intersecting subtree.
    """
    window = MBR(low, high)
    parameters = parameters or DiskParameters(page_bytes=store.page_bytes)
    active = current_tracer(tracer)
    traced = active.enabled
    span = -1
    if traced:
        span = active.begin_query(
            "window", num_disks=store.num_disks,
            service_ms=parameters.page_service_time_ms,
        )
    disks = DiskArray(store.num_disks, parameters)
    entries: List[LeafEntry] = []
    if store.tree.size:
        root = store.tree.root
        # Intersection is decided in batch when a node is expanded (the
        # root's here).  Under a tracer, rejected children are still
        # pushed (with a False flag) so their ``prune`` events fire at
        # pop time, in depth-first order among the visits.
        flagged: List[Tuple[Node, bool]] = [
            (root, root.mbr is not None and root.mbr.intersects(window))
        ]
        while flagged:
            node, intersecting = flagged.pop()
            if not intersecting:
                # Only the root arrives here untraced, but guard
                # explicitly so the null tracer provably stays
                # zero-overhead.
                if traced:
                    active.prune(span)
                continue
            if node.is_leaf:
                disk = store.disk_of(node)
                if traced:
                    active.node_visit(span, disk, leaf=True)
                    active.page_read(span, disk, node.blocks)
                disks.charge(disk, node.blocks)
                mask = kernels.leaf_window_mask(
                    node, window.low, window.high
                )
                entries.extend(
                    node.entries[index]  # type: ignore[misc]
                    for index in np.nonzero(mask)[0]
                )
            else:
                if traced:
                    active.node_visit(span, -1, leaf=False)
                mask = kernels.child_intersects(
                    node, window.low, window.high
                )
                if traced:
                    flagged.extend(
                        (child, bool(flag))  # type: ignore[misc]
                        for child, flag in zip(node.entries, mask)
                    )
                else:
                    flagged.extend(
                        (node.entries[index], True)  # type: ignore[misc]
                        for index in np.nonzero(mask)[0]
                    )
    if traced:
        active.end_query(span, time_ms=disks.parallel_time_ms)
    return WindowQueryResult(
        entries=entries,
        pages_per_disk=disks.pages_per_disk,
        parallel_time_ms=disks.parallel_time_ms,
    )


def partial_match_window(
    dimension: int,
    specified: Dict[int, float],
    tolerance: float = 0.02,
) -> tuple:
    """The window of a partial-match query over point data.

    ``specified`` maps attribute index to the required value; the window
    constrains those attributes to ``value ± tolerance`` and leaves all
    other attributes unconstrained (full ``[0, 1]`` range).

    >>> low, high = partial_match_window(3, {1: 0.5}, tolerance=0.1)
    >>> low.tolist(), high.tolist()
    ([0.0, 0.4, 0.0], [1.0, 0.6, 1.0])
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    low = np.zeros(dimension)
    high = np.ones(dimension)
    for attribute, value in specified.items():
        if not 0 <= attribute < dimension:
            raise ValueError(
                f"attribute {attribute} outside [0, {dimension})"
            )
        low[attribute] = max(0.0, value - tolerance)
        high[attribute] = min(1.0, value + tolerance)
    return low, high
