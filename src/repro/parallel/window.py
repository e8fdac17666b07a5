"""Parallel window and partial-match queries over a declustered index.

Disk Modulo [DS 82] and FX [KP 88] were designed for *partial-match*
queries — "all objects with ``x_i = v_i`` for a subset of the attributes"
— and the Hilbert method [FB 93] for low-dimensional *range* queries.  To
compare the paper's technique against the baselines on their home turf,
:meth:`PagedEngine.window <repro.parallel.paged.PagedEngine.window>`
executes both query types over a :class:`PagedStore` with the same
busiest-disk accounting — and the same buffer pool — as the kNN engine.

A partial-match query over point data is a window query that fixes a
tolerance band around the specified attributes and leaves the others
unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.index.node import LeafEntry
from repro.parallel.cache import CacheStats

__all__ = ["WindowQueryResult", "partial_match_window"]


@dataclass
class WindowQueryResult:
    """Outcome of one parallel window query (``cache_stats`` as on
    :class:`~repro.parallel.engine.ParallelQueryResult`)."""

    entries: List[LeafEntry]
    pages_per_disk: np.ndarray
    parallel_time_ms: float
    cache_stats: Optional[CacheStats] = None

    @property
    def max_pages(self) -> int:
        """Pages fetched by the busiest disk."""
        return int(self.pages_per_disk.max())

    @property
    def total_pages(self) -> int:
        """Pages fetched across all disks."""
        return int(self.pages_per_disk.sum())


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
