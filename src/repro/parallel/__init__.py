"""Parallel I/O substrate: disk simulator, declustered store, query
engine."""

from __future__ import annotations

from repro.parallel.cache import (
    BufferPool,
    CacheStats,
    LRUCache,
)
from repro.parallel.disks import DiskArray, DiskParameters
from repro.parallel.engine import (
    ParallelEngine,
    ParallelQueryResult,
    SequentialEngine,
    SequentialQueryResult,
)
from repro.parallel.paged import (
    PagedEngine,
    PagedStore,
    arrival_order_assignment,
    striped_assignment,
)
from repro.parallel.events import (
    EventDrivenSimulator,
    EventSimReport,
    QueryArrival,
    poisson_arrivals,
)
from repro.parallel.managed import ManagedStore, ReorganizationEvent
from repro.parallel.process import ProcessParallelEngine
from repro.parallel.store import DeclusteredStore
from repro.parallel.window import (
    WindowQueryResult,
    parallel_window_query,
    partial_match_window,
)

__all__ = [
    "BufferPool",
    "CacheStats",
    "LRUCache",
    "DeclusteredStore",
    "EventDrivenSimulator",
    "EventSimReport",
    "QueryArrival",
    "poisson_arrivals",
    "ManagedStore",
    "ReorganizationEvent",
    "WindowQueryResult",
    "parallel_window_query",
    "partial_match_window",
    "PagedEngine",
    "PagedStore",
    "ProcessParallelEngine",
    "arrival_order_assignment",
    "striped_assignment",
    "DiskArray",
    "DiskParameters",
    "ParallelEngine",
    "ParallelQueryResult",
    "SequentialEngine",
    "SequentialQueryResult",
]
