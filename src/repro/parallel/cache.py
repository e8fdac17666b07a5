"""LRU buffer pool: hot pages are served from RAM, misses hit the disks.

Every engine in this package charges page reads to a
:class:`~repro.parallel.disks.DiskArray`.  The paper's experiments are
cold-cache by construction (a single query against a freshly loaded index),
but a service answering a *stream* of queries keeps its hot directory and
data pages in a buffer pool, and only cache **misses** cost a disk access.
This module provides that layer:

* :class:`LRUCache` — a weighted least-recently-used cache over opaque
  page keys (supernodes weigh ``blocks`` pages);
* :class:`BufferPool` — one LRU shared by ``num_disks`` disks, with
  per-disk hit/miss accounting;
* :class:`CacheStats` — counters exposed on the engine result dataclasses.

A capacity of ``0`` disables caching: every access is a miss and the
engines reproduce today's cold page counts bit-for-bit, which the oracle
tests assert.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

import numpy as np

__all__ = [
    "CacheStats",
    "LRUCache",
    "BufferPool",
    "merge_cache_stats",
]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a :class:`BufferPool`.

    Attached to the query-result dataclasses (``None`` when no cache is
    configured); ``hits``/``misses`` count page *requests*, so a supernode
    access counts once regardless of its block width.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    hits_per_disk: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    misses_per_disk: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    @property
    def accesses(self) -> int:
        """Total page requests (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over accesses (0.0 on an untouched pool)."""
        total = self.accesses
        return self.hits / total if total else 0.0


class LRUCache:
    """Weighted least-recently-used cache over hashable page keys.

    Entries carry a weight in pages (supernodes weigh ``blocks``); the
    total resident weight never exceeds ``capacity_pages``.  An entry
    heavier than the whole cache bypasses it (counted as a miss, nothing
    evicted).  ``capacity_pages == 0`` disables the cache entirely.
    """

    def __init__(self, capacity_pages: int):
        if capacity_pages < 0:
            raise ValueError(
                f"capacity_pages must be >= 0, got {capacity_pages}"
            )
        self.capacity_pages = int(capacity_pages)
        self._entries: "OrderedDict[Hashable, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def used_pages(self) -> int:
        """Resident weight in pages."""
        return self._used

    def keys(self) -> list[Hashable]:
        """Resident keys in LRU-to-MRU order."""
        return list(self._entries)

    def access(self, key: Hashable, weight: int = 1) -> bool:
        """Touch ``key``; returns True on a hit, inserts on a miss."""
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if weight > self.capacity_pages:
            return False
        self._entries[key] = weight
        self._used += weight
        while self._used > self.capacity_pages:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
            self.evictions += 1
        return False

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        self._entries.clear()
        self._used = 0
        self.hits = self.misses = self.evictions = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(capacity_pages={self.capacity_pages}, "
            f"used={self._used}, entries={len(self._entries)})"
        )


class BufferPool:
    """Page-cache front of a simulated disk array.

    All disks draw from one LRU of ``capacity_pages`` pages; keys are
    namespaced by disk, so the same tree node stored on two disks would
    occupy two slots.  Hits and misses are counted per disk.
    """

    def __init__(self, num_disks: int, capacity_pages: int):
        if num_disks < 1:
            raise ValueError(f"num_disks must be >= 1, got {num_disks}")
        self.num_disks = num_disks
        self.capacity_pages = int(capacity_pages)
        self._lru = LRUCache(self.capacity_pages)
        self._hits_per_disk = np.zeros(num_disks, dtype=np.int64)
        self._misses_per_disk = np.zeros(num_disks, dtype=np.int64)

    def access(self, disk: int, key: Hashable, pages: int = 1) -> bool:
        """Request a page; True means served from RAM (no disk charge)."""
        if not 0 <= disk < self.num_disks:
            raise ValueError(f"disk {disk} outside [0, {self.num_disks})")
        hit = self._lru.access((disk, key), pages)
        if hit:
            self._hits_per_disk[disk] += 1
        else:
            self._misses_per_disk[disk] += 1
        return hit

    @property
    def evictions(self) -> int:
        """Pages evicted from the pool."""
        return self._lru.evictions

    def stats(self) -> CacheStats:
        """Cumulative counters since construction (or the last reset)."""
        return CacheStats(
            hits=int(self._hits_per_disk.sum()),
            misses=int(self._misses_per_disk.sum()),
            evictions=self.evictions,
            hits_per_disk=self._hits_per_disk.copy(),
            misses_per_disk=self._misses_per_disk.copy(),
        )

    def delta_since(self, before: CacheStats) -> CacheStats:
        """Counters accumulated after a previous :meth:`stats` snapshot."""
        now = self.stats()
        return CacheStats(
            hits=now.hits - before.hits,
            misses=now.misses - before.misses,
            evictions=now.evictions - before.evictions,
            hits_per_disk=now.hits_per_disk - before.hits_per_disk,
            misses_per_disk=now.misses_per_disk - before.misses_per_disk,
        )

    def reset(self) -> None:
        """Cold-start the pool: drop contents, zero every counter."""
        self._lru.reset()
        self._hits_per_disk[:] = 0
        self._misses_per_disk[:] = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool(num_disks={self.num_disks}, "
            f"capacity_pages={self.capacity_pages})"
        )


def merge_cache_stats(
    deltas: Iterable[Optional[CacheStats]],
) -> Optional[CacheStats]:
    """Sum per-query :class:`CacheStats` deltas into one batch aggregate.

    ``None`` entries (queries run without a pool) contribute nothing;
    the result is ``None`` when every entry is ``None`` — mirroring how
    the engines report ``cache_stats`` on a single query.
    """
    merged: Optional[CacheStats] = None
    for delta in deltas:
        if delta is None:
            continue
        if merged is None:
            merged = CacheStats(
                hits_per_disk=np.zeros_like(delta.hits_per_disk),
                misses_per_disk=np.zeros_like(delta.misses_per_disk),
            )
        merged.hits += delta.hits
        merged.misses += delta.misses
        merged.evictions += delta.evictions
        merged.hits_per_disk = merged.hits_per_disk + delta.hits_per_disk
        merged.misses_per_disk = (
            merged.misses_per_disk + delta.misses_per_disk
        )
    return merged
