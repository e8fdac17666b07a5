"""Named metrics: counters, per-disk vector counters, and histograms.

A :class:`MetricsRegistry` is the aggregation side of the observability
layer: the tracer and the simulators publish into it, the exporters
(:mod:`repro.obs.export`) and the CLI ``stats`` subcommand read it out.

Every metric name is declared up front in :data:`METRIC_CATALOGUE` — the
registry refuses unknown names by default, which is what keeps
``docs/observability.md`` (generated from the catalogue by
``python -m repro.obs.catalogue``) honest: a metric that exists in code
but not in the docs cannot be created, and CI verifies the generated
table has not drifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "MetricSpec",
    "METRIC_CATALOGUE",
    "catalogue_names",
    "spec_for",
    "Counter",
    "VectorCounter",
    "Histogram",
    "MetricsRegistry",
]


@dataclass(frozen=True)
class MetricSpec:
    """Catalogue entry: name, kind, unit, owning module, description."""

    name: str
    kind: str  # "counter" | "vector" | "histogram" | "derived"
    unit: str
    source: str
    description: str


#: The complete metric catalogue.  ``docs/observability.md`` renders this
#: table verbatim; ``python -m repro.obs.catalogue --verify`` fails CI if
#: the two drift apart.
METRIC_CATALOGUE: Tuple[MetricSpec, ...] = (
    MetricSpec(
        "queries_total", "counter", "queries", "repro.obs.tracer",
        "Query spans opened (one per kNN/window query).",
    ),
    MetricSpec(
        "pages_read_total", "counter", "pages", "repro.parallel.disks",
        "Pages charged to the simulated disks (cache misses only when a "
        "buffer pool is attached); equals DiskArray.total_pages.",
    ),
    MetricSpec(
        "pages_read_per_disk", "vector", "pages", "repro.parallel.disks",
        "Per-disk page reads; equals DiskArray.pages_per_disk "
        "bit-for-bit.",
    ),
    MetricSpec(
        "nodes_visited_total", "counter", "nodes", "repro.parallel.engine",
        "Index nodes popped by the best-first search (directory + data).",
    ),
    MetricSpec(
        "buckets_pruned_total", "counter", "subtrees",
        "repro.parallel.engine",
        "Subtrees skipped because their MBR cannot intersect the current "
        "kNN sphere (neighbor-rank pruning).",
    ),
    MetricSpec(
        "distance_computations_total", "counter", "computations",
        "repro.index.knn",
        "Point-to-query distance evaluations inside data pages.",
    ),
    MetricSpec(
        "cache_hits_total", "counter", "requests", "repro.parallel.cache",
        "Buffer-pool requests served from RAM (no disk access).",
    ),
    MetricSpec(
        "cache_misses_total", "counter", "requests", "repro.parallel.cache",
        "Buffer-pool requests that fell through to a page read.",
    ),
    MetricSpec(
        "cache_hits_per_disk", "vector", "requests", "repro.parallel.cache",
        "Per-disk buffer-pool hits.",
    ),
    MetricSpec(
        "cache_misses_per_disk", "vector", "requests",
        "repro.parallel.cache",
        "Per-disk buffer-pool misses.",
    ),
    MetricSpec(
        "query_total_pages", "histogram", "pages/query",
        "repro.parallel.engine",
        "Pages read per query, summed over all disks.",
    ),
    MetricSpec(
        "busiest_disk_pages", "histogram", "pages/query",
        "repro.parallel.engine",
        "Pages read by the busiest disk per query — the paper's cost "
        "metric.",
    ),
    MetricSpec(
        "busiest_disk_share", "histogram", "fraction",
        "repro.parallel.engine",
        "busiest_disk_pages / query_total_pages per query; near-optimal "
        "declustering drives this toward 1/num_disks.",
    ),
    MetricSpec(
        "query_time_ms", "histogram", "ms", "repro.parallel.engine",
        "Simulated elapsed time per query (busiest disk x page service "
        "time).",
    ),
    MetricSpec(
        "stream_latency_ms", "histogram", "ms", "repro.parallel.events",
        "Per-query latency in the event-driven (FCFS queue) simulation.",
    ),
    MetricSpec(
        "disk_utilization", "histogram", "fraction",
        "repro.parallel.events",
        "Per-disk busy fraction of the run, one sample per disk per run.",
    ),
    MetricSpec(
        "serve_requests_total", "counter", "requests",
        "repro.serve.service",
        "Requests admitted and executed by the serving front door.",
    ),
    MetricSpec(
        "serve_batches_total", "counter", "batches", "repro.serve.service",
        "Batches flushed by the admission scheduler.",
    ),
    MetricSpec(
        "serve_batch_size", "histogram", "requests/batch",
        "repro.serve.service",
        "Requests coalesced per flushed batch.",
    ),
    MetricSpec(
        "serve_queue_wait_ms", "histogram", "ms", "repro.serve.service",
        "Per-request queueing delay: admission to batch flush.",
    ),
    MetricSpec(
        "serve_latency_ms", "histogram", "ms", "repro.serve.service",
        "Per-request end-to-end latency: admission to batch completion "
        "under the busiest-disk service-time model.",
    ),
    MetricSpec(
        "serve_batch_service_ms", "histogram", "ms", "repro.serve.service",
        "Simulated service time per batch (busiest disk's page total x "
        "page service time).",
    ),
    MetricSpec(
        "cache_hit_ratio", "derived", "fraction", "repro.obs.export",
        "cache_hits_total / (cache_hits_total + cache_misses_total); "
        "computed at export time, never stored.",
    ),
)


def catalogue_names() -> Tuple[str, ...]:
    """Every declared metric name, in catalogue order."""
    return tuple(spec.name for spec in METRIC_CATALOGUE)


def spec_for(name: str) -> Optional[MetricSpec]:
    """The catalogue entry for ``name`` (None when undeclared)."""
    for spec in METRIC_CATALOGUE:
        if spec.name == name:
            return spec
    return None


class Counter:
    """A monotonically increasing integer metric."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self.value})"


class VectorCounter:
    """A counter with one integer cell per disk (grows on demand)."""

    def __init__(self, name: str):
        self.name = name
        self.values: List[int] = []

    def inc(self, index: int, amount: int = 1) -> None:
        """Add ``amount`` to cell ``index`` (grows the vector if needed)."""
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        if index >= len(self.values):
            self.values.extend([0] * (index + 1 - len(self.values)))
        self.values[index] += amount

    @property
    def total(self) -> int:
        """Sum over all cells."""
        return sum(self.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorCounter({self.name!r}, values={self.values})"


class Histogram:
    """A value distribution; keeps every sample (workloads are small)."""

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []

    def record(self, value: float) -> None:
        """Append one sample."""
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self.total / self.count if self.samples else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return min(self.samples) if self.samples else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile of the samples (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        return ordered[rank]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Get-or-create store of named counters/vectors/histograms.

    With ``strict=True`` (the default) every metric name must appear in
    :data:`METRIC_CATALOGUE` with the matching kind — creating an
    undocumented metric raises, which is the invariant the docs-drift CI
    check builds on.  Pass ``strict=False`` for ad-hoc experiments.
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._counters: Dict[str, Counter] = {}
        self._vectors: Dict[str, VectorCounter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check(self, name: str, kind: str) -> None:
        if not self.strict:
            return
        spec = spec_for(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not in METRIC_CATALOGUE; declare it "
                f"in repro/obs/metrics.py (and regenerate "
                f"docs/observability.md) or use MetricsRegistry("
                f"strict=False)"
            )
        if spec.kind != kind:
            raise ValueError(
                f"metric {name!r} is declared as {spec.kind!r}, "
                f"requested as {kind!r}"
            )

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        if name not in self._counters:
            self._check(name, "counter")
            self._counters[name] = Counter(name)
        return self._counters[name]

    def vector_counter(self, name: str) -> VectorCounter:
        """Get or create the per-disk vector counter ``name``."""
        if name not in self._vectors:
            self._check(name, "vector")
            self._vectors[name] = VectorCounter(name)
        return self._vectors[name]

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        if name not in self._histograms:
            self._check(name, "histogram")
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def names(self) -> Tuple[str, ...]:
        """Names of every metric instantiated so far, sorted."""
        return tuple(
            sorted(
                list(self._counters)
                + list(self._vectors)
                + list(self._histograms)
            )
        )

    @property
    def counters(self) -> Dict[str, Counter]:
        """Live counter instances by name (do not mutate the dict)."""
        return self._counters

    @property
    def vectors(self) -> Dict[str, VectorCounter]:
        """Live vector-counter instances by name."""
        return self._vectors

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """Live histogram instances by name."""
        return self._histograms

    def cache_hit_ratio(self) -> Optional[float]:
        """The derived ``cache_hit_ratio`` (None before any lookup)."""
        hits = self._counters.get("cache_hits_total")
        misses = self._counters.get("cache_misses_total")
        if hits is None and misses is None:
            return None
        total = (hits.value if hits else 0) + (misses.value if misses else 0)
        if total == 0:
            return 0.0
        return (hits.value if hits else 0) / total

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every instantiated metric."""
        payload: Dict[str, Any] = {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "vectors": {
                name: list(vector.values)
                for name, vector in sorted(self._vectors.items())
            },
            "histograms": {
                name: {
                    "count": histogram.count,
                    "total": histogram.total,
                    "mean": histogram.mean,
                    "min": histogram.min,
                    "max": histogram.max,
                    "p50": histogram.quantile(0.5),
                    "p95": histogram.quantile(0.95),
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }
        ratio = self.cache_hit_ratio()
        if ratio is not None:
            payload["derived"] = {"cache_hit_ratio": ratio}
        return payload
