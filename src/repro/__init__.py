"""repro — Fast Parallel Similarity Search in Multimedia Databases.

A from-scratch reproduction of Berchtold, Böhm, Braunmüller, Keim, Kriegel
(SIGMOD 1997): near-optimal declustering for parallel nearest-neighbor
search in high-dimensional feature spaces, together with every substrate
the paper depends on — an R\\*-tree/X-tree index, a d-dimensional Hilbert
curve, the prior declustering techniques (round robin, Disk Modulo, FX,
Hilbert), a simulated multi-disk I/O subsystem, and workload generators for
the paper's data sets.

Quickstart
----------
>>> import numpy as np
>>> from repro import NearOptimalDeclusterer, PagedStore, PagedEngine
>>> points = np.random.default_rng(0).random((5000, 8))
>>> store = PagedStore(points=points,
...                    declusterer=NearOptimalDeclusterer(8, num_disks=8))
>>> engine = PagedEngine(store)
>>> result = engine.query(points[42], k=5)
>>> [n.oid for n in result.neighbors][0]
42

See ``examples/`` for full scenarios and ``benchmarks/`` for the
experiments that regenerate the paper's figures.
"""

from __future__ import annotations

from repro.baselines import (
    DiskModuloDeclusterer,
    FXDeclusterer,
    HilbertDeclusterer,
    RoundRobinDeclusterer,
)
from repro.core import (
    AdaptiveSplitTracker,
    BucketDeclusterer,
    Declusterer,
    NearOptimalDeclusterer,
    RecursiveDeclusterer,
    col,
    colors_required,
    is_near_optimal,
    quantile_split_values,
)
from repro.hilbert import HilbertCurve
from repro.index.metrics import Euclidean, LpMetric, Metric, WeightedEuclidean
from repro.index import (
    MBR,
    Neighbor,
    RStarTree,
    XTree,
    bulk_load,
    knn_best_first,
    knn_branch_and_bound,
    incremental_nearest,
    knn_linear_scan,
)
from repro.parallel import (
    BufferPool,
    CacheStats,
    LRUCache,
    DeclusteredStore,
    ManagedStore,
    DiskArray,
    DiskParameters,
    PagedEngine,
    PagedStore,
    ParallelEngine,
    ProcessParallelEngine,
    SequentialEngine,
)

from repro.obs import (
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    Tracer,
    current_metrics,
    current_tracer,
    observe,
)
from repro.registry import (
    DECLUSTERERS,
    SCHEME_ALIASES,
    available_schemes,
    make_declusterer,
    resolve_scheme,
)
from repro.storage import (
    FrozenAssignment,
    MmapStore,
    StoreFormatError,
    bulk_load_mmap,
    load_paged_store,
    load_tree,
    save_paged_store,
    save_tree,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveSplitTracker",
    "DECLUSTERERS",
    "SCHEME_ALIASES",
    "available_schemes",
    "make_declusterer",
    "resolve_scheme",
    "MetricsRegistry",
    "NullTracer",
    "RecordingTracer",
    "Tracer",
    "current_metrics",
    "current_tracer",
    "observe",
    "BucketDeclusterer",
    "BufferPool",
    "CacheStats",
    "LRUCache",
    "Declusterer",
    "DeclusteredStore",
    "ManagedStore",
    "DiskArray",
    "DiskModuloDeclusterer",
    "Euclidean",
    "DiskParameters",
    "FXDeclusterer",
    "HilbertCurve",
    "LpMetric",
    "Metric",
    "WeightedEuclidean",
    "HilbertDeclusterer",
    "MBR",
    "NearOptimalDeclusterer",
    "Neighbor",
    "MmapStore",
    "PagedEngine",
    "PagedStore",
    "ParallelEngine",
    "ProcessParallelEngine",
    "RStarTree",
    "RecursiveDeclusterer",
    "RoundRobinDeclusterer",
    "SequentialEngine",
    "XTree",
    "bulk_load",
    "col",
    "colors_required",
    "is_near_optimal",
    "knn_best_first",
    "knn_branch_and_bound",
    "incremental_nearest",
    "knn_linear_scan",
    "FrozenAssignment",
    "StoreFormatError",
    "bulk_load_mmap",
    "load_paged_store",
    "load_tree",
    "save_paged_store",
    "save_tree",
    "quantile_split_values",
    "__version__",
]
