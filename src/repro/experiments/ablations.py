"""Ablation experiments for the design choices DESIGN.md calls out.

Each ablation isolates one design decision of the paper (or of this
reproduction) and quantifies what it buys:

* **neighbor depth** — protecting only direct neighbors (Disk Modulo with
  d+1 disks does exactly that) vs. direct+indirect (``col``);
* **disk reduction** — complement folding vs. naive ``mod n``;
* **kNN traversal** — HS 95 best-first vs. RKV 95 branch-and-bound;
* **bucket split point** — midpoint vs. α-quantile on skewed data;
* **X-tree supernodes** — X-tree vs. plain R\\*-tree in high dimensions;
* **page round robin** — arrival-order vs. spatially striped pages;
* **engine coordination** — shared pruning bound vs. independent per-disk
  searches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines import DiskModuloDeclusterer
from repro.core import (
    NearOptimalDeclusterer,
    colors_required,
    quantile_split_values,
    violation_statistics,
)
from repro.core.disk_reduction import modulo_reduction_table, reduction_table
from repro.core.vertex_coloring import col
from repro.data import fourier_points, query_workload, uniform_points
from repro.experiments.harness import ResultTable, query_costs
from repro.index.bulk import bulk_load
from repro.index.knn import knn_best_first, knn_branch_and_bound
from repro.index.rstar import RStarTree
from repro.index.xtree import XTree
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import (
    PagedEngine,
    PagedStore,
    arrival_order_assignment,
    striped_assignment,
)
from repro.parallel.store import DeclusteredStore

__all__ = [
    "run_ablation_neighbor_depth",
    "run_ablation_disk_reduction",
    "run_ablation_knn_algorithms",
    "run_ablation_quantile_split",
    "run_ablation_sequential_indexes",
    "run_ablation_xtree_supernodes",
    "run_ablation_page_round_robin",
    "run_ablation_engine_modes",
]


def run_ablation_neighbor_depth(
    scale: float = 1.0, seed: int = 0, dimension: int = 15
) -> ResultTable:
    """Direct-only protection (DM with d+1 disks) vs. direct+indirect
    (col).

    Disk Modulo separates every *direct* neighbor pair (the coordinate sum
    changes by 1) but collides on indirect pairs; the paper's Definition 3
    argues both levels matter for NN spheres.
    """
    num_points = max(6000, int(60000 * scale))
    num_queries = max(5, int(12 * scale))
    num_disks = colors_required(dimension)
    points = fourier_points(num_points, dimension, seed=seed)
    queries = query_workload(points, num_queries, seed=seed + 1, jitter=0.05)
    sequential = SequentialEngine(points)
    table = ResultTable(
        f"Ablation: neighbor depth (Fourier d={dimension}, "
        f"{num_disks} disks)",
        ["method", "indirect_collisions_d6", "speedup_nn", "speedup_10nn"],
    )
    for declusterer in (
        DiskModuloDeclusterer(dimension, num_disks),
        NearOptimalDeclusterer(dimension, num_disks),
    ):
        probe = type(declusterer)(6, colors_required(6))
        stats = violation_statistics(probe.disk_for_bucket, 6)
        store = PagedStore(tree=sequential.tree, declusterer=declusterer)
        row = [declusterer.name, stats.indirect_collisions]
        for k in (1, 10):
            seq = query_costs(sequential, queries, k)
            par = query_costs(PagedEngine(store), queries, k)
            row.append(seq.mean_time_ms / max(par.mean_time_ms, 1e-9))
        table.add_row(*row)
    table.add_note(
        "DM protects direct neighbors only; col also protects indirect "
        "(2-bit) neighbors"
    )
    return table


def run_ablation_disk_reduction(
    dimension: int = 15, scale: float = 1.0, seed: int = 0
) -> ResultTable:
    """Complement folding vs. modulo reduction to non-power-of-two disks.

    Measures how many direct-neighbor bucket pairs collide after each
    reduction, over all bucket pairs of a 2^10 grid, plus the resulting
    query speed-up on Fourier data.
    """
    num_colors = colors_required(dimension)
    table = ResultTable(
        f"Ablation: disk reduction (d={dimension}, {num_colors} colors)",
        ["disks", "fold_direct_collision_rate", "mod_direct_collision_rate"],
    )
    probe_dim = 10
    probe_colors = colors_required(probe_dim)
    for num_disks in (3, 5, 6, 7, 9, 11, 13, 15):
        if num_disks > probe_colors:
            continue
        fold = reduction_table(probe_colors, num_disks)
        modulo = modulo_reduction_table(probe_colors, num_disks)
        rates = []
        for reduction in (fold, modulo):
            pairs = collisions = 0
            for bucket in range(1 << probe_dim):
                base = reduction[col(bucket)]
                for bit in range(probe_dim):
                    other = bucket ^ (1 << bit)
                    if other < bucket:
                        continue
                    pairs += 1
                    collisions += int(
                        reduction[col(other)] == base
                    )
            rates.append(collisions / pairs)
        table.add_row(num_disks, *rates)
    table.add_note(
        "complement folding eliminates direct collisions earlier (already "
        "at n just above C/2); modulo needs n close to C"
    )
    return table


def run_ablation_knn_algorithms(
    scale: float = 1.0,
    seed: int = 0,
    dimensions: Sequence[int] = (4, 8, 12, 16),
    k: int = 10,
) -> ResultTable:
    """HS 95 best-first vs. RKV 95 branch-and-bound page accesses."""
    num_points = max(3000, int(20000 * scale))
    num_queries = max(5, int(15 * scale))
    table = ResultTable(
        f"Ablation: kNN traversal page accesses ({k}-NN, N={num_points})",
        ["dimension", "best_first_pages", "branch_bound_pages", "ratio"],
    )
    for dimension in dimensions:
        points = uniform_points(num_points, dimension, seed=seed + dimension)
        queries = uniform_points(num_queries, dimension, seed=seed + 999)
        tree = bulk_load(points)
        best_first = branch_bound = 0
        for query in queries:
            _, bf = knn_best_first(tree, query, k)
            _, bb = knn_branch_and_bound(tree, query, k)
            best_first += bf.page_accesses
            branch_bound += bb.page_accesses
        table.add_row(
            dimension,
            best_first / num_queries,
            branch_bound / num_queries,
            branch_bound / max(best_first, 1),
        )
    table.add_note("best-first is page-optimal; RKV 95 reads >= pages")
    return table


def run_ablation_quantile_split(
    scale: float = 1.0, seed: int = 0, dimension: int = 8
) -> ResultTable:
    """Midpoint vs. α-quantile bucket splits on skewed data.

    Data confined to a corner of the space: midpoint splits collapse all
    buckets onto few disks, quantile splits restore balance (Section 4.3).
    """
    num_points = max(4000, int(30000 * scale))
    num_queries = max(5, int(12 * scale))
    rng = np.random.default_rng(seed)
    points = rng.random((num_points, dimension)) ** 3  # skewed toward 0
    queries = query_workload(points, num_queries, seed=seed + 1, jitter=0.03)
    sequential = SequentialEngine(points)
    num_disks = colors_required(dimension)
    table = ResultTable(
        f"Ablation: split placement on skewed data (d={dimension}, "
        f"{num_disks} disks)",
        ["split", "static_imbalance", "speedup_10nn"],
    )
    for label, splits in (
        ("midpoint", np.full(dimension, 0.5)),
        ("quantile", quantile_split_values(points)),
    ):
        declusterer = NearOptimalDeclusterer(
            dimension, num_disks, split_values=splits
        )
        assignment = declusterer.assign(points)
        counts = np.bincount(assignment, minlength=num_disks)
        imbalance = counts.max() / counts.mean()
        store = PagedStore(tree=sequential.tree, declusterer=declusterer)
        seq = query_costs(sequential, queries, 10)
        par = query_costs(PagedEngine(store), queries, 10)
        table.add_row(
            label, imbalance, seq.mean_time_ms / max(par.mean_time_ms, 1e-9)
        )
    table.add_note("quantile splits restore balance on skewed data")
    return table


def run_ablation_xtree_supernodes(
    scale: float = 1.0,
    seed: int = 0,
    dimensions: Sequence[int] = (4, 8, 12, 16),
) -> ResultTable:
    """X-tree vs. plain R\\*-tree for insertion-built indexes.

    Compares 10-NN page accesses and supernode counts; the X-tree's
    overlap control pays off as the dimension grows.
    """
    num_points = max(1500, int(4000 * scale))
    num_queries = max(5, int(10 * scale))
    table = ResultTable(
        f"Ablation: X-tree vs R*-tree (insertion-built, N={num_points})",
        [
            "dimension",
            "rstar_pages",
            "xtree_pages",
            "xtree_supernodes",
            "ratio",
        ],
    )
    for dimension in dimensions:
        points = uniform_points(num_points, dimension, seed=seed + dimension)
        queries = uniform_points(num_queries, dimension, seed=seed + 999)
        rstar = RStarTree(dimension, leaf_cap=16, dir_cap=16)
        rstar.extend(points)
        xtree = XTree(dimension, leaf_cap=16, dir_cap=16, max_overlap=0.1)
        xtree.extend(points)
        rstar_pages = xtree_pages = 0
        for query in queries:
            _, rs = knn_best_first(rstar, query, 10)
            _, xs = knn_best_first(xtree, query, 10)
            rstar_pages += rs.page_accesses
            xtree_pages += xs.page_accesses
        table.add_row(
            dimension,
            rstar_pages / num_queries,
            xtree_pages / num_queries,
            xtree.supernode_count(),
            rstar_pages / max(xtree_pages, 1),
        )
    return table


def run_ablation_sequential_indexes(
    scale: float = 1.0,
    seed: int = 0,
    dimensions: Sequence[int] = (2, 4, 8, 12),
    k: int = 10,
) -> ResultTable:
    """Section 2's sequential NN algorithms head to head.

    Welch's bucketing grid [Wel 71], the FBF 77 k-d tree, and the X-tree
    all answer the same kNN queries; their page counts show the common
    degeneration with dimension that motivates the paper's parallelism.
    Linear scan pages (= all data pages) are the ceiling.
    """
    from repro.index.grid import GridIndex
    from repro.index.kdtree import KDTree

    num_points = max(3000, int(20000 * scale))
    num_queries = max(5, int(12 * scale))
    table = ResultTable(
        f"Ablation: sequential NN indexes, pages per {k}-NN query "
        f"(uniform, N={num_points})",
        ["dimension", "grid_welch", "kd_tree", "xtree", "linear_scan"],
    )
    for dimension in dimensions:
        points = uniform_points(num_points, dimension, seed=seed + dimension)
        queries = uniform_points(num_queries, dimension, seed=seed + 999)
        page_points = max(4, 4096 // (8 * dimension + 8))
        cells = max(2, int(round((num_points / page_points)
                                 ** (1.0 / dimension))))
        grid = GridIndex(points, cells_per_dim=cells)
        kdtree = KDTree(points, leaf_size=page_points)
        xtree = bulk_load(points)
        grid_pages = kd_pages = x_pages = 0
        for query in queries:
            _, g = grid.knn(query, k)
            _, t = kdtree.knn(query, k)
            _, x = knn_best_first(xtree, query, k)
            grid_pages += g.leaf_accesses
            kd_pages += t.leaf_accesses
            x_pages += x.leaf_accesses
        table.add_row(
            dimension,
            grid_pages / num_queries,
            kd_pages / num_queries,
            x_pages / num_queries,
            -(-num_points // page_points),
        )
    table.add_note(
        "every partitioning method converges toward the linear-scan "
        "ceiling as d grows (the paper's Figure 1 argument)"
    )
    return table


def run_ablation_page_round_robin(
    scale: float = 1.0, seed: int = 0, dimension: int = 15, num_disks: int = 16
) -> ResultTable:
    """Page assignment policies: arrival order vs. spatial striping vs.
    bucket-based (Hilbert / col) on Fourier data."""
    num_points = max(6000, int(60000 * scale))
    num_queries = max(5, int(12 * scale))
    points = fourier_points(num_points, dimension, seed=seed)
    queries = query_workload(points, num_queries, seed=seed + 1, jitter=0.05)
    sequential = SequentialEngine(points)
    seq = query_costs(sequential, queries, 10)
    table = ResultTable(
        f"Ablation: page-to-disk policies (Fourier d={dimension}, "
        f"{num_disks} disks, 10-NN)",
        ["policy", "speedup_10nn", "busiest/mean"],
    )
    from repro.baselines import HilbertDeclusterer

    policies = [
        ("arrival-order RR", arrival_order_assignment(num_disks, seed=seed)),
        ("striped RR", striped_assignment(num_disks)),
        ("hilbert", HilbertDeclusterer(dimension, num_disks)),
        ("new", NearOptimalDeclusterer(dimension, num_disks)),
    ]
    for label, declusterer in policies:
        store = PagedStore(
            tree=sequential.tree,
            declusterer=declusterer,
            num_disks=num_disks,
        )
        par = query_costs(PagedEngine(store), queries, 10)
        table.add_row(
            label,
            seq.mean_time_ms / max(par.mean_time_ms, 1e-9),
            par.mean_balance,
        )
    return table


def run_ablation_engine_modes(
    scale: float = 1.0, seed: int = 0, dimension: int = 10, num_disks: int = 8
) -> ResultTable:
    """Coordinated (shared bound) vs. independent per-disk kNN searches."""
    num_points = max(4000, int(30000 * scale))
    num_queries = max(5, int(12 * scale))
    points = uniform_points(num_points, dimension, seed=seed)
    queries = uniform_points(num_queries, dimension, seed=seed + 1)
    store = DeclusteredStore(
        points, NearOptimalDeclusterer(dimension, num_disks)
    )
    table = ResultTable(
        f"Ablation: engine coordination (uniform d={dimension}, "
        f"{num_disks} disks, 10-NN)",
        ["mode", "busiest_disk_pages", "total_pages"],
    )
    engine = ParallelEngine(store)
    for mode in ("coordinated", "independent"):
        costs = query_costs(engine, queries, 10, mode=mode)
        total = np.mean(
            [engine.query(q, 10, mode=mode).total_pages for q in queries]
        )
        table.add_row(mode, costs.mean_pages, float(total))
    table.add_note("the shared pruning bound strictly reduces page reads")
    return table
