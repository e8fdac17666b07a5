"""Structural / analytical figure reproductions (Figures 1, 5, 6, 7, 8, 10).

These figures characterize the problem (Figure 1, 5, 6) and the coloring
technique itself (Figure 7, 8, 10); none of them needs the parallel
engine.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis import (
    buckets_intersecting_sphere,
    monte_carlo_surface_probability,
    neighborhood_size,
    surface_probability,
)
from repro.baselines import (
    DiskModuloDeclusterer,
    FXDeclusterer,
    HilbertDeclusterer,
)
from repro.core import (
    NearOptimalDeclusterer,
    brute_force_min_colors,
    col,
    color_lower_bound,
    color_upper_bound,
    colors_required,
    disk_assignment_graph,
    violation_statistics,
)
from repro.data import uniform_points
from repro.experiments.harness import ResultTable, query_costs
from repro.parallel.engine import SequentialEngine

__all__ = [
    "run_fig01_sequential_dimension",
    "run_fig05_surface_probability",
    "run_fig06_sphere_buckets",
    "run_fig07_near_optimality",
    "run_fig08_assignment_graph",
    "run_fig10_color_staircase",
]


def run_fig01_sequential_dimension(
    scale: float = 1.0,
    seed: int = 0,
    dimensions: Sequence[int] = (2, 4, 6, 8, 10, 12, 14, 16),
    k: int = 1,
) -> ResultTable:
    """Figure 1: sequential X-tree NN search degenerates with dimension.

    The paper shows total 1-NN search time exploding on an X-tree holding
    uniformly distributed data as the dimension grows.
    """
    num_points = max(2000, int(20000 * scale))
    num_queries = max(5, int(20 * scale))
    table = ResultTable(
        "Figure 1: sequential X-tree NN search vs. dimension "
        f"(uniform, N={num_points})",
        ["dimension", "data_pages_read", "search_time_ms", "fraction_of_index"],
    )
    for dimension in dimensions:
        points = uniform_points(num_points, dimension, seed=seed + dimension)
        queries = uniform_points(num_queries, dimension, seed=seed + 999)
        engine = SequentialEngine(points)
        costs = query_costs(engine, queries, k)
        total = sum(leaf.blocks for leaf in engine.tree.leaves())
        table.add_row(
            dimension,
            costs.mean_pages,
            costs.mean_time_ms,
            costs.mean_pages / total,
        )
    table.add_note(
        "expected shape: page counts grow rapidly with dimension and "
        "approach the full index (the paper's motivation for parallelism)"
    )
    return table


def run_fig05_surface_probability(
    dimensions: Sequence[int] = tuple(range(1, 21)),
    margin: float = 0.1,
    samples: int = 50_000,
    seed: int = 0,
) -> ResultTable:
    """Figure 5: probability of a point lying near the data-space surface.

    ``p_surface(d) = 1 - (1 - 2*margin)^d`` (Equation 1), verified by
    Monte-Carlo sampling.
    """
    table = ResultTable(
        f"Figure 5: P(point within {margin} of the surface)",
        ["dimension", "analytic", "monte_carlo"],
    )
    for dimension in dimensions:
        table.add_row(
            dimension,
            surface_probability(dimension, margin),
            monte_carlo_surface_probability(
                dimension, margin, samples=samples, seed=seed
            ),
        )
    table.add_note("paper: >97% of the data is near the surface at d=16")
    return table


def run_fig06_sphere_buckets(
    radii: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
    dimension_high: int = 8,
) -> ResultTable:
    """Figure 6: buckets affected as the NN-sphere grows.

    Reproduces the 2-D example (query in the upper-left quadrant: radius
    0.4 touches 1 bucket, radius 0.6 touches 3) and the same sweep in
    ``dimension_high`` dimensions.
    """
    table = ResultTable(
        "Figure 6: quadrants intersected by a growing query sphere",
        ["radius", "buckets_2d", f"buckets_{dimension_high}d"],
    )
    query_2d = np.array([0.05, 0.95])  # upper-left corner, as in the paper
    splits_2d = np.full(2, 0.5)
    query_hd = np.full(dimension_high, 0.5) + 0.3 * np.array(
        [(-1) ** i for i in range(dimension_high)]
    )
    splits_hd = np.full(dimension_high, 0.5)
    for radius in radii:
        table.add_row(
            radius,
            len(buckets_intersecting_sphere(query_2d, radius, splits_2d)),
            len(buckets_intersecting_sphere(query_hd, radius, splits_hd)),
        )
    table.add_note(
        "2-d: 1 bucket at r=0.4, 3 buckets at r=0.6 (the paper's example)"
    )
    table.add_note(
        f"two levels of indirection in d=16 would already require "
        f"{1 + neighborhood_size(16, 2)} buckets"
    )
    return table


def run_fig07_near_optimality(
    dimensions: Sequence[int] = (3, 4, 6, 8),
    num_disks: Optional[int] = None,
) -> ResultTable:
    """Figure 7 / Lemma 1: DM, FX and Hilbert are not near-optimal.

    Exhaustively counts direct and indirect neighbor collisions of every
    technique on the full quadrant grid; the paper's 3-d counterexample is
    the first row block.
    """
    table = ResultTable(
        "Figure 7: neighbor collisions per declustering technique",
        [
            "dimension",
            "disks",
            "method",
            "direct_collisions",
            "indirect_collisions",
            "near_optimal",
        ],
    )
    for dimension in dimensions:
        disks = num_disks or colors_required(dimension)
        methods = [
            DiskModuloDeclusterer(dimension, disks),
            FXDeclusterer(dimension, disks),
            HilbertDeclusterer(dimension, disks),
            NearOptimalDeclusterer(dimension, disks),
        ]
        for method in methods:
            stats = violation_statistics(method.disk_for_bucket, dimension)
            table.add_row(
                dimension,
                disks,
                method.name,
                stats.direct_collisions,
                stats.indirect_collisions,
                "yes" if stats.total_collisions == 0 else "no",
            )
    table.add_note(
        "paper: only the new technique guarantees zero collisions "
        "(Lemmata 3-5); the thick lines of Figure 7 are indirect collisions"
    )
    return table


def run_fig08_assignment_graph(dimension: int = 3) -> ResultTable:
    """Figure 8: the disk-assignment graph of a 3-d space, colored by col.

    Builds ``G_3`` (8 vertices, 12 direct + 12 indirect edges), colors it
    with ``col`` and verifies the coloring is proper with 4 colors.
    """
    graph = disk_assignment_graph(dimension)
    colors = {vertex: col(vertex) for vertex in graph.nodes}
    conflicts = sum(
        1 for a, b in graph.edges if colors[a] == colors[b]
    )
    direct_edges = sum(
        1 for _, _, kind in graph.edges(data="kind") if kind == "direct"
    )
    indirect_edges = graph.number_of_edges() - direct_edges
    table = ResultTable(
        f"Figure 8: disk assignment graph G_{dimension} colored by col",
        ["quantity", "value"],
    )
    table.add_row("vertices (buckets)", graph.number_of_nodes())
    table.add_row("direct edges", direct_edges)
    table.add_row("indirect edges", indirect_edges)
    table.add_row("colors used", len(set(colors.values())))
    table.add_row("conflicting edges", conflicts)
    table.add_row(
        "coloring", " ".join(f"{v}->{colors[v]}" for v in sorted(colors))
    )
    table.add_note("paper: G_3 is colorable with 4 colors, none conflicting")
    return table


def run_fig10_color_staircase(
    max_dimension: int = 32, brute_force_max: int = 4
) -> ResultTable:
    """Figure 10: number of colors required by col vs. dimension.

    The staircase ``2^ceil(log2(d+1))`` between the bounds ``d+1`` and
    ``2d``; for small d the brute-force chromatic number of ``G_d``
    confirms the staircase is optimal.
    """
    table = ResultTable(
        "Figure 10: colors required by the coloring function col",
        ["dimension", "lower_bound", "col_colors", "upper_bound", "exact_min"],
    )
    for dimension in range(1, max_dimension + 1):
        exact = (
            brute_force_min_colors(dimension)
            if dimension <= brute_force_max
            else "-"
        )
        table.add_row(
            dimension,
            color_lower_bound(dimension),
            colors_required(dimension),
            color_upper_bound(dimension),
            exact,
        )
    table.add_note(
        "paper: staircase is optimal up to rounding; verified exactly for "
        f"d <= {brute_force_max}"
    )
    return table
