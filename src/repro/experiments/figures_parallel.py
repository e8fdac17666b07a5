"""Parallel-search figure reproductions (Figures 2, 3, 12-17).

All experiments follow the paper's protocol: queries are averaged, the
parallel cost is the busiest disk's page count, and speed-up is measured
against a sequential X-tree over the same data.  Two store architectures
are used, mirroring the paper (see DESIGN.md):

* round robin declusters data *items* ("each disk gets the data items
  {v_j : j mod n = i}") — per-disk X-trees over diluted samples
  (:class:`~repro.parallel.store.DeclusteredStore`);
* the bucket techniques (DM, FX, Hilbert, new) decluster *space* — a
  shared directory whose data pages live on the disk of their quadrant
  (:class:`~repro.parallel.paged.PagedStore`).
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines import HilbertDeclusterer, RoundRobinDeclusterer
from repro.core import (
    NearOptimalDeclusterer,
    RecursiveDeclusterer,
    colors_required,
    quantile_split_values,
)
from repro.data import (
    fourier_points,
    query_workload,
    text_descriptors,
    uniform_points,
)
from repro.experiments.harness import ResultTable, query_costs
from repro.index.bulk import bulk_load
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.store import DeclusteredStore

__all__ = [
    "run_fig02_round_robin_speedup",
    "run_fig03_hilbert_vs_round_robin",
    "run_fig12_speedup_uniform",
    "run_fig13_speedup_fourier",
    "run_fig14_improvement_over_hilbert",
    "run_fig15_scaleup",
    "run_fig16_recursive_declustering",
    "run_fig17_text_data",
]

_DISK_SWEEP = (1, 2, 4, 8, 16)


def _clamped_disks(dimension: int, disks: Sequence[int]) -> Sequence[int]:
    """Disk counts usable by the new technique for this dimension."""
    limit = colors_required(dimension)
    return [n for n in disks if n <= limit]


def run_fig02_round_robin_speedup(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    disks: Sequence[int] = _DISK_SWEEP,
) -> ResultTable:
    """Figure 2: speed-up of parallel NN search with round robin.

    Uniform data, uniformly distributed queries; the paper observes a
    nearly linear speed-up for both NN and 10-NN queries.
    """
    num_points = max(4000, int(30000 * scale))
    num_queries = max(5, int(16 * scale))
    points = uniform_points(num_points, dimension, seed=seed)
    queries = uniform_points(num_queries, dimension, seed=seed + 1)
    sequential = SequentialEngine(points)
    seq = {k: query_costs(sequential, queries, k) for k in (1, 10)}
    table = ResultTable(
        f"Figure 2: round-robin speed-up (uniform, d={dimension}, "
        f"N={num_points})",
        ["disks", "speedup_nn", "speedup_10nn"],
    )
    for num_disks in disks:
        store = DeclusteredStore(
            points, RoundRobinDeclusterer(dimension, num_disks)
        )
        row = [num_disks]
        for k in (1, 10):
            costs = query_costs(ParallelEngine(store), queries, k)
            row.append(seq[k].mean_time_ms / max(costs.mean_time_ms, 1e-9))
        table.add_row(*row)
    table.add_note("expected shape: near-linear growth with the disk count")
    return table


def run_fig03_hilbert_vs_round_robin(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    disks: Sequence[int] = (2, 4, 8, 16),
    data_sweep: Sequence[int] = (10000, 20000, 40000, 80000),
    k: int = 1,
) -> ResultTable:
    """Figure 3: improvement of Hilbert declustering over round robin.

    Two sweeps, as in the paper: improvement vs. the number of disks
    (fixed data) and vs. the amount of data (fixed 16 disks).  Hilbert
    declusters pages of a shared index; round robin declusters items onto
    per-disk indexes, paying the dilution penalty that grows with the
    problem size.
    """
    num_points = max(4000, int(30000 * scale))
    num_queries = max(5, int(12 * scale))
    table = ResultTable(
        f"Figure 3: Hilbert improvement over round robin "
        f"(uniform, d={dimension}, {k}-NN)",
        ["sweep", "value", "hilbert_time_ms", "rr_time_ms", "improvement"],
    )
    queries = uniform_points(num_queries, dimension, seed=seed + 1)

    def times(points, tree, num_disks):
        """Hilbert and round-robin ms/query, and their ratio."""
        hil = query_costs(PagedEngine(PagedStore(
            tree=tree, declusterer=HilbertDeclusterer(dimension, num_disks)
        )), queries, k).mean_time_ms
        rr = query_costs(ParallelEngine(DeclusteredStore(
            points, RoundRobinDeclusterer(dimension, num_disks)
        )), queries, k).mean_time_ms
        return hil, rr, rr / max(hil, 1e-9)

    points = uniform_points(num_points, dimension, seed=seed)
    tree = bulk_load(points)
    for num_disks in disks:
        table.add_row("disks", num_disks, *times(points, tree, num_disks))
    for amount in data_sweep:
        amount = max(2000, int(amount * scale))
        points = uniform_points(amount, dimension, seed=seed + amount)
        table.add_row(
            "data", amount, *times(points, bulk_load(points), max(disks))
        )
    table.add_note(
        "expected shape: improvement > 1, growing with disks and data"
    )
    return table


def run_fig12_speedup_uniform(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    disks: Sequence[int] = _DISK_SWEEP,
) -> ResultTable:
    """Figure 12: speed-up of the new technique on uniform data.

    The paper reports speed-up ~8 (NN) and ~13 (10-NN) at 16 disks.
    """
    num_points = max(4000, int(30000 * scale))
    num_queries = max(5, int(16 * scale))
    points = uniform_points(num_points, dimension, seed=seed)
    queries = uniform_points(num_queries, dimension, seed=seed + 1)
    sequential = SequentialEngine(points)
    seq = {k: query_costs(sequential, queries, k) for k in (1, 10)}
    table = ResultTable(
        f"Figure 12: speed-up of the new technique (uniform, d={dimension}, "
        f"N={num_points})",
        ["disks", "speedup_nn", "speedup_10nn"],
    )
    for num_disks in _clamped_disks(dimension, disks):
        store = PagedStore(
            tree=sequential.tree,
            declusterer=NearOptimalDeclusterer(dimension, num_disks),
        )
        row = [num_disks]
        for k in (1, 10):
            costs = query_costs(PagedEngine(store), queries, k)
            row.append(seq[k].mean_time_ms / max(costs.mean_time_ms, 1e-9))
        table.add_row(*row)
    table.add_note("paper: ~8 (NN) and ~13 (10-NN) at 16 disks, near-linear")
    return table


def _fourier_experiment(
    scale: float,
    seed: int,
    dimension: int,
    disks: Sequence[int],
    jitter: float = 0.05,
):
    """Shared setup of the Figure 13/14 Fourier experiments."""
    num_points = max(6000, int(60000 * scale))
    num_queries = max(5, int(14 * scale))
    points = fourier_points(num_points, dimension, seed=seed)
    queries = query_workload(points, num_queries, seed=seed + 1, jitter=jitter)
    sequential = SequentialEngine(points)
    seq = {k: query_costs(sequential, queries, k) for k in (1, 10)}
    results = {}
    for num_disks in _clamped_disks(dimension, disks):
        for declusterer in (
            NearOptimalDeclusterer(dimension, num_disks),
            HilbertDeclusterer(dimension, num_disks),
        ):
            store = PagedStore(tree=sequential.tree, declusterer=declusterer)
            for k in (1, 10):
                costs = query_costs(PagedEngine(store), queries, k)
                results[(num_disks, declusterer.name, k)] = costs.mean_time_ms
    return seq, results


def run_fig13_speedup_fourier(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    disks: Sequence[int] = (2, 4, 8, 16),
) -> ResultTable:
    """Figure 13: speed-up of new vs. Hilbert on Fourier points.

    Paper (40 MB of d=15 Fourier data): both near-linear, but Hilbert
    reaches only a fraction of the optimal speed-up at 16 disks.
    """
    seq, results = _fourier_experiment(scale, seed, dimension, disks)
    table = ResultTable(
        f"Figure 13: speed-up on Fourier points (d={dimension})",
        [
            "disks",
            "new_nn",
            "hilbert_nn",
            "new_10nn",
            "hilbert_10nn",
        ],
    )
    for num_disks in _clamped_disks(dimension, disks):
        table.add_row(
            num_disks,
            seq[1].mean_time_ms / max(results[(num_disks, "new", 1)], 1e-9),
            seq[1].mean_time_ms / max(results[(num_disks, "HIL", 1)], 1e-9),
            seq[10].mean_time_ms / max(results[(num_disks, "new", 10)], 1e-9),
            seq[10].mean_time_ms / max(results[(num_disks, "HIL", 10)], 1e-9),
        )
    table.add_note(
        "expected shape: new near-linear, Hilbert flattens well below it"
    )
    return table


def run_fig14_improvement_over_hilbert(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    disks: Sequence[int] = (2, 4, 8, 16),
) -> ResultTable:
    """Figure 14: improvement factor of the new technique over Hilbert.

    Paper: grows roughly linearly with the disk count, approaching ~5 at
    16 disks on Fourier points.
    """
    _, results = _fourier_experiment(scale, seed, dimension, disks)
    table = ResultTable(
        f"Figure 14: improvement over Hilbert (Fourier, d={dimension})",
        ["disks", "improvement_nn", "improvement_10nn"],
    )
    for num_disks in _clamped_disks(dimension, disks):
        table.add_row(
            num_disks,
            results[(num_disks, "HIL", 1)]
            / max(results[(num_disks, "new", 1)], 1e-9),
            results[(num_disks, "HIL", 10)]
            / max(results[(num_disks, "new", 10)], 1e-9),
        )
    table.add_note("paper: factor increases with disks, up to ~5 at 16 disks")
    return table


def run_fig15_scaleup(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    steps: Sequence[int] = (2, 4, 8, 16),
    points_per_disk: int = 5000,
) -> ResultTable:
    """Figure 15: scale-up — disks and data grow proportionally.

    Paper: total search time stays nearly constant from (2 disks, 10 MB)
    to (16 disks, 80 MB) for both NN and 10-NN queries.
    """
    per_disk = max(1000, int(points_per_disk * scale))
    num_queries = max(5, int(12 * scale))
    table = ResultTable(
        f"Figure 15: scale-up on Fourier points (d={dimension}, "
        f"{per_disk} points/disk)",
        ["disks", "points", "time_nn_ms", "time_10nn_ms"],
    )
    for num_disks in _clamped_disks(dimension, steps):
        num_points = per_disk * num_disks
        points = fourier_points(num_points, dimension, seed=seed)
        queries = query_workload(
            points, num_queries, seed=seed + 1, jitter=0.05
        )
        store = PagedStore(
            points=points,
            declusterer=NearOptimalDeclusterer(dimension, num_disks),
        )
        row = [num_disks, num_points]
        for k in (1, 10):
            costs = query_costs(PagedEngine(store), queries, k)
            row.append(costs.mean_time_ms)
        table.add_row(*row)
    table.add_note("expected shape: roughly constant time across the sweep")
    return table


def run_fig16_recursive_declustering(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    num_disks: int = 16,
    num_families: int = 12,
    max_levels: int = 12,
) -> ResultTable:
    """Figure 16: effect of recursive declustering on clustered CAD data.

    Paper (highly clustered Fourier variants of CAD parts): the extension
    reduced the total search time from 57.6 ms to 17.7 ms (factor ~3.3)
    with recursive declustering.
    """
    num_points = max(5000, int(40000 * scale))
    num_queries = max(5, int(14 * scale))
    points = fourier_points(
        num_points,
        dimension,
        seed=seed,
        num_families=num_families,
        family_spread=0.05,
    )
    queries = query_workload(points, num_queries, seed=seed + 1, jitter=0.05)
    tree = bulk_load(points)
    plain = NearOptimalDeclusterer(dimension, num_disks)
    recursive = RecursiveDeclusterer(
        dimension,
        num_disks,
        max_levels=max_levels,
        imbalance_threshold=1.05,
        split_values=quantile_split_values(points),
    ).fit(points)
    table = ResultTable(
        f"Figure 16: recursive declustering on clustered CAD variants "
        f"(d={dimension}, {num_disks} disks)",
        ["method", "time_nn_ms", "time_10nn_ms"],
    )
    rows = {}
    for declusterer in (plain, recursive):
        store = PagedStore(tree=tree, declusterer=declusterer)
        times = [
            query_costs(PagedEngine(store), queries, k).mean_time_ms
            for k in (1, 10)
        ]
        rows[declusterer.name] = times
        table.add_row(declusterer.name, *times)
    table.add_row(
        "improvement",
        rows["new"][0] / max(rows["new+rec"][0], 1e-9),
        rows["new"][1] / max(rows["new+rec"][1], 1e-9),
    )
    table.add_note(
        f"paper: factor ~3.3 (57.6 ms -> 17.7 ms); recursion levels used: "
        f"{recursive.report.levels_used}, imbalance "
        f"{recursive.report.initial_imbalance:.2f} -> "
        f"{recursive.report.final_imbalance:.2f}"
    )
    return table


def run_fig17_text_data(
    scale: float = 1.0,
    seed: int = 0,
    dimension: int = 15,
    num_disks: int = 16,
) -> ResultTable:
    """Figure 17: total search time on text descriptors, new vs. Hilbert.

    Paper (10 MB of d=15 text descriptors): the new technique beats
    Hilbert by ~1.8x for NN and ~2x for 10-NN queries.
    """
    num_points = max(5000, int(30000 * scale))
    num_queries = max(5, int(14 * scale))
    points = text_descriptors(num_points, dimension, seed=seed)
    queries = query_workload(points, num_queries, seed=seed + 1, jitter=0.03)
    tree = bulk_load(points)
    table = ResultTable(
        f"Figure 17: total search time on text descriptors (d={dimension}, "
        f"{num_disks} disks)",
        ["method", "time_nn_ms", "time_10nn_ms"],
    )
    rows = {}
    for declusterer in (
        NearOptimalDeclusterer(dimension, num_disks),
        HilbertDeclusterer(dimension, num_disks),
    ):
        store = PagedStore(tree=tree, declusterer=declusterer)
        times = [
            query_costs(PagedEngine(store), queries, k).mean_time_ms
            for k in (1, 10)
        ]
        rows[declusterer.name] = times
        table.add_row(declusterer.name, *times)
    table.add_row(
        "improvement",
        rows["HIL"][0] / max(rows["new"][0], 1e-9),
        rows["HIL"][1] / max(rows["new"][1], 1e-9),
    )
    table.add_note("paper: improvement ~1.8 (NN) and ~2.0 (10-NN)")
    return table
