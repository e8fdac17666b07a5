"""Experiment harness and per-figure reproductions.

Each ``run_figNN_*`` function regenerates one figure of the paper's
evaluation as a :class:`~repro.experiments.harness.ResultTable`; the
``benchmarks/`` directory wraps them in pytest-benchmark entry points.
"""

from __future__ import annotations

from repro.experiments.figures_parallel import (
    run_fig02_round_robin_speedup,
    run_fig03_hilbert_vs_round_robin,
    run_fig12_speedup_uniform,
    run_fig13_speedup_fourier,
    run_fig14_improvement_over_hilbert,
    run_fig15_scaleup,
    run_fig16_recursive_declustering,
    run_fig17_text_data,
)
from repro.experiments.extensions import (
    run_ext_dynamic_reorganization,
    run_ext_optimal_coloring,
    run_ext_partial_match,
    run_ext_throughput,
)
from repro.experiments.figures_structure import (
    run_fig01_sequential_dimension,
    run_fig05_surface_probability,
    run_fig06_sphere_buckets,
    run_fig07_near_optimality,
    run_fig08_assignment_graph,
    run_fig10_color_staircase,
)
from repro.experiments.harness import (
    QueryCosts,
    ResultTable,
    geometric_mean,
    query_costs,
)

__all__ = [
    "QueryCosts",
    "ResultTable",
    "geometric_mean",
    "query_costs",
    "run_ext_dynamic_reorganization",
    "run_ext_optimal_coloring",
    "run_ext_partial_match",
    "run_ext_throughput",
    "run_fig01_sequential_dimension",
    "run_fig02_round_robin_speedup",
    "run_fig03_hilbert_vs_round_robin",
    "run_fig05_surface_probability",
    "run_fig06_sphere_buckets",
    "run_fig07_near_optimality",
    "run_fig08_assignment_graph",
    "run_fig10_color_staircase",
    "run_fig12_speedup_uniform",
    "run_fig13_speedup_fourier",
    "run_fig14_improvement_over_hilbert",
    "run_fig15_scaleup",
    "run_fig16_recursive_declustering",
    "run_fig17_text_data",
]
