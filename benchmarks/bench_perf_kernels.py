#!/usr/bin/env python
"""Perf-regression harness for the vectorized traversal kernels (PR 5).

Runs the seeded workloads behind the kernel layer's two performance
claims and records them as a ``repro.result_table/v1`` table plus a
root-level ``BENCH_kernels.json`` trajectory file:

1. **Kernel speedup** — coordinated kNN on a cold cache, as shipped
   (:mod:`repro.index.kernels`) vs. the same engine under
   ``tests.scalar_oracle.scalar_kernels()`` (every kernel swapped for
   its per-entry loop), on the *same* store.  Both runs share the one
   best-first loop, so the ratio isolates the kernels.  Answers and
   every counter must agree bit-for-bit (re-checked here, not just in
   the oracle suite); the run fails if the ratio drops below the mode's
   floor: 2.5x in ``--smoke`` (ten runs of this code: 3.29-3.66x,
   median 3.5x) and 2.75x in the full d=16 / N=50k workload (ten runs:
   2.91-4.48x, median 4.15x, on a shared 2-vCPU box).
2. **Batch API** — ``ParallelEngine.query_batch`` with a warm buffer
   pool (and warm per-node kernel caches) vs. the same queries issued
   as N sequential ``query`` calls against a cold engine; neighbors
   must be identical and the warm batch must win on wall-clock.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_kernels.py --smoke
    PYTHONPATH=src python benchmarks/bench_perf_kernels.py  # full run

The full run appends to ``BENCH_kernels.json`` so future PRs can diff
the trajectory; ``--smoke`` (the CI ``perf-smoke`` job) writes its table
to ``benchmarks/results/perf_kernels_smoke.json`` and leaves the
committed trajectory untouched unless ``--trajectory`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.vertex_coloring import NearOptimalDeclusterer
from repro.experiments.harness import ResultTable
from repro.obs import table_to_json
from repro.parallel.engine import ParallelEngine
from repro.parallel.store import DeclusteredStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tests.scalar_oracle import scalar_kernels  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"


@dataclass(frozen=True)
class Workload:
    """One seeded benchmark configuration."""

    mode: str
    num_points: int
    dimension: int
    k: int
    num_queries: int
    num_disks: int
    cache_pages: int
    min_speedup: float
    seed: int = 42


SMOKE = Workload(
    mode="smoke", num_points=6_000, dimension=16, k=10,
    num_queries=8, num_disks=8, cache_pages=512, min_speedup=2.5,
)
FULL = Workload(
    mode="full", num_points=50_000, dimension=16, k=10,
    num_queries=32, num_disks=16, cache_pages=1024, min_speedup=2.75,
)


def _build(workload: Workload):
    """Seeded (points, queries, fresh-store factory) for a workload."""
    rng = np.random.default_rng(workload.seed)
    points = rng.random((workload.num_points, workload.dimension))
    queries = rng.random((workload.num_queries, workload.dimension))

    def fresh_store() -> DeclusteredStore:
        # A fresh store per measurement: per-node kernel caches live on
        # the tree, so sharing one store would leak warmth between the
        # cold-path and warm-path timings.
        return DeclusteredStore(
            points,
            NearOptimalDeclusterer(
                workload.dimension, workload.num_disks
            ),
        )

    return points, queries, fresh_store


def _time_queries(engine, queries, k: int) -> float:
    """Total wall-clock seconds for one sequential pass of ``query``."""
    start = time.perf_counter()
    for query in queries:
        engine.query(query, k, mode="coordinated")
    return time.perf_counter() - start


def measure_kernel_speedup(workload: Workload, table: ResultTable) -> float:
    """Cold-cache coordinated kNN: kernels vs. their scalar loops."""
    _, queries, fresh_store = _build(workload)
    timings = {}
    answers = {}
    for path, patch in (
        ("kernels", contextlib.nullcontext), ("scalar", scalar_kernels)
    ):
        engine = ParallelEngine(fresh_store(), cache=None)
        with patch():
            engine.query(queries[0], workload.k)  # compile/import warm-up
            elapsed = _time_queries(engine, queries, workload.k)
            timings[path] = elapsed / len(queries) * 1000.0
            answers[path] = [
                engine.query(query, workload.k) for query in queries
            ]
    for fast, slow in zip(answers["kernels"], answers["scalar"]):
        assert fast.neighbors == slow.neighbors, "kernel answers diverged"
        assert fast.distance_computations == slow.distance_computations
        assert np.array_equal(fast.pages_per_disk, slow.pages_per_disk)
    speedup = timings["scalar"] / timings["kernels"]
    table.add_row(
        "knn_coordinated_cold", "scalar", len(queries),
        round(timings["scalar"], 3), 1.0,
    )
    table.add_row(
        "knn_coordinated_cold", "kernels", len(queries),
        round(timings["kernels"], 3), round(speedup, 2),
    )
    return speedup


def measure_batch_speedup(workload: Workload, table: ResultTable) -> float:
    """Warm ``query_batch`` vs. N sequential cold ``query`` calls."""
    _, queries, fresh_store = _build(workload)
    cold_engine = ParallelEngine(
        fresh_store(), cache=workload.cache_pages
    )
    start = time.perf_counter()
    singles = [
        cold_engine.query(query, workload.k) for query in queries
    ]
    singles_s = time.perf_counter() - start

    warm_engine = ParallelEngine(
        fresh_store(), cache=workload.cache_pages
    )
    warm_engine.query_batch(queries, workload.k)  # warm pool + caches
    start = time.perf_counter()
    batch = warm_engine.query_batch(queries, workload.k)
    batch_s = time.perf_counter() - start

    for single, neighbors in zip(singles, batch.neighbors):
        assert [n.oid for n in single.neighbors] == [
            n.oid for n in neighbors
        ], "query_batch answers diverged from sequential query calls"
    speedup = singles_s / batch_s
    table.add_row(
        "knn_batch_warm_pool", "singles_cold", len(queries),
        round(singles_s / len(queries) * 1000.0, 3), 1.0,
    )
    table.add_row(
        "knn_batch_warm_pool", "query_batch_warm", len(queries),
        round(batch_s / len(queries) * 1000.0, 3), round(speedup, 2),
    )
    return speedup


def append_trajectory(
    path: pathlib.Path,
    workload: Workload,
    kernel_speedup: float,
    batch_speedup: float,
    keep_runs: int = 50,
) -> None:
    """Append one run record to the ``BENCH_kernels.json`` trajectory."""
    document = {"schema": TRAJECTORY_SCHEMA, "bench": "perf_kernels",
                "runs": []}
    if path.exists():
        loaded = json.loads(path.read_text(encoding="utf-8"))
        if (
            isinstance(loaded, dict)
            and loaded.get("schema") == TRAJECTORY_SCHEMA
        ):
            document = loaded
    runs = document.setdefault("runs", [])
    runs.append({
        "mode": workload.mode,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "workload": {
            "num_points": workload.num_points,
            "dimension": workload.dimension,
            "k": workload.k,
            "num_queries": workload.num_queries,
            "num_disks": workload.num_disks,
            "cache_pages": workload.cache_pages,
            "seed": workload.seed,
        },
        "kernel_speedup": round(kernel_speedup, 3),
        "batch_speedup": round(batch_speedup, 3),
        "min_speedup": workload.min_speedup,
    })
    document["runs"] = runs[-keep_runs:]
    path.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def run(
    workload: Workload, trajectory: Optional[pathlib.Path]
) -> int:
    """Execute the workload; 0 on success, 1 on a perf regression."""
    table = ResultTable(
        title=(
            "Vectorized kernel perf "
            f"({workload.mode}: d={workload.dimension}, "
            f"N={workload.num_points}, k={workload.k})"
        ),
        columns=["workload", "path", "queries", "ms_per_query",
                 "speedup"],
    )
    kernel_speedup = measure_kernel_speedup(workload, table)
    batch_speedup = measure_batch_speedup(workload, table)
    table.add_note(
        f"floor: kernels >= {workload.min_speedup}x scalar; "
        "batch must beat cold sequential singles (>= 1x)."
    )
    table.add_note(
        "answers, distance_computations, and pages_per_disk re-checked "
        "bit-for-bit between both paths during the run."
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    name = (
        "perf_kernels_smoke" if workload.mode == "smoke"
        else "perf_kernels"
    )
    (RESULTS_DIR / f"{name}.txt").write_text(table.to_text() + "\n")
    (RESULTS_DIR / f"{name}.json").write_text(
        table_to_json(table) + "\n"
    )
    if trajectory is not None:
        append_trajectory(
            trajectory, workload, kernel_speedup, batch_speedup
        )
    print(table.to_text())

    failures: List[str] = []
    if kernel_speedup < workload.min_speedup:
        failures.append(
            f"kernel speedup {kernel_speedup:.2f}x is below the "
            f"{workload.min_speedup}x floor"
        )
    if batch_speedup < 1.0:
        failures.append(
            f"warm query_batch ({batch_speedup:.2f}x) lost to cold "
            "sequential query calls"
        )
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload with a 2.5x floor (the CI perf-smoke "
             "job)",
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path, default=None,
        help="trajectory file to append to (default: BENCH_kernels.json "
             "at the repo root for full runs, none for --smoke)",
    )
    options = parser.parse_args(argv)
    workload = SMOKE if options.smoke else FULL
    trajectory = options.trajectory
    if trajectory is None and not options.smoke:
        trajectory = REPO_ROOT / "BENCH_kernels.json"
    return run(workload, trajectory)


if __name__ == "__main__":
    raise SystemExit(main())
