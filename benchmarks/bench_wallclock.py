#!/usr/bin/env python
"""Wall-clock scaling harness for the out-of-core process engine (PR 8).

Everything else in ``benchmarks/`` measures *simulated* cost (page
counts, the paper's service-time model).  This harness measures real
elapsed time: per-disk worker processes answering kNN queries out of
memory-mapped page files, at increasing disk counts over the **same**
data and queries.

The page files sit on media (tmpfs, OS page cache) orders of magnitude
faster than the rotating disks whose overlap the paper measures, so on
a raw mmap read the workers are CPU-bound and share the same cores —
there is no I/O to overlap.  The timed passes therefore run with
``REPRO_SIMULATED_DISK_MS`` (see :mod:`repro.storage.mmap_store`): each
page read sleeps a fixed service time per block inside the worker that
issued it, restoring the physical quantity the paper's speed-up comes
from.  Independent disks serve their sleeps concurrently; the parity
sweeps run with the knob *off*.

For each disk count it records:

* cold and warm milliseconds per query (cold = first pass after the
  mmap is opened, so it includes the page faults; warm = best of
  ``repeats`` subsequent passes),
* charged pages per second of wall-clock (throughput in the paper's
  cost unit), and
* warm wall-clock speed-up relative to the 1-disk configuration.

Answers and per-disk page counts are re-checked bit-for-bit against the
single-process :class:`~repro.parallel.paged.PagedEngine` on every
configuration — a scaling number for a wrong answer is worthless.  The
run **fails** (exit 1) unless the warm speed-up is strictly increasing
across the disk ladder; ``docs/performance.md`` records the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke
    PYTHONPATH=src python benchmarks/bench_wallclock.py  # full run

The full run appends to ``BENCH_wallclock.json`` at the repo root;
``--smoke`` (the CI step) writes ``benchmarks/results/wallclock_smoke``
tables and touches the committed trajectory only with ``--trajectory``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from repro.core.vertex_coloring import NearOptimalDeclusterer
from repro.experiments.harness import ResultTable
from repro.obs import table_to_json
from repro.parallel.paged import PagedEngine, PagedStore
from repro.parallel.process import ProcessParallelEngine
from repro.storage import (
    SIMULATED_DISK_MS_ENV,
    MmapStore,
    save_paged_store,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"

DISK_LADDER = (1, 2, 4)


@dataclass(frozen=True)
class Workload:
    """One seeded wall-clock configuration."""

    mode: str
    num_points: int
    dimension: int
    k: int
    num_queries: int
    repeats: int
    disk_ms: float
    seed: int = 42


SMOKE = Workload(
    mode="smoke", num_points=8_000, dimension=16, k=10,
    num_queries=12, repeats=3, disk_ms=0.5,
)
FULL = Workload(
    mode="full", num_points=40_000, dimension=16, k=10,
    num_queries=24, repeats=3, disk_ms=0.2,
)


def _time_pass(engine, queries, k: int) -> float:
    """Wall-clock seconds for one sequential pass over ``queries``."""
    start = time.perf_counter()
    for query in queries:
        engine.query(query, k)
    return time.perf_counter() - start


def peak_rss_bytes() -> int:
    """High-water RSS of this process and its reaped workers, in bytes.

    ``ru_maxrss`` is kilobytes on Linux; taking the max over SELF and
    CHILDREN covers both the coordinator and the per-disk worker
    processes (workers are joined before each rung returns, so their
    high-water marks have been folded into CHILDREN by then).
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) * 1024


def measure_disk_count(
    workload: Workload,
    num_disks: int,
    points: np.ndarray,
    queries: np.ndarray,
    workdir: pathlib.Path,
) -> dict:
    """Build, verify, and time one rung of the disk ladder."""
    source = PagedStore(
        points=points,
        declusterer=NearOptimalDeclusterer(workload.dimension, num_disks),
    )
    directory = workdir / f"store_{num_disks}"
    save_paged_store(source, directory)
    with MmapStore(directory) as store:
        reference = PagedEngine(store, cache=None)
        expected = [
            reference.query(query, workload.k) for query in queries
        ]
        charged_pages = sum(
            int(result.pages_per_disk.sum()) for result in expected
        )
        with ProcessParallelEngine(store) as engine:
            # Parity first: answers, page counts, and counters must be
            # bit-for-bit identical to the in-process engine.
            for query, want in zip(queries, expected):
                got = engine.query(query, workload.k)
                assert [(n.oid, n.distance) for n in got.neighbors] == [
                    (n.oid, n.distance) for n in want.neighbors
                ], f"answers diverged at {num_disks} disks"
                assert np.array_equal(
                    got.pages_per_disk, want.pages_per_disk
                ), f"page counts diverged at {num_disks} disks"
                assert (
                    got.distance_computations
                    == want.distance_computations
                ), f"computation counts diverged at {num_disks} disks"
            # The parity sweep warmed the workers and faulted every
            # page once already, so take the cold pass on a fresh
            # engine over a freshly opened mapping — with the
            # simulated disk service time switched on so there is
            # actual I/O wait for the per-disk workers to overlap.
        os.environ[SIMULATED_DISK_MS_ENV] = str(workload.disk_ms)
        try:
            with MmapStore(directory) as cold_store:
                with ProcessParallelEngine(cold_store) as engine:
                    # Spawn + import warm-up, at the timed k (a
                    # larger k would respawn the workers).
                    engine.query(queries[0], workload.k)
                    cold_s = _time_pass(engine, queries, workload.k)
                    warm_s = min(
                        _time_pass(engine, queries, workload.k)
                        for _ in range(workload.repeats)
                    )
        finally:
            os.environ.pop(SIMULATED_DISK_MS_ENV, None)
    return {
        "disks": num_disks,
        "cold_ms_per_query": round(
            cold_s / len(queries) * 1000.0, 3
        ),
        "warm_ms_per_query": round(
            warm_s / len(queries) * 1000.0, 3
        ),
        "charged_pages": charged_pages,
        "pages_per_sec": round(charged_pages / warm_s, 1),
        "warm_s": warm_s,
        "peak_rss_mb": round(peak_rss_bytes() / (1024 * 1024), 1),
    }


def append_trajectory(
    path: pathlib.Path,
    workload: Workload,
    rungs: List[dict],
    keep_runs: int = 50,
) -> None:
    """Append one run record to the ``BENCH_wallclock.json`` trajectory."""
    document = {"schema": TRAJECTORY_SCHEMA, "bench": "wallclock",
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
            "repeats": workload.repeats,
            "disk_ms": workload.disk_ms,
            "seed": workload.seed,
        },
        "disk_ladder": [
            {key: rung[key] for key in (
                "disks", "cold_ms_per_query", "warm_ms_per_query",
                "charged_pages", "pages_per_sec", "speedup",
                "peak_rss_mb",
            )}
            for rung in rungs
        ],
    })
    document["runs"] = runs[-keep_runs:]
    path.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def run(
    workload: Workload, trajectory: Optional[pathlib.Path]
) -> int:
    """Execute the disk ladder; 0 on success, 1 on a scaling failure."""
    rng = np.random.default_rng(workload.seed)
    points = rng.random((workload.num_points, workload.dimension))
    queries = rng.random((workload.num_queries, workload.dimension))

    table = ResultTable(
        title=(
            "Out-of-core wall-clock scaling "
            f"({workload.mode}: d={workload.dimension}, "
            f"N={workload.num_points}, k={workload.k}, "
            f"{workload.num_queries} queries)"
        ),
        columns=["disks", "cold_ms_per_query", "warm_ms_per_query",
                 "pages_per_sec", "speedup", "peak_rss_mb"],
    )
    rungs: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-wallclock-") as tmp:
        workdir = pathlib.Path(tmp)
        for num_disks in DISK_LADDER:
            rung = measure_disk_count(
                workload, num_disks, points, queries, workdir
            )
            rung["speedup"] = round(
                rungs[0]["warm_s"] / rung["warm_s"], 3
            ) if rungs else 1.0
            rungs.append(rung)
            print(
                f"  {num_disks} disk(s): "
                f"{rung['warm_ms_per_query']} ms/query warm, "
                f"{rung['speedup']}x", file=sys.stderr,
            )

    for rung in rungs:
        table.add_row(
            rung["disks"], rung["cold_ms_per_query"],
            rung["warm_ms_per_query"], rung["pages_per_sec"],
            rung["speedup"], rung["peak_rss_mb"],
        )
    table.add_note(
        "real elapsed time: per-disk worker processes over mmap page "
        "files; identical data and queries at every disk count."
    )
    table.add_note(
        f"timed passes simulate {workload.disk_ms} ms of disk service "
        "time per page block (REPRO_SIMULATED_DISK_MS); parity sweeps "
        "run with the knob off."
    )
    table.add_note(
        "answers and per-disk page counts verified bit-for-bit against "
        "the single-process engine at every rung before timing."
    )
    table.add_note(
        "speedup = warm 1-disk wall-clock / warm N-disk wall-clock "
        "(best of repeats); must be strictly increasing."
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    name = (
        "wallclock_smoke" if workload.mode == "smoke" else "wallclock"
    )
    (RESULTS_DIR / f"{name}.txt").write_text(table.to_text() + "\n")
    (RESULTS_DIR / f"{name}.json").write_text(
        table_to_json(table) + "\n"
    )
    if trajectory is not None:
        append_trajectory(trajectory, workload, rungs)
    print(table.to_text())

    speedups = [rung["speedup"] for rung in rungs]
    if all(a < b for a, b in zip(speedups, speedups[1:])):
        return 0
    print(
        f"SCALING FAILURE: warm speed-up {speedups} is not strictly "
        f"increasing across {[r['disks'] for r in rungs]} disks",
        file=sys.stderr,
    )
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload (the CI wallclock-smoke step)",
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path, default=None,
        help="trajectory file to append to (default: "
             "BENCH_wallclock.json at the repo root for full runs, "
             "none for --smoke)",
    )
    parser.add_argument(
        "--num-points", type=int, default=None, dest="num_points",
        help="override the workload's point count (keeps smoke/full "
             "trajectories comparable with bench_scale.py rungs)",
    )
    parser.add_argument(
        "--disk-ms", type=float, default=None, dest="disk_ms",
        help="override the simulated per-block disk service time used "
             "by the timed passes (ms)",
    )
    options = parser.parse_args(argv)
    workload = SMOKE if options.smoke else FULL
    if options.num_points is not None:
        if options.num_points < 1:
            parser.error("--num-points must be >= 1")
        workload = replace(workload, num_points=options.num_points)
    if options.disk_ms is not None:
        if options.disk_ms < 0:
            parser.error("--disk-ms must be >= 0")
        workload = replace(workload, disk_ms=options.disk_ms)
    trajectory = options.trajectory
    if trajectory is None and not options.smoke:
        trajectory = REPO_ROOT / "BENCH_wallclock.json"
    return run(workload, trajectory)


if __name__ == "__main__":
    raise SystemExit(main())
