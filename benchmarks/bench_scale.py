#!/usr/bin/env python
"""Scale trajectory for the streaming out-of-core lifecycle (PR 10).

``bench_wallclock.py`` stops at N=40k because ``bulk_load_mmap`` holds
the whole dataset and the full STR sort in RAM.  This harness pushes the
N ladder into the millions by exercising the *streaming* path end to
end:

* **Build** — each rung's store is built by a child process running
  :func:`repro.storage.bulk.stream_bulk_load_mmap` over an on-disk
  ``.npy`` file, with the builder's working set capped by
  ``max_ram_bytes``.  The child reports its own high-water RSS
  (``getrusage``), and the run **fails** if the build's incremental RSS
  (peak minus the post-import baseline) exceeds the configured bound —
  the "bounded-RAM construction" claim, enforced, not asserted
  (``build_rss_ok``: a gate on the build-phase *delta*, which is why it
  can read ``true`` beside an absolute ``peak_rss_mb`` above the bound).
* **Query** — the built store is served, in a second fresh child, by
  :class:`~repro.parallel.process.ProcessParallelEngine`: cold and warm
  ms/query for the per-call dispatch path, then the same pass through
  ``query_batch`` (the same shared-memory query ring, one post per 16
  queries: each worker gathers a page, and pays its disk service time,
  once per post).  Batch results are re-checked bit-for-bit against the
  per-call results at every rung, and the run **fails** unless batch
  pages/sec strictly beats per-call pages/sec on every 4-disk rung —
  the throughput claim batch dispatch exists for.
  The child also reports the query phase's own high-water marks — the
  coordinator's and the largest disk worker's, interpreter, mapped
  page-file pages and chunk gathers included — and the run **fails** if
  the largest process of the phase exceeds the same bound
  (``query_rss_ok``).
* **Floor** — beside every ms/query column, the pass's floor (the
  busiest disk's device ms, its served blocks times the service time,
  per call, over the queries) and the time over it; beside the charged
  pages, the pages the workers gathered.  The run **fails** if a floor
  exceeds its pass's time, or if the 1M x 4 service-time rung gathers
  more than :data:`GATHER_BOUND` times its charged pages per call (the
  median of the warm passes).

Timed passes run with ``REPRO_SIMULATED_DISK_MS`` switched on (see
``bench_wallclock.py`` for why: the page files sit in the OS page
cache, so without a simulated per-block service time there is no I/O
for the disks to overlap).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py --smoke      # CI
    PYTHONPATH=src python benchmarks/bench_scale.py              # 100k/1M
    PYTHONPATH=src python benchmarks/bench_scale.py --max-n 4000000

Full runs append to ``BENCH_scale.json`` at the repo root; ``--smoke``
writes ``benchmarks/results/scale_smoke`` tables only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.harness import ResultTable
from repro.obs import table_to_json
from repro.parallel.process import ProcessParallelEngine, _stop_fork_server
from repro.storage import SIMULATED_DISK_MS_ENV, MmapStore

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"

DIMENSION = 16
K = 10
NUM_QUERIES = 12
REPEATS = 3
DISK_MS = 0.2
SEED = 42
#: RAM bound handed to ``stream_bulk_load_mmap`` (and enforced on the
#: builder child's incremental RSS).
MAX_RAM_BYTES = 256 * 1024 * 1024
#: Most pages the 1M x 4 service-time rung may gather per call, as a
#: multiple of its charged pages (median of the warm passes): a paced
#: disk serves no page past the bound it holds.
GATHER_BOUND = 1.03


@dataclass(frozen=True)
class Rung:
    """One (N, disks) cell of the scale ladder, timed at ``disk_ms`` of
    simulated service time per page block."""

    num_points: int
    num_disks: int
    disk_ms: float = DISK_MS


SMOKE_LADDER = (Rung(20_000, 1), Rung(20_000, 4))
FULL_LADDER = (
    Rung(100_000, 1),
    Rung(100_000, 2),
    Rung(100_000, 4),
    Rung(1_000_000, 4),
    Rung(1_000_000, 4, 0.0),
    Rung(4_000_000, 4),
)


def write_npy(
    path: pathlib.Path, n: int, d: int, seed: int, chunk: int = 262_144
) -> None:
    """Stream a seeded uniform (n, d) float64 dataset to a ``.npy``.

    Written chunk-by-chunk so this process never holds the dataset —
    the same discipline the builder under test is being measured on.
    """
    header = {
        "descr": "<f8", "fortran_order": False, "shape": (n, d),
    }
    rng = np.random.default_rng(seed)
    with open(path, "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        remaining = n
        while remaining:
            take = min(chunk, remaining)
            handle.write(rng.random((take, d)).tobytes())
            remaining -= take


def build_child(
    npy_path: str, store_dir: str, num_disks: int, max_ram_bytes: int
) -> int:
    """Child-process entry: stream-build the store, report RSS as JSON.

    Emits ``{"build_s", "baseline_rss_bytes", "peak_rss_bytes"}`` on
    stdout.  The baseline is sampled after imports and argument setup,
    so ``peak - baseline`` is the build's own incremental footprint.
    """
    from repro.core.vertex_coloring import NearOptimalDeclusterer
    from repro.storage import stream_bulk_load_mmap

    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    store = stream_bulk_load_mmap(
        npy_path,
        NearOptimalDeclusterer(DIMENSION, num_disks),
        store_dir,
        max_ram_bytes=max_ram_bytes,
    )
    build_s = time.perf_counter() - start
    store.close()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "build_s": build_s,
        "baseline_rss_bytes": baseline_kb * 1024,
        "peak_rss_bytes": peak_kb * 1024,
    }))
    return 0


def _run_child(phase: str, *args: object) -> dict:
    """Run one phase of a rung (``build`` or ``query``) in a fresh child
    process of this script, so its ``getrusage`` marks are that phase's
    alone; returns the JSON report it printed."""
    completed = subprocess.run(
        [
            sys.executable, os.fspath(pathlib.Path(__file__).resolve()),
            "--child", phase, *(str(arg) for arg in args),
        ],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.fspath(REPO_ROOT / "src")},
    )
    return json.loads(completed.stdout)


def _queries() -> np.ndarray:
    """The seeded query set every rung answers."""
    return np.random.default_rng(SEED + 1).random((NUM_QUERIES, DIMENSION))


def _time_per_call(engine, queries: np.ndarray, k: int) -> List[float]:
    """One per-call pass over ``queries``: ``[wall-clock seconds, floor
    ms, pages gathered]``, the floor summing each call's busiest disk's
    device ms (time the pass cannot beat)."""
    floor_ms, gathered = 0.0, 0
    start = time.perf_counter()
    for query in queries:
        engine.query(query, k)
        floor_ms += float(engine.last_device_ms.max())
        gathered += engine.last_gathered_pages
    return [time.perf_counter() - start, floor_ms, gathered]


def _time_batch(engine, queries: np.ndarray, k: int) -> List[float]:
    """One ``query_batch`` pass: ``[wall-clock seconds, floor ms, pages
    gathered]``, the floor the busiest disk's device ms."""
    start = time.perf_counter()
    engine.query_batch(queries, k)
    seconds = time.perf_counter() - start
    floor_ms = float(engine.last_device_ms.max())
    return [seconds, floor_ms, engine.last_gathered_pages]


def query_child(store_dir: str, disk_ms: float) -> int:
    """Child-process entry: one rung's query phase, reported as JSON.

    Emits the timed passes (each ``[seconds, floor ms, pages gathered]``,
    :func:`_time_per_call`), the charged page total and the phase's RSS
    high-water marks: ``RUSAGE_SELF`` is the coordinator,
    ``RUSAGE_CHILDREN`` the largest disk worker.  The workers are the
    fork server's children, which the server reaps; the server is this
    process's child, reaped here once the engines are closed, and so
    folds its own mark and its workers' into ``RUSAGE_CHILDREN``.  The
    figure is the larger of the server's mark (its imports, about 38 MB
    on x86-64 Linux) and the largest worker's: it can overstate a worker
    smaller than the server, never understate one.
    """
    queries = _queries()
    with MmapStore(store_dir) as store:
        with ProcessParallelEngine(store) as engine:
            # Exactness first: the batch fast path must return exactly
            # the per-call answers (and page counts) it is replacing.
            percall = [engine.query(query, K) for query in queries]
            batch = engine.query_batch(queries, K)
            for index, (want, got) in enumerate(
                zip(percall, batch.results)
            ):
                assert [
                    (n.oid, n.distance) for n in got.neighbors
                ] == [
                    (n.oid, n.distance) for n in want.neighbors
                ], f"batch answers diverged at query {index}"
                assert np.array_equal(
                    got.pages_per_disk, want.pages_per_disk
                ), f"batch page counts diverged at query {index}"
            charged_pages = sum(
                int(result.pages_per_disk.sum()) for result in percall
            )
    # Timed passes: simulated per-block disk service time — the
    # I/O-bound deployment this engine exists for.  cold/warm ms/query
    # show the declustering speedup across disk counts; pages/sec
    # compares the two dispatch paths in the same regime (charged pages
    # over the best timed pass of each).  The modes are interleaved so
    # run-to-run drift (page-cache state, CPU frequency) hits both
    # equally.
    os.environ[SIMULATED_DISK_MS_ENV] = str(disk_ms)
    with MmapStore(store_dir) as cold_store:
        with ProcessParallelEngine(cold_store) as engine:
            engine.query(queries[0], K)  # spawn warm-up, at the timed k
            cold = _time_per_call(engine, queries, K)
            warm, batch = [], []
            for _ in range(REPEATS):
                warm.append(_time_per_call(engine, queries, K))
                batch.append(_time_batch(engine, queries, K))
    _stop_fork_server()
    print(json.dumps({
        "cold": cold, "warm": warm, "batch": batch,
        "charged_pages": charged_pages,
        "coordinator_peak_rss_bytes": 1024 * resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss,
        "worker_peak_rss_bytes": 1024 * resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss,
    }))
    return 0


def measure_rung(
    rung: Rung,
    workdir: pathlib.Path,
    max_ram_bytes: int,
    disk_ms: float,
) -> dict:
    """Build + query one ladder rung, each phase in its own child;
    returns the rung's result record."""
    npy_path = workdir / f"points_{rung.num_points}.npy"
    if not npy_path.exists():
        write_npy(npy_path, rung.num_points, DIMENSION, SEED)
    store_dir = workdir / f"store_{rung.num_points}_{rung.num_disks}"
    build = _run_child(
        "build", npy_path, store_dir, rung.num_disks, max_ram_bytes
    )
    build_rss_bytes = build["peak_rss_bytes"] - build["baseline_rss_bytes"]
    query = _run_child("query", store_dir, disk_ms)
    query_peak_bytes = max(
        query["coordinator_peak_rss_bytes"], query["worker_peak_rss_bytes"]
    )
    megabyte = 1024 * 1024
    per_query_ms = 1000.0 / NUM_QUERIES
    charged = query["charged_pages"]
    # The best pass of each mode, with its own floor; gathered pages per
    # call are the median over the warm passes.
    cold_s, cold_floor, _ = query["cold"]
    warm_s, warm_floor, _ = min(query["warm"])
    batch_s, batch_floor, _ = min(query["batch"])
    gathered = float(np.median([done for *_, done in query["warm"]]))

    def ms(seconds: float) -> float:
        return round(seconds * per_query_ms, 3)

    def over(seconds: float, floor_ms: float) -> float:
        return round(seconds * per_query_ms - floor_ms / NUM_QUERIES, 3)

    return {
        "num_points": rung.num_points,
        "disks": rung.num_disks,
        "disk_ms": disk_ms,
        "build_s": round(build["build_s"], 2),
        "build_rss_mb": round(build_rss_bytes / megabyte, 1),
        "peak_rss_mb": round(build["peak_rss_bytes"] / megabyte, 1),
        "rss_bound_mb": round(max_ram_bytes / megabyte, 1),
        "build_rss_ok": build_rss_bytes <= max_ram_bytes,
        "coordinator_peak_rss_mb": round(
            query["coordinator_peak_rss_bytes"] / megabyte, 1
        ),
        "worker_peak_rss_mb": round(
            query["worker_peak_rss_bytes"] / megabyte, 1
        ),
        "query_peak_rss_mb": round(query_peak_bytes / megabyte, 1),
        "query_rss_ok": query_peak_bytes <= max_ram_bytes,
        "cold_ms_per_query": ms(cold_s),
        "warm_ms_per_query": ms(warm_s),
        "batch_ms_per_query": ms(batch_s),
        "floor_ms_per_query": round(warm_floor / NUM_QUERIES, 3),
        "cold_over_floor_ms_per_query": over(cold_s, cold_floor),
        "warm_over_floor_ms_per_query": over(warm_s, warm_floor),
        "batch_floor_ms_per_query": round(batch_floor / NUM_QUERIES, 3),
        "batch_over_floor_ms_per_query": over(batch_s, batch_floor),
        "charged_pages": charged,
        "gathered_pages": round(gathered),
        "batch_gathered_pages": round(
            float(np.median([done for *_, done in query["batch"]]))
        ),
        "gathered_over_charged": round(gathered / charged, 4),
        "percall_pages_per_sec": round(charged / warm_s, 1),
        "batch_pages_per_sec": round(charged / batch_s, 1),
    }


def build_rss_ok(record: dict) -> bool:
    """A rung record's build-phase RSS gate; trajectory runs 1-3
    recorded it under the name ``rss_ok``."""
    return bool(record.get("build_rss_ok", record.get("rss_ok")))


def previous_ladder(path: Optional[pathlib.Path], mode: str) -> List[dict]:
    """The ladder of the trajectory's latest run of ``mode`` (``[]``
    when there is none): what this run's numbers are read against."""
    if path is None or not path.exists():
        return []
    runs = json.loads(path.read_text(encoding="utf-8")).get("runs", [])
    return next(
        (run["ladder"] for run in reversed(runs) if run["mode"] == mode), []
    )


def append_trajectory(
    path: pathlib.Path, mode: str, rungs: List[dict], keep_runs: int = 50
) -> None:
    """Append one run record to the ``BENCH_scale.json`` trajectory."""
    document = {"schema": TRAJECTORY_SCHEMA, "bench": "scale",
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
        "mode": mode,
        "timestamp": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "workload": {
            "dimension": DIMENSION,
            "k": K,
            "num_queries": NUM_QUERIES,
            "repeats": REPEATS,
            "disk_ms": DISK_MS,
            "seed": SEED,
            "max_ram_bytes": MAX_RAM_BYTES,
        },
        "ladder": rungs,
    })
    document["runs"] = runs[-keep_runs:]
    path.write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


#: Rung columns the run notes set beside the previous run's.
COMPARED = (
    "build_s", "build_rss_mb", "coordinator_peak_rss_mb",
    "worker_peak_rss_mb", "query_peak_rss_mb", "warm_ms_per_query",
    "batch_ms_per_query", "gathered_pages",
)


def _rung_key(record: dict) -> tuple:
    """A rung record's ladder cell; runs before 9 timed every rung at
    :data:`DISK_MS` and did not record it."""
    return (
        record["num_points"], record["disks"],
        record.get("disk_ms", DISK_MS),
    )


def _gate(passed: Optional[bool]) -> str:
    return "-" if passed is None else "ok" if passed else "FAILED"


def against_previous(record: dict, earlier: dict) -> str:
    """One rung's :data:`COMPARED` columns and gates as ``previous ->
    now`` (``-`` where the previous run did not record one)."""
    pairs = ", ".join(
        f"{name} {earlier.get(name, '-')} -> {record[name]}"
        for name in COMPARED
    )
    gates = (
        f"build gate {_gate(build_rss_ok(earlier))} -> "
        f"{_gate(build_rss_ok(record))}, query gate "
        f"{_gate(earlier.get('query_rss_ok'))} -> "
        f"{_gate(record['query_rss_ok'])}"
    )
    return (
        f"N={record['num_points']} disks={record['disks']} disk_ms="
        f"{record['disk_ms']}, previous run -> this one: {pairs}; {gates}"
    )


def run(
    ladder: Sequence[Rung],
    mode: str,
    trajectory: Optional[pathlib.Path],
) -> int:
    """Execute the N ladder; 0 on success, 1 on a gate failure."""
    before = {
        _rung_key(record): record
        for record in previous_ladder(trajectory, mode)
    }
    rungs: List[dict] = []
    comparisons: List[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        workdir = pathlib.Path(tmp)
        for rung in ladder:
            record = measure_rung(rung, workdir, MAX_RAM_BYTES, rung.disk_ms)
            rungs.append(record)
            print(
                f"  N={rung.num_points} disks={rung.num_disks} "
                f"disk_ms={rung.disk_ms}: build {record['build_s']}s "
                f"(+{record['build_rss_mb']} MB RSS), query phase peak "
                f"{record['query_peak_rss_mb']} MB, warm "
                f"{record['warm_ms_per_query']} ms/query per-call "
                f"(floor {record['floor_ms_per_query']}), "
                f"{record['batch_ms_per_query']} ms/query batch (floor "
                f"{record['batch_floor_ms_per_query']}), "
                f"{record['gathered_pages']} pages gathered per call for "
                f"{record['charged_pages']} charged",
                file=sys.stderr,
            )
            earlier = before.get(_rung_key(record))
            if earlier is not None:
                comparisons.append(against_previous(record, earlier))
                print(f"    {comparisons[-1]}", file=sys.stderr)

    table = ResultTable(
        title=(
            f"Streaming scale trajectory ({mode}: d={DIMENSION}, "
            f"k={K}, {NUM_QUERIES} queries, "
            f"max_ram={MAX_RAM_BYTES // (1024 * 1024)} MB)"
        ),
        columns=[
            "num_points", "disks", "build_s", "build_rss_mb",
            "build_rss_ok", "query_peak_rss_mb", "query_rss_ok",
            "cold_ms_per_query", "warm_ms_per_query",
            "batch_ms_per_query", "percall_pages_per_sec",
            "batch_pages_per_sec", "disk_ms", "floor_ms_per_query",
            "cold_over_floor_ms_per_query", "warm_over_floor_ms_per_query",
            "batch_floor_ms_per_query", "batch_over_floor_ms_per_query",
            "charged_pages", "gathered_pages", "batch_gathered_pages",
        ],
    )
    for record in rungs:
        table.add_row(*(record[column] for column in table.columns))
    table.add_note(
        "stores built out-of-core by stream_bulk_load_mmap from a "
        ".npy file in a child process; build_rss_mb is the child's "
        "high-water RSS minus its post-import baseline and must stay "
        "under the max_ram_bytes bound (build_rss_ok — a gate on the "
        "build-phase delta, not on the child's absolute peak)."
    )
    table.add_note(
        "the query phase runs in a second fresh child; "
        "query_peak_rss_mb is the high-water RSS of its largest "
        "process (coordinator or one disk worker: interpreter, mapped "
        "page-file pages and the chunk gathers) and must stay "
        "under the same bound (query_rss_ok)."
    )
    table.add_note(
        "timed passes simulate disk_ms of disk service time per page "
        "block (REPRO_SIMULATED_DISK_MS) — the I/O-bound regime the "
        "engine targets, one 1M x 4 rung with none; pages/sec is "
        "charged pages over the best interleaved pass of each dispatch "
        "mode.  Batch answers are verified bit-for-bit against "
        "per-call dispatch at every rung."
    )
    table.add_note(
        "floor = the busiest disk's device ms (blocks served x disk_ms) "
        "per call, summed over the pass, per query; over_floor = the "
        "pass's ms/query less its own floor (floor_ms_per_query is the "
        "best warm pass's).  gathered_pages = pages the workers read "
        "per call pass (median of the warm passes; batch: of the batch "
        "passes), charged_pages = pages the answers are charged for."
    )
    table.add_note(
        "per-call = one post/collect through the shared-memory query "
        "ring per query; batch = query_batch, one post per 16 queries "
        "(each worker gathers a page several of a post's queries owe, "
        "and pays its disk service time, once, not once per query)."
    )

    for comparison in comparisons:
        table.add_note(comparison)

    RESULTS_DIR.mkdir(exist_ok=True)
    name = "scale_smoke" if mode == "smoke" else "scale"
    (RESULTS_DIR / f"{name}.txt").write_text(table.to_text() + "\n")
    (RESULTS_DIR / f"{name}.json").write_text(
        table_to_json(table) + "\n"
    )
    if trajectory is not None:
        append_trajectory(trajectory, mode, rungs)
    print(table.to_text())

    failures: List[str] = []
    for record in rungs:
        if not build_rss_ok(record):
            failures.append(
                f"BUILD RSS FAILURE: N={record['num_points']} build used "
                f"{record['build_rss_mb']} MB, bound "
                f"{record['rss_bound_mb']} MB"
            )
        if not record["query_rss_ok"]:
            failures.append(
                f"QUERY RSS FAILURE: N={record['num_points']} "
                f"disks={record['disks']} query phase peaked at "
                f"{record['query_peak_rss_mb']} MB in one process, "
                f"bound {record['rss_bound_mb']} MB"
            )
        if record["disks"] >= 4 and (
            record["batch_pages_per_sec"]
            <= record["percall_pages_per_sec"]
        ):
            failures.append(
                f"THROUGHPUT FAILURE: N={record['num_points']} "
                f"disks={record['disks']} batch "
                f"{record['batch_pages_per_sec']} pages/s is not "
                f"above per-call {record['percall_pages_per_sec']}"
            )
        over_floor = [
            record[f"{mode}_over_floor_ms_per_query"]
            for mode in ("cold", "warm", "batch")
        ]
        if min(over_floor) < 0:
            failures.append(
                f"FLOOR FAILURE: N={record['num_points']} "
                f"disks={record['disks']} a pass ran below its busiest "
                f"disk's device time (over floor: {over_floor} ms/query)"
            )
        if (
            (record["num_points"], record["disks"]) == (1_000_000, 4)
            and record["disk_ms"] > 0
            and record["gathered_over_charged"] > GATHER_BOUND
        ):
            failures.append(
                f"GATHER FAILURE: N={record['num_points']} "
                f"disks={record['disks']} gathered "
                f"{record['gathered_pages']} pages per call for "
                f"{record['charged_pages']} charged, above "
                f"{GATHER_BOUND}x"
            )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixed ladder (the CI scale-smoke step)",
    )
    parser.add_argument(
        "--max-n", type=int, default=1_000_000, dest="max_n",
        help="largest full-ladder rung to run (default 1000000; pass "
             "4000000 for the complete ladder)",
    )
    parser.add_argument(
        "--trajectory", type=pathlib.Path, default=None,
        help="trajectory file to append to (default: BENCH_scale.json "
             "at the repo root for full runs, none for --smoke)",
    )
    parser.add_argument(
        "--child", nargs="+", default=None, metavar="PHASE",
        help=argparse.SUPPRESS,
    )
    options = parser.parse_args(argv)
    if options.child is not None:
        # A rung's phase, re-entered in a fresh process by _run_child.
        phase, *args = options.child
        if phase == "build":
            npy, store, disks, max_ram = args
            return build_child(npy, store, int(disks), int(max_ram))
        store, disk_ms = args
        return query_child(store, float(disk_ms))
    if options.smoke:
        return run(SMOKE_LADDER, "smoke", options.trajectory)
    ladder = tuple(
        rung for rung in FULL_LADDER if rung.num_points <= options.max_n
    )
    trajectory = options.trajectory
    if trajectory is None:
        trajectory = REPO_ROOT / "BENCH_scale.json"
    return run(ladder, "full", trajectory)


if __name__ == "__main__":
    raise SystemExit(main())
