"""Per-layer probes of the end-to-end benchmark.

Every layer is measured from outside, by timing calls into its public
functions on the workload's own store and query slices, after the
end-to-end rounds.  ``README.md`` lists, for each metric here, the
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from statistics import mean, median
from typing import Any, Callable, Dict, List, Tuple, Union

import numpy as np

from workloads import (
    Env,
    RunLog,
    Workload,
    build_store,
    signature,
    simulated_disk,
)

from repro.index import kernels
from repro.index.bulk import bulk_load
from repro.index.knn import SearchStats, _CandidateSet
from repro.obs import RecordingTracer
from repro.parallel.cache import LRUCache
from repro.parallel.engine import ParallelEngine, SequentialEngine
from repro.parallel.paged import PagedEngine
from repro.parallel.process import ProcessParallelEngine
from repro.parallel.store import DeclusteredStore
from repro.registry import make_declusterer
from repro.serve import QueryRequest
from repro.storage import MmapStore, bulk_load_mmap, payload_bytes

__all__ = [
    "CACHE_POOL_PAGES",
    "round_metrics",
    "live_probes",
    "floor_probe",
    "offline_probes",
    "split_tables",
]

#: Buffer pool of the cache probe: 2048 pages = 8 MiB.
CACHE_POOL_PAGES = 2048

#: The in-RAM engines and ``bulk_load`` run on at most this many points
#: (the first ones), so they stay cheap on ``stream_build``.
ENGINE_PROBE_POINTS = 50_000

Metrics = Dict[str, float]


def _p95(values: List[float]) -> float:
    return float(np.quantile(values, 0.95))


def _seconds(call: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def round_metrics(env: Env, log: RunLog) -> Metrics:
    """Per-layer metrics that come out of the end-to-end rounds."""
    query_ms = log.query_ms()
    batch_queries = max(log.batch_queries, 1)
    return {
        "serve.queue_wait_ms_p50": median(log.serve_wait_ms),
        "serve.batch_size_mean": mean(log.serve_batch_size),
        "serve.latency_ms_p95_8": _p95(log.serve_ms),
        "process.query_ms_p50": median(query_ms),
        "process.query_ms_p95": _p95(query_ms),
        "process.batch_ms_per_query": 1e3 / median(log.batch_qps),
        "process.speculative_page_ratio": log.charged_pages
        / max(log.speculative_pages, 1),
        "process.worker_cpu_ms_per_query": log.worker_cpu_s * 1e3
        / batch_queries,
        "process.coordinator_cpu_ms_per_query": log.coordinator_cpu_s * 1e3
        / batch_queries,
        "process.spawn_s": env.spawn_s,
        "storage.build_points_per_s": env.spec.num_points
        / median(log.build_s),
        "bench.calib_ms_p50": median(log.reference_ms),
    }


# ------------------------------------------------- probes on the live engine


async def _open_loop(env: Env, seed: int, log: RunLog) -> Metrics:
    """One generator coroutine sends seeded Poisson arrivals at a fixed
    rate whether or not earlier requests have completed; each request is
    timed from the instant it was *due*."""
    spec = env.spec
    queries, ids = env.slices[0], env.request_ids(0)
    count = max(10, int(spec.open_rate * spec.open_seconds))
    rng = np.random.default_rng([seed, 1])
    due = np.cumsum(rng.exponential(1.0 / spec.open_rate, count))
    latencies: List[float] = []
    failed = 0
    late_ms = 0.0
    start = time.perf_counter()

    async def request(index: int) -> None:
        nonlocal failed
        slot = index % len(queries)
        try:
            outcome = await env.service.knn(queries[slot], spec.k)
        except Exception:  # boundary: count the failure, keep going
            failed += 1
            log.fail(f"open-loop request: {traceback.format_exc()}")
            return
        latencies.append((time.perf_counter() - start - due[index]) * 1e3)
        log.answers.append((ids[slot], signature(outcome.result)))

    tasks = []
    for index in range(count):
        delay = due[index] - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        late_ms = max(late_ms, (time.perf_counter() - start - due[index]) * 1e3)
        log.attempted += 1
        tasks.append(asyncio.create_task(request(index)))
    await asyncio.gather(*tasks)
    return {
        "serve.open_ms_p50": median(latencies),
        "serve.open_ms_p95": _p95(latencies),
        "serve.open_late_ms_max": late_ms,
        "serve.open_failed": float(failed),
    }


async def _front_door_alone(
    env: Env, rec: Any, log: RunLog
) -> Tuple[List[float], List[float]]:
    """One request in flight through the service, and the same query as
    a direct ``engine.query_batch`` of one, back to back (order
    alternating) so the difference is not query-to-query variation."""
    spec = env.spec
    queries, ids = env.slices[0], env.request_ids(0)
    served_ms: List[float] = []
    direct_ms: List[float] = []

    async def served(index: int) -> None:
        log.attempted += 1
        start = time.perf_counter()
        with rec.span("serve.request", request=ids[index]):
            outcome = await env.service.knn(queries[index], spec.k)
        served_ms.append((time.perf_counter() - start) * 1e3)
        log.answers.append((ids[index], signature(outcome.result)))

    def direct(index: int) -> None:
        elapsed, _ = _seconds(
            lambda: env.engine.query_batch(queries[index][None], spec.k)
        )
        direct_ms.append(elapsed * 1e3)

    for index in range(len(queries)):
        if index % 2:
            direct(index)
            await served(index)
        else:
            await served(index)
            direct(index)
    return served_ms, direct_ms


async def live_probes(env: Env, seed: int, rec: Any, log: RunLog) -> Metrics:
    """Probes that need the running process engine and its service; the
    served answers join ``log.answers`` and are checked like the timed
    ones."""
    spec = env.spec
    await env.service.start()
    try:
        with rec.span("probe.serve_alone"):
            served_ms, direct_ms = await _front_door_alone(env, rec, log)
        with rec.span("probe.serve_open_loop"):
            out = await _open_loop(env, seed, log)
    finally:
        await env.service.stop()
    requests = [QueryRequest(query=q, k=spec.k) for q in env.slices[0][:8]]
    with rec.span("probe.execute_batch"):
        execute_ms = [
            _seconds(lambda: env.service.execute_batch(requests))[0] * 1e3
            for _ in range(3)
        ]
    out.update({
        "serve.latency_ms_p50_1": median(served_ms),
        "serve.overhead_ms_per_request": median(
            a - b for a, b in zip(served_ms, direct_ms)
        ),
        "serve.execute_batch_ms": median(execute_ms),
    })
    return out


def floor_probe(workdir: Path, rec: Any) -> Metrics:
    """Dispatch floor of the process engine: ``query(q, 1)`` and a
    ``query_batch`` of 64 on a 64-point, 2-disk store, where traversal
    and page reads cost next to nothing."""
    points = np.random.default_rng(0).random((64, 4))
    with rec.span("probe.dispatch_floor"), simulated_disk(0.0), \
            tempfile.TemporaryDirectory(dir=workdir) as directory:
        bulk_load_mmap(
            points, make_declusterer("col", 4, 2), directory
        ).close()
        with MmapStore(directory) as store, \
                ProcessParallelEngine(store) as engine:
            engine.query(points[0], 1)
            one_ms = [
                _seconds(lambda: engine.query(points[i % 64], 1))[0] * 1e3
                for i in range(200)
            ]
            batch_ms = [
                _seconds(lambda: engine.query_batch(points, 1))[0] * 1e3
                for _ in range(5)
            ]
    return {
        "process.dispatch_floor_ms": median(one_ms),
        "process.batch_floor_ms_per_query": median(batch_ms) / len(points),
    }


# ------------------------------------------------------ in-process probes


def _paged(env: Env, queries: np.ndarray) -> Tuple[Metrics, List[Any]]:
    """``PagedEngine`` over the same page files, in process, under the
    workload's own simulated disk time."""
    spec = env.spec
    with MmapStore(env.directory, simulated_disk_ms=spec.disk_ms) as store:
        engine = PagedEngine(store, cache=None)
        engine.query(queries[0], spec.k)
        timed = [_seconds(lambda: engine.query(q, spec.k)) for q in queries]
    ms = [elapsed * 1e3 for elapsed, _ in timed]
    results = [result for _, result in timed]
    return {
        "paged.ms_per_query": mean(ms),
        "paged.percall_ms_p50": median(ms),
        "paged.total_pages_per_query": mean(r.total_pages for r in results),
        "paged.distance_computations_per_query": mean(
            r.distance_computations for r in results
        ),
    }, results


def _cache(store: MmapStore, queries: np.ndarray, k: int) -> Metrics:
    """A 2048-page LRU pool in front of the page files: second pass."""
    engine = PagedEngine(store, cache=CACHE_POOL_PAGES)
    engine.query_batch(queries, k)
    evicted = engine.cache.evictions
    elapsed, second = _seconds(lambda: engine.query_batch(queries, k))
    pool = LRUCache(CACHE_POOL_PAGES)
    keys = np.random.default_rng(0).integers(
        0, 2 * CACHE_POOL_PAGES, 100_000
    ).tolist()
    access_s, _ = _seconds(lambda: [pool.access(key) for key in keys])
    return {
        "cache.hit_ratio": second.cache_stats.hit_ratio,
        "cache.evictions": float(engine.cache.evictions - evicted),
        "cache.warm_ms_per_query": elapsed * 1e3 / len(queries),
        "cache.access_us": access_s * 1e6 / len(keys),
    }


def _storage(env: Env, store: MmapStore) -> Metrics:
    leaves = store.leaves
    read_s, _ = _seconds(lambda: [store.read_page(leaf) for leaf in leaves])
    requested = 1e-3
    slept_s, _ = _seconds(
        lambda: [time.sleep(requested) for _ in range(300)]
    )
    used = sum(
        payload_bytes(store.entry_count(leaf), env.spec.dimension)
        for leaf in leaves
    )
    return {
        "storage.read_page_us": read_s * 1e6 / len(leaves),
        "storage.sleep_overshoot_ratio": slept_s / (300 * requested),
        "storage.pages_total": float(len(leaves)),
        "storage.slot_fill_ratio": used / (store.slot_bytes * len(leaves)),
    }


def _directory_nodes(store: MmapStore) -> List[Any]:
    nodes, stack = [], [store.tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            nodes.append(node)
            stack.extend(node.entries)
    return nodes


def _index_kernels(store: MmapStore, query: np.ndarray, k: int) -> Metrics:
    """The two traversal kernels, swept over the whole tree."""
    payloads = [store.read_page(leaf) for leaf in store.leaves]
    nodes = _directory_nodes(store)
    for node in nodes:  # fills the per-node bounds cache, as a query would
        kernels.child_mindists(node, query)
    candidates, stats = _CandidateSet(k), SearchStats()

    def sweep_payloads() -> None:
        for points, oids in payloads:
            kernels.offer_payload(candidates, points, oids, query, stats)

    offer_s, _ = _seconds(sweep_payloads)
    mindist_s, _ = _seconds(
        lambda: [kernels.child_mindists(node, query) for node in nodes]
    )
    return {
        "index.offer_payload_us": offer_s * 1e6 / len(payloads),
        "index.child_mindists_us": mindist_s * 1e6 / max(len(nodes), 1),
    }


def _in_ram_engines(env: Env, queries: np.ndarray) -> Metrics:
    """``bulk_load`` and the paper-figure engines (item declustering,
    one sequential tree) over the first ``ENGINE_PROBE_POINTS`` points."""
    spec = env.spec
    points = np.array(env.points()[:ENGINE_PROBE_POINTS])
    load_s, tree = _seconds(lambda: bulk_load(points))
    item = ParallelEngine(DeclusteredStore(
        points, make_declusterer("col", spec.dimension, spec.num_disks)
    ))
    item_s, _ = _seconds(lambda: item.query_batch(queries, spec.k))
    sequential = SequentialEngine(points, tree=tree)
    seq_s, _ = _seconds(lambda: sequential.query_batch(queries, spec.k))
    return {
        "index.bulk_load_s": load_s,
        "index.leaves": float(sum(1 for _ in tree.leaves())),
        "index.height": float(tree.height),
        "engine.item_ms_per_query": item_s * 1e3 / len(queries),
        "engine.sequential_ms_per_query": seq_s * 1e3 / len(queries),
    }


def _core(env: Env, store: MmapStore, answers: List[Any]) -> Metrics:
    spec = env.spec
    centers = np.vstack([leaf.mbr.center for leaf in store.leaves])
    declusterer = make_declusterer("col", spec.dimension, spec.num_disks)
    assign_s, _ = _seconds(lambda: declusterer.assign(centers))
    loads = store.disk_loads()
    busiest = mean(r.max_pages for r in answers)
    ideal = mean(r.total_pages for r in answers) / spec.num_disks
    return {
        "core.assign_us_per_page": assign_s * 1e6 / len(centers),
        "core.disk_load_imbalance": float(loads.max() / loads.mean()),
        "core.busiest_over_ideal": busiest / ideal,
    }


def _obs(store: MmapStore, queries: np.ndarray, k: int) -> Tuple[Metrics, float]:
    """Cost of the existing simulated-clock tracer; its ``node_visit``
    events also give the directory nodes a query expands."""
    plain_s, _ = _seconds(
        lambda: PagedEngine(store, cache=None).query_batch(queries, k)
    )
    tracer = RecordingTracer()
    traced_s, _ = _seconds(
        lambda: PagedEngine(store, cache=None, tracer=tracer).query_batch(
            queries, k
        )
    )
    directory_visits = sum(
        1 for e in tracer.events if e.kind == "node_visit" and e.disk < 0
    )
    return (
        {"obs.tracer_overhead_ratio": traced_s / plain_s},
        directory_visits / len(queries),
    )


def _build_in_child(
    spec: Workload, source: Union[np.ndarray, Path], directory: Path
) -> float:
    """Runs in a fresh process: MB by which one build lifts the RSS
    high-water mark over the RSS it started from."""
    try:
        # Reset VmHWM, else the imports' own peak hides a small build.
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass
    before = _status_kb("VmRSS")
    build_store(spec, source, directory).close()
    return (_status_kb("VmHWM") - before) / 1024.0


def _status_kb(key: str) -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"no {key} in /proc/self/status")


def _builds(env: Env, workdir: Path) -> Metrics:
    spec = env.spec
    scratch = Path(tempfile.mkdtemp(prefix="probe-build-", dir=workdir))
    try:
        points = np.array(env.points())
        inmem_s, store = _seconds(lambda: bulk_load_mmap(
            points,
            make_declusterer("col", spec.dimension, spec.num_disks),
            scratch / "inmem",
        ))
        store.close()
        del points
        with ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            rss_mb = pool.submit(
                _build_in_child, spec, env.source, scratch / "child"
            ).result(timeout=150)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "storage.build_inmem_s": inmem_s,
        "storage.build_rss_delta_mb": rss_mb,
    }


def offline_probes(
    env: Env, workdir: Path, rec: Any
) -> Tuple[Metrics, Dict[str, float]]:
    """Probes that run in this process, after the engine is closed.

    Returns the metrics and the exact per-query counts the estimated
    split tables multiply unit costs with.
    """
    spec = env.spec
    queries = env.slices[0]
    out: Metrics = {}
    with rec.span("probe.paged"):
        paged, answers = _paged(env, queries)
        out.update(paged)
    open_s, store = _seconds(
        lambda: MmapStore(env.directory, simulated_disk_ms=0.0)
    )
    out["storage.open_ms"] = open_s * 1e3
    with store:
        for name, probe in (
            ("probe.storage", lambda: _storage(env, store)),
            ("probe.index_kernels",
             lambda: _index_kernels(store, queries[0], spec.k)),
            ("probe.cache", lambda: _cache(store, queries, spec.k)),
            ("probe.core", lambda: _core(env, store, answers)),
        ):
            with rec.span(name):
                out.update(probe())
        with rec.span("probe.obs"):
            obs, directory_nodes = _obs(store, queries, spec.k)
            out.update(obs)
    with rec.span("probe.in_ram_engines"):
        out.update(_in_ram_engines(env, queries))
    with rec.span("probe.builds"):
        out.update(_builds(env, workdir))
    counts = {
        "pages": out["paged.total_pages_per_query"],
        "directory_nodes": directory_nodes,
    }
    return out, counts


def split_tables(
    spec: Workload, metrics: Metrics, counts: Dict[str, float]
) -> str:
    """Estimated split of ``paged.ms_per_query`` and of the per-call
    latency, from unit costs times exact counts."""
    pages, nodes = counts["pages"], counts["directory_nodes"]
    paged = metrics["paged.ms_per_query"]
    parts = [
        ("storage.read_page_us x pages",
         metrics["storage.read_page_us"] * pages / 1e3),
        ("simulated disk wait x pages", spec.disk_ms * pages
         * metrics["storage.sleep_overshoot_ratio"]),
        ("index.offer_payload_us x pages",
         metrics["index.offer_payload_us"] * pages / 1e3),
        ("index.child_mindists_us x directory nodes",
         metrics["index.child_mindists_us"] * nodes / 1e3),
    ]
    parts.append(("traversal residual", paged - sum(v for _, v in parts)))
    lines = [
        f"  estimated split of paged.ms_per_query = {paged:.3f} ms "
        f"({pages:.1f} pages, {nodes:.1f} directory nodes per query)"
    ]
    lines += [f"    {name:<44}{value:10.3f} ms" for name, value in parts]
    percall = metrics["process.query_ms_p50"]
    worker = metrics["paged.percall_ms_p50"] / spec.num_disks
    floor = metrics["process.dispatch_floor_ms"]
    lines.append(
        f"  estimated split of process.query_ms_p50 = {percall:.3f} ms"
    )
    lines += [
        f"    {name:<44}{value:10.3f} ms"
        for name, value in (
            ("worker share (paged.percall_ms_p50 / disks)", worker),
            ("process.dispatch_floor_ms", floor),
            ("coordination residual", percall - worker - floor),
        )
    ]
    return "\n".join(lines)
