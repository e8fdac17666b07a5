"""Workloads of the end-to-end benchmark: inputs, set-up, rounds, oracle.

A workload is a seeded data set plus a pool of query *slices*.  After
set-up and one untimed warm-up the runner repeats identical *rounds*;
round ``r`` runs the four phases ``build`` -> ``percall`` -> ``batch``
-> ``serve8`` in that order, each over the whole of slice
``r mod slices``, so a slow spell of the shared machine hits every
metric alike, and every timing metric is a median over rounds.  Rounds
are kept short (about a second) so that a run holds twenty or more of
them: bursts of a noisy neighbour last seconds, and the median of 7
rounds moved twice as much from run to run as the median of 20.

Why slices, and why Latin-hypercube ones: the cost of a kNN query
depends strongly on where it falls (pages touched per query vary by
50 % and more), so a metric taken over a few dozen independent random
queries moves by 6-10 % from seed to seed -- more than the machine
noise it is supposed to resolve.  Every slice therefore stratifies
each coordinate (uniform data) or the leading coordinate of the
example points (Fourier data); the seed-to-seed spread of a slice mean
drops about threefold at the same query count.
"""

from __future__ import annotations

import asyncio
import filecmp
import heapq
import multiprocessing
import os
import resource
import shutil
import tempfile
import time
import traceback
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from spans import NullRecorder

from repro.data import fourier_points
from repro.parallel.paged import PagedEngine
from repro.parallel.process import ProcessParallelEngine
from repro.registry import make_declusterer
from repro.serve import QueryService
from repro.storage import (
    SIMULATED_DISK_MS_ENV,
    MmapStore,
    stream_bulk_load_mmap,
)

__all__ = [
    "Workload",
    "FULL",
    "SMOKE",
    "IN_FLIGHT",
    "Env",
    "RunLog",
    "build_store",
    "set_up",
    "run_round",
    "run_rounds",
    "check_answers",
    "end_to_end_metrics",
    "peak_rss_mb",
    "reference_ms",
    "REFERENCE_MS",
    "simulated_disk",
    "signature",
]

#: Awaiting coroutines of the closed-loop serve phase (one thread, one
#: asyncio loop; not threads, not sockets).
IN_FLIGHT = 8

#: Jitter of the query-by-example workload, as in
#: ``repro.data.query_workload(points, jitter=0.01)``.
EXAMPLE_JITTER = 0.01

#: Iterations of the reference loop, and the milliseconds they take on
#: the 2-vCPU sandbox while no neighbour is busy: the *reference speed*
#: every processor-bound timing is reported at.
REFERENCE_ITERATIONS = 2000
REFERENCE_MS = 10.0

_REFERENCE_PAGE = np.random.default_rng(0).random((30, 16))
_REFERENCE_QUERY = np.random.default_rng(1).random(16)

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: (oids, distances, pages_per_disk) of one answer; compared with ``==``.
Signature = Tuple[Tuple[int, ...], Tuple[float, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class Workload:
    """One seeded configuration.  Sizes are for a 2-vCPU machine."""

    name: str
    kind: str  # "uniform" or "fourier"
    num_points: int
    dimension: int
    num_disks: int
    #: Simulated disk service time per page (``REPRO_SIMULATED_DISK_MS``).
    disk_ms: float
    #: Queries per slice: every read phase of a round runs them all.
    slice_size: int
    #: Distinct slices; round ``r`` uses slice ``r mod slices``.  At least
    #: this many rounds run even when ``--seconds`` is over, so the engine
    #: answers every pool query and the count metrics depend on the seed
    #: alone.
    slices: int
    #: Open-loop probe arrival rate, about half the closed-loop capacity.
    open_rate: float
    #: When set, the store is built from a ``.npy`` path under this RAM
    #: budget, so the STR sort passes spill.
    max_ram_bytes: Optional[int] = None
    #: Seconds of open-loop arrivals.
    open_seconds: float = 1.5
    k: int = 10


#: Why each workload is here is recorded in ``BENCHMARK.json`` (one
#: line) and in ``README.md`` (with the sizing numbers).
FULL: Tuple[Workload, ...] = (
    # Disk-wait bound: the workers sleep, so 4 of them fit 2 vCPUs.
    Workload(
        name="uniform_io",
        kind="uniform", num_points=40_000, dimension=8, num_disks=4,
        disk_ms=1.0, slice_size=16, slices=12,
        open_rate=30.0,
    ),
    # Processor bound: ~850 of 1024 pages per query, no disk wait.
    Workload(
        name="uniform_cpu",
        kind="uniform", num_points=20_000, dimension=16, num_disks=2,
        disk_ms=0.0, slice_size=16, slices=8,
        open_rate=35.0,
    ),
    # Cheap clustered queries: fixed per-request costs dominate.
    Workload(
        name="fourier_serve",
        kind="fourier", num_points=50_000, dimension=8, num_disks=2,
        disk_ms=0.0, slice_size=32, slices=12,
        open_rate=150.0,
    ),
    # The write path (spilling build), and the one store (4096 leaves)
    # larger than the cache probe's pool.
    Workload(
        name="stream_build",
        kind="uniform", num_points=100_000, dimension=16, num_disks=2,
        disk_ms=0.0, slice_size=8, slices=6,
        open_rate=10.0, max_ram_bytes=8 << 20,
    ),
)

#: The ``--smoke`` tier: same shapes at tiny N, two rounds.
SMOKE: Tuple[Workload, ...] = tuple(
    replace(
        spec,
        num_points=max(2_000, spec.num_points // 20),
        slice_size=4,
        slices=2,
        open_seconds=0.25,
        max_ram_bytes=None if spec.max_ram_bytes is None else 256 << 10,
    )
    for spec in FULL
)


# ------------------------------------------------------------------ inputs


def _stratified_slice(
    rng: np.random.Generator, size: int, dimension: int
) -> np.ndarray:
    """``size`` uniform points with one point per ``1/size`` stratum of
    every coordinate (a Latin hypercube sample)."""
    strata = rng.permuted(np.tile(np.arange(size), (dimension, 1)), axis=1).T
    return (strata + rng.random((size, dimension))) / size


def _example_slice(
    rng: np.random.Generator, points: np.ndarray, order: np.ndarray, size: int
) -> np.ndarray:
    """``size`` jittered data points, one per equal-count stratum of the
    leading coordinate (``order`` sorts the data by it)."""
    edges = np.linspace(0, len(points), size + 1).astype(np.int64)
    picks = rng.permutation(order[rng.integers(edges[:-1], edges[1:])])
    noise = EXAMPLE_JITTER * rng.standard_normal((size, points.shape[1]))
    return np.clip(points[picks] + noise, 0.0, 1.0)


def make_inputs(
    spec: Workload, seed: int
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Data points and query slices; a pure function of ``(spec, seed)``."""
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    if spec.kind == "uniform":
        points = rng.random((spec.num_points, spec.dimension))
        order = None
    else:
        points = fourier_points(
            spec.num_points, spec.dimension, seed=int(rng.integers(1 << 31))
        )
        order = np.argsort(points[:, 0], kind="stable")
    slices = [
        _stratified_slice(rng, spec.slice_size, spec.dimension)
        if order is None
        else _example_slice(rng, points, order, spec.slice_size)
        for _ in range(spec.slices)
    ]
    return points, slices


@contextmanager
def simulated_disk(disk_ms: float) -> Iterator[None]:
    """Set ``REPRO_SIMULATED_DISK_MS`` for stores opened (and workers
    spawned) inside the block; restores the previous value."""
    previous = os.environ.get(SIMULATED_DISK_MS_ENV)
    if disk_ms:
        os.environ[SIMULATED_DISK_MS_ENV] = repr(disk_ms)
    else:
        os.environ.pop(SIMULATED_DISK_MS_ENV, None)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(SIMULATED_DISK_MS_ENV, None)
        else:
            os.environ[SIMULATED_DISK_MS_ENV] = previous


# ------------------------------------------------------------ measurement


def signature(result: Any) -> Signature:
    """What the oracle compares bit for bit."""
    return (
        tuple(int(n.oid) for n in result.neighbors),
        tuple(float(n.distance) for n in result.neighbors),
        tuple(int(p) for p in result.pages_per_disk),
    )


def peak_rss_mb() -> float:
    """High-water RSS of this process or of any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _children_cpu_s() -> float:
    """utime + stime of every live child (the disk workers), seconds."""
    ticks = 0
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def reference_ms() -> float:
    """Milliseconds of a fixed loop that calls nothing of the program but
    has the instruction mix of its hot path: numpy calls on one page of
    points, a bounded heap, interpreter work between them.

    The shared machine changes speed by a factor of up to two for
    minutes at a time, and this loop follows it (correlation 0.9 with
    the process engine's per-call time over 15 minutes; a loop over
    large arrays or a pure-Python loop follows it only half as well).
    Every round times the loop beside its phases and divides it out,
    which cut the spread of 24-second medians from 0.30 to 0.08.
    """
    heap: List[Tuple[float, int]] = []
    start = time.perf_counter()
    for index in range(REFERENCE_ITERATIONS):
        offsets = _REFERENCE_PAGE - _REFERENCE_QUERY
        nearest = float((offsets * offsets).sum(axis=1).min())
        heapq.heappush(heap, (nearest, index))
        if len(heap) > 10:
            heapq.heappop(heap)
    return (time.perf_counter() - start) * 1e3


def directory_bytes(directory: Path) -> int:
    """Bytes of every file directly inside ``directory``."""
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


@dataclass
class RunLog:
    """Everything the rounds of one run measured."""

    rounds: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    build_s: List[float] = field(default_factory=list)
    #: Per round: (request id, ms, busiest-disk pages) of each per-call.
    percall: List[List[Tuple[int, float, int]]] = field(default_factory=list)
    batch_qps: List[float] = field(default_factory=list)
    serve_qps: List[float] = field(default_factory=list)
    serve_ms: List[float] = field(default_factory=list)
    serve_wait_ms: List[float] = field(default_factory=list)
    serve_batch_size: List[int] = field(default_factory=list)
    #: Per round: mean of the reference loop timed after the build and
    #: after the read phases.
    reference_ms: List[float] = field(default_factory=list)
    batch_queries: int = 0
    worker_cpu_s: float = 0.0
    coordinator_cpu_s: float = 0.0
    speculative_pages: int = 0
    charged_pages: int = 0
    #: (request id, answer) of every timed query, batch member, request.
    answers: List[Tuple[int, Signature]] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        """Count ``count`` failed operations; the traceback is kept."""
        self.failures.extend([what] * count)

    def absorb_checks(self, other: "RunLog") -> None:
        """Take over the operations of ``other`` for checking (not its
        timings)."""
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        self.answers.extend(other.answers)

    def query_ms(self) -> List[float]:
        """Every per-call sample of every round."""
        return [ms for rnd in self.percall for _, ms, _ in rnd]


@dataclass
class Env:
    """What one set-up leaves running: store, engine, service, inputs."""

    spec: Workload
    root: Path
    directory: Path
    #: What every build receives: the array, or the ``.npy`` path.
    source: Union[np.ndarray, Path]
    slices: List[np.ndarray]
    store: MmapStore
    engine: ProcessParallelEngine
    service: QueryService
    stored_bytes: int
    spawn_s: float
    _stack: ExitStack
    setup_s: float = 0.0

    def points(self) -> np.ndarray:
        """The data points (memory-mapped for a ``.npy`` source)."""
        if isinstance(self.source, Path):
            return np.load(self.source, mmap_mode="r")
        return self.source

    def request_ids(self, slice_index: int) -> range:
        """Pool-wide ids of the queries of one slice."""
        size = self.spec.slice_size
        return range(slice_index * size, (slice_index + 1) * size)

    def close(self) -> None:
        """Stop the workers, unmap the store, remove the directories."""
        self._stack.close()


def build_store(
    spec: Workload, source: Union[np.ndarray, Path], directory: Path
) -> MmapStore:
    """The build every phase and probe times: ``stream_bulk_load_mmap``
    with the ``col`` declusterer (and the RAM budget, when the workload
    has one)."""
    kwargs = {}
    if spec.max_ram_bytes is not None:
        kwargs["max_ram_bytes"] = spec.max_ram_bytes
    return stream_bulk_load_mmap(
        source,
        make_declusterer("col", spec.dimension, spec.num_disks),
        directory,
        **kwargs,
    )


async def set_up(spec: Workload, seed: int, workdir: Path) -> Env:
    """Generate data, build, open, spawn the workers, warm up."""
    stack = ExitStack()
    start = time.perf_counter()
    try:
        points, slices = make_inputs(spec, seed)
        root = Path(tempfile.mkdtemp(prefix=spec.name + "-", dir=workdir))
        stack.callback(shutil.rmtree, root, ignore_errors=True)
        source: Union[np.ndarray, Path] = points
        if spec.max_ram_bytes is not None:
            source = root / "points.npy"
            np.save(source, points)
        del points
        directory = root / "store"
        build_store(spec, source, directory).close()
        store = stack.enter_context(MmapStore(directory))
        engine = stack.enter_context(ProcessParallelEngine(store))
        spawn = time.perf_counter()
        engine.query(slices[0][0], spec.k)
        env = Env(
            spec=spec, root=root, directory=directory, source=source,
            slices=slices, store=store, engine=engine,
            service=QueryService(engine, policy="fifo"),
            stored_bytes=directory_bytes(directory),
            spawn_s=time.perf_counter() - spawn, _stack=stack,
        )
        await _read_phases(env, 0, NullRecorder(), RunLog())
    except BaseException:
        stack.close()
        raise
    env.setup_s = time.perf_counter() - start
    return env


# ------------------------------------------------------------------ phases


def _build_phase(env: Env, round_index: int, rec: Any, log: RunLog) -> None:
    """One ``stream_bulk_load_mmap`` into a fresh directory, timed; the
    result must be byte-identical to the set-up store."""
    target = env.root / f"build-{round_index}"
    log.attempted += 1
    try:
        start = time.perf_counter()
        with rec.span("storage.build"):
            store = build_store(env.spec, env.source, target)
        log.build_s.append(time.perf_counter() - start)
        store.close()
        names = sorted(p.name for p in env.directory.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(
            env.directory, target, names, shallow=False
        )
        if mismatch or errors:
            log.fail(f"build {round_index}: differs in {mismatch + errors}")
    except Exception:  # boundary: count the failure, keep measuring
        log.fail(f"build {round_index}: {traceback.format_exc()}")
    finally:
        shutil.rmtree(target, ignore_errors=True)


def _percall_phase(
    env: Env, queries: np.ndarray, ids: Sequence[int], rec: Any, log: RunLog
) -> None:
    """``engine.query`` one at a time, one caller, closed loop."""
    engine, k = env.engine, env.spec.k
    samples: List[Tuple[int, float, int]] = []
    for query, rid in zip(queries, ids):
        log.attempted += 1
        try:
            start = time.perf_counter()
            with rec.span("process.query", request=rid):
                result = engine.query(query, k)
            ms = (time.perf_counter() - start) * 1e3
        except Exception:  # boundary: count the failure, keep measuring
            log.fail(f"query {rid}: {traceback.format_exc()}")
            continue
        samples.append((rid, ms, result.max_pages))
        log.speculative_pages += engine.last_speculative_pages
        log.charged_pages += result.total_pages
        log.answers.append((rid, signature(result)))
    log.percall.append(samples)


def _batch_phase(
    env: Env, queries: np.ndarray, ids: Sequence[int], rec: Any, log: RunLog
) -> None:
    """One ``engine.query_batch`` call over the whole slice."""
    log.attempted += len(queries)
    workers_before = _children_cpu_s()
    own_before = time.process_time()
    try:
        start = time.perf_counter()
        with rec.span("process.query_batch"):
            batch = env.engine.query_batch(queries, env.spec.k)
        elapsed = time.perf_counter() - start
    except Exception:  # boundary: count the failure, keep measuring
        log.fail(f"batch: {traceback.format_exc()}", len(queries))
        return
    log.coordinator_cpu_s += time.process_time() - own_before
    log.worker_cpu_s += _children_cpu_s() - workers_before
    log.batch_queries += len(queries)
    log.batch_qps.append(len(queries) / elapsed)
    log.answers.extend(
        (rid, signature(result)) for rid, result in zip(ids, batch.results)
    )


async def _closed_loop(
    service: QueryService,
    queries: np.ndarray,
    ids: Sequence[int],
    k: int,
    rec: Any,
    log: RunLog,
) -> Tuple[float, List[float], List[Any]]:
    """``IN_FLIGHT`` coroutines each await one reply before sending the
    next request.  Returns (seconds, per-request ms, outcomes)."""
    todo = iter(range(len(queries)))
    latencies: List[float] = []
    outcomes: List[Any] = []

    async def client() -> None:
        for index in todo:
            log.attempted += 1
            try:
                start = time.perf_counter()
                with rec.span("serve.request", request=ids[index]):
                    outcome = await service.knn(queries[index], k)
                latencies.append((time.perf_counter() - start) * 1e3)
            except Exception:  # boundary: count the failure, keep going
                log.fail(f"request {ids[index]}: {traceback.format_exc()}")
                continue
            outcomes.append(outcome)
            log.answers.append((ids[index], signature(outcome.result)))

    start = time.perf_counter()
    with rec.span("serve.phase"):
        clients = [asyncio.create_task(client()) for _ in range(IN_FLIGHT)]
        await asyncio.gather(*clients)
    return time.perf_counter() - start, latencies, outcomes


async def _serve_phase(
    env: Env, queries: np.ndarray, ids: Sequence[int], rec: Any, log: RunLog
) -> None:
    """``QueryService`` front door, closed loop, 8 in flight; start and
    stop are outside the timed interval."""
    await env.service.start()
    try:
        elapsed, latencies, outcomes = await _closed_loop(
            env.service, queries, ids, env.spec.k, rec, log
        )
    finally:
        await env.service.stop()
    log.serve_qps.append(len(queries) / elapsed)
    log.serve_ms.extend(latencies)
    log.serve_wait_ms.extend(o.wait_ms for o in outcomes)
    log.serve_batch_size.extend(o.batch_size for o in outcomes)


async def _read_phases(
    env: Env, round_index: int, rec: Any, log: RunLog
) -> None:
    slice_index = round_index % env.spec.slices
    queries = env.slices[slice_index]
    ids = env.request_ids(slice_index)
    _percall_phase(env, queries, ids, rec, log)
    _batch_phase(env, queries, ids, rec, log)
    await _serve_phase(env, queries, ids, rec, log)


async def run_round(env: Env, round_index: int, rec: Any, log: RunLog) -> None:
    """build -> percall -> batch -> serve8, with the reference loop after
    the build and after the reads."""
    with rec.span("bench.round"):
        _build_phase(env, round_index, rec, log)
        with rec.span("bench.reference"):
            first = reference_ms()
        await _read_phases(env, round_index, rec, log)
        with rec.span("bench.reference"):
            second = reference_ms()
    log.reference_ms.append((first + second) / 2)
    log.rounds += 1


async def run_rounds(
    env: Env, seconds: float, rounds: Optional[int], rec: Any
) -> RunLog:
    """Repeat rounds for ``seconds`` (at least one per slice), or exactly
    ``rounds`` times when given."""
    log = RunLog()
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return log.rounds < rounds
        return (
            log.rounds < env.spec.slices
            or time.perf_counter() - start < seconds
        )

    while more():
        await run_round(env, log.rounds, rec, log)
    return log


# ------------------------------------------------------------------ oracle


def reference_answers(env: Env) -> List[Signature]:
    """``PagedEngine`` answers (no simulated disk time) of every pool
    query, indexed by request id."""
    with MmapStore(env.directory, simulated_disk_ms=0.0) as store:
        reference = PagedEngine(store, cache=None)
        return [
            signature(reference.query(query, env.spec.k))
            for queries in env.slices
            for query in queries
        ]


def brute_force_answers(
    points: np.ndarray, queries: np.ndarray, k: int, chunk_rows: int = 1 << 16
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """(oids, distances) of the k nearest points by a chunked numpy scan."""
    keys = [np.empty(0)] * len(queries)
    oids = [np.empty(0, dtype=np.int64)] * len(queries)
    for first in range(0, len(points), chunk_rows):
        chunk = np.asarray(points[first : first + chunk_rows])
        for index, query in enumerate(queries):
            squared = ((chunk - query) ** 2).sum(axis=1)
            top = np.argpartition(squared, min(k, len(squared) - 1))[:k]
            keys[index] = np.concatenate((keys[index], squared[top]))
            oids[index] = np.concatenate((oids[index], top + first))
    answers = []
    for key, oid in zip(keys, oids):
        order = np.lexsort((oid, key))[:k]
        answers.append((oid[order], np.sqrt(key[order])))
    return answers


def check_answers(env: Env, log: RunLog) -> List[Signature]:
    """Compare every timed answer with the ``PagedEngine`` reference bit
    for bit, and the reference of every pool query with a brute-force
    scan.  Mismatches go to ``log.failures``.  Returns the reference."""
    expected = reference_answers(env)
    for rid, answer in log.answers:
        if answer != expected[rid]:
            log.fail(f"answer of request {rid} differs from PagedEngine")
    scanned = brute_force_answers(
        env.points(), np.vstack(env.slices), env.spec.k
    )
    for rid, (oids, distances) in enumerate(scanned):
        ref_oids, ref_distances, _ = expected[rid]
        if tuple(oids.tolist()) != ref_oids or not np.allclose(
            distances, ref_distances, rtol=1e-9, atol=0.0
        ):
            log.fail(f"request {rid}: PagedEngine differs from brute force")
    return expected


def end_to_end_metrics(
    env: Env,
    log: RunLog,
    setups: Sequence[float],
    rss_mb: float,
    at_reference_speed: bool = True,
) -> Dict[str, float]:
    """The eight end-to-end metrics of one run; ``setups`` holds the
    seconds of every set-up.

    At reference speed, each processor-bound timing of a round is
    divided by that round's ``reference_ms / REFERENCE_MS`` before the
    median over rounds is taken, and the set-up time (measured before
    the first round) by the median of those ratios.  Read phases that
    wait for the simulated disk are timer-bound, not processor-bound,
    and stay as measured.
    """
    spec = env.spec
    as_measured = [1.0] * len(log.reference_ms)
    slowdown = as_measured
    if at_reference_speed:
        slowdown = [ms / REFERENCE_MS for ms in log.reference_ms]
    read_slowdown = as_measured if spec.disk_ms else slowdown
    user_bytes = spec.num_points * (8 * spec.dimension + 8)
    # The paper's metric, from the engine's own first answer per query.
    busiest: Dict[int, int] = {}
    for rid, (_, _, pages) in log.answers:
        busiest.setdefault(rid, max(pages))
    return {
        "setup_s": median(setups) / median(slowdown),
        "query_ms_mean": median(
            float(np.mean([ms for _, ms, _ in rnd])) / slow
            for rnd, slow in zip(log.percall, read_slowdown) if rnd
        ),
        "batch_qps": median(
            qps * slow for qps, slow in zip(log.batch_qps, read_slowdown)
        ),
        "serve_qps": median(
            qps * slow for qps, slow in zip(log.serve_qps, read_slowdown)
        ),
        "build_s": median(
            s / slow for s, slow in zip(log.build_s, slowdown)
        ),
        "peak_rss_mb": rss_mb,
        "stored_bytes_per_user_byte": env.stored_bytes / user_bytes,
        "busiest_disk_pages_per_query": float(np.mean(list(busiest.values()))),
    }
