"""``python -m repro.sanitize`` — run the determinism sanitizer.

The smoke matrix builds one small declustered store per scheme, runs
each arrival shape (a tied stream, a simultaneous batch) through the
simulator against it, and applies all three sanitizer layers:

* tie-break permutation replay (:mod:`repro.sanitize.replay`) —
  query results and per-disk counters must be identical under the
  simulator's native order and two permuted tie-break seeds; the
  matrix replays the serving layer's virtual-time planner
  (:func:`build_serve_replay_case`) alongside the raw simulator, and
  one out-of-core cell (:func:`build_process_replay_case`) pits the
  per-disk worker processes of
  :class:`~repro.parallel.process.ProcessParallelEngine` — a genuine
  scheduling race, not a seeded permutation — against the
  single-process reference over the same mmap store;
* event-stream happens-before checks (:mod:`repro.sanitize.stream`)
  over a traced run, including the trace/report counter oracle;
* the virtual-clock invariant — after a served run the driving
  :class:`~repro.serve.clock.VirtualClock` must sit exactly on the
  report's ``completion_ms`` (``sanitize-virtual-clock``), the
  runtime half of the static ``no-wall-clock-in-virtual-time`` rule;
* the global-RNG drift guard (:mod:`repro.sanitize.runtime`) around
  the whole matrix.

The matrix runs cacheless on purpose: with a shared buffer pool the
execution order legitimately changes hit/miss patterns, so cached runs
are *expected* to be order-sensitive and are out of the determinism
contract.

Exit status and output formats mirror ``repro.lint``: 0 when clean,
1 on findings, 2 on bad usage; ``--format sarif`` and
``--baseline``/``--update-baseline`` use the shared SARIF/baseline
implementations so CI wires both tools identically.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.lint.baseline import (
    load_baseline,
    subtract_baseline,
    write_baseline,
)
from repro.lint.findings import Finding, error_findings, render_json, \
    render_text
from repro.lint.sarif import render_sarif
from repro.obs.tracer import RecordingTracer
from repro.parallel.events import EventDrivenSimulator, QueryArrival
from repro.parallel.paged import PagedStore
from repro.registry import make_declusterer
from repro.sanitize.replay import ReplayCase, RunSummary, replay_check, \
    summarize_report
from repro.sanitize.runtime import global_rng_guard
from repro.sanitize.stream import check_event_stream
from repro.serve.clock import VirtualClock
from repro.serve.loadgen import WorkloadSpec, build_engine
from repro.serve.service import QueryRequest, QueryService

__all__ = [
    "SMOKE_SCHEMES",
    "SMOKE_ENGINES",
    "build_replay_case",
    "build_process_replay_case",
    "build_serve_replay_case",
    "smoke_matrix",
    "build_parser",
    "main",
]

#: The CI smoke matrix: 2 engine cells (arrival shapes) x 2 schemes.
SMOKE_SCHEMES = ("col", "rr")
SMOKE_ENGINES = ("event", "throughput")


def _smoke_data(
    num_points: int, num_queries: int, dimension: int, seed: int
) -> Dict[str, np.ndarray]:
    """Seeded uniform data and query batches for the matrix."""
    rng = np.random.default_rng(seed)
    return {
        "points": rng.random((num_points, dimension)),
        "queries": rng.random((num_queries, dimension)),
    }


def _tied_arrivals(
    queries: np.ndarray, k: int, group: int = 4, gap_ms: float = 3.0
) -> List[QueryArrival]:
    """Arrivals with deliberate exact timestamp ties.

    Every ``group`` consecutive queries share one arrival time, so the
    tie-break permutation has real work to do: an order-dependent
    simulator cannot pass the replay check by accident.
    """
    return [
        QueryArrival(float(index // group) * gap_ms, query, k)
        for index, query in enumerate(queries)
    ]


def build_replay_case(
    scheme: str,
    engine: str,
    num_points: int = 300,
    num_queries: int = 24,
    dimension: int = 6,
    num_disks: int = 8,
    k: int = 5,
    data_seed: int = 7,
) -> ReplayCase:
    """One smoke-matrix cell as a cold-start :class:`ReplayCase`.

    ``engine`` picks the arrival shape fed to the one simulator:
    ``"event"`` is a timed stream with tied arrivals, ``"throughput"`` a
    simultaneous batch (one tie group at t = 0).  The store is built
    once — it is immutable — but each replay constructs a fresh,
    cacheless simulator so no state leaks between seeds.
    """
    if engine not in SMOKE_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {SMOKE_ENGINES}"
        )
    data = _smoke_data(num_points, num_queries, dimension, data_seed)
    declusterer = make_declusterer(
        scheme, dimension=dimension, num_disks=num_disks
    )
    store = PagedStore(points=data["points"], declusterer=declusterer)
    queries = data["queries"]
    arrivals = (
        _tied_arrivals(queries, k) if engine == "event"
        else _tied_arrivals(queries, k, group=len(queries))
    )

    def run(seed: Optional[int]) -> RunSummary:
        """Cold cacheless run of this cell under tie-break ``seed``."""
        report = EventDrivenSimulator(store).run(
            arrivals, tiebreak_seed=seed, keep_results=True
        )
        return summarize_report(report)

    return ReplayCase(name=f"{scheme}/{engine}", run=run)


def build_process_replay_case(
    scheme: str,
    num_points: int = 300,
    num_queries: int = 24,
    dimension: int = 6,
    num_disks: int = 4,
    k: int = 5,
    data_seed: int = 7,
    *,
    directory: str,
) -> ReplayCase:
    """The process-parallel engine as a :class:`ReplayCase`.

    Seed ``None`` runs the single-process reference:
    :class:`~repro.parallel.paged.PagedEngine` over the out-of-core
    :class:`~repro.storage.mmap_store.MmapStore`.  Any other seed starts
    a fresh per-disk worker fleet
    (:class:`~repro.parallel.process.ProcessParallelEngine`) over the
    same store — the "permutation" here is a genuine OS scheduling race,
    not a seeded shuffle — and the shared-pruning-bound determinism
    contract says the results and per-disk page counts must still match
    the reference bit for bit.

    The store is written once to ``directory``, which the caller owns;
    every replay reopens it cold and cacheless.
    """
    from repro.parallel.paged import PagedEngine
    from repro.parallel.process import ProcessParallelEngine
    from repro.storage import MmapStore, save_paged_store

    data = _smoke_data(num_points, num_queries, dimension, data_seed)
    declusterer = make_declusterer(
        scheme, dimension=dimension, num_disks=num_disks
    )
    paged = PagedStore(points=data["points"], declusterer=declusterer)
    save_paged_store(paged, directory)
    queries = data["queries"]

    def run(seed: Optional[int]) -> RunSummary:
        """Cold cacheless run over the mmap store; workers when seeded."""
        with MmapStore(directory) as store:
            engine: object
            if seed is None:
                engine = PagedEngine(store, cache=None)
            else:
                engine = ProcessParallelEngine(store)
            try:
                totals = np.zeros(num_disks, dtype=np.int64)
                results = []
                for query in queries:
                    outcome = engine.query(query, k)
                    totals += outcome.pages_per_disk
                    results.append(
                        tuple(
                            (int(n.oid), float(n.distance))
                            for n in outcome.neighbors
                        )
                    )
            finally:
                closer = getattr(engine, "close", None)
                if closer is not None:
                    closer()
        return RunSummary(
            results=tuple(results),
            pages_per_disk=tuple(int(total) for total in totals),
        )

    return ReplayCase(name=f"{scheme}/process", run=run)


def _serve_spec(scheme: str, case_kwargs: Dict[str, int]) -> WorkloadSpec:
    """The cacheless paged-engine workload one serve cell runs."""
    return WorkloadSpec(
        n=case_kwargs.get("num_points", 300),
        d=case_kwargs.get("dimension", 6),
        k=case_kwargs.get("k", 5),
        num_disks=case_kwargs.get("num_disks", 8),
        scheme=scheme,
        engine="paged",
        cache_pages=None,
        seed=case_kwargs.get("data_seed", 7),
    )


def _tied_serve_trace(
    spec: WorkloadSpec,
    count: int,
    group: int = 4,
    gap_ms: float = 3.0,
    seed: int = 1,
) -> List[QueryRequest]:
    """Seeded serve arrivals with deliberate exact timestamp ties."""
    rng = np.random.default_rng(seed)
    queries = rng.random((count, spec.d))
    return [
        QueryRequest(
            query=queries[index],
            k=spec.k,
            arrival_ms=float(index // group) * gap_ms,
        )
        for index in range(count)
    ]


def build_serve_replay_case(
    scheme: str,
    num_points: int = 300,
    num_queries: int = 24,
    dimension: int = 6,
    num_disks: int = 8,
    k: int = 5,
    data_seed: int = 7,
) -> ReplayCase:
    """The serving layer's virtual-time planner as a :class:`ReplayCase`.

    Each replay builds a fresh cacheless paged engine from the seeded
    spec and serves one tied arrival trace through
    :meth:`~repro.serve.service.QueryService.run_trace` under the
    given tie-break seed; by the service's determinism contract the
    results and per-disk page counts must be seed-invariant.
    """
    spec = _serve_spec(
        scheme,
        {
            "num_points": num_points,
            "dimension": dimension,
            "k": k,
            "num_disks": num_disks,
            "data_seed": data_seed,
        },
    )
    trace = _tied_serve_trace(spec, num_queries)

    def run(seed: Optional[int]) -> RunSummary:
        """Cold serve run of this cell under tie-break ``seed``."""
        service = QueryService(build_engine(spec), "fifo")
        report = service.run_trace(trace, tiebreak_seed=seed)
        return summarize_report(report)

    return ReplayCase(name=f"{scheme}/serve", run=run)


def _virtual_clock_findings(
    scheme: str, case_kwargs: Dict[str, int]
) -> List[Finding]:
    """Check the served run leaves its VirtualClock on ``completion_ms``.

    This is the runtime half of the static
    ``no-wall-clock-in-virtual-time`` lint rule: if any wall-clock (or
    otherwise un-modeled) time source leaked into the planner, the
    clock it drives and the report it emits disagree.
    """
    spec = _serve_spec(scheme, case_kwargs)
    trace = _tied_serve_trace(
        spec, case_kwargs.get("num_queries", 24)
    )
    service = QueryService(build_engine(spec), "fifo")
    clock = VirtualClock()
    report = service.run_trace(trace, clock=clock)
    source = f"sanitize://serve/{scheme}/virtual-clock"
    if clock.now_ms() != report.completion_ms:
        return [
            Finding(
                source, 1, "sanitize-virtual-clock",
                f"after run_trace the driving VirtualClock reads "
                f"{clock.now_ms()} ms but the report's completion_ms is "
                f"{report.completion_ms} ms; the planner's timeline is "
                f"not a pure function of the arrival trace",
            )
        ]
    return []


def _traced_stream_findings(
    scheme: str,
    case_kwargs: Dict[str, int],
) -> List[Finding]:
    """Happens-before + counter-oracle findings for one traced run."""
    dimension = case_kwargs.get("dimension", 6)
    num_disks = case_kwargs.get("num_disks", 8)
    data = _smoke_data(
        case_kwargs.get("num_points", 300),
        case_kwargs.get("num_queries", 24),
        dimension,
        case_kwargs.get("data_seed", 7),
    )
    declusterer = make_declusterer(
        scheme, dimension=dimension, num_disks=num_disks
    )
    store = PagedStore(points=data["points"], declusterer=declusterer)
    tracer = RecordingTracer()
    tracer.enabled = True
    simulator = EventDrivenSimulator(store, tracer=tracer)
    report = simulator.run(
        _tied_arrivals(data["queries"], case_kwargs.get("k", 5))
    )
    return check_event_stream(
        tracer.events,
        pages_per_disk=[int(p) for p in report.pages_per_disk],
        source=f"sanitize://stream/{scheme}/event",
    )


def smoke_matrix(
    schemes: Sequence[str] = SMOKE_SCHEMES,
    engines: Sequence[str] = SMOKE_ENGINES,
    seeds: Sequence[Optional[int]] = (None, 11, 47),
    **case_kwargs: int,
) -> List[Finding]:
    """Run the full sanitizer matrix; [] means every check passed.

    For each scheme x engine cell the tie-break replay runs under
    ``seeds``; each scheme additionally gets one traced event run for
    the stream/oracle checks, one serve-layer replay cell
    (:func:`build_serve_replay_case`), and the virtual-clock invariant
    check; the whole matrix runs inside the global RNG guard.  The
    first scheme also gets one out-of-core cell
    (:func:`build_process_replay_case`): the per-disk worker fleet must
    reproduce the single-process reference exactly (one cell, capped at
    4 disks, because each replay spawns real worker processes).
    """
    findings: List[Finding] = []
    with global_rng_guard("sanitize://matrix") as rng_findings:
        for scheme in schemes:
            for engine in engines:
                case = build_replay_case(scheme, engine, **case_kwargs)
                findings.extend(replay_check(case, seeds=seeds))
            findings.extend(
                _traced_stream_findings(scheme, dict(case_kwargs))
            )
            serve_case = build_serve_replay_case(scheme, **case_kwargs)
            findings.extend(replay_check(serve_case, seeds=seeds))
            findings.extend(
                _virtual_clock_findings(scheme, dict(case_kwargs))
            )
        if schemes:
            process_kwargs = dict(case_kwargs)
            process_kwargs["num_disks"] = min(
                4, process_kwargs.get("num_disks", 4)
            )
            with tempfile.TemporaryDirectory(
                prefix="repro-sanitize-mmap-"
            ) as directory:
                process_case = build_process_replay_case(
                    schemes[0], **process_kwargs, directory=directory
                )
                findings.extend(replay_check(process_case, seeds=seeds))
    findings.extend(rng_findings)
    return sorted(findings)


def _rule_summaries() -> Dict[str, str]:
    """Sanitizer rule metadata for SARIF output."""
    return {
        "sanitize-clock-monotonic": (
            "simulated event clock violated a happens-before ordering"
        ),
        "sanitize-double-charge": (
            "page_read without a matching buffer-pool cache_miss"
        ),
        "sanitize-counter-oracle": (
            "trace page sums disagree with the report's disk counters"
        ),
        "sanitize-replay-divergence": (
            "run output depends on the tie-break seed"
        ),
        "sanitize-virtual-clock": (
            "served run's VirtualClock disagrees with the report's "
            "completion time"
        ),
        "sanitize-unseeded-rng": (
            "global RNG state advanced during a simulated run"
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.sanitize`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.sanitize",
        description="Runtime determinism sanitizer: tie-break replay, "
        "event-clock happens-before checks, and global-RNG drift "
        "detection over a simulator smoke matrix.",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=list(SMOKE_SCHEMES),
        help=f"declustering schemes to cover (default: {SMOKE_SCHEMES})",
    )
    parser.add_argument(
        "--engines", nargs="+", default=list(SMOKE_ENGINES),
        choices=SMOKE_ENGINES,
        help=f"arrival shapes to cover (default: {SMOKE_ENGINES})",
    )
    parser.add_argument(
        "--seeds", nargs="+", type=int, default=[11, 47],
        help="tie-break seeds replayed against the native order "
        "(default: 11 47)",
    )
    parser.add_argument(
        "--num-points", type=int, default=300,
        help="dataset size of the smoke store (default: 300)",
    )
    parser.add_argument(
        "--num-queries", type=int, default=24,
        help="queries per cell (default: 24)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="subtract the findings recorded in FILE before reporting",
    )
    parser.add_argument(
        "--update-baseline", type=Path, default=None, metavar="FILE",
        help="rewrite FILE from the current findings and exit 0",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    seeds: List[Optional[int]] = [None]
    seeds.extend(args.seeds)
    findings = smoke_matrix(
        schemes=tuple(args.schemes),
        engines=tuple(args.engines),
        seeds=seeds,
        num_points=args.num_points,
        num_queries=args.num_queries,
    )
    if args.update_baseline is not None:
        write_baseline(args.update_baseline, findings)
        print(
            f"baseline {args.update_baseline} updated "
            f"({len(findings)} findings recorded)"
        )
        return 0
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            print(f"repro.sanitize: {error}", file=sys.stderr)
            return 2
        findings = subtract_baseline(findings, baseline)
    if args.format == "sarif":
        print(render_sarif(findings, "repro.sanitize", _rule_summaries()))
    elif args.format == "json":
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    else:
        print("0 findings")
    return 1 if error_findings(findings) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
