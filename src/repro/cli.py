"""Command-line interface: regenerate the paper's figures from a shell.

Usage::

    python -m repro figures --list
    python -m repro figures --run fig13 --scale 0.5
    python -m repro figures --run all --scale 0.25 --out results/
    python -m repro ablations --run neighbor_depth
    python -m repro trace --scheme col --d 16 --disks 16
    python -m repro stats --scheme col --d 16 --disks 16 --cache-pages 64
    python -m repro info

``trace`` runs a small seeded kNN workload and emits the structured
event stream (JSONL or CSV; see ``docs/observability.md``); ``stats``
runs the same workload and renders the metrics registry instead.  Any
figures/ablations run can be traced end to end with ``--trace-out``.
"""

from __future__ import annotations

import argparse
import inspect
import pathlib
import sys
from typing import Callable, Dict, Optional, Sequence

from repro import __version__
from repro.core.vertex_coloring import (
    color_lower_bound,
    color_upper_bound,
    colors_required,
)
from repro.experiments import (
    run_fig01_sequential_dimension,
    run_fig02_round_robin_speedup,
    run_fig03_hilbert_vs_round_robin,
    run_fig05_surface_probability,
    run_fig06_sphere_buckets,
    run_fig07_near_optimality,
    run_fig08_assignment_graph,
    run_fig10_color_staircase,
    run_fig12_speedup_uniform,
    run_fig13_speedup_fourier,
    run_fig14_improvement_over_hilbert,
    run_fig15_scaleup,
    run_fig16_recursive_declustering,
    run_fig17_text_data,
)
from repro.experiments.extensions import (
    run_ext_cache_hit_ratio,
    run_ext_dynamic_reorganization,
    run_ext_graph_based_nn,
    run_ext_range_queries_2d,
    run_ext_saturation,
    run_ext_optimal_coloring,
    run_ext_partial_match,
    run_ext_throughput,
)
from repro.experiments.ablations import (
    run_ablation_disk_reduction,
    run_ablation_sequential_indexes,
    run_ablation_engine_modes,
    run_ablation_knn_algorithms,
    run_ablation_neighbor_depth,
    run_ablation_page_round_robin,
    run_ablation_quantile_split,
    run_ablation_xtree_supernodes,
)
from repro.index.node import directory_capacity, leaf_capacity

__all__ = ["main", "FIGURES", "ABLATIONS"]

#: Figure name -> experiment callable.  Scale-aware runners accept the
#: ``scale`` keyword; purely analytical ones do not.
FIGURES: Dict[str, Callable] = {
    "fig01": run_fig01_sequential_dimension,
    "fig02": run_fig02_round_robin_speedup,
    "fig03": run_fig03_hilbert_vs_round_robin,
    "fig05": run_fig05_surface_probability,
    "fig06": run_fig06_sphere_buckets,
    "fig07": run_fig07_near_optimality,
    "fig08": run_fig08_assignment_graph,
    "fig10": run_fig10_color_staircase,
    "fig12": run_fig12_speedup_uniform,
    "fig13": run_fig13_speedup_fourier,
    "fig14": run_fig14_improvement_over_hilbert,
    "fig15": run_fig15_scaleup,
    "fig16": run_fig16_recursive_declustering,
    "fig17": run_fig17_text_data,
}

#: Analytical figures that take no ``scale`` keyword.
_UNSCALED = {"fig05", "fig06", "fig07", "fig08", "fig10"}

ABLATIONS: Dict[str, Callable] = {
    "neighbor_depth": run_ablation_neighbor_depth,
    "disk_reduction": run_ablation_disk_reduction,
    "knn_algorithms": run_ablation_knn_algorithms,
    "quantile_split": run_ablation_quantile_split,
    "xtree_supernodes": run_ablation_xtree_supernodes,
    "sequential_indexes": run_ablation_sequential_indexes,
    "page_round_robin": run_ablation_page_round_robin,
    "engine_modes": run_ablation_engine_modes,
    "throughput": run_ext_throughput,
    "cache_hit_ratio": run_ext_cache_hit_ratio,
    "partial_match": run_ext_partial_match,
    "optimal_coloring": run_ext_optimal_coloring,
    "dynamic_reorganization": run_ext_dynamic_reorganization,
    "saturation": run_ext_saturation,
    "range_queries_2d": run_ext_range_queries_2d,
    "graph_based_nn": run_ext_graph_based_nn,
}

_NO_SCALE_ABLATIONS = {"disk_reduction", "optimal_coloring"}


def _emit(table, out_dir: Optional[str], name: str) -> None:
    text = table.to_text()
    print(text)
    print()
    if out_dir:
        directory = pathlib.Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.txt").write_text(text + "\n")


def _run_group(
    registry: Dict[str, Callable],
    unscaled: set,
    args: argparse.Namespace,
) -> int:
    if args.list:
        for name in registry:
            doc = (registry[name].__doc__ or "").strip().splitlines()[0]
            print(f"{name:>18}  {doc}")
        return 0
    targets = list(registry) if args.run == "all" else [args.run]
    unknown = [t for t in targets if t not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(registry)}", file=sys.stderr)
        return 2
    cache_pages = getattr(args, "cache_pages", None)

    def run_targets() -> None:
        for name in targets:
            runner = registry[name]
            if name in unscaled:
                table = runner()
            else:
                kwargs = dict(scale=args.scale, seed=args.seed)
                if (
                    cache_pages is not None
                    and "cache_pages" in inspect.signature(runner).parameters
                ):
                    kwargs["cache_pages"] = cache_pages
                table = runner(**kwargs)
            _emit(table, args.out, name)

    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        run_targets()
        return 0
    from repro.obs import (
        MetricsRegistry,
        RecordingTracer,
        events_to_jsonl,
        observe,
    )

    tracer = RecordingTracer(metrics=MetricsRegistry())
    with observe(tracer):
        run_targets()
    path = pathlib.Path(trace_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(events_to_jsonl(tracer.events) + "\n")
    print(f"{len(tracer.events)} trace events written to {trace_out}")
    return 0


def _traced_workload(args: argparse.Namespace):
    """Run the seeded trace/stats workload; returns (tracer, totals).

    ``totals`` are the per-disk page counts accumulated from the engines'
    own ``DiskArray`` accounting — the ground truth the emitted
    ``page_read`` events must match bit-for-bit.
    """
    import numpy as np

    from repro.obs import MetricsRegistry, RecordingTracer
    from repro.registry import make_declusterer

    rng = np.random.default_rng(args.seed)
    points = rng.random((args.n, args.d))
    queries = rng.random((args.queries, args.d))
    declusterer = make_declusterer(args.scheme, args.d, args.disks)
    tracer = RecordingTracer(metrics=MetricsRegistry())
    backing = getattr(args, "store", "memory")
    if args.engine == "item":
        if backing == "mmap":
            raise ValueError(
                "--store mmap requires the paged or process engine"
            )
        from repro.parallel.engine import ParallelEngine
        from repro.parallel.store import DeclusteredStore

        store = DeclusteredStore(points, declusterer)
        engine = ParallelEngine(
            store, cache=args.cache_pages, tracer=tracer
        )
        return tracer, _drive_queries(args, engine, queries)
    from repro.parallel.paged import PagedStore

    store = PagedStore(points, declusterer)
    if backing == "mmap" or args.engine == "process":
        # Spill the payloads to an out-of-core store directory; the
        # directory stays RAM-resident, pages are served via mmap.
        import tempfile

        from repro.storage import MmapStore, save_paged_store

        with tempfile.TemporaryDirectory(prefix="repro-mmap-") as directory:
            save_paged_store(store, directory)
            with MmapStore(directory) as mmap_store:
                engine = _make_paged_engine(args, mmap_store, tracer)
                return tracer, _drive_queries(args, engine, queries)
    engine = _make_paged_engine(args, store, tracer)
    return tracer, _drive_queries(args, engine, queries)


def _make_paged_engine(args, store, tracer):
    """The paged-family engine the CLI flags select over ``store``."""
    if args.engine == "process":
        from repro.parallel.process import ProcessParallelEngine

        if args.cache_pages is not None:
            raise ValueError(
                "--engine process is cacheless (the OS page cache "
                "serves warm mmap reads); drop --cache-pages"
            )
        return ProcessParallelEngine(store, tracer=tracer)
    from repro.parallel.paged import PagedEngine

    return PagedEngine(store, cache=args.cache_pages, tracer=tracer)


def _drive_queries(args, engine, queries):
    """Run the workload through ``engine`` (closed on exit); totals."""
    import numpy as np

    totals = np.zeros(args.disks, dtype=np.int64)
    try:
        for query in queries:
            result = engine.query(query, args.k)
            totals += result.pages_per_disk
    finally:
        closer = getattr(engine, "close", None)
        if closer is not None:
            closer()
    return totals


def _write_or_print(text: str, out: Optional[str], what: str) -> None:
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"{what} written to {out}")
    else:
        print(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import events_to_csv, events_to_jsonl

    try:
        tracer, totals = _traced_workload(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    traced = tracer.pages_per_disk(args.disks)
    if traced != [int(t) for t in totals]:
        print(
            f"trace/disk-counter mismatch: page_read events sum to "
            f"{traced}, DiskArray counted {totals.tolist()}",
            file=sys.stderr,
        )
        return 1
    render = events_to_jsonl if args.format == "jsonl" else events_to_csv
    _write_or_print(
        render(tracer.events), args.out, f"{len(tracer.events)} events"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import metrics_to_csv, metrics_to_json, summary_table

    try:
        tracer, _ = _traced_workload(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    registry = tracer.metrics
    if args.format == "json":
        text = metrics_to_json(registry)
    elif args.format == "csv":
        text = metrics_to_csv(registry)
    else:
        text = summary_table(
            registry,
            title=(
                f"{args.scheme} d={args.d} disks={args.disks} "
                f"n={args.n} queries={args.queries} k={args.k}"
            ),
        )
    _write_or_print(text, args.out, "metrics")
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} — Fast Parallel Similarity Search in "
          f"Multimedia Databases (SIGMOD 1997)")
    print("\ncolor staircase (disks required by col):")
    print(f"{'d':>3}  {'d+1':>4}  {'col':>4}  {'2d':>4}  "
          f"{'leaf cap':>8}  {'dir cap':>7}")
    for dimension in (2, 4, 8, 15, 16, 31, 32):
        print(
            f"{dimension:>3}  {color_lower_bound(dimension):>4}  "
            f"{colors_required(dimension):>4}  "
            f"{color_upper_bound(dimension):>4}  "
            f"{leaf_capacity(dimension):>8}  "
            f"{directory_capacity(dimension):>7}"
        )
    return 0


def _cmd_schemes(_: argparse.Namespace) -> int:
    from repro.registry import DECLUSTERERS

    print(f"{'name':>12}  {'class':<26}  description")
    for name, cls in DECLUSTERERS.items():
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:>12}  {cls.__name__:<26}  {doc}")
    return 0


def _serve_spec_and_policy(args: argparse.Namespace):
    """Build the (WorkloadSpec, SchedulerPolicy) pair the serve/loadgen
    subcommands share."""
    from repro.serve import WorkloadSpec, make_scheduler

    spec = WorkloadSpec(
        n=args.n, d=args.d, k=args.k, num_disks=args.disks,
        scheme=args.scheme, engine=args.engine,
        cache_pages=args.cache_pages, seed=args.seed,
    )
    if args.policy == "max-batch":
        policy = make_scheduler(
            "max-batch", batch_size=args.batch_size,
            deadline_ms=args.deadline_ms,
        )
    else:
        policy = make_scheduler(args.policy)
    return spec, policy


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import (
        MetricsRegistry,
        RecordingTracer,
        events_to_jsonl,
    )
    from repro.serve import (
        QueryService,
        build_engine,
        poisson_trace,
        run_closed_loop,
        uniform_trace,
    )

    try:
        if args.arrivals == "closed" and args.clients < 1:
            raise ValueError("--clients must be >= 1 with --arrivals closed")
        spec, policy = _serve_spec_and_policy(args)
        tracer = (
            RecordingTracer(metrics=MetricsRegistry())
            if args.trace_out else None
        )
        engine = build_engine(spec, tracer=tracer)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service = QueryService(engine, policy, tracer=tracer, own_engine=True)
    try:
        if args.arrivals == "closed":
            report = run_closed_loop(
                service, spec, num_clients=args.clients,
                requests_per_client=max(1, args.requests // args.clients),
                think_ms=args.think_ms, seed=args.trace_seed,
            )
        else:
            make_trace = (
                poisson_trace if args.arrivals == "poisson"
                else uniform_trace
            )
            trace = make_trace(
                spec, args.requests, args.rate_qps, args.trace_seed
            )
            report = service.run_trace(trace)
    finally:
        service.close()
    print(
        f"{len(report.outcomes)} requests in {report.num_batches} "
        f"batches ({report.policy}, mean size "
        f"{report.mean_batch_size:.2f})"
    )
    print(
        f"latency ms: p50 {report.p50_latency_ms:.2f}  "
        f"p95 {report.p95_latency_ms:.2f}  "
        f"p99 {report.p99_latency_ms:.2f}  "
        f"mean {report.mean_latency_ms:.2f}"
    )
    print(
        f"throughput {report.throughput_qps:.1f} q/s, busiest disk "
        f"{report.max_pages} pages, total {report.total_pages} pages"
    )
    if report.cache_stats is not None:
        print(
            f"cache: {report.cache_stats.hits} hits, "
            f"{report.cache_stats.misses} misses"
        )
    if args.trace_out and tracer is not None:
        path = pathlib.Path(args.trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(events_to_jsonl(tracer.events) + "\n")
        print(
            f"{len(tracer.events)} trace events written to "
            f"{args.trace_out}"
        )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.obs import table_to_json
    from repro.serve import points_to_table, sweep

    try:
        spec, policy = _serve_spec_and_policy(args)
        schemes = [s for s in args.schemes.split(",") if s]
        rates = [float(r) for r in args.rates.split(",") if r]
        if not schemes or not rates:
            raise ValueError("--schemes and --rates must be non-empty")
        points = sweep(
            spec, schemes, rates, policy=policy,
            requests=args.requests, trace_seed=args.trace_seed,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    table = points_to_table(points)
    table.add_note(
        f"engine={spec.engine} n={spec.n} d={spec.d} k={spec.k} "
        f"disks={spec.num_disks} cache_pages={spec.cache_pages} "
        f"policy={policy.name} seed={spec.seed} "
        f"trace_seed={args.trace_seed}"
    )
    if args.format == "json":
        _write_or_print(table_to_json(table), args.out, "result table")
    else:
        _write_or_print(table.to_text(), args.out, "result table")
    return 0


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative page count, got {parsed}"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the figures of 'Fast Parallel Similarity "
        "Search in Multimedia Databases' (SIGMOD 1997).",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, registry, default in (
        ("figures", FIGURES, "fig13"),
        ("ablations", ABLATIONS, "neighbor_depth"),
    ):
        p = sub.add_parser(command, help=f"run {command} experiments")
        p.add_argument("--run", default=default,
                       help=f"experiment name or 'all' (default {default})")
        p.add_argument("--list", action="store_true",
                       help="list available experiments and exit")
        p.add_argument("--scale", type=float, default=0.5,
                       help="workload scale factor (default 0.5)")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
        p.add_argument("--cache-pages", type=_nonnegative_int, default=None,
                       dest="cache_pages",
                       help="LRU buffer-pool capacity in pages for "
                       "cache-aware experiments (0 = cold cache; "
                       "default: experiment-specific sweep)")
        p.add_argument("--out", default=None,
                       help="directory to write result tables to")
        p.add_argument("--trace-out", default=None, dest="trace_out",
                       help="trace the whole run (ambient observability) "
                       "and write the JSONL event stream to this file")

    for command, help_text, formats, default_format in (
        ("trace",
         "run a seeded kNN workload and emit its structured event trace",
         ("jsonl", "csv"), "jsonl"),
        ("stats",
         "run a seeded kNN workload and render its metrics registry",
         ("table", "json", "csv"), "table"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--scheme", default="col",
                       help="declustering scheme or alias, e.g. col, RR, "
                       "HIL (default col; see the 'schemes' subcommand)")
        p.add_argument("--d", type=int, default=16,
                       help="data dimensionality (default 16)")
        p.add_argument("--disks", type=int, default=16,
                       help="number of disks (default 16)")
        p.add_argument("--n", type=int, default=2000,
                       help="points in the store (default 2000)")
        p.add_argument("--queries", type=int, default=5,
                       help="kNN queries to run (default 5)")
        p.add_argument("--k", type=int, default=10,
                       help="neighbors per query (default 10)")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
        p.add_argument("--engine", choices=("paged", "item", "process"),
                       default="paged",
                       help="page-level shared-directory engine, "
                       "item-level engine, or one worker process per "
                       "disk over an mmap store (default paged)")
        p.add_argument("--store", choices=("memory", "mmap"),
                       default="memory",
                       help="page backing: in-memory entries or an "
                       "out-of-core mmap store directory (default "
                       "memory; --engine process always uses mmap)")
        p.add_argument("--cache-pages", type=_nonnegative_int,
                       default=None, dest="cache_pages",
                       help="attach an LRU buffer pool of this many pages "
                       "(default: no cache; not valid with --engine "
                       "process)")
        p.add_argument("--format", choices=formats, default=default_format,
                       help=f"output format (default {default_format})")
        p.add_argument("--out", default=None,
                       help="file to write to (default: stdout)")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scheme", default="col",
                       help="declustering scheme or alias (default col)")
        p.add_argument("--d", type=int, default=2,
                       help="data dimensionality (default 2)")
        p.add_argument("--disks", type=int, default=4,
                       help="number of disks (default 4)")
        p.add_argument("--n", type=int, default=2048,
                       help="points in the store (default 2048)")
        p.add_argument("--k", type=int, default=10,
                       help="neighbors per query (default 10)")
        p.add_argument("--seed", type=int, default=0,
                       help="store seed (default 0)")
        p.add_argument("--trace-seed", type=int, default=1,
                       dest="trace_seed",
                       help="arrival-trace seed (default 1)")
        p.add_argument("--engine", choices=("paged", "item", "process"),
                       default="paged",
                       help="engine family (default paged; process = "
                       "one worker process per disk over an on-disk "
                       "store built for the run)")
        p.add_argument("--cache-pages", type=_nonnegative_int,
                       default=None, dest="cache_pages",
                       help="attach an LRU buffer pool of this many "
                       "pages (default: no cache; not valid with "
                       "--engine process)")
        p.add_argument("--policy", default="max-batch",
                       help="scheduler policy (default max-batch; see "
                       "repro.serve.scheduler.SCHEDULERS)")
        p.add_argument("--batch-size", type=int, default=8,
                       dest="batch_size",
                       help="max-batch flush size (default 8)")
        p.add_argument("--deadline-ms", type=float, default=4.0,
                       dest="deadline_ms",
                       help="max-batch flush deadline in ms (default 4)")

    serve = sub.add_parser(
        "serve",
        help="serve a seeded arrival trace through the batching "
        "QueryService and report latency percentiles",
    )
    add_workload_args(serve)
    serve.add_argument("--requests", type=int, default=64,
                       help="requests in the trace (default 64)")
    serve.add_argument("--rate-qps", type=float, default=200.0,
                       dest="rate_qps",
                       help="offered load in queries/s (default 200)")
    serve.add_argument("--arrivals",
                       choices=("poisson", "uniform", "closed"),
                       default="poisson",
                       help="arrival model (default poisson)")
    serve.add_argument("--clients", type=int, default=8,
                       help="closed-loop client population (default 8)")
    serve.add_argument("--think-ms", type=float, default=0.0,
                       dest="think_ms",
                       help="closed-loop mean think time (default 0)")
    serve.add_argument("--trace-out", default=None, dest="trace_out",
                       help="write the JSONL event stream (serve_* plus "
                       "engine spans) to this file")

    loadgen = sub.add_parser(
        "loadgen",
        help="sweep offered load across declustering schemes and emit "
        "a p50/p95/p99 latency table",
    )
    add_workload_args(loadgen)
    loadgen.add_argument("--schemes", default="col,fx",
                         help="comma-separated schemes to sweep "
                         "(default col,fx)")
    loadgen.add_argument("--rates", default="50,100,200,400",
                         help="comma-separated offered loads in "
                         "queries/s (default 50,100,200,400)")
    loadgen.add_argument("--requests", type=int, default=64,
                         help="requests per sweep cell (default 64)")
    loadgen.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="output format (default table)")
    loadgen.add_argument("--out", default=None,
                         help="file to write to (default: stdout)")

    sub.add_parser("info", help="show library facts (staircase, capacities)")

    sub.add_parser(
        "schemes",
        help="list the registered declustering schemes (repro.registry)",
    )

    verify = sub.add_parser(
        "verify", help="check the paper's headline claims (PASS/FAIL)"
    )
    verify.add_argument("--scale", type=float, default=0.25)
    verify.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report", help="run everything and write a markdown report"
    )
    report.add_argument("--scale", type=float, default=0.25)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--out", default="reproduction_report.md")
    report.add_argument(
        "--figures-only", action="store_true",
        help="skip the ablation/extension experiments",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _run_group(FIGURES, _UNSCALED, args)
    if args.command == "ablations":
        return _run_group(ABLATIONS, _NO_SCALE_ABLATIONS, args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "schemes":
        return _cmd_schemes(args)
    if args.command == "verify":
        from repro.experiments.verify import verify_reproduction

        results = verify_reproduction(scale=args.scale, seed=args.seed)
        for result in results:
            verdict = "PASS" if result.passed else "FAIL"
            print(f"[{verdict}] {result.claim}")
            print(f"       {result.evidence}  ({result.seconds:.1f} s)")
        failed = sum(not r.passed for r in results)
        print(f"\n{len(results) - failed}/{len(results)} claims verified")
        return 1 if failed else 0
    if args.command == "report":
        from repro.experiments.report import generate_report

        text = generate_report(
            FIGURES,
            _UNSCALED,
            scale=args.scale,
            seed=args.seed,
            ablations=None if args.figures_only else ABLATIONS,
            unscaled_ablations=_NO_SCALE_ABLATIONS,
            progress=lambda name: print(f"running {name} ..."),
        )
        pathlib.Path(args.out).write_text(text)
        print(f"report written to {args.out}")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
