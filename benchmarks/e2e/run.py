#!/usr/bin/env python3
"""The end-to-end benchmark of this repository (see README.md here).

Measures the kNN request path ``QueryService`` -> ``ProcessParallelEngine``
-> worker -> ``MmapStore.read_page`` -> ``repro.index.kernels`` in wall
clock, end to end and layer by layer, and checks every answer.

    python3 benchmarks/e2e/run.py                     # four workloads
    python3 benchmarks/e2e/run.py --workload uniform_io --trace
    python3 benchmarks/e2e/run.py --smoke --trace     # seconds, tiny N
    python3 benchmarks/e2e/run.py --repeat-check 4    # is it repeatable?

With one ``--workload`` the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0`` and the
``per_layer`` metrics with ``--trace 1``.  The exit code is 0 only when
every answer was correct and every metric of ``BENCHMARK.json`` was
produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Build outputs, temp stores and span files go here, inside the checkout.
WORKDIR = ROOT / ".bench_build"

# The program under test is not installed; the disk workers are spawned
# with this ``sys.path``.  Everything heavy is imported inside ``main`` so
# a spawned worker, which re-imports this file, pays for none of it.
sys.path.insert(0, str(ROOT / "src"))

#: End-to-end metrics that are counts, not times: equal on every run of
#: one seed.
EXACT = ("stored_bytes_per_user_byte", "busiest_disk_pages_per_query")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _steal_jiffies() -> Tuple[int, int]:
    """(steal, total) jiffies of the machine since boot."""
    fields = [int(v) for v in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    return fields[7], sum(fields[:8])


def _print_metrics(title: str, specs: Sequence[Dict[str, Any]],
                   values: Dict[str, float],
                   measured: Optional[Dict[str, float]] = None) -> None:
    """One line per metric; ``measured`` adds the value before it was
    scaled to the reference speed."""
    print(f"  {title}")
    for spec in specs:
        bound = f"  bound {spec['bound']}" if "bound" in spec else ""
        raw = f"  measured {measured[spec['name']]:.4f}" if measured else ""
        print(
            f"    {spec['name']:<40}{values[spec['name']]:>14.4f} "
            f"{spec['unit']:<9}({spec['better']} is better){bound}{raw}"
        )


def _sanity(spec: Any, log: Any, layer: Dict[str, float]) -> List[str]:
    """Relations that must hold if the benchmark measures what it says."""
    from probes import CACHE_POOL_PAGES

    broken = []
    if spec.disk_ms:
        for rnd in log.percall:
            for rid, ms, busiest in rnd:
                if ms < busiest * spec.disk_ms:
                    broken.append(
                        f"query {rid} took {ms:.2f} ms but its busiest disk "
                        f"read {busiest} pages of {spec.disk_ms} ms"
                    )
    if not layer:
        return broken
    if spec.disk_ms and layer["process.speedup_vs_paged"] <= 1.5:
        broken.append("process.speedup_vs_paged <= 1.5 under disk wait")
    fits = layer["storage.pages_total"] <= CACHE_POOL_PAGES
    hit, evictions = layer["cache.hit_ratio"], layer["cache.evictions"]
    if fits and (hit != 1.0 or evictions):
        broken.append(f"store fits the pool but hit ratio {hit}, "
                      f"{evictions} evictions")
    if not fits and hit >= 0.5:
        broken.append(f"store exceeds the pool but hit ratio {hit}")
    if spec.max_ram_bytes and layer["storage.build_rss_delta_mb"] > 256:
        broken.append("bounded-RAM build grew RSS by more than 256 MB")
    return broken


async def run_workload(
    spec: Any, args: argparse.Namespace, contract: Dict[str, Any]
) -> Dict[str, Any]:
    """Set up, run the rounds, check, probe; print and return the result
    object of the driver protocol."""
    import probes
    import spans
    import workloads as wl

    trace = bool(args.trace)
    WORKDIR.mkdir(exist_ok=True)
    steal_before = _steal_jiffies()
    rec: Any = spans.SpanRecorder() if trace else spans.NullRecorder()
    layer: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    with wl.simulated_disk(spec.disk_ms):
        # The traced run and the smoke tier do not report setup_s to the
        # driver, so one set-up is enough for them.
        env = await wl.set_up(spec, args.seed, WORKDIR)
        setups = [env.setup_s]
        for _ in range(0 if trace or args.smoke else SETUPS - 1):
            env.close()
            env = await wl.set_up(spec, args.seed, WORKDIR)
            setups.append(env.setup_s)
        try:
            log = await wl.run_rounds(
                env, args.seconds, args.rounds, spans.NullRecorder()
            )
            with rec.span("bench.traced_run"):
                if trace:
                    traced = wl.RunLog()
                    await wl.run_round(env, 0, rec, traced)
                    log.absorb_checks(traced)
                    layer.update(
                        await probes.live_probes(env, args.seed, rec, log)
                    )
                    layer.update(probes.floor_probe(WORKDIR, rec))
                start = time.perf_counter()
                env.engine.close()
                close_s = time.perf_counter() - start
                rss_mb = wl.peak_rss_mb()
                with rec.span("bench.oracle"):
                    wl.check_answers(env, log)
                if trace:
                    offline, counts = probes.offline_probes(env, WORKDIR, rec)
                    layer.update(offline)
        finally:
            env.close()
    e2e = wl.end_to_end_metrics(env, log, setups, rss_mb)
    measured = wl.end_to_end_metrics(
        env, log, setups, rss_mb, at_reference_speed=False
    )
    if trace:
        steal, total = (
            after - before
            for after, before in zip(_steal_jiffies(), steal_before)
        )
        untraced = [
            statistics.fmean(ms for _, ms, _ in rnd)
            for rnd in log.percall[:: spec.slices]
        ]
        layer.update(probes.round_metrics(env, log))
        layer.update({
            "process.close_s": close_s,
            "process.speedup_vs_paged": layer["paged.percall_ms_p50"]
            / layer["process.query_ms_p50"],
            "bench.steal_ratio": steal / max(total, 1),
            "bench.trace_overhead_ratio": statistics.fmean(
                ms for _, ms, _ in traced.percall[0]
            ) / statistics.median(untraced),
            "bench.span_coverage": spans.coverage(rec.spans, "bench.round"),
        })
        out = Path(args.trace_out.format(workload=spec.name))
        out.parent.mkdir(parents=True, exist_ok=True)
        rec.write(str(out), {"workload": spec.name, "seed": args.seed})

    log.failures.extend(_sanity(spec, log, layer))
    print(
        f"== {spec.name}  seed {args.seed}  {log.rounds} rounds  "
        f"N={spec.num_points} d={spec.dimension} disks={spec.num_disks} "
        f"k={spec.k} disk_ms={spec.disk_ms}  per round: "
        f"1 build, then {spec.slice_size} queries per call, as one batch "
        f"and served ({wl.IN_FLIGHT} in flight)"
    )
    _print_metrics(
        "end to end (untraced rounds; medians over rounds, "
        f"{len(log.query_ms())} per-call samples, {len(setups)} set-up(s); "
        f"at reference speed: the reference loop took "
        f"{statistics.median(log.reference_ms):.2f} ms, nominal "
        f"{wl.REFERENCE_MS} ms)",
        contract["end_to_end"], e2e, measured,
    )
    reported = e2e
    wanted = contract["end_to_end"]
    if trace:
        reported, wanted = layer, contract["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in layer]
        if missing:
            raise SystemExit(f"per-layer metrics not measured: {missing}")
        _print_metrics(
            f"per layer ({len(log.serve_ms)} served samples; "
            f"spans in {out})", wanted, layer,
        )
        print(probes.split_tables(spec, layer, counts))
        _print_self_times(rec.spans)
    print(f"  ops_attempted {log.attempted}  ops_failed {len(log.failures)}")
    for failure in log.failures[:10]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    names = {m["name"] for m in wanted}
    if names != set(reported):
        raise SystemExit(
            f"BENCHMARK.json and the runner disagree on {names ^ set(reported)}"
        )
    return {
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {
            m["name"]: {"value": reported[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def _print_self_times(recorded: List[Dict[str, Any]]) -> None:
    """Self time per span name, from the traced round and the probes."""
    import spans

    own = spans.self_times(recorded)
    by_name: Dict[str, List[float]] = {}
    for span in recorded:
        by_name.setdefault(span["name"], []).append(own[span["id"]])
    print("  self time by span (traced round and probes)")
    for name, values in sorted(by_name.items()):
        print(f"    {name:<40}{sum(values) * 1e3:>12.2f} ms  x{len(values)}")


# ------------------------------------------------------------ repeat check


def repeat_check(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Run every workload N times in fresh processes, alternating the
    order, and compare the medians of the odd and the even runs with the
    bounds.  With ``--vary-seed`` run ``i`` uses ``seed + i`` (what the
    driver does); otherwise all runs share the seed and the exact
    metrics must not differ."""
    names = args.workload or [w["name"] for w in contract["workloads"]]
    runs: Dict[str, List[Dict[str, float]]] = {name: [] for name in names}
    for index in range(args.repeat_check):
        for name in names if index % 2 == 0 else reversed(names):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--trace", "0",
                "--seed", str(args.seed + (index if args.vary_seed else 0)),
                "--seconds", str(args.seconds),
            ]
            if args.smoke:
                command.append("--smoke")
            if args.rounds is not None:
                command += ["--rounds", str(args.rounds)]
            start = time.perf_counter()
            done = subprocess.run(
                command, capture_output=True, text=True, timeout=900
            )
            wall = time.perf_counter() - start
            if done.returncode:
                print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[name].append(
                {k: v["value"] for k, v in result["metrics"].items()}
            )
            print(f"run {index + 1}/{args.repeat_check} {name} took "
                  f"{wall:.1f} s", file=sys.stderr)
    bad = 0
    print(f"{'workload':<14}{'metric':<30}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'odd/even':>9}{'bound':>7}  values")
    for name in names:
        for metric in contract["end_to_end"]:
            values = [run[metric["name"]] for run in runs[name]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            odd = statistics.median(values[0::2])
            even = statistics.median(values[1::2])
            gap = abs(odd - even) / min(odd, even)
            spread = (q3 - q1) / statistics.median(values)
            exact = metric["name"] in EXACT and not args.vary_seed
            failed = (
                len(set(values)) > 1 if exact
                else gap > metric["bound"]
                or (args.vary_seed and metric["name"] != "setup_s"
                    and spread > metric["bound"])
            )
            bad += failed
            print(
                f"{name:<14}{metric['name']:<30}"
                f"{statistics.median(values):>12.4f}{q1:>12.4f}{q3:>12.4f}"
                f"{spread:>9.3f}{gap:>9.3f}{metric['bound']:>7}  "
                + " ".join(f"{v:.4g}" for v in values)
                + ("  <-- FAILED" if failed else "")
            )
    return 1 if bad else 0


# --------------------------------------------------------------------- main


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    The tracker (started with the first spawned worker) exits only when
    its parent does and leaves the reaping to init; in a container whose
    init does not reap, every run would leave one zombie behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Command line of the runner (and of the driver protocol)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the rounds of one workload measure "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds instead")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add one traced round and the "
                        "per-layer probes; the JSON line then carries the "
                        "per-layer metrics")
    parser.add_argument("--trace-out",
                        default=str(WORKDIR / "e2e-spans-{workload}.json"),
                        help="span file; {workload} is replaced")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny N, two rounds: checks the harness, "
                        "measures nothing")
    parser.add_argument("--repeat-check", type=int, default=0, metavar="N")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat-check: run i uses seed + i")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the exit code."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Never measure some other installed copy of the program.
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'}")
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.repeat_check:
        return repeat_check(args, contract)

    import asyncio

    import numpy
    import workloads as wl

    tier = {spec.name: spec for spec in (wl.SMOKE if args.smoke else wl.FULL)}
    if set(tier) != {w["name"] for w in contract["workloads"]}:
        raise SystemExit("BENCHMARK.json and workloads.py disagree")
    names = args.workload or list(tier)
    unknown = [name for name in names if name not in tier]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; have {list(tier)}")
    if args.smoke and args.rounds is None:
        args.rounds = 2
    print(
        f"nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"numpy {numpy.__version__}  "
        f"tier {'smoke' if args.smoke else 'full'}  trace {args.trace}"
    )
    try:
        results = {
            name: asyncio.run(run_workload(tier[name], args, contract))
            for name in names
        }
    finally:
        _stop_resource_tracker()
    try:
        WORKDIR.rmdir()  # only when nothing (no span file) is left in it
    except OSError:
        pass
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"workloads": results}
    print(json.dumps(result))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
