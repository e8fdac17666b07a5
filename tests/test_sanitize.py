"""Tests for the runtime determinism sanitizer (repro.sanitize).

Covers the three layers (event-stream happens-before checks, tie-break
permutation replay, global-RNG drift guard), the simulators' tie-break
hooks, the smoke-matrix CLI, and the pytest fixture.
"""

import json
import tempfile

import numpy as np
import pytest

from repro.obs.tracer import RecordingTracer, TraceEvent
from repro.parallel.events import EventDrivenSimulator, QueryArrival
from repro.parallel.paged import PagedStore
from repro.registry import make_declusterer
from repro.sanitize import (
    ReplayCase,
    RunSummary,
    build_replay_case,
    check_event_stream,
    global_rng_guard,
    replay_check,
    smoke_matrix,
    summarize_report,
)
from repro.sanitize.cli import (
    _virtual_clock_findings,
    build_process_replay_case,
    build_serve_replay_case,
    main,
)
from repro.sanitize.replay import REPLAY_DIVERGENCE
from repro.sanitize.stream import (
    CLOCK_MONOTONIC,
    COUNTER_ORACLE,
    DOUBLE_CHARGE,
)

# Small-but-real smoke sizes so the suite stays fast; ties still occur
# (every 4 consecutive arrivals share a timestamp in the event engine).
SMALL = dict(num_points=120, num_queries=8, dimension=4, num_disks=4, k=3)


def events_from(rows):
    """Fabricate a TraceEvent stream from (kind, query, disk, pages, t_ms)."""
    return [
        TraceEvent(seq=seq, t_ms=t_ms, kind=kind, query=query,
                   disk=disk, pages=pages)
        for seq, (kind, query, disk, pages, t_ms) in enumerate(rows)
    ]


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestStreamChecks:
    def test_clean_stream_has_no_findings(self):
        events = events_from([
            ("query_arrival", 0, -1, 0, 0.0),
            ("cache_miss", 0, 1, 2, 0.0),
            ("page_read", 0, 1, 2, 20.0),
            ("page_read", 0, 1, 1, 30.0),
            ("cache_miss", 0, 1, 1, 20.0),
            ("query_completion", 0, -1, 0, 30.0),
        ])
        # One miss is consumed before its pair is emitted: pairing is
        # FIFO per (query, disk), not strictly interleaved.
        assert check_event_stream(events) != []  # pages mismatch below
        events = events_from([
            ("query_arrival", 0, -1, 0, 0.0),
            ("cache_miss", 0, 1, 2, 0.0),
            ("page_read", 0, 1, 2, 20.0),
            ("cache_miss", 0, 1, 1, 20.0),
            ("page_read", 0, 1, 1, 30.0),
            ("query_completion", 0, -1, 0, 30.0),
        ])
        assert check_event_stream(events, pages_per_disk=[0, 3]) == []

    def test_backwards_disk_clock_is_flagged(self):
        events = events_from([
            ("page_read", 0, 2, 1, 20.0),
            ("page_read", 0, 2, 1, 10.0),
        ])
        findings = check_event_stream(events, source="s")
        assert rules_of(findings) == [CLOCK_MONOTONIC]
        assert findings[0].path == "s"
        assert findings[0].line == 1  # seq of the offending event
        # Same timestamps on *different* disks are fine (parallel I/O).
        parallel = events_from([
            ("page_read", 0, 0, 1, 20.0),
            ("page_read", 0, 1, 1, 20.0),
        ])
        assert check_event_stream(parallel) == []

    def test_out_of_order_arrivals_are_flagged(self):
        events = events_from([
            ("query_arrival", 0, -1, 0, 5.0),
            ("query_arrival", 1, -1, 0, 2.0),
        ])
        assert rules_of(check_event_stream(events)) == [CLOCK_MONOTONIC]

    def test_completion_before_arrival_is_flagged(self):
        events = events_from([
            ("query_arrival", 3, -1, 0, 10.0),
            ("query_completion", 3, -1, 0, 4.0),
        ])
        findings = check_event_stream(events)
        assert rules_of(findings) == [CLOCK_MONOTONIC]
        assert "before its arrival" in findings[0].message

    def test_double_charged_page_is_flagged(self):
        events = events_from([
            ("cache_miss", 0, 1, 2, 0.0),
            ("page_read", 0, 1, 2, 20.0),
            ("page_read", 0, 1, 2, 40.0),  # second charge, no miss
        ])
        findings = check_event_stream(events)
        assert rules_of(findings) == [DOUBLE_CHARGE]
        assert findings[0].line == 2

    def test_cacheless_queries_are_not_held_to_miss_pairing(self):
        # No cache events at all => pool detached => raw reads are fine.
        events = events_from([
            ("page_read", 0, 1, 2, 20.0),
            ("page_read", 0, 1, 2, 40.0),
        ])
        assert check_event_stream(events) == []

    def test_counter_oracle_mismatch_both_directions(self):
        events = events_from([
            ("page_read", 0, 0, 3, 10.0),
            ("page_read", 0, 2, 1, 10.0),
        ])
        findings = check_event_stream(events, pages_per_disk=[3, 0])
        assert rules_of(findings) == [COUNTER_ORACLE]
        assert "disk 2" in findings[0].message  # traced but unreported
        findings = check_event_stream(
            events, pages_per_disk=[3, 0, 1, 9]
        )
        assert rules_of(findings) == [COUNTER_ORACLE]
        assert "disk 3" in findings[0].message  # reported but untraced


class TestReplay:
    def test_needs_two_seeds(self):
        case = ReplayCase(
            "c", lambda seed: RunSummary(results=(), pages_per_disk=())
        )
        with pytest.raises(ValueError):
            replay_check(case, seeds=(None,))

    def test_deterministic_case_is_clean(self):
        summary = RunSummary(
            results=(((1, 0.5), (2, 0.7)),), pages_per_disk=(3, 1)
        )
        case = ReplayCase("stable", lambda seed: summary)
        assert replay_check(case) == []

    def test_broken_tiebreak_fixture_is_detected(self):
        """Acceptance: a deliberately order-sensitive run is caught."""

        def run(seed):
            bias = 0.0 if seed is None else 0.25
            return RunSummary(
                results=(((1, 0.5 + bias),),), pages_per_disk=(3,)
            )

        findings = replay_check(ReplayCase("broken", run))
        assert rules_of(findings) == [REPLAY_DIVERGENCE] * 2
        assert findings[0].path == "sanitize://replay/broken"
        assert "different neighbors" in findings[0].message

    def test_counter_divergence_is_detected(self):
        def run(seed):
            return RunSummary(
                results=(), pages_per_disk=(3 if seed is None else 4,)
            )

        findings = replay_check(ReplayCase("drift", run))
        assert all(r == REPLAY_DIVERGENCE for r in rules_of(findings))
        assert "per-disk page counters" in findings[0].message

    def test_summarize_report_requires_kept_results(self):
        store = _small_store("rr")
        report = EventDrivenSimulator(store).run(
            _simultaneous(_small_queries())
        )
        with pytest.raises(ValueError, match="keep_results=True"):
            summarize_report(report)


def _small_store(scheme):
    data = np.random.default_rng(5).random(
        (SMALL["num_points"], SMALL["dimension"])
    )
    return PagedStore(
        points=data,
        declusterer=make_declusterer(
            scheme,
            dimension=SMALL["dimension"],
            num_disks=SMALL["num_disks"],
        ),
    )


def _small_queries():
    return np.random.default_rng(9).random((6, SMALL["dimension"]))


def _simultaneous(queries):
    return [QueryArrival(0.0, query, SMALL["k"]) for query in queries]


class TestTiebreakHooks:
    def test_default_run_unchanged_without_hook_args(self):
        """tiebreak_seed=None must reproduce the pre-hook behaviour."""
        store = _small_store("col")
        queries = _small_queries()
        arrivals = [
            QueryArrival(float(i // 3), q, SMALL["k"])
            for i, q in enumerate(queries)
        ]
        legacy = EventDrivenSimulator(store).run(arrivals)
        hooked = EventDrivenSimulator(store).run(
            arrivals, tiebreak_seed=None, keep_results=True
        )
        assert list(legacy.pages_per_disk) == list(hooked.pages_per_disk)
        assert legacy.query_results is None
        assert len(hooked.query_results) == len(arrivals)

    def test_results_are_restored_to_input_positions(self):
        store = _small_store("rr")
        queries = _small_queries()
        base = EventDrivenSimulator(store).run(
            _simultaneous(queries), keep_results=True
        )
        permuted = EventDrivenSimulator(store).run(
            _simultaneous(queries), tiebreak_seed=123, keep_results=True
        )
        assert summarize_report(base) == summarize_report(permuted)

    @pytest.mark.parametrize("engine", ["event", "throughput"])
    @pytest.mark.parametrize("scheme", ["col", "rr"])
    def test_engine_scheme_matrix_replays_clean(self, engine, scheme):
        case = build_replay_case(scheme, engine, **SMALL)
        assert replay_check(case, seeds=(None, 11, 47)) == []

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_replay_case("col", "quantum")


class TestRngGuard:
    def test_clean_block_yields_no_findings(self):
        with global_rng_guard("t") as findings:
            rng = np.random.default_rng(3)
            rng.random(4)
        assert findings == []

    def test_global_numpy_draw_is_detected(self):
        with global_rng_guard("t") as findings:
            # getattr keeps the forbidden global-RNG call out of the
            # static linter's sight; the *runtime* guard must catch it.
            getattr(np.random, "random")(3)
        assert rules_of(findings) == ["sanitize-unseeded-rng"]
        assert "numpy" in findings[0].message

    def test_global_stdlib_draw_is_detected(self):
        import random as stdlib_random

        # getattr throughout: these are deliberate global-state touches
        # the static seeded-rng-only rule must not see (the runtime
        # guard is the layer under test); state is restored afterwards.
        state = getattr(stdlib_random, "getstate")()
        try:
            with global_rng_guard("t") as findings:
                getattr(stdlib_random, "random")()
        finally:
            getattr(stdlib_random, "setstate")(state)
        assert rules_of(findings) == ["sanitize-unseeded-rng"]


class TestSmokeMatrixAndCli:
    def test_smoke_matrix_is_clean(self, tmp_path, monkeypatch):
        """Clean, and the out-of-core cell's store directory is removed
        afterwards."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert smoke_matrix(seeds=(None, 11), **SMALL) == []
        assert list(tmp_path.iterdir()) == []

    def test_traced_run_passes_stream_checks(self):
        store = _small_store("col")
        tracer = RecordingTracer()
        tracer.enabled = True
        queries = _small_queries()
        arrivals = [
            QueryArrival(float(i // 3), q, SMALL["k"])
            for i, q in enumerate(queries)
        ]
        report = EventDrivenSimulator(store, tracer=tracer).run(arrivals)
        assert check_event_stream(
            tracer.events,
            pages_per_disk=[int(p) for p in report.pages_per_disk],
        ) == []

    def test_cli_exit_zero_and_text_output(self, capsys):
        assert main([
            "--num-points", "120", "--num-queries", "8",
            "--schemes", "col", "--seeds", "11",
        ]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_cli_sarif_output(self, capsys):
        assert main([
            "--num-points", "120", "--num-queries", "8",
            "--schemes", "rr", "--engines", "event",
            "--seeds", "11", "--format", "sarif",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        driver = document["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro.sanitize"
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert "sanitize-replay-divergence" in rule_ids
        assert document["runs"][0]["results"] == []

    def test_cli_baseline_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "sanitize-baseline.json"
        args = [
            "--num-points", "120", "--num-queries", "8",
            "--schemes", "col", "--engines", "throughput",
            "--seeds", "11",
        ]
        assert main(args + [f"--update-baseline={baseline}"]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["schema"] == "repro.lint-baseline/v1"
        capsys.readouterr()
        assert main(args + [f"--baseline={baseline}"]) == 0


class TestPytestFixture:
    def test_fixture_asserts_on_findings(self, determinism_sanitizer):
        events = events_from([
            ("page_read", 0, 2, 1, 20.0),
            ("page_read", 0, 2, 1, 10.0),
        ])
        assert determinism_sanitizer.check_stream(events) != []
        with pytest.raises(AssertionError, match=CLOCK_MONOTONIC):
            determinism_sanitizer.assert_stream_clean(events)

    def test_fixture_replay_helpers(self, determinism_sanitizer):
        case = build_replay_case("col", "throughput", **SMALL)
        determinism_sanitizer.assert_replay_clean(case, seeds=(None, 11))

    def test_fixture_rng_guard(self, determinism_sanitizer):
        with determinism_sanitizer.rng_guard() as findings:
            np.random.default_rng(1).random(2)
        assert findings == []
        with pytest.raises(AssertionError, match="unseeded-rng"):
            with determinism_sanitizer.rng_guard():
                getattr(np.random, "random")(2)


class TestProcessCell:
    """The out-of-core worker-fleet cell added to the sanitizer matrix."""

    def test_process_replay_case_is_clean(self, tmp_path):
        """The per-disk worker fleet (a genuine scheduling race) must
        reproduce the single-process reference bit for bit."""
        case = build_process_replay_case(
            "col", num_points=120, num_queries=6, dimension=4,
            num_disks=2, k=3, directory=str(tmp_path / "store"),
        )
        assert case.name == "col/process"
        assert replay_check(case, seeds=(None, 11)) == []

    def test_reference_seed_none_is_single_process(self, tmp_path):
        """Seed None and a worker seed summarize the same workload, so a
        broken shared bound would surface as a divergence finding."""
        case = build_process_replay_case(
            "rr", num_points=120, num_queries=4, dimension=4,
            num_disks=2, k=3, directory=str(tmp_path / "store"),
        )
        reference = case.run(None)
        raced = case.run(11)
        assert reference == raced
        assert len(reference.results) == 4
        assert sum(reference.pages_per_disk) > 0


class TestServeCells:
    """The serving-layer cells added to the sanitizer matrix."""

    def test_serve_replay_case_is_clean(self):
        case = build_serve_replay_case(
            "col", num_points=120, num_queries=8, dimension=4,
            num_disks=4, k=3,
        )
        assert case.name == "col/serve"
        assert replay_check(case, seeds=(None, 11)) == []

    def test_virtual_clock_check_is_clean(self):
        findings = _virtual_clock_findings("col", dict(SMALL))
        assert findings == []

    def test_skewed_clock_is_flagged(self, monkeypatch):
        """Simulate an un-modeled time source leaking into the planner:
        the driving clock ends ahead of the report and the runtime
        check must flag it."""
        from repro.serve.service import QueryService

        real_run_trace = QueryService.run_trace

        def skewed(self, trace, clock=None, **kwargs):
            report = real_run_trace(self, trace, clock=clock, **kwargs)
            clock.advance(1.0)  # phantom millisecond of wall time
            return report

        monkeypatch.setattr(QueryService, "run_trace", skewed)
        findings = _virtual_clock_findings("col", dict(SMALL))
        assert rules_of(findings) == ["sanitize-virtual-clock"]
        assert "completion_ms" in findings[0].message

    def test_cli_sarif_declares_virtual_clock_rule(self, capsys):
        assert main([
            "--num-points", "120", "--num-queries", "8",
            "--schemes", "col", "--engines", "throughput",
            "--seeds", "11", "--format", "sarif",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        driver = document["runs"][0]["tool"]["driver"]
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert "sanitize-virtual-clock" in rule_ids
