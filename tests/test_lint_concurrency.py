"""Tests for the async-safety lint rules (``repro.lint.concurrency``).

Every rule gets bad fixtures (must fire) and good fixtures (must stay
silent), written into tmp trees mirroring the real ``src/repro`` layout
so default scopes and the virtual-time root qualnames apply.  The
acceptance meta-tests inject the two headline bugs — an atomicity race
and a wall-clock read — into ``repro.serve`` fixture trees and prove
the CLI run fails.
"""

from __future__ import annotations

import ast
import json
import pathlib
import textwrap

import repro
from repro.lint import run_lint
from repro.lint.cli import RULE_GROUPS, main
from repro.lint.concurrency import (
    CONCURRENCY_RULES,
    async_functions,
    suspension_lines,
)

REPO_SRC = pathlib.Path(repro.__file__).parent

CONCURRENCY_RULE_NAMES = tuple(rule.name for rule in CONCURRENCY_RULES)


def write_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``relpath`` inside a fake repo tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def lint_rule(tmp_path, relpath, source, rule):
    """Lint one snippet with only ``rule`` enabled."""
    write_snippet(tmp_path, relpath, source)
    return run_lint([tmp_path], select=frozenset({rule}))


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestClassification:
    SOURCE = """\
        import asyncio

        class Service:
            async def submit(self, queue):
                await queue.put(1)
                async with self._lock:
                    pass

            def plan(self):
                return 3
    """

    def test_async_functions_and_suspensions(self, tmp_path):
        from repro.lint.callgraph import ProjectIndex
        from repro.lint.module import ModuleInfo

        path = write_snippet(
            tmp_path, "src/repro/serve/fixture.py", self.SOURCE
        )
        index = ProjectIndex([ModuleInfo.parse(path)])
        coros = async_functions(index)
        assert "repro.serve.fixture.Service.submit" in coros
        assert "repro.serve.fixture.Service.plan" not in coros
        submit = index.functions["repro.serve.fixture.Service.submit"]
        assert len(suspension_lines(submit.node)) == 2

    def test_nested_coroutine_suspends_on_its_own(self):
        func = ast.parse(
            "async def outer():\n"
            "    async def inner():\n"
            "        await thing()\n"
            "    return inner\n"
        ).body[0]
        assert suspension_lines(func) == ()


class TestProjectIndex:
    def test_base_class_resolves_in_defining_module(self, tmp_path):
        """A base imported from a sibling module that the package
        ``__init__`` does not re-export resolves in the module that
        defines the subclass, not in its package."""
        from repro.lint.callgraph import ProjectIndex
        from repro.lint.module import ModuleInfo

        paths = [
            write_snippet(
                tmp_path, "src/repro/engines/__init__.py",
                '"""No re-exports."""\n',
            ),
            write_snippet(
                tmp_path, "src/repro/engines/base.py",
                "class _Engine:\n    def query(self):\n        return 1\n",
            ),
            write_snippet(
                tmp_path, "src/repro/engines/paged.py",
                "from repro.engines.base import _Engine\n\n\n"
                "class PagedEngine(_Engine):\n    pass\n",
            ),
        ]
        index = ProjectIndex([ModuleInfo.parse(path) for path in paths])
        child = "repro.engines.paged.PagedEngine"
        assert index.base_classes(child) == ["repro.engines.base._Engine"]
        assert index.resolve_method(child, "query") == (
            "repro.engines.base._Engine.query"
        )


class TestAsyncAtomicityViolation:
    BAD = """\
        class Service:
            async def stop(self):
                if self._task is None:
                    return
                await self._queue.put(None)
                self._task = None
    """
    GOOD_OWNERSHIP = """\
        class Service:
            async def stop(self):
                task = self._task
                self._task = None
                if task is None:
                    return
                await task
    """
    GOOD_SINGLE_WRITER = """\
        class Service:
            _SINGLE_WRITER = frozenset({"_batches"})

            async def loop(self, queue):
                while True:
                    item = await queue.get()
                    self._batches = self._batches + 1
                    if item is None:
                        return
    """
    GOOD_LOCKED = """\
        class Service:
            async def bump(self):
                async with self._lock:
                    old = self._count
                    await self._audit(old)
                    self._count = old + 1
    """
    BAD_LOOP = """\
        class Service:
            async def loop(self, queue):
                while True:
                    item = await queue.get()
                    self._batches = self._batches + 1
                    if item is None:
                        return
    """

    def test_fires_on_read_await_write(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.BAD,
            "async-atomicity-violation",
        )
        assert rules_of(findings) == ["async-atomicity-violation"]
        assert "_task" in findings[0].message
        assert "Service.stop" in findings[0].message
        assert findings[0].line == 6  # anchored at the write

    def test_silent_on_ownership_transfer(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.GOOD_OWNERSHIP,
            "async-atomicity-violation",
        ) == []

    def test_loop_body_races_across_iterations(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.BAD_LOOP,
            "async-atomicity-violation",
        )
        assert rules_of(findings) == ["async-atomicity-violation"]
        assert "_batches" in findings[0].message

    def test_single_writer_annotation_sanctions(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/fixture.py",
            self.GOOD_SINGLE_WRITER, "async-atomicity-violation",
        ) == []

    def test_lock_sanctions(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.GOOD_LOCKED,
            "async-atomicity-violation",
        ) == []

    def test_silent_without_suspension(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/fixture.py", """\
            class Service:
                async def reset(self):
                    old = self._count
                    self._count = old + 1
            """,
            "async-atomicity-violation",
        ) == []


class TestNoWallClockInVirtualTime:
    BAD_DIRECT = """\
        import time

        class QueryService:
            def run_stream(self, source):
                return time.monotonic()
    """
    BAD_CHAIN = """\
        import asyncio

        class QueryService:
            def run_stream(self, source):
                return asyncio.get_running_loop().time()
    """
    BAD_HELPER = """\
        import time

        def stamp():
            return time.time()

        class QueryService:
            def run_stream(self, source):
                return stamp()
    """
    GOOD_UNREACHABLE = """\
        import time

        def bench_only():
            return time.perf_counter()

        class QueryService:
            def run_stream(self, source):
                return 0.0
    """

    def test_fires_in_entry_point(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/service.py", self.BAD_DIRECT,
            "no-wall-clock-in-virtual-time",
        )
        assert rules_of(findings) == ["no-wall-clock-in-virtual-time"]
        assert "time.monotonic" in findings[0].message

    def test_fires_on_loop_time_chain(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/service.py", self.BAD_CHAIN,
            "no-wall-clock-in-virtual-time",
        )
        assert rules_of(findings) == ["no-wall-clock-in-virtual-time"]
        assert "event-loop time()" in findings[0].message

    def test_reconstructs_reaching_path(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/service.py", self.BAD_HELPER,
            "no-wall-clock-in-virtual-time",
        )
        assert len(findings) == 1
        assert "reached from" in findings[0].message
        assert "run_stream" in findings[0].message

    def test_silent_when_unreachable(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/service.py", self.GOOD_UNREACHABLE,
            "no-wall-clock-in-virtual-time",
        ) == []

    def test_clock_module_is_exempt(self, tmp_path):
        write_snippet(
            tmp_path, "src/repro/serve/clock.py", """\
            import asyncio

            class LoopClock:
                def now_ms(self):
                    return asyncio.get_running_loop().time() * 1000.0
            """,
        )
        findings = lint_rule(
            tmp_path, "src/repro/serve/service.py", """\
            class QueryService:
                def run_stream(self, source):
                    return self.clock.now_ms()
            """,
            "no-wall-clock-in-virtual-time",
        )
        assert findings == []

    def test_simulator_run_is_an_automatic_root(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/sim.py", """\
            import time

            class EventDrivenSimulator:
                def run(self, arrivals):
                    return time.time()
            """,
            "no-wall-clock-in-virtual-time",
        )
        assert rules_of(findings) == ["no-wall-clock-in-virtual-time"]


class TestAsyncBlockingCall:
    BAD_HELPER = """\
        import time

        class Service:
            async def submit(self, request):
                return self._plan(request)

            def _plan(self, request):
                time.sleep(0.01)
                return request
    """
    BAD_ENGINE = """\
        class Service:
            async def submit(self, batch):
                return self.engine.query_batch(batch, k=5)
    """
    GOOD_OFFLOADED = """\
        import asyncio

        class Service:
            async def submit(self, batch):
                return await asyncio.to_thread(self.execute, batch)

            def execute(self, batch):
                return self.engine.query_batch(batch, k=5)
    """
    GOOD_SYNC_ONLY = """\
        import time

        def measure():
            time.sleep(0.01)
    """

    def test_fires_through_sync_helper_with_path(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.BAD_HELPER,
            "async-blocking-call",
        )
        assert rules_of(findings) == ["async-blocking-call"]
        message = findings[0].message
        assert "time.sleep" in message
        assert "Service.submit -> " in message

    def test_fires_on_direct_engine_call(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.BAD_ENGINE,
            "async-blocking-call",
        )
        assert rules_of(findings) == ["async-blocking-call"]
        assert "query_batch" in findings[0].message

    def test_to_thread_offload_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.GOOD_OFFLOADED,
            "async-blocking-call",
        ) == []

    def test_blocking_in_pure_sync_code_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/serve/fixture.py", self.GOOD_SYNC_ONLY,
            "async-blocking-call",
        ) == []

    def test_fires_through_computed_receiver(self, tmp_path):
        """``Service().run(...)`` has no dotted name, but the call
        graph's name-based fallback must still produce the edge — and
        resolving ``Service()``'s missing ``__init__`` must terminate
        even though this sparse fixture tree has no package modules."""
        findings = lint_rule(
            tmp_path, "src/repro/serve/fixture.py", """\
            import time

            class Service:
                def run(self, source):
                    return self._drain(source)

                def _drain(self, source):
                    time.sleep(0.01)
                    return source

            async def pump(source):
                return Service().run(source)
            """,
            "async-blocking-call",
        )
        assert rules_of(findings) == ["async-blocking-call"]
        assert "pump -> " in findings[0].message
        assert "_drain" in findings[0].message


class TestSuppressionAndReporting:
    RACY = """\
        class Service:
            async def stop(self):
                if self._task is None:
                    return
                await self._queue.put(None)
                self._task = None{suffix}
    """

    def test_same_line_suppression_silences(self, tmp_path):
        source = self.RACY.format(
            suffix="  # repro-lint: disable=async-atomicity-violation"
        )
        write_snippet(tmp_path, "src/repro/serve/fixture.py", source)
        findings = run_lint(
            [tmp_path],
            select=frozenset(
                {"async-atomicity-violation", "unused-suppression"}
            ),
        )
        assert findings == []

    def test_unused_suppression_is_reported(self, tmp_path):
        write_snippet(
            tmp_path, "src/repro/serve/fixture.py",
            "x = 1  # repro-lint: disable=async-blocking-call\n",
        )
        findings = run_lint([tmp_path])
        assert rules_of(findings) == ["unused-suppression"]
        assert "async-blocking-call" in findings[0].message

    def test_sarif_round_trip(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/serve/fixture.py",
            self.RACY.format(suffix=""),
        )
        assert main([str(tmp_path), "--format=sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        run = payload["runs"][0]
        reported = {
            result["ruleId"] for result in run["results"]
        }
        assert "async-atomicity-violation" in reported
        declared = {
            rule["id"]
            for rule in run["tool"]["driver"]["rules"]
        }
        assert set(CONCURRENCY_RULE_NAMES) <= declared
        result = next(
            r for r in run["results"]
            if r["ruleId"] == "async-atomicity-violation"
        )
        assert "reproLintFingerprint/v1" in result["partialFingerprints"]


class TestCliFlags:
    def test_select_group_expands(self, tmp_path, capsys):
        assert set(RULE_GROUPS["concurrency"]) == set(
            CONCURRENCY_RULE_NAMES
        )
        write_snippet(
            tmp_path, "src/repro/serve/fixture.py",
            'print("hi")\n',
        )
        # no-print is outside the concurrency group: selected run stays
        # green, full run goes red.
        assert main([str(tmp_path), "--select=concurrency"]) == 0
        capsys.readouterr()
        assert main([str(tmp_path)]) == 1

    def test_select_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select=not-a-rule", "src"]) == 2
        assert "names no known rule" in capsys.readouterr().err

    def test_time_budget_gate(self, tmp_path, capsys):
        write_snippet(tmp_path, "src/repro/serve/fixture.py", "x = 1\n")
        assert main([str(tmp_path), "--time-budget=60"]) == 0
        err = capsys.readouterr().err
        assert "within budget" in err
        assert main([str(tmp_path), "--time-budget=0"]) == 1
        assert "OVER BUDGET" in capsys.readouterr().err

    def test_list_rules_names_concurrency_layer(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in CONCURRENCY_RULE_NAMES:
            assert rule in out


INJECTED_ATOMICITY_BUG = """\
    import asyncio


    class QueryService:
        async def stop(self):
            if self._task is None or self._queue is None:
                return
            await self._queue.put(None)
            await self._task
            self._task = None
            self._queue = None
"""

INJECTED_WALL_CLOCK_BUG = """\
    import asyncio


    class QueryService:
        def run_stream(self, source):
            t0 = asyncio.get_event_loop().time()
            return self._drain(source, t0)

        def _drain(self, source, t0):
            return t0
"""


class TestAcceptanceMetaTests:
    """Each headline rule catches a deliberately injected bug in a
    ``repro.serve`` fixture: the run fails, so the CI gate would block
    the regression."""

    def test_injected_atomicity_bug_fails_the_run(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/serve/service.py",
            INJECTED_ATOMICITY_BUG,
        )
        assert main([str(tmp_path)]) == 1
        assert "async-atomicity-violation" in capsys.readouterr().out

    def test_injected_wall_clock_bug_fails_the_run(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/serve/service.py",
            INJECTED_WALL_CLOCK_BUG,
        )
        assert main([str(tmp_path)]) == 1
        assert "no-wall-clock-in-virtual-time" in capsys.readouterr().out


def test_live_tree_is_clean_under_concurrency_rules():
    """The shipped tree — including ``repro.serve`` — carries zero
    async-safety findings."""
    findings = run_lint(
        [REPO_SRC],
        select=frozenset(CONCURRENCY_RULE_NAMES),
    )
    assert findings == [], "\n".join(f.format() for f in findings)
