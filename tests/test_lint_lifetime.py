"""Tests for the resource-lifetime & process-safety lint rules
(``repro.lint.lifetime``).

Every rule gets bad fixtures (must fire) and good fixtures (must stay
silent), written into tmp trees mirroring the real ``src/repro`` layout
so the default scopes apply.  The acceptance meta-tests inject the
headline bugs — a leaked ``PageFile``, an unlocked shared-memory write
in spawned-worker code, the live worker's ring deposit outside its bank
lock — and prove the committed-baseline CLI run turns red.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import repro
from repro.lint import LintConfig, run_lint
from repro.lint.cli import RULE_GROUPS, main
from repro.lint.engine import ALL_RULES
from repro.lint.lifetime import LIFETIME_RULES

REPO_SRC = pathlib.Path(repro.__file__).parent
REPO_ROOT = pathlib.Path(__file__).parent.parent

LIFETIME_RULE_NAMES = tuple(rule.name for rule in LIFETIME_RULES)


def write_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``relpath`` inside a fake repo tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def lint_rule(tmp_path, relpath, source, rule):
    """Lint one snippet with only ``rule`` enabled."""
    write_snippet(tmp_path, relpath, source)
    return run_lint([tmp_path], LintConfig(enabled=frozenset({rule})))


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestResourceLeak:
    BAD_EARLY_RETURN = """\
        from repro.storage.pagefile import PageFile


        def count(path, slots):
            page = PageFile(path)
            if slots == 0:
                return 0
            total = sum(page.entry_count(s) for s in range(slots))
            page.close()
            return total
    """
    BAD_DISCARDED = """\
        from repro.storage.pagefile import PageFile


        def touch(path):
            PageFile(path)
    """
    BAD_EXCEPTION_PATH = """\
        from repro.storage.mmap_store import MmapStore


        def load(directory, leaf):
            store = MmapStore(directory)
            payload = store.read_page(leaf)
            store.close()
            return payload
    """
    GOOD_WITH = """\
        from repro.storage.pagefile import PageFile


        def count(path, slots):
            with PageFile(path) as page:
                return sum(page.entry_count(s) for s in range(slots))
    """
    GOOD_TRY_FINALLY = """\
        from repro.storage.mmap_store import MmapStore


        def load(directory, leaf):
            store = MmapStore(directory)
            try:
                return store.read_page(leaf)
            finally:
                store.close()
    """
    GOOD_RETURNED = """\
        from repro.storage.mmap_store import MmapStore


        def open_store(directory):
            return MmapStore(directory)
    """
    GOOD_SELF_WITH_CLOSE = """\
        from repro.storage.pagefile import PageFile


        class Reader:
            def open(self, path):
                self._page = PageFile(path)

            def close(self):
                self._page.close()
    """
    BAD_SELF_WITHOUT_CLOSE = """\
        from repro.storage.pagefile import PageFile


        class Reader:
            def open(self, path):
                self._page = PageFile(path)
    """
    BAD_REBOUND = """\
        from repro.storage.pagefile import PageFile


        def swap(a, b):
            page = PageFile(a)
            page = PageFile(b)
            page.close()
    """

    def test_fires_on_early_return_path(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.BAD_EARLY_RETURN, "resource-leak",
        )
        assert rules_of(findings) == ["resource-leak"]
        assert "PageFile" in findings[0].message
        assert findings[0].line == 5  # anchored at the creation

    def test_fires_on_discarded_creation(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.BAD_DISCARDED, "resource-leak",
        )
        assert rules_of(findings) == ["resource-leak"]
        assert "discarded" in findings[0].message

    def test_fires_on_exception_only_path(self, tmp_path):
        """read_page can raise between creation and close: the
        exception edge leaks even though the normal path is clean."""
        findings = lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.BAD_EXCEPTION_PATH, "resource-leak",
        )
        assert rules_of(findings) == ["resource-leak"]
        assert "exception" in findings[0].message

    def test_with_block_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.GOOD_WITH, "resource-leak",
        ) == []

    def test_try_finally_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.GOOD_TRY_FINALLY, "resource-leak",
        ) == []

    def test_returned_handle_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.GOOD_RETURNED, "resource-leak",
        ) == []

    def test_self_store_with_owning_close_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.GOOD_SELF_WITH_CLOSE, "resource-leak",
        ) == []

    def test_self_store_without_owning_close_fires(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.BAD_SELF_WITHOUT_CLOSE, "resource-leak",
        )
        assert rules_of(findings) == ["resource-leak"]
        assert "close()" in findings[0].message

    def test_rebinding_unclosed_handle_fires(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.BAD_REBOUND, "resource-leak",
        )
        assert any(
            "rebound" in finding.message for finding in findings
        ), [f.message for f in findings]


class TestUseAfterClose:
    BAD = """\
        from repro.storage.pagefile import PageFile


        def peek(path):
            page = PageFile(path)
            page.close()
            return page.read_slot(0)
    """
    GOOD_REOPENED = """\
        from repro.storage.pagefile import PageFile


        def peek(path):
            page = PageFile(path)
            page.close()
            page = PageFile(path)
            return page.read_slot(0)
    """
    GOOD_JOIN_AFTER_CLOSE = """\
        def drain(queue):
            queue.close()
            queue.join_thread()
    """

    def test_fires_on_read_after_close(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/storage/fixture.py", self.BAD,
            "use-after-close",
        )
        assert rules_of(findings) == ["use-after-close"]
        assert "read_slot" in findings[0].message
        assert findings[0].line == 7  # anchored at the use

    def test_rebinding_resets_the_tracking(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.GOOD_REOPENED, "use-after-close",
        ) == []

    def test_teardown_methods_allowed_after_close(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/storage/fixture.py",
            self.GOOD_JOIN_AFTER_CLOSE, "use-after-close",
        ) == []


class TestSharedStateWithoutLock:
    BAD_SPAWNED = """\
        import multiprocessing as mp

        import numpy as np


        def _worker(shared, lock):
            view = np.frombuffer(shared, dtype=np.float64)
            view[0] = 1.0


        def launch():
            ctx = mp.get_context("spawn")
            shared = ctx.Array("d", 8, lock=False)
            lock = ctx.Lock()
            proc = ctx.Process(target=_worker, args=(shared, lock))
            proc.start()
            return proc
    """
    GOOD_LOCKED = """\
        import multiprocessing as mp

        import numpy as np


        def _worker(shared, lock):
            view = np.frombuffer(shared, dtype=np.float64)
            with lock:
                view[0] = 1.0


        def launch():
            ctx = mp.get_context("spawn")
            shared = ctx.Array("d", 8, lock=False)
            lock = ctx.Lock()
            proc = ctx.Process(target=_worker, args=(shared, lock))
            proc.start()
            return proc
    """
    GOOD_SINGLE_WRITER = """\
        import multiprocessing as mp


        class Engine:
            _SINGLE_WRITER = frozenset({"_shared"})

            def __init__(self):
                ctx = mp.get_context("spawn")
                self._shared = ctx.Array("d", 8, lock=False)

            def bump(self):
                self._shared[0] = 1.0
    """
    BAD_SELF_ATTR = """\
        import multiprocessing as mp


        class Engine:
            def __init__(self):
                ctx = mp.get_context("spawn")
                self._shared = ctx.Array("d", 8, lock=False)

            def bump(self):
                self._shared[0] = 1.0
    """

    def test_fires_through_process_target(self, tmp_path):
        """Taint flows from the parent's ctx.Array through the
        Process(target=..., args=...) binding into the worker."""
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", self.BAD_SPAWNED,
            "shared-state-without-lock",
        )
        assert rules_of(findings) == ["shared-state-without-lock"]
        message = findings[0].message
        assert "_worker" in message
        assert "lock" in message.lower()

    def test_with_lock_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", self.GOOD_LOCKED,
            "shared-state-without-lock",
        ) == []

    def test_single_writer_annotation_sanctions(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.GOOD_SINGLE_WRITER, "shared-state-without-lock",
        ) == []

    def test_unlocked_self_attr_fires(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.BAD_SELF_ATTR, "shared-state-without-lock",
        )
        assert rules_of(findings) == ["shared-state-without-lock"]


class TestSpawnUnsafeCapture:
    BAD_PROCESS_ARGS = """\
        import multiprocessing as mp

        from repro.storage.mmap_store import MmapStore


        def launch(directory, worker):
            ctx = mp.get_context("spawn")
            store = MmapStore(directory)
            try:
                proc = ctx.Process(target=worker, args=(store,))
                proc.start()
                return proc
            finally:
                store.close()
    """
    BAD_QUEUE_PUT = """\
        import multiprocessing as mp

        from repro.storage.pagefile import PageFile


        def enqueue(path):
            ctx = mp.get_context("spawn")
            tasks = ctx.Queue()
            page = PageFile(path)
            tasks.put((0, page))
            page.close()
            return tasks
    """
    GOOD_PATH_PASSED = """\
        import multiprocessing as mp


        def launch(directory, worker):
            ctx = mp.get_context("spawn")
            proc = ctx.Process(target=worker, args=(directory, 0))
            proc.start()
            return proc
    """

    def test_fires_on_handle_in_process_args(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.BAD_PROCESS_ARGS, "spawn-unsafe-capture",
        )
        assert rules_of(findings) == ["spawn-unsafe-capture"]
        message = findings[0].message
        assert "store" in message
        assert "MmapStore" in message

    def test_fires_on_handle_put_to_task_queue(self, tmp_path):
        """tasks.put of a live handle pickles it to the worker even
        though no Process(...) call is in sight."""
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.BAD_QUEUE_PUT, "spawn-unsafe-capture",
        )
        assert rules_of(findings) == ["spawn-unsafe-capture"]
        assert "page" in findings[0].message

    def test_path_passing_is_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.GOOD_PATH_PASSED, "spawn-unsafe-capture",
        ) == []


class TestCtxRequired:
    BAD = """\
        import multiprocessing


        def build():
            return multiprocessing.Queue()
    """
    BAD_ALIASED = """\
        import multiprocessing as mp


        def build():
            return mp.Pool(4)
    """
    GOOD = """\
        import multiprocessing


        def build():
            ctx = multiprocessing.get_context("spawn")
            return ctx.Queue()
    """

    def test_fires_on_bare_module_factory(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", self.BAD,
            "ctx-required",
        )
        assert rules_of(findings) == ["ctx-required"]
        assert "get_context" in findings[0].message

    def test_fires_through_import_alias(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", self.BAD_ALIASED,
            "ctx-required",
        )
        assert rules_of(findings) == ["ctx-required"]

    def test_context_factories_are_silent(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", self.GOOD,
            "ctx-required",
        ) == []


class TestSuppressionAndReporting:
    LEAKY = """\
        from repro.storage.pagefile import PageFile


        def touch(path):
            PageFile(path){suffix}
    """

    def test_same_line_suppression_silences(self, tmp_path):
        source = self.LEAKY.format(
            suffix="  # repro-lint: disable=resource-leak"
        )
        write_snippet(tmp_path, "src/repro/storage/fixture.py", source)
        findings = run_lint(
            [tmp_path],
            LintConfig(
                enabled=frozenset({"resource-leak", "unused-suppression"})
            ),
        )
        assert findings == []

    def test_sarif_declares_lifetime_rules(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/storage/fixture.py",
            self.LEAKY.format(suffix=""),
        )
        assert main([str(tmp_path), "--format=sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        run = payload["runs"][0]
        reported = {result["ruleId"] for result in run["results"]}
        assert "resource-leak" in reported
        declared = {
            rule["id"] for rule in run["tool"]["driver"]["rules"]
        }
        assert set(LIFETIME_RULE_NAMES) <= declared
        result = next(
            r for r in run["results"] if r["ruleId"] == "resource-leak"
        )
        assert "reproLintFingerprint/v1" in result["partialFingerprints"]

    def test_baseline_gates_lifetime_findings(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/storage/fixture.py",
            self.LEAKY.format(suffix=""),
        )
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), f"--update-baseline={baseline}"]) == 0
        capsys.readouterr()
        assert main([str(tmp_path), f"--baseline={baseline}"]) == 0
        write_snippet(
            tmp_path, "src/repro/storage/other.py", """\
            import multiprocessing


            def build():
                return multiprocessing.Queue()
            """,
        )
        capsys.readouterr()
        assert main([str(tmp_path), f"--baseline={baseline}"]) == 1
        assert "ctx-required" in capsys.readouterr().out

    def test_select_group_expands(self, tmp_path, capsys):
        assert set(RULE_GROUPS["lifetime"]) == set(LIFETIME_RULE_NAMES)
        write_snippet(
            tmp_path, "src/repro/storage/fixture.py",
            'print("hi")\n',
        )
        # no-print is outside the lifetime group: selected run stays
        # green, full run goes red.
        assert main([str(tmp_path), "--select=lifetime"]) == 0
        capsys.readouterr()
        assert main([str(tmp_path)]) == 1


class TestExplain:
    def test_explain_prints_rationale_and_examples(self, capsys):
        assert main(["--explain", "resource-leak"]) == 0
        out = capsys.readouterr().out
        assert "resource-leak" in out
        assert "group: lifetime" in out
        assert "Why:" in out
        assert "Bad:" in out
        assert "Good:" in out
        assert "repro-lint: disable=resource-leak" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["--explain", "not-a-rule"]) == 2
        assert "names no known rule" in capsys.readouterr().err

    def test_explain_covers_every_rule_group(self, capsys):
        """One representative per group renders with examples."""
        for name, group in (
            ("seeded-rng-only", "core"),
            ("no-uncharged-disk-read", "dataflow"),
            ("async-atomicity-violation", "concurrency"),
            ("shared-state-without-lock", "lifetime"),
        ):
            assert main(["--explain", name]) == 0
            out = capsys.readouterr().out
            assert f"group: {group}" in out
            assert "Bad:" in out
            assert "Good:" in out

    def test_every_rule_ships_an_example_pair(self):
        missing = [
            rule.name
            for rule in ALL_RULES
            if not (rule.example_bad and rule.example_good)
        ]
        assert missing == []


INJECTED_PAGEFILE_LEAK = """\
    from repro.storage.pagefile import PageFile


    def total_entries(path, slots):
        page = PageFile(path)
        if slots == 0:
            return 0
        total = sum(page.entry_count(s) for s in range(slots))
        page.close()
        return total
"""

INJECTED_UNLOCKED_SHARED_WRITE = """\
    import multiprocessing as mp

    import numpy as np


    def _merge(shared, lock, values):
        view = np.frombuffer(shared, dtype=np.float64)
        view[: len(values)] = values


    def launch(values):
        ctx = mp.get_context("spawn")
        shared = ctx.Array("d", 8, lock=False)
        lock = ctx.Lock()
        proc = ctx.Process(target=_merge, args=(shared, lock, values))
        proc.start()
        return proc
"""


class TestAcceptanceMetaTests:
    """ISSUE acceptance: each headline rule catches a deliberately
    injected bug against the *committed* baseline — proving the live
    gate would block these regressions."""

    def test_injected_pagefile_leak_turns_committed_baseline_red(
        self, tmp_path, capsys
    ):
        write_snippet(
            tmp_path, "src/repro/storage/bug.py", INJECTED_PAGEFILE_LEAK,
        )
        committed = REPO_ROOT / "lint-baseline.json"
        assert main([str(tmp_path), f"--baseline={committed}"]) == 1
        assert "resource-leak" in capsys.readouterr().out

    def test_injected_unlocked_shared_write_turns_baseline_red(
        self, tmp_path, capsys
    ):
        write_snippet(
            tmp_path, "src/repro/parallel/bug.py",
            INJECTED_UNLOCKED_SHARED_WRITE,
        )
        committed = REPO_ROOT / "lint-baseline.json"
        assert main([str(tmp_path), f"--baseline={committed}"]) == 1
        assert "shared-state-without-lock" in capsys.readouterr().out

    def test_ring_deposit_outside_bank_lock_turns_baseline_red(
        self, tmp_path, capsys
    ):
        """The rule covers the query ring's arrays: the live worker
        with its arena / ledger / tally deposit moved out of the bank
        lock is caught, each array by name."""
        source = (REPO_SRC / "parallel" / "process.py").read_text()
        locked = "            with lock:\n                _pack_candidates("
        assert source.count(locked) == 1
        write_snippet(
            tmp_path, "src/repro/parallel/process.py",
            source.replace(locked, locked.replace("with lock", "if lock")),
        )
        committed = REPO_ROOT / "lint-baseline.json"
        assert main([str(tmp_path), f"--baseline={committed}"]) == 1
        out = capsys.readouterr().out
        assert out.count("shared-state-without-lock") == 3
        for shared in ("'arena'", "'ledgers'", "'tallies_view'"):
            assert shared in out


class TestBaselineFreshnessSelect:
    """scripts/check_baseline_fresh.py --select narrows the audit."""

    @staticmethod
    def _script():
        import sys

        scripts_dir = str(REPO_ROOT / "scripts")
        if scripts_dir not in sys.path:
            sys.path.insert(0, scripts_dir)
        import check_baseline_fresh

        return check_baseline_fresh

    def test_select_audits_only_matching_entries(self, tmp_path, capsys):
        script = self._script()
        write_snippet(
            tmp_path, "src/repro/storage/a.py",
            TestSuppressionAndReporting.LEAKY.format(suffix=""),
        )
        write_snippet(
            tmp_path, "src/repro/storage/b.py", 'print("hi")\n'
        )
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), f"--update-baseline={baseline}"]) == 0
        capsys.readouterr()
        # Fix only the no-print finding: the full audit reports its
        # entry as stale, the lifetime-narrowed audit skips it.
        write_snippet(tmp_path, "src/repro/storage/b.py", "x = 1\n")
        assert script.main([str(baseline), str(tmp_path)]) == 1
        assert "no-print" in capsys.readouterr().out
        assert script.main(
            [str(baseline), str(tmp_path), "--select", "lifetime"]
        ) == 0
        assert "fresh" in capsys.readouterr().out

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        script = self._script()
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {"schema": "repro.lint-baseline/v1", "findings": []}
            )
        )
        assert script.main(
            [str(baseline), str(tmp_path), "--select", "nope"]
        ) == 2
        assert "names no known rule" in capsys.readouterr().err


def test_live_tree_is_clean_under_lifetime_rules():
    """The shipped tree — storage, parallel workers, serving layer —
    carries zero lifetime findings (none even baselined)."""
    findings = run_lint(
        [REPO_SRC],
        LintConfig(enabled=frozenset(LIFETIME_RULE_NAMES)),
    )
    assert findings == [], "\n".join(f.format() for f in findings)


def test_committed_baseline_has_no_lifetime_entries():
    """The new rules gate the live tree directly, not via baseline."""
    payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    recorded = {entry["rule"] for entry in payload["findings"]}
    assert recorded.isdisjoint(LIFETIME_RULE_NAMES)
