"""Tests for the resource-lifetime & process-safety lint rules
(``repro.lint.lifetime``).

Every rule gets bad fixtures (must fire) and good fixtures (must stay
silent), written into tmp trees mirroring the real ``src/repro`` layout
so the default scopes apply.  The acceptance meta-tests inject the
headline bugs — a leaked ``PageFile``, an unlocked shared-memory write
in spawned-worker code, the live worker's ring deposit outside its bank
lock — and prove the CLI run fails.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

import repro
from repro.lint import run_lint
from repro.lint.cli import RULE_GROUPS, main
from repro.lint.engine import ALL_RULES
from repro.lint.lifetime import LIFETIME_RULES

REPO_SRC = pathlib.Path(repro.__file__).parent

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
    return run_lint([tmp_path], select=frozenset({rule}))


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

    RING = """\
        import numpy as np


        class Ring:
            def __init__(self, ctx, size):
                self.lock = ctx.Lock()
                self._raw = ctx.Array("d", 2 * size, lock=False)
                self._view()

            def _view(self):
                self.rows = np.frombuffer(self._raw).reshape(2, -1)

            def put(self, value):
                with self.lock:
                    self.rows[0] = value
    """

    @pytest.mark.parametrize("locked", [True, False])
    def test_ring_object_views(self, tmp_path, locked):
        """A ``lock=False`` array from a context handed in as an
        argument is shared memory, and so is a ``self`` attribute
        holding a reshaped ``np.frombuffer`` view of it."""
        source = self.RING
        if not locked:
            source = source.replace("with self.lock", "if self.lock")
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", source,
            "shared-state-without-lock",
        )
        if locked:
            assert findings == []
        else:
            assert rules_of(findings) == ["shared-state-without-lock"]
            assert "(self.rows)" in findings[0].message

    RING_READ = """\
        import numpy as np


        class Ring:
            def __init__(self, ctx, size):
                self.lock = ctx.Lock()
                self._raw = ctx.Array("d", 2 * size, lock=False)
                self.rows = np.frombuffer(self._raw).reshape(2, -1)

            def read(self):
                with self.lock:
                    return 2, self.rows[:1].copy(), self.rows[1:]


        def scan(owned, view, lock):
            first = owned[0, 0]
            with lock:
                bound = view[0, -1]
            return first, bound


        def work(ring: Ring):
            count, owned, view = ring.read()
            return count, scan(owned, view, ring.lock)
    """

    @pytest.mark.parametrize("locked", [True, False])
    def test_a_returned_view_is_followed_into_a_callee(
        self, tmp_path, locked
    ):
        """A returned tuple's view element taints the name it unpacks to
        (the call resolves through the parameter's annotation) and the
        callee parameter it is handed to; the owned ``.copy()`` beside
        it stays clean."""
        source = self.RING_READ
        if not locked:
            source = source.replace("with lock", "if lock")
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", source,
            "shared-state-without-lock",
        )
        if locked:
            assert findings == []
        else:
            assert rules_of(findings) == ["shared-state-without-lock"]
            message = findings[0].message
            assert "returned by Ring.read" in message
            assert "('view')" in message and "fixture.scan" in message

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

    def test_tests_caller_does_not_taint_repro_helper(self, tmp_path):
        """Taint is seeded and propagated over in-scope modules only: a
        ``tests/`` module handing an unlocked ``np.frombuffer`` view of a
        shared Array to a ``repro`` helper does not make it report."""
        write_snippet(
            tmp_path, "src/repro/parallel/helpers.py", """\
            def peek(view):
                return view[0]
            """,
        )
        assert lint_rule(
            tmp_path, "tests/test_fixture.py", """\
            import multiprocessing as mp

            import numpy as np

            from repro.parallel.helpers import peek


            def test_peek():
                ctx = mp.get_context("spawn")
                shared = ctx.Array("d", 8, lock=False)
                view = np.frombuffer(shared, dtype=np.float64)
                assert peek(view) == 0.0
            """,
            "shared-state-without-lock",
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
            select=frozenset({"resource-leak", "unused-suppression"}),
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
            ("tracer-guard-required", "dataflow"),
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
    """Each headline rule catches a deliberately injected bug: the run
    fails, so the CI gate would block the regression."""

    def test_injected_pagefile_leak_fails_the_run(
        self, tmp_path, capsys
    ):
        write_snippet(
            tmp_path, "src/repro/storage/bug.py", INJECTED_PAGEFILE_LEAK,
        )
        assert main([str(tmp_path)]) == 1
        assert "resource-leak" in capsys.readouterr().out

    def test_injected_unlocked_shared_write_fails_the_run(
        self, tmp_path, capsys
    ):
        write_snippet(
            tmp_path, "src/repro/parallel/bug.py",
            INJECTED_UNLOCKED_SHARED_WRITE,
        )
        assert main([str(tmp_path)]) == 1
        assert "shared-state-without-lock" in capsys.readouterr().out

    def test_ring_deposit_outside_bank_lock_fails_the_run(
        self, tmp_path, capsys
    ):
        """The rule covers the query ring's arrays: the live ring with
        its arena / ledger / tally deposit moved out of its lock is
        caught, each write by name (the arena's two: the empty marks and
        the candidate rows)."""
        source = (REPO_SRC / "parallel" / "process.py").read_text()
        locked = (
            '        """Write one disk\'s answer to a post."""\n'
            "        with self.lock:\n"
        )
        assert source.count(locked) == 1
        write_snippet(
            tmp_path, "src/repro/parallel/process.py",
            source.replace(locked, locked.replace("with self", "if self")),
        )
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("shared-state-without-lock") == 4
        assert out.count("(self.arena)") == 2
        for shared in ("(self.ledgers)", "(self.tallies)"):
            assert shared in out


    def test_scan_bound_read_outside_lock_fails_the_run(
        self, tmp_path, capsys
    ):
        """The bound rows a worker's scan reads come from the ring's
        ``read``: the live ``_scan`` with its first bound read moved out
        of its lock is caught."""
        source = (REPO_SRC / "parallel" / "process.py").read_text()
        locked = (
            "            with lock:\n"
            "                bounds = np.minimum(kth, view[:, -1])\n"
        )
        assert source.count(locked) == 1
        write_snippet(
            tmp_path, "src/repro/parallel/process.py",
            source.replace(locked, locked.replace("with lock", "if lock")),
        )
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("shared-state-without-lock") == 1
        assert "('view') in repro.parallel.process._scan" in out


def test_live_tree_is_clean_under_lifetime_rules():
    """The shipped tree — storage, parallel workers, serving layer —
    carries zero lifetime findings."""
    findings = run_lint(
        [REPO_SRC],
        select=frozenset(LIFETIME_RULE_NAMES),
    )
    assert findings == [], "\n".join(f.format() for f in findings)
