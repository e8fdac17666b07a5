"""Tests for the resource-lifetime & process-safety lint rules
(``repro.lint.lifetime``).

Every rule gets bad fixtures (must fire) and good fixtures (must stay
silent), written into tmp trees mirroring the real ``src/repro`` layout
so the default scopes apply.  The acceptance meta-tests inject the
headline bugs — a leaked ``PageFile``, shared memory allocated and
written in spawned-worker code, the live ring's deposit and bound read
outside its lock — and prove the CLI run fails.
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
    """The structural rule: shared memory lives in ``self`` attributes of
    one class, which touches it only under a lock, never returns it, and
    is the only code that names it."""

    BAD_MODULE_ALLOCATION = """\
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
    GOOD_LOCKED = """\
        import multiprocessing as mp


        class Engine:
            def __init__(self):
                ctx = mp.get_context("spawn")
                self.lock = ctx.Lock()
                self._shared = ctx.Array("d", 8)

            def bump(self):
                with self.lock:
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
        holding a reshaped ``np.frombuffer`` view of it: an access to
        the view outside the lock fires in the method."""
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
            assert "(self.rows) in Ring.put" in findings[0].message

    @pytest.mark.parametrize(
        "returned, fires",
        [
            ("self.rows", True),
            ("self.rows[1:]", True),
            ("2, self.rows[:1]", True),
            ("self._raw", True),
            ("self.rows[1:].copy()", False),
            ("float(self.rows[0, -1])", False),
        ],
    )
    def test_a_method_returning_a_view_fires(
        self, tmp_path, returned, fires
    ):
        """A method that returns a shared attribute, or a slice of one,
        alone or in a tuple, fires even under the lock: its caller would
        read the memory unlocked.  An owned copy or value is clean."""
        source = self.RING + (
            "\n"
            "            def read(self):\n"
            "                with self.lock:\n"
            f"                    return {returned}\n"
        )
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", source,
            "shared-state-without-lock",
        )
        if fires:
            assert rules_of(findings) == ["shared-state-without-lock"]
            assert "Ring.read returns" in findings[0].message
        else:
            assert findings == []

    OUTSIDE = """\


        def peek(ring):
            with ring.lock:
                return ring.rows[0, 0]


        class Table:
            def __init__(self):
                self.rows = []

            def first(self):
                return self.rows[0]
    """

    def test_a_function_naming_a_view_fires(self, tmp_path):
        """Code outside the class that names one of its shared
        attributes fires, lock or no lock; another class's own
        ``self.rows`` is its own attribute and stays clean."""
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.RING + self.OUTSIDE, "shared-state-without-lock",
        )
        assert rules_of(findings) == ["shared-state-without-lock"]
        assert "'ring.rows' names the shared memory of Ring" in (
            findings[0].message
        )

    def test_a_module_level_allocation_fires(self, tmp_path):
        """Shared memory allocated in a module-level function fires at
        the allocation, however its users lock: only a class can keep
        every access in view."""
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.BAD_MODULE_ALLOCATION, "shared-state-without-lock",
        )
        assert rules_of(findings) == ["shared-state-without-lock"]
        assert "allocated outside a class attribute" in findings[0].message
        assert findings[0].line == 14

    def test_with_lock_is_silent(self, tmp_path):
        """A class that allocates a (locked) ``Array`` from a context and
        writes it under its lock is clean."""
        assert lint_rule(
            tmp_path, "src/repro/parallel/fixture.py", self.GOOD_LOCKED,
            "shared-state-without-lock",
        ) == []

    def test_unlocked_self_attr_fires(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/fixture.py",
            self.BAD_SELF_ATTR, "shared-state-without-lock",
        )
        assert rules_of(findings) == ["shared-state-without-lock"]

    def test_modules_outside_repro_are_not_checked(self, tmp_path):
        """A ``tests/`` module may allocate shared memory and read a
        ring's views: the rule's scope is ``repro``."""
        write_snippet(tmp_path, "src/repro/parallel/fixture.py", self.RING)
        assert lint_rule(
            tmp_path, "tests/test_fixture.py", """\
            import multiprocessing as mp

            from repro.parallel.fixture import Ring


            def test_peek():
                ring = Ring(mp.get_context("spawn"), 4)
                shared = mp.Array("d", 8, lock=False)
                assert ring.rows[0, 0] == shared[0] == 0.0
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
        assert out.count("(self._arena)") == 2
        for shared in ("(self._ledgers)", "(self._tallies)"):
            assert shared in out

    def test_scan_bound_read_outside_lock_fails_the_run(
        self, tmp_path, capsys
    ):
        """A worker's scan reads the shared bound rows only through the
        ring's ``bounds``: the live method with its read moved out of the
        lock is caught."""
        source = (REPO_SRC / "parallel" / "process.py").read_text()
        locked = (
            "        with self.lock:\n"
            "            return np.minimum(kth, self._bounds["
        )
        assert source.count(locked) == 1
        write_snippet(
            tmp_path, "src/repro/parallel/process.py",
            source.replace(locked, locked.replace("with self", "if self")),
        )
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("shared-state-without-lock") == 1
        assert "(self._bounds) in _Ring.bounds" in out


def test_live_tree_is_clean_under_lifetime_rules():
    """The shipped tree — storage, parallel workers, serving layer —
    carries zero lifetime findings."""
    findings = run_lint(
        [REPO_SRC],
        select=frozenset(LIFETIME_RULE_NAMES),
    )
    assert findings == [], "\n".join(f.format() for f in findings)
