"""Tests for the repo-specific static checker (``repro.lint``).

Each rule gets a bad fixture (must fire) and a good fixture (must stay
silent), written into a tmp tree that mirrors the real ``src/repro``
layout so the default scopes apply.  A meta-test asserts the live tree
ships lint-clean.
"""

from __future__ import annotations

import json
import pathlib
import textwrap

import pytest

import repro
from repro.lint import run_lint
from repro.lint.cli import main
from repro.lint.engine import UNUSED_SUPPRESSION

REPO_SRC = pathlib.Path(repro.__file__).parent
REPO_TESTS = pathlib.Path(__file__).parent


def write_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``relpath`` inside a fake repo tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return target


def lint_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``relpath`` inside a fake repo tree and lint it."""
    write_snippet(tmp_path, relpath, source)
    return run_lint([tmp_path])


def lint_rule(tmp_path, relpath, source, rule):
    """Like :func:`lint_snippet` but with only ``rule`` enabled."""
    write_snippet(tmp_path, relpath, source)
    return run_lint([tmp_path], select=frozenset({rule}))


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestSeededRngOnly:
    BAD = """\
        import numpy as np

        def sample(n):
            return np.random.rand(n)
    """
    GOOD = """\
        import numpy as np

        def sample(n, rng: np.random.Generator):
            return rng.random(n)

        def make_rng(seed):
            return np.random.default_rng(seed)
    """

    def test_fires_on_global_numpy_rng(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py", self.BAD
        )
        assert rules_of(findings) == ["seeded-rng-only"]
        assert findings[0].line == 4

    def test_fires_on_stdlib_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py",
            "import random\nx = random.randint(0, 7)\n",
        )
        assert rules_of(findings) == ["seeded-rng-only"]

    def test_silent_on_injected_generator(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py", self.GOOD
        ) == []

    def test_resolves_import_aliases(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py",
            "from numpy import random as npr\nnpr.seed(3)\n",
        )
        assert rules_of(findings) == ["seeded-rng-only"]


class TestUseCoreBits:
    def test_fires_on_bin_count(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/index/fixture.py",
            'def pop(x):\n    return bin(x).count("1")\n',
        )
        assert rules_of(findings) == ["use-core-bits"]

    def test_fires_on_bit_count_method(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/index/fixture.py",
            "def pop(x):\n    return x.bit_count()\n",
        )
        assert rules_of(findings) == ["use-core-bits"]

    def test_fires_on_kernighan_loop(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/index/fixture.py", """\
            def pop(x):
                count = 0
                while x:
                    x &= x - 1
                    count += 1
                return count
            """,
        )
        assert rules_of(findings) == ["use-core-bits"]

    def test_silent_on_core_bits_calls(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/index/fixture.py", """\
            from repro.core.bits import hamming_distance, popcount

            def weight(a, b):
                return popcount(a) + hamming_distance(a, b)
            """,
        ) == []

    def test_bits_module_itself_is_exempt(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/core/bits.py",
            'def popcount(x):\n    return bin(x).count("1")\n',
        ) == []


class TestChargeThroughBufferPool:
    BAD = """\
        def sneaky_read(disks, disk):
            disks.charge(disk, 3)
    """

    def test_fires_outside_sanctioned_modules(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py", self.BAD
        )
        assert rules_of(findings) == ["charge-through-buffer-pool"]

    def test_engine_modules_are_sanctioned(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/parallel/engine.py", self.BAD
        )
        assert "charge-through-buffer-pool" not in rules_of(findings)

    @pytest.mark.parametrize("module", ["paged", "cache"])
    def test_modules_that_stopped_charging_are_flagged(
        self, tmp_path, module
    ):
        """``paged`` and ``cache`` no longer call ``.charge``, so a
        charge there is a read that bypasses the pool."""
        findings = lint_rule(
            tmp_path, f"src/repro/parallel/{module}.py", self.BAD,
            "charge-through-buffer-pool",
        )
        assert rules_of(findings) == ["charge-through-buffer-pool"]

    def test_explain_example_names_a_real_api(self, capsys):
        """The good example reads pages through ``engine.query`` and its
        result's ``pages_per_disk``; both exist."""
        from dataclasses import fields

        from repro.parallel.engine import ParallelQueryResult
        from repro.parallel.paged import PagedEngine

        assert main(["--explain", "charge-through-buffer-pool"]) == 0
        out = capsys.readouterr().out
        assert "result = engine.query(point, k)" in out
        assert "pages = result.pages_per_disk" in out
        assert callable(PagedEngine.query)
        assert "pages_per_disk" in {
            field.name for field in fields(ParallelQueryResult)
        }

    def test_tests_are_out_of_scope(self, tmp_path):
        assert lint_snippet(
            tmp_path, "tests/fixture_disks.py", self.BAD
        ) == []


class TestNoFloatEq:
    def test_fires_on_float_literal_eq(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/index/fixture.py",
            "def same(d):\n    return d == 0.5\n",
        )
        assert rules_of(findings) == ["no-float-eq"]

    def test_fires_on_distance_call_neq(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/analysis/fixture.py", """\
            def tie(metric, a, b, q):
                return metric.distance(a, q) != metric.distance(b, q)
            """,
        )
        assert rules_of(findings) == ["no-float-eq"]

    def test_silent_on_integer_compare(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/index/fixture.py",
            "def same(k, n):\n    return k == n and k != 3\n",
        ) == []

    def test_out_of_scope_packages_unaffected(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            "def same(d):\n    return d == 0.5\n",
        ) == []


class TestNoPrintOutsideCli:
    def test_fires_in_library_module(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            'def loud():\n    print("hi")\n',
        )
        assert rules_of(findings) == ["no-print-outside-cli"]

    def test_cli_is_exempt(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/cli.py",
            'def loud():\n    print("hi")\n',
        ) == []


class TestNoBroadExcept:
    def test_fires_on_bare_and_broad_except(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py", """\
            def risky(fn):
                try:
                    fn()
                except Exception:
                    return None
                try:
                    fn()
                except:
                    return None
            """,
        )
        assert rules_of(findings) == ["no-broad-except", "no-broad-except"]

    def test_silent_on_specific_types(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/experiments/fixture.py", """\
            def risky(fn):
                try:
                    return fn()
                except (ValueError, KeyError):
                    return None
            """,
        ) == []


class TestSuppressions:
    def test_same_line_disable_silences_the_rule(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            'print("x")  # repro-lint: disable=no-print-outside-cli\n',
        ) == []

    def test_disable_all_silences_everything(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            'print("x")  # repro-lint: disable=all\n',
        ) == []

    def test_wrong_rule_does_not_silence(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            'print("x")  # repro-lint: disable=no-float-eq\n',
        )
        assert sorted(rules_of(findings)) == [
            "no-print-outside-cli", UNUSED_SUPPRESSION,
        ]

    def test_unused_suppression_is_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            "x = 1  # repro-lint: disable=no-print-outside-cli\n",
        )
        assert rules_of(findings) == [UNUSED_SUPPRESSION]

    def test_disable_inside_string_literal_is_ignored(self, tmp_path):
        assert lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            'text = "# repro-lint: disable=no-print-outside-cli"\n',
        ) == []

    def test_unused_suppression_names_rule_and_line(self, tmp_path):
        """Regression: the message must say which rule idled, and where."""
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            "x = 1\ny = 2  # repro-lint: disable=no-float-eq\n",
        )
        assert rules_of(findings) == [UNUSED_SUPPRESSION]
        assert "no-float-eq" in findings[0].message
        assert "line 2" in findings[0].message
        assert findings[0].line == 2

    def test_partially_unused_multi_rule_suppression(self, tmp_path):
        """disable=a,b where only a fired reports b as unused, by name."""
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            'print("x")  '
            "# repro-lint: disable=no-print-outside-cli,no-float-eq\n",
        )
        assert rules_of(findings) == [UNUSED_SUPPRESSION]
        assert "no-float-eq" in findings[0].message
        assert "no-print-outside-cli" not in findings[0].message

    def test_unused_disable_all_is_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py",
            "x = 1  # repro-lint: disable=all\n",
        )
        assert rules_of(findings) == [UNUSED_SUPPRESSION]
        assert "disable=all" in findings[0].message

    RNG_STATE = (
        "import numpy as np\n"
        "state = np.random.get_state()  "
        "# repro-lint: disable=seeded-rng-only\n"
        "x = 1  # repro-lint: disable=all\n"
    )

    @pytest.mark.parametrize("select", ["no-float-eq", "concurrency"])
    def test_select_judges_only_the_rules_that_ran(
        self, tmp_path, capsys, select
    ):
        """A narrowed run cannot tell whether a skipped rule's
        suppression (or ``disable=all``) still silences something."""
        write_snippet(tmp_path, "tests/test_fixture.py", self.RNG_STATE)
        assert main([str(tmp_path), "--select", select]) == 0
        assert UNUSED_SUPPRESSION not in capsys.readouterr().out

    def test_suppression_of_an_unknown_rule_is_always_unused(
        self, tmp_path
    ):
        write_snippet(
            tmp_path, "tests/test_fixture.py",
            "x = 1  # repro-lint: disable=no-such-rule\n",
        )
        findings = run_lint([tmp_path], select=frozenset({"no-float-eq"}))
        assert rules_of(findings) == [UNUSED_SUPPRESSION]
        assert "no-such-rule" in findings[0].message

    def test_select_still_judges_the_selected_rule(self, tmp_path):
        write_snippet(
            tmp_path, "tests/test_fixture.py",
            "x = 1  # repro-lint: disable=seeded-rng-only\n",
        )
        findings = run_lint(
            [tmp_path], select=frozenset({"seeded-rng-only"})
        )
        assert rules_of(findings) == [UNUSED_SUPPRESSION]


ENGINE_WITH_SMUGGLED_READ = """\
    class SneakyEngine:
        def __init__(self, disks, cache=None):
            self.disks = disks
            self.cache = cache

        def query(self, q, k):
            return self._fetch(q)

        def _fetch(self, q):
            self.disks.charge(0, 3)
            return q
"""


class TestTracerGuardRequired:
    RULE = "tracer-guard-required"

    def test_fires_on_unguarded_emission(self, tmp_path):
        findings = lint_rule(
            tmp_path, "src/repro/parallel/helper.py", """\
            def scan(tracer, disk):
                tracer.page_read(0, disk, 1)
            """, self.RULE,
        )
        assert rules_of(findings) == [self.RULE]
        assert "tracer.enabled" in findings[0].message

    def test_silent_under_direct_enabled_guard(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/parallel/helper.py", """\
            def scan(tracer, disk):
                if tracer.enabled:
                    tracer.page_read(0, disk, 1)
            """, self.RULE,
        ) == []

    def test_silent_under_guard_flag_variable(self, tmp_path):
        """The engines' ``traced = tracer.enabled`` idiom is recognised."""
        assert lint_rule(
            tmp_path, "src/repro/parallel/helper.py", """\
            def scan(tracer, disk):
                traced = tracer.enabled
                if traced:
                    tracer.record("query_arrival", query=0)
            """, self.RULE,
        ) == []

    def test_non_tracer_receiver_is_ignored(self, tmp_path):
        """Histogram.record shares a method name; receivers are vetted."""
        assert lint_rule(
            tmp_path, "src/repro/parallel/helper.py", """\
            def publish(histogram, value):
                histogram.record(value)
            """, self.RULE,
        ) == []

    def test_metrics_resolved_from_a_tracer_are_no_tracer(self, tmp_path):
        """``current_metrics(metrics, tracer)`` returns a registry: its
        histograms' ``record`` is aggregate publication, not a span."""
        assert lint_rule(
            tmp_path, "src/repro/parallel/helper.py", """\
            def publish(metrics, tracer, value):
                registry = current_metrics(metrics, tracer)
                if registry is not None:
                    registry.histogram("makespan_ms").record(value)
            """, self.RULE,
        ) == []

    def test_out_of_scope_module_is_ignored(self, tmp_path):
        assert lint_rule(
            tmp_path, "src/repro/experiments/helper.py", """\
            def scan(tracer, disk):
                tracer.page_read(0, disk, 1)
            """, self.RULE,
        ) == []


class TestNoUnvalidatedSchemeString:
    RULE = "no-unvalidated-scheme-string"

    def _with_registry(self, tmp_path):
        write_snippet(tmp_path, "src/repro/registry.py", """\
            SCHEME_ALIASES = {"col": "new", "rr": "RR"}
        """)

    def test_fires_on_equality_against_alias(self, tmp_path):
        self._with_registry(tmp_path)
        findings = lint_rule(
            tmp_path, "src/repro/experiments/helper.py", """\
            def pick(scheme):
                if scheme == "col":
                    return 1
                return 0
            """, self.RULE,
        )
        assert rules_of(findings) == [self.RULE]
        assert "'col'" in findings[0].message
        assert "repro.registry" in findings[0].message

    def test_fires_on_membership_test(self, tmp_path):
        self._with_registry(tmp_path)
        findings = lint_rule(
            tmp_path, "src/repro/experiments/helper.py", """\
            def is_bucketed(scheme_name):
                return scheme_name in ("col", "rr")
            """, self.RULE,
        )
        assert rules_of(findings) == [self.RULE]

    def test_fires_on_declusterer_name_literal(self, tmp_path):
        self._with_registry(tmp_path)
        write_snippet(tmp_path, "src/repro/core/fancy2.py", """\
            class FancyDeclusterer:
                name = "fancy"
        """)
        findings = lint_rule(
            tmp_path, "src/repro/experiments/helper.py", """\
            def check(scheme):
                return scheme != "fancy"
            """, self.RULE,
        )
        assert rules_of(findings) == [self.RULE]

    def test_silent_without_schemeish_operand(self, tmp_path):
        """Comparing a non-scheme variable against the same literal is
        out of the heuristic's reach on purpose (documented)."""
        self._with_registry(tmp_path)
        assert lint_rule(
            tmp_path, "src/repro/experiments/helper.py", """\
            def check(color):
                return color == "col"
            """, self.RULE,
        ) == []

    def test_registry_module_is_exempt(self, tmp_path):
        self._with_registry(tmp_path)
        assert lint_rule(
            tmp_path, "src/repro/registry2.py", "", self.RULE,
        ) == []
        findings = run_lint(
            [tmp_path / "src/repro/registry.py"],
            select=frozenset({self.RULE}),
        )
        assert findings == []


class TestSarifOutput:
    def test_sarif_document_shape(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/data/fixture.py", 'print("x")\n'
        )
        assert main([str(tmp_path), "--format=sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "no-print-outside-cli" in rule_ids
        assert "tracer-guard-required" in rule_ids
        (result,) = [
            r for r in run["results"]
            if r["ruleId"] == "no-print-outside-cli"
        ]
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1
        assert location["artifactLocation"]["uri"].endswith("fixture.py")
        assert result["partialFingerprints"]["reproLintFingerprint/v1"]

    def test_sarif_warning_level(self, tmp_path, capsys):
        write_snippet(
            tmp_path, "src/repro/parallel/helper.py",
            "def quiet():\n    return 1\n",
        )
        assert main([str(tmp_path), "--format=sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        (result,) = document["runs"][0]["results"]
        assert result["ruleId"] == "no-missing-public-docstring"
        assert result["level"] == "warning"


class TestInjectedBugs:
    def test_injected_uncharged_read_fails_the_run(self, tmp_path, capsys):
        """Acceptance meta-test: an uncharged DiskArray read injected
        into a fixture engine outside the charging modules fails the
        run with ``charge-through-buffer-pool``."""
        write_snippet(
            tmp_path, "src/repro/parallel/injected.py",
            ENGINE_WITH_SMUGGLED_READ,
        )
        assert main([str(tmp_path)]) == 1
        assert "charge-through-buffer-pool" in capsys.readouterr().out


class TestEngineAndCli:
    def test_syntax_error_is_a_finding(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "src/repro/data/fixture.py", "def broken(:\n"
        )
        assert rules_of(findings) == ["syntax-error"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "src/repro/data/fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('print("x")\n')
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[no-print-outside-cli]" in out and "fixture.py:1" in out
        bad.write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "src/repro/data/fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text('print("x")\n')
        assert main([str(tmp_path), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "no-print-outside-cli"
        assert payload["findings"][0]["line"] == 1

    def test_one_project_index_per_run(self, tmp_path, monkeypatch):
        """Every cross-module rule reads the one index (and the one
        call graph) that ``run_lint`` builds."""
        from repro.lint.callgraph import CallGraph, ProjectIndex

        built = {"index": 0, "graph": 0}

        def counting(cls, key):
            original = cls.__init__

            def init(self, *args):
                built[key] += 1
                original(self, *args)

            monkeypatch.setattr(cls, "__init__", init)

        counting(ProjectIndex, "index")
        counting(CallGraph, "graph")
        write_snippet(
            tmp_path, "src/repro/serve/fixture.py", """\
            class FixtureSimulator:
                def run(self):
                    return 1


            async def serve(queue):
                await queue.get()
            """,
        )
        run_lint([tmp_path])
        assert built == {"index": 1, "graph": 1}

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "seeded-rng-only",
            "use-core-bits",
            "charge-through-buffer-pool",
            "no-float-eq",
            "no-print-outside-cli",
            "no-broad-except",
        ):
            assert rule in out


@pytest.mark.parametrize("tree", [REPO_SRC, REPO_TESTS])
def test_live_tree_is_lint_clean(tree):
    """The shipped repository must uphold its own invariants."""
    findings = run_lint([tree])
    assert findings == [], "\n".join(f.format() for f in findings)
