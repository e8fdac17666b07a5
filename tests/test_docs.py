"""Documentation health checks.

Runs the same checks as the CI ``docs`` job: every relative markdown
link in the repo's documentation set resolves, the committed benchmark
result tables match ``repro.result_table/v1``, and the generated metric
catalogue in ``docs/observability.md`` matches the code (the latter is
covered in ``tests/test_obs.py``).
"""

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from check_markdown_links import (  # noqa: E402
    default_files,
    find_broken_links,
    find_orphaned_docs,
    main,
)
import check_result_tables  # noqa: E402


class TestRepoDocs:
    def test_no_broken_relative_links(self):
        broken = find_broken_links(default_files(REPO_ROOT))
        assert broken == [], "\n".join(
            f"{path}:{line}: {target}" for path, line, target in broken
        )

    def test_docs_set_includes_the_core_documents(self):
        names = {path.name for path in default_files(REPO_ROOT)}
        assert {"README.md", "DESIGN.md", "observability.md",
                "linting.md", "storage.md", "architecture.md"} <= names

    def test_no_orphaned_docs_pages(self):
        """Every docs page is reachable from README.md or the
        architecture overview."""
        orphans = find_orphaned_docs(REPO_ROOT)
        assert orphans == [], [str(path) for path in orphans]

    def test_architecture_mentions_every_subpackage(self):
        """The layer map stays complete as subpackages are added."""
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        packages = sorted(
            path.parent.name
            for path in (REPO_ROOT / "src" / "repro").glob(
                "*/__init__.py"
            )
        )
        assert packages, "expected src/repro subpackages"
        missing = [
            name for name in packages if f"repro.{name}" not in text
        ]
        assert missing == [], (
            f"docs/architecture.md does not mention {missing}"
        )

    @staticmethod
    def _run_doctest(name):
        import doctest

        failures, tests = doctest.testfile(
            str(REPO_ROOT / "docs" / name),
            module_relative=False,
            optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        )
        assert tests > 0, f"expected >>> examples in {name}"
        assert failures == 0

    def test_reproduction_guide_worked_example(self):
        """The guide's quickstart transcript actually runs (doctest)."""
        self._run_doctest("reproduction_guide.md")

    def test_storage_worked_example(self):
        """storage.md's worked example (both construction routes, both
        engines) actually runs (doctest)."""
        self._run_doctest("storage.md")


class TestOrphanDetection:
    def _repo(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "[a](docs/a.md) [arch](docs/architecture.md)\n"
        )
        (tmp_path / "docs" / "architecture.md").write_text(
            "[b](b.md)\n"
        )
        (tmp_path / "docs" / "a.md").write_text("# a\n")
        (tmp_path / "docs" / "b.md").write_text("# b\n")
        return tmp_path

    def test_unlinked_page_is_reported(self, tmp_path):
        root = self._repo(tmp_path)
        (root / "docs" / "lost.md").write_text("# lost\n")
        assert find_orphaned_docs(root) == [root / "docs" / "lost.md"]

    def test_pages_linked_from_either_entry_point_pass(self, tmp_path):
        assert find_orphaned_docs(self._repo(tmp_path)) == []

    def test_entry_points_are_exempt(self, tmp_path):
        root = self._repo(tmp_path)
        (root / "README.md").write_text("no links here\n")
        orphans = find_orphaned_docs(root)
        assert root / "docs" / "architecture.md" not in orphans
        # a.md lost its only inbound link; b.md is still reachable
        # from the architecture page.
        assert orphans == [root / "docs" / "a.md"]


class TestFindBrokenLinks:
    def test_detects_dangling_relative_link(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](nowhere.md) for details\n")
        broken = find_broken_links([doc])
        assert broken == [(doc, 1, "nowhere.md")]

    def test_resolving_link_anchor_and_external_pass(self, tmp_path):
        (tmp_path / "other.md").write_text("# other\n")
        doc = tmp_path / "doc.md"
        doc.write_text(
            "[ok](other.md) [anchored](other.md#section) [self](#here)\n"
            "[web](https://example.com/x.md) ![img](other.md)\n"
        )
        assert find_broken_links([doc]) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.md"
        good.write_text("[self](#top)\n")
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.md"
        bad.write_text("[gone](missing/file.md)\n")
        assert main([str(bad)]) == 1
        assert "broken link" in capsys.readouterr().out


VALID_TABLE = {
    "schema": "repro.result_table/v1",
    "title": "t",
    "columns": ["a", "b"],
    "rows": [[1, 2.5], ["x", None]],
    "notes": ["n"],
}


class TestResultTables:
    def test_committed_tables_are_schema_valid(self):
        files = check_result_tables.default_files(REPO_ROOT)
        assert files, "expected committed benchmarks/results/*.json"
        problems = check_result_tables.validate_files(files)
        assert problems == [], "\n".join(
            f"{path}: {problem}" for path, problem in problems
        )

    def test_valid_table_passes(self):
        assert check_result_tables.validate_table(VALID_TABLE) == []

    def test_schema_and_shape_violations_are_reported(self):
        bad = dict(VALID_TABLE, schema="v2", rows=[[1]], extra=3)
        problems = check_result_tables.validate_table(bad)
        assert any("schema" in p for p in problems)
        assert any("row 0 has 1 cells" in p for p in problems)
        assert any("unexpected keys: extra" in p for p in problems)

    def test_non_scalar_cell_is_reported(self):
        bad = dict(VALID_TABLE, rows=[[1, {"nested": True}]])
        problems = check_result_tables.validate_table(bad)
        assert any("non-scalar" in p for p in problems)

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(VALID_TABLE))
        assert check_result_tables.main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert check_result_tables.main([str(bad)]) == 1
        assert "unreadable JSON" in capsys.readouterr().out
