"""Lint driver: discover files, run rules, apply suppressions.

:func:`run_lint` is the whole programmatic API — tests and the CLI both
call it.  It parses every file once, builds one
:class:`~repro.lint.callgraph.ProjectIndex` over the parsed modules and
hands that same index to every cross-module rule.  Findings come back
sorted by path/line; an empty list means the tree upholds every
invariant.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.lint.callgraph import ProjectIndex
from repro.lint.concurrency import CONCURRENCY_RULES
from repro.lint.dataflow import DATAFLOW_RULES
from repro.lint.findings import Finding
from repro.lint.lifetime import LIFETIME_RULES
from repro.lint.module import ModuleInfo
from repro.lint.rules import RULES, Rule

__all__ = [
    "run_lint",
    "discover_files",
    "ALL_RULES",
    "all_rule_names",
    "rule_summaries",
]

#: Synthetic rule names the engine itself emits.
SYNTAX_ERROR = "syntax-error"
UNUSED_SUPPRESSION = "unused-suppression"

#: Per-module rules plus the dataflow, async-safety, and
#: resource-lifetime layers, in reporting order.  Aggregated here (not
#: in ``rules``) because those rules subclass
#: :class:`~repro.lint.rules.Rule` and importing them back into
#: ``rules`` would be circular.
ALL_RULES: Tuple[Rule, ...] = (
    RULES + DATAFLOW_RULES + CONCURRENCY_RULES + LIFETIME_RULES
)


def all_rule_names() -> Tuple[str, ...]:
    """Names of every registered rule."""
    return tuple(rule.name for rule in ALL_RULES)


def rule_summaries() -> Dict[str, str]:
    """Rule name to one-line summary, including the synthetic rules."""
    summaries = {rule.name: rule.summary for rule in ALL_RULES}
    summaries[SYNTAX_ERROR] = "file cannot be parsed"
    summaries[UNUSED_SUPPRESSION] = (
        "repro-lint suppression comment that silences nothing"
    )
    return summaries

_SKIP_DIRS = {".git", "__pycache__", ".mypy_cache", ".ruff_cache", "build"}


def discover_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    found.add(candidate)
        elif path.suffix == ".py" and path.is_file():
            found.add(path)
    return sorted(found)


def _parse_all(
    files: Sequence[Path],
) -> Tuple[List[ModuleInfo], List[Finding]]:
    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path in files:
        try:
            modules.append(ModuleInfo.parse(path))
        except SyntaxError as error:
            findings.append(
                Finding(str(path), error.lineno or 1, SYNTAX_ERROR,
                        f"cannot parse: {error.msg}")
            )
    return modules, findings


def _apply_suppressions(
    modules: Sequence[ModuleInfo],
    findings: Sequence[Finding],
    ran: FrozenSet[str],
) -> List[Finding]:
    """Drop suppressed findings; flag suppressions that did no work.

    Usage is tracked *per rule*, not per line: a comment like
    ``# repro-lint: disable=rule-a,rule-b`` where only ``rule-a`` fired
    reports ``rule-b`` as unused, and the unused-suppression message
    names the idle rule and its line.  Only a rule in ``ran`` can leave
    its suppression unused (a ``--select`` run says nothing about the
    rules it skipped), and ``disable=all`` is judged only when every
    rule ran.  A suppression naming no registered rule is always
    unused.
    """
    by_path = {module.display_path: module for module in modules}
    kept: List[Finding] = []
    used: Set[Tuple[str, int, str]] = set()
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.suppresses(finding.line, finding.rule):
            used.add((finding.path, finding.line, finding.rule))
        else:
            kept.append(finding)
    known = frozenset(all_rule_names())
    every_rule_ran = ran >= known
    for module in modules:
        for line, rules in sorted(module.suppressions.items()):
            any_used = any(
                key[0] == module.display_path and key[1] == line
                for key in used
            )
            for rule in sorted(rules):
                if rule == "all":
                    if every_rule_ran and not any_used:
                        kept.append(
                            Finding(
                                module.display_path, line, UNUSED_SUPPRESSION,
                                f"suppression disable=all on line {line} "
                                f"matches no finding; remove it",
                            )
                        )
                elif (rule in ran or rule not in known) and (
                    module.display_path, line, rule
                ) not in used:
                    kept.append(
                        Finding(
                            module.display_path, line, UNUSED_SUPPRESSION,
                            f"suppression disable={rule} on line {line} "
                            f"matches no {rule} finding; remove it",
                        )
                    )
    return kept


def run_lint(
    paths: Iterable[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` (files or directories) with the ``select``-ed rules.

    ``select`` names the rules to run; None runs every registered rule.
    Returns all surviving findings sorted by location.  Suppression
    comments (``# repro-lint: disable=<rule>[,rule...]`` or
    ``disable=all``) silence same-line findings; one whose rule ran but
    silences nothing is itself reported as ``unused-suppression``.
    """
    selected = None if select is None else frozenset(select)
    files = discover_files(paths)
    modules, findings = _parse_all(files)
    index = ProjectIndex(modules)
    rules = [
        rule for rule in ALL_RULES
        if selected is None or rule.name in selected
    ]
    for rule in rules:
        for module in modules:
            if rule.applies_to(module.name):
                findings.extend(rule.check_module(module))
        findings.extend(rule.check_project(index))
    ran = frozenset(rule.name for rule in rules)
    return sorted(_apply_suppressions(modules, findings, ran))
