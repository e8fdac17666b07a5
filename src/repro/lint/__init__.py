"""Repo-specific static analysis: machine-check the paper's invariants.

The reproduction's guarantees rest on code-level conventions — ``col``
stays O(d) bit-exact in ``core/bits.py``, experiments are seeded, only
buffer-pool misses are charged to the simulated disks.  This package
turns those conventions into AST-checked rules::

    python -m repro.lint src tests           # lint, exit 1 on findings
    python -m repro.lint --list-rules        # what is checked and why

Programmatic use::

    from repro.lint import run_lint
    findings = run_lint(["src"])             # [] when clean
    findings = run_lint(["src"], select={"resource-leak"})

One lint run parses every file once and builds one project index (the
symbol table, import aliases and a lazily built call graph) that every
cross-module rule reads; rules carry their tunables as module constants,
so rule selection is the only setting.

See ``docs/linting.md`` for the rule catalogue and how to add a rule.
"""

from __future__ import annotations

from repro.lint.concurrency import CONCURRENCY_RULES
from repro.lint.engine import ALL_RULES, all_rule_names, run_lint
from repro.lint.findings import Finding, render_json, render_text
from repro.lint.lifetime import LIFETIME_RULES
from repro.lint.rules import RULES, Rule
from repro.lint.sarif import render_sarif

__all__ = [
    "ALL_RULES",
    "CONCURRENCY_RULES",
    "Finding",
    "LIFETIME_RULES",
    "RULES",
    "Rule",
    "all_rule_names",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]
