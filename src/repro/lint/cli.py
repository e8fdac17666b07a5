"""``python -m repro.lint`` — run the repo invariant checker.

Exit status 0 means every linted file upholds every error-severity
invariant (warnings are reported but never fail the run); 1 means error
findings were reported; 2 means bad usage.  ``--format=json`` emits a
machine-readable document for tooling; ``--format=sarif`` emits SARIF
2.1.0 for GitHub code scanning.

Baselines (``lint-baseline.json``, schema ``repro.lint-baseline/v1``)
let CI fail only on *new* findings: ``--baseline FILE`` subtracts the
recorded fingerprints before rendering and exit-status evaluation, and
fails (exit 1) on *stale* entries — recorded fingerprints the run no
longer emits — until ``--update-baseline FILE`` rewrites the file from
the current tree.

``--select`` narrows the run to named rules or rule groups
(``concurrency``, ``dataflow``, ``lifetime``), and the stale-entry audit
with it; ``--time-budget SECONDS`` turns the run's wall-clock
into a gate — the elapsed time is reported on stderr and exceeding the
budget fails the run even when the tree is clean.  ``--explain RULE``
prints one rule's documentation: its rationale (the class docstring)
plus a bad/good example pair from the rule's metadata.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import textwrap
import time
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.lint.baseline import (
    load_baseline,
    stale_entries,
    subtract_baseline,
    write_baseline,
)
from repro.lint.concurrency import CONCURRENCY_RULES
from repro.lint.dataflow import DATAFLOW_RULES
from repro.lint.engine import (
    ALL_RULES,
    all_rule_names,
    run_lint,
    rule_summaries,
)
from repro.lint.findings import (
    Finding,
    error_findings,
    render_json,
    render_text,
)
from repro.lint.lifetime import LIFETIME_RULES
from repro.lint.sarif import render_sarif

__all__ = ["main", "build_parser", "RULE_GROUPS"]

#: Named rule groups ``--select`` expands (alongside individual rule
#: names): run just the async-safety layer, just the dataflow layer, or
#: just the resource-lifetime/process-safety layer.
RULE_GROUPS = {
    "concurrency": tuple(rule.name for rule in CONCURRENCY_RULES),
    "dataflow": tuple(rule.name for rule in DATAFLOW_RULES),
    "lifetime": tuple(rule.name for rule in LIFETIME_RULES),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static checker for this repository's paper-level "
        "invariants (seeded RNG, core-bits usage, buffer-pool charging, "
        "float equality, library prints, scheme registry completeness, "
        "cross-module dataflow rules over the project call graph, "
        "async-safety rules for the serving layer, and path-sensitive "
        "resource-lifetime/process-safety rules for the out-of-core "
        "layer).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="subtract the findings recorded in FILE before reporting "
        "(fail only on new findings, or on entries FILE records that "
        "the run no longer emits)",
    )
    parser.add_argument(
        "--update-baseline", type=Path, default=None, metavar="FILE",
        help="rewrite FILE from the current findings and exit 0",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule names and/or groups "
        f"({', '.join(sorted(RULE_GROUPS))}) to run; default: all rules",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="fail the run (exit 1) when linting takes longer than "
        "SECONDS of wall-clock; elapsed time is reported on stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print RULE's documentation — rationale plus a bad/good "
        "example pair — and exit",
    )
    return parser


def _explain(name: str) -> int:
    """Print one rule's doc, rationale and examples; exit status."""
    rule = next((cls for cls in ALL_RULES if cls.name == name), None)
    if rule is None:
        print(
            f"repro.lint: --explain {name!r} names no known rule "
            f"(see --list-rules)",
            file=sys.stderr,
        )
        return 2
    group = next(
        (g for g, members in sorted(RULE_GROUPS.items())
         if rule.name in members),
        "core",
    )
    print(f"{rule.name}  [{rule.severity}, group: {group}]")
    print(f"  {rule.summary}")
    print()
    print(f"  scope:  {', '.join(rule.default_scope)}")
    if rule.default_exempt:
        print(f"  exempt: {', '.join(rule.default_exempt)}")
    rationale = inspect.cleandoc(rule.__doc__ or "")
    if rationale:
        print()
        print("Why:")
        print(textwrap.indent(textwrap.fill(rationale, width=72), "  "))
    if rule.example_bad:
        print()
        print("Bad:")
        print(textwrap.indent(rule.example_bad.rstrip(), "  "))
    if rule.example_good:
        print()
        print("Good:")
        print(textwrap.indent(rule.example_good.rstrip(), "  "))
    print()
    print(
        f"Suppress a single sanctioned line with: "
        f"# repro-lint: disable={rule.name}"
    )
    return 0


def _selected_rules(selection: str) -> Optional[FrozenSet[str]]:
    """Rule names the ``--select`` value expands to; None on bad names."""
    known = set(all_rule_names())
    enabled: Set[str] = set()
    for token in selection.split(","):
        token = token.strip()
        if not token:
            continue
        if token in RULE_GROUPS:
            enabled.update(RULE_GROUPS[token])
        elif token in known:
            enabled.add(token)
        else:
            return None
    if not enabled:
        return None
    return frozenset(enabled)


def _report_stale(baseline: Path, stale: Sequence[Dict[str, Any]]) -> None:
    """Name every stale baseline entry on stderr (stdout stays a
    parseable SARIF/JSON document)."""
    print(
        f"repro.lint: {baseline}: {len(stale)} stale baseline "
        f"entr{'y' if len(stale) == 1 else 'ies'} — the findings below "
        f"are no longer emitted; rerun --update-baseline:",
        file=sys.stderr,
    )
    for entry in stale:
        print(
            f"  {entry.get('path', '?')}: [{entry.get('rule', '?')}] "
            f"{entry.get('message', '')} "
            f"(fingerprint {entry.get('fingerprint', '?')})",
            file=sys.stderr,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.explain is not None:
        return _explain(args.explain)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name:>28}  {rule.summary}")
        return 0
    selected = None
    if args.select is not None:
        selected = _selected_rules(args.select)
        if selected is None:
            print(
                f"repro.lint: --select {args.select!r} names no known "
                f"rule or group (groups: {', '.join(sorted(RULE_GROUPS))})",
                file=sys.stderr,
            )
            return 2
    started = time.monotonic()
    findings: List[Finding] = run_lint(args.paths, selected)
    elapsed = time.monotonic() - started
    if args.update_baseline is not None:
        write_baseline(args.update_baseline, findings)
        print(
            f"baseline {args.update_baseline} updated "
            f"({len(findings)} findings recorded)"
        )
        return 0
    stale: List[Dict[str, Any]] = []
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
            stale = stale_entries(args.baseline, findings, selected)
        except (OSError, ValueError) as error:
            print(f"repro.lint: {error}", file=sys.stderr)
            return 2
        findings = subtract_baseline(findings, baseline)
    if args.format == "sarif":
        print(render_sarif(findings, rule_summaries()))
    elif args.format == "json":
        print(render_json(findings))
    elif findings:
        print(render_text(findings))
    else:
        print("0 findings")
    if stale:
        _report_stale(args.baseline, stale)
    over_budget = False
    if args.time_budget is not None:
        over_budget = elapsed > args.time_budget
        verdict = "OVER BUDGET" if over_budget else "within budget"
        # stderr so SARIF/JSON documents on stdout stay parseable.
        print(
            f"repro.lint: completed in {elapsed:.2f}s "
            f"(budget {args.time_budget:.2f}s, {verdict})",
            file=sys.stderr,
        )
    failed = error_findings(findings) or stale or over_budget
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
