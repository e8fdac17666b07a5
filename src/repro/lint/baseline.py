"""Finding baselines: fail CI only on *new* findings.

A baseline file (``lint-baseline.json``, schema
``repro.lint-baseline/v1``) records a fingerprint multiset of the
findings present when it was last updated.  ``--baseline`` subtracts
those from the current run so pre-existing debt does not block a PR,
while ``--update-baseline`` rewrites the file from the current tree.
The debt may only shrink: :func:`stale_entries` lists recorded
fingerprints the current run no longer emits, and ``--baseline`` fails
on them until the file is rewritten.

Fingerprints hash ``path | rule | severity | message`` — deliberately
*not* the line number — so unrelated edits that shift a finding up or
down a file do not resurrect it.  Duplicate fingerprints are counted:
two identical findings with one baselined still report the second.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import AbstractSet, Any, Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

__all__ = [
    "BASELINE_SCHEMA",
    "load_baseline",
    "render_baseline",
    "write_baseline",
    "subtract_baseline",
    "stale_entries",
]

BASELINE_SCHEMA = "repro.lint-baseline/v1"


def _entries(path: Path) -> List[Dict[str, Any]]:
    """The validated entry list of a baseline file.

    Raises ``ValueError`` on a malformed or wrong-schema document so a
    truncated baseline fails loudly instead of silently admitting every
    finding as "new".
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline {path} does not declare schema {BASELINE_SCHEMA!r}"
        )
    entries = payload.get("findings", [])
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path}: 'findings' must be a list")
    for entry in entries:
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise ValueError(
                f"baseline {path}: every finding needs a 'fingerprint'"
            )
    return entries


def load_baseline(path: Path) -> Counter:
    """Fingerprint multiset read from a baseline file (see
    :func:`_entries` for the validation)."""
    counts: Counter = Counter()
    for entry in _entries(path):
        counts[str(entry["fingerprint"])] += int(entry.get("count", 1))
    return counts


def stale_entries(
    path: Path,
    findings: Sequence[Finding],
    rules: Optional[AbstractSet[str]] = None,
) -> List[Dict[str, Any]]:
    """Baseline entries whose fingerprints ``findings`` no longer carry.

    A stale entry is a free pass that would silently absorb the *next*
    identical regression at that path.  Multiset semantics: a
    fingerprint baselined twice but emitted once is one stale entry.
    With ``rules``, only entries recorded for those rules are audited —
    a narrowed run cannot emit the rest.
    """
    emitted = Counter(finding.fingerprint() for finding in findings)
    stale: List[Dict[str, Any]] = []
    for entry in _entries(path):
        if rules is not None and str(entry.get("rule", "")) not in rules:
            continue
        fingerprint = str(entry["fingerprint"])
        for _ in range(int(entry.get("count", 1))):
            if emitted[fingerprint] > 0:
                emitted[fingerprint] -= 1
            else:
                stale.append(entry)
    return stale


def render_baseline(findings: Sequence[Finding]) -> str:
    """Baseline document (JSON string) for the given findings.

    Entries carry the human-readable context (path/rule/message) next to
    the fingerprint so reviewers can audit what debt a baseline admits.
    """
    counts: Dict[Tuple[str, str, str, str], int] = {}
    for finding in sorted(findings):
        key = (finding.path, finding.rule, finding.severity, finding.message)
        counts[key] = counts.get(key, 0) + 1
    entries: List[Dict[str, object]] = []
    for (path, rule, severity, message), count in sorted(counts.items()):
        probe = Finding(
            path=path, line=0, rule=rule, message=message, severity=severity
        )
        entry: Dict[str, object] = {
            "fingerprint": probe.fingerprint(),
            "path": path,
            "rule": rule,
            "severity": severity,
            "message": message,
        }
        if count != 1:
            entry["count"] = count
        entries.append(entry)
    document = {"schema": BASELINE_SCHEMA, "findings": entries}
    return json.dumps(document, indent=2) + "\n"


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write (or rewrite) the baseline file for ``findings``."""
    path.write_text(render_baseline(findings), encoding="utf-8")


def subtract_baseline(
    findings: Sequence[Finding], baseline: Counter
) -> List[Finding]:
    """Findings not covered by the baseline multiset.

    Subtraction is per-fingerprint with multiplicity: a baseline entry
    with ``count: 2`` absorbs at most two identical findings.
    """
    remaining = Counter(baseline)
    fresh: List[Finding] = []
    for finding in sorted(findings):
        fingerprint = finding.fingerprint()
        if remaining.get(fingerprint, 0) > 0:
            remaining[fingerprint] -= 1
            continue
        fresh.append(finding)
    return fresh
