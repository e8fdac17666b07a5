"""Finding record and output formatting for the repo linter.

A :class:`Finding` is one violated invariant at one source location.  The
two renderers match what CI and editors expect: ``text`` is the classic
``path:line: [rule] message`` one-line-per-finding format, ``json`` is a
machine-readable list suitable for tooling.

Findings carry a ``severity``: ``"error"`` (the default — fails the lint
run) or ``"warn"`` (reported, rendered with a ``warning:`` prefix, but
does not affect the exit status — used by advisory rules like
``no-missing-public-docstring``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import List, Sequence

__all__ = ["Finding", "render_text", "render_json", "error_findings"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation: where it is, which rule, and what to do."""

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        """The ``path:line: [rule] message`` one-liner (warnings are
        prefixed)."""
        label = "" if self.severity == "error" else f"{self.severity}ing: "
        return f"{self.path}:{self.line}: [{self.rule}] {label}{self.message}"

    def fingerprint(self) -> str:
        """Stable identity for SARIF ``partialFingerprints``.

        Hashes ``path | rule | severity | message`` — deliberately not
        the line number, so edits that merely shift a finding within a
        file keep its code-scanning identity.
        """
        basis = "|".join((self.path, self.rule, self.severity, self.message))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]


def error_findings(findings: Sequence[Finding]) -> List[Finding]:
    """The subset of ``findings`` that should fail a lint run."""
    return [f for f in findings if f.severity == "error"]


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a trailing count summary."""
    lines: List[str] = [finding.format() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    warnings = len(findings) - len(error_findings(findings))
    suffix = f" ({warnings} warn)" if warnings else ""
    lines.append(f"{len(findings)} {noun}{suffix}")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """A JSON document: ``{"findings": [...], "count": N}``."""
    payload = {
        "findings": [asdict(finding) for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
