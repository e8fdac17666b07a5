"""SARIF 2.1.0 rendering for lint findings.

`SARIF <https://docs.oasis-open.org/sarif/sarif/v2.1.0/sarif-v2.1.0.html>`_
is the interchange format GitHub code scanning ingests; ``repro.lint
--format sarif`` emits one ``run`` built here from the
:class:`~repro.lint.findings.Finding` type.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.lint.findings import Finding

__all__ = ["SARIF_SCHEMA_URI", "SARIF_VERSION", "TOOL_NAME", "render_sarif"]

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

#: The SARIF driver name every run reports.
TOOL_NAME = "repro.lint"

_LEVEL_FOR_SEVERITY = {"error": "error", "warn": "warning"}


def _result(finding: Finding) -> Dict[str, Any]:
    """One SARIF ``result`` object for ``finding``."""
    return {
        "ruleId": finding.rule,
        "level": _LEVEL_FOR_SEVERITY.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {"startLine": max(finding.line, 1)},
                }
            }
        ],
        "partialFingerprints": {
            "reproLintFingerprint/v1": finding.fingerprint(),
        },
    }


def render_sarif(
    findings: Sequence[Finding],
    rule_metadata: Optional[Mapping[str, str]] = None,
) -> str:
    """Full SARIF 2.1.0 log document as a JSON string.

    ``rule_metadata`` maps rule name to its one-line summary; every rule
    referenced by a finding is included in the driver's rule table even
    when no summary is known (GitHub requires ``ruleId`` referents).
    """
    metadata = dict(rule_metadata or {})
    for finding in findings:
        metadata.setdefault(finding.rule, "")
    rules: List[Dict[str, Any]] = [
        {
            "id": name,
            "shortDescription": {"text": summary or name},
        }
        for name, summary in sorted(metadata.items())
    ]
    run = {
        "tool": {
            "driver": {
                "name": TOOL_NAME,
                "informationUri": "https://example.invalid/repro",
                "rules": rules,
            }
        },
        "results": [_result(finding) for finding in sorted(findings)],
        "columnKind": "utf16CodeUnits",
    }
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    return json.dumps(document, indent=2, sort_keys=False)
