#!/usr/bin/env python
"""Print the size of ``src/repro`` as a Markdown table.

Lines of Python per package (top-level modules count as ``repro``) and
the number of lint rules — the CI ``lint`` job appends this to
``$GITHUB_STEP_SUMMARY`` so the ROADMAP's "less code" aim has a number
on every PR.  Run from the repo root::

    PYTHONPATH=src python scripts/size_table.py
"""

from __future__ import annotations

import pathlib
from collections import Counter

from repro.lint.engine import all_rule_names

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    package_root = ROOT / "src" / "repro"
    lines: Counter = Counter()
    for path in sorted(package_root.rglob("*.py")):
        parts = path.relative_to(package_root).parts
        package = f"repro.{parts[0]}" if len(parts) > 1 else "repro"
        with path.open(encoding="utf-8") as handle:
            lines[package] += sum(1 for _ in handle)
    print("| package | lines |\n|---|---:|")
    for package, count in sorted(lines.items()):
        print(f"| `{package}` | {count} |")
    print(f"| **src/ total** | **{sum(lines.values())}** |")
    print(f"\nlint rules: {len(all_rule_names())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
