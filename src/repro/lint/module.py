"""Parsed-module model: dotted names, ASTs, and suppression comments.

Suppressions are real ``COMMENT`` tokens of the form::

    engine.charge(disk)  # repro-lint: disable=charge-through-buffer-pool

found with :mod:`tokenize` (a disable string inside a string literal is
*not* a suppression), and each one must actually suppress something —
the engine reports stale ones as ``unused-suppression`` findings.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional

from repro.lint.callgraph import import_aliases

__all__ = ["ModuleInfo", "SUPPRESS_ALL", "module_name_for_path"]

#: ``disable=all`` silences every rule on the line.
SUPPRESS_ALL = "all"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([\w,\- ]+)")

#: Path components that anchor a dotted module name.
_PACKAGE_ROOTS = ("repro", "tests", "benchmarks", "examples")


def module_name_for_path(path: Path) -> str:
    """Dotted module name for ``path``, anchored at a known package root.

    ``src/repro/core/bits.py`` -> ``repro.core.bits``; files outside any
    known root fall back to their stem so rules scoped to ``repro.*``
    skip them.
    """
    parts = list(path.parts)
    anchor = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] in _PACKAGE_ROOTS:
            anchor = index
            break
    if anchor is None:
        return path.stem
    dotted = parts[anchor:-1] + [path.stem]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def _suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Line number -> rule names disabled on that line."""
    table: Dict[int, FrozenSet[str]] = {}
    reader = io.StringIO(source).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            name.strip()
            for name in match.group(1).replace(" ", ",").split(",")
            if name.strip()
        )
        if rules:
            table[token.start[0]] = rules
    return table


@dataclass
class ModuleInfo:
    """One parsed source file plus everything rules need to know."""

    path: Path
    display_path: str
    name: str
    tree: ast.Module
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: Import-alias table (:func:`~repro.lint.callgraph.import_aliases`),
    #: computed once at parse time for every rule to share.
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, display_path: Optional[str] = None) -> "ModuleInfo":
        """Parse ``path``; raises ``SyntaxError`` on unparsable source."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            display_path=display_path or str(path),
            name=module_name_for_path(path),
            tree=tree,
            suppressions=_suppressions(source),
            aliases=import_aliases(tree),
        )

    def suppresses(self, line: int, rule: str) -> bool:
        """True when a comment on ``line`` disables ``rule`` (or all)."""
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or SUPPRESS_ALL in rules)

    @classmethod
    def locate_sibling(
        cls, module: "ModuleInfo", dotted: str
    ) -> Optional["ModuleInfo"]:
        """Load ``dotted`` (e.g. ``repro.registry``) from the same tree
        ``module`` came from, for cross-module rules run on a subset of
        files that does not include the registry itself."""
        parts = dotted.split(".")
        root = parts[0]
        for parent in module.path.parents:
            if parent.name == root:
                candidate = parent.joinpath(*parts[1:]).with_suffix(".py")
                if candidate.is_file():
                    try:
                        return cls.parse(candidate)
                    except SyntaxError:
                        return None
        return None
