"""Cross-module dataflow rules over the project call graph.

These rules check invariants that need more than one lexical pass:

* :class:`TracerGuardRequired` — hot-path calls into a
  :class:`~repro.obs.tracer.Tracer` must be dominated by a
  ``tracer.enabled`` guard so the null tracer stays zero-overhead.
* :class:`NoUnvalidatedSchemeString` — scheme names/aliases resolve
  through :mod:`repro.registry`, never ad-hoc string comparison; the
  spellings are read from the registry module of the linted tree.

Guard detection is lexical dominance over the AST: a call is considered
guarded when an enclosing ``if``/conditional-expression test (or a local
flag assigned from one) establishes the required condition.  That is an
approximation — it does not prove the branch polarity — but it matches
how every sanctioned site in this repository is written and it cannot
*miss* an entirely unguarded call.
"""

from __future__ import annotations

import ast
from typing import (
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import ProjectIndex, dotted_name
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.rules import Rule

__all__ = [
    "TracerGuardRequired",
    "NoUnvalidatedSchemeString",
    "DATAFLOW_RULES",
]

def _walk_with_guards(
    node: ast.AST, guards: Tuple[ast.expr, ...] = ()
) -> Iterator[Tuple[ast.AST, Tuple[ast.expr, ...]]]:
    """Yield ``(node, enclosing_guard_tests)`` over a function body.

    Every ``if`` statement and conditional expression contributes its
    test to the guard stack of the nodes it dominates (both branches —
    see the module docstring on polarity).
    """
    yield node, guards
    if isinstance(node, ast.If):
        yield from _walk_with_guards(node.test, guards)
        extended = guards + (node.test,)
        for child in node.body + node.orelse:
            yield from _walk_with_guards(child, extended)
        return
    if isinstance(node, ast.IfExp):
        yield from _walk_with_guards(node.test, guards)
        extended = guards + (node.test,)
        yield from _walk_with_guards(node.body, extended)
        yield from _walk_with_guards(node.orelse, extended)
        return
    for child in ast.iter_child_nodes(node):
        yield from _walk_with_guards(child, guards)


class TracerGuardRequired(Rule):
    """The observability contract (docs/observability.md) promises the
    null tracer is zero-overhead: engines pay one attribute read per
    instrumented site.  That only holds if every ``RecordingTracer``-
    emitting call on a hot path is dominated by a ``tracer.enabled``
    guard (directly, or through a local flag assigned from it)."""

    name = "tracer-guard-required"
    summary = ("tracer-emitting call on a hot path without a dominating "
               "tracer.enabled guard")
    default_scope = ("repro.parallel", "repro.index")
    example_bad = "self.tracer.page_read(disk, page_id)"
    example_good = (
        "if self.tracer.enabled:\n"
        "    self.tracer.page_read(disk, page_id)"
    )

    #: Tracer methods that allocate/emit when called unguarded.  ``record``
    #: is shared with Histogram, so receivers are also vetted (below).
    _EMITTING = frozenset(
        {
            "begin_query",
            "end_query",
            "node_visit",
            "page_read",
            "cache_hit",
            "cache_miss",
            "prune",
            "record",
        }
    )

    @staticmethod
    def _tracerish_names(module: ModuleInfo) -> Set[str]:
        """Local names that (transitively) hold a tracer in ``module``."""
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in list(node.args.args) + list(node.args.kwonlyargs):
                    if "tracer" in arg.arg.lower():
                        names.add(arg.arg)
        changed = True
        while changed:
            changed = False
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Assign):
                    continue
                if (
                    isinstance(node.value, ast.Call)
                    and dotted_name(node.value.func) == "current_metrics"
                ):
                    continue  # a metrics registry, even when given a tracer
                source = ast.dump(node.value)
                mentions_tracer = (
                    "tracer" in source.lower()
                    or any(
                        isinstance(ref, ast.Name) and ref.id in names
                        for ref in ast.walk(node.value)
                    )
                )
                if not mentions_tracer:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        changed = True
        return names

    @classmethod
    def _is_tracerish(cls, name: Optional[str], local: Set[str]) -> bool:
        """True when a dotted receiver plausibly denotes a tracer."""
        if not name:
            return False
        head = name.split(".", 1)[0]
        return "tracer" in name.lower() or head in local or (
            "." in name and "tracer" in name.split(".")[-1].lower()
        )

    @staticmethod
    def _guard_flags(module: ModuleInfo, tracerish: Set[str]) -> Set[str]:
        """Local flags assigned from ``<tracer>.enabled`` expressions."""
        flags: Set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            holds_enabled = any(
                isinstance(ref, ast.Attribute) and ref.attr == "enabled"
                for ref in ast.walk(node.value)
            )
            if not holds_enabled:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    flags.add(target.id)
        return flags

    @classmethod
    def _guarded(
        cls,
        guards: Sequence[ast.expr],
        flags: Set[str],
    ) -> bool:
        """True when a dominating test checks ``.enabled`` or a flag."""
        for guard in guards:
            for node in ast.walk(guard):
                if isinstance(node, ast.Attribute) and node.attr == "enabled":
                    return True
                if isinstance(node, ast.Name) and node.id in flags:
                    return True
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag unguarded tracer emissions in ``module``."""
        tracerish = self._tracerish_names(module)
        flags = self._guard_flags(module, tracerish)
        for node, guards in _walk_with_guards(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._EMITTING
            ):
                continue
            receiver = dotted_name(node.func.value)
            if not self._is_tracerish(receiver, tracerish):
                continue
            if self._guarded(guards, flags):
                continue
            yield self.finding(
                module, node,
                f"hot-path call {receiver}.{node.func.attr}(...) is not "
                f"dominated by a `tracer.enabled` guard; wrap it in "
                f"`if tracer.enabled:` so the null tracer stays "
                f"zero-overhead",
            )


#: The module holding the scheme registry ``no-unvalidated-scheme-string``
#: reads its spellings from.
REGISTRY_MODULE = "repro.registry"
#: Class-name suffix identifying a declustering scheme definition.
SCHEME_SUFFIX = "Declusterer"


class NoUnvalidatedSchemeString(Rule):
    """Scheme spellings are registry data (``repro.registry.DECLUSTERERS``
    + ``SCHEME_ALIASES``), not code: comparing a scheme variable against
    a name/alias literal silently diverges the moment an alias is added
    or renamed.  Resolve through ``resolve_scheme``/``make_declusterer``
    instead."""

    name = "no-unvalidated-scheme-string"
    summary = ("ad-hoc ==/in comparison against a scheme name/alias "
               "literal; resolve through repro.registry")
    default_scope = ("repro",)
    default_exempt = ("repro.registry",)
    example_bad = 'if scheme == "disk_modulo": ...'
    example_good = (
        "from repro.registry import resolve_scheme\n"
        "declusterer_cls = resolve_scheme(scheme)"
    )

    @staticmethod
    def _scheme_literals(index: ProjectIndex) -> Set[str]:
        """Alias keys and scheme ``name`` attributes of the project."""
        literals: Set[str] = set()
        registry = index.find_module(REGISTRY_MODULE, index.modules[0])
        if registry is not None:
            for node in ast.walk(registry.tree):
                targets: List[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif (
                    isinstance(node, ast.AnnAssign) and node.value is not None
                ):
                    targets = [node.target]
                if not any(
                    isinstance(t, ast.Name) and t.id == "SCHEME_ALIASES"
                    for t in targets
                ):
                    continue
                if isinstance(node.value, ast.Dict):
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            literals.add(key.value)
        for module in index.modules:
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.ClassDef)
                    and node.name.endswith(SCHEME_SUFFIX)
                ):
                    continue
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.Assign)
                        and any(
                            isinstance(t, ast.Name) and t.id == "name"
                            for t in stmt.targets
                        )
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)
                    ):
                        literals.add(stmt.value.value)
        return literals

    @staticmethod
    def _schemeish(node: ast.expr) -> bool:
        """True when an expression's dotted name mentions a scheme."""
        name = dotted_name(node)
        return bool(name) and "scheme" in name.lower()

    @classmethod
    def _literal_operands(cls, node: ast.expr, literals: Set[str]) -> List[str]:
        """Scheme literals appearing in one comparison operand."""
        found: List[str] = []
        candidates: List[ast.expr] = [node]
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            candidates = list(node.elts)
        for candidate in candidates:
            if isinstance(candidate, ast.Constant) and isinstance(
                candidate.value, str
            ) and candidate.value in literals:
                found.append(candidate.value)
        return found

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Flag scheme-literal comparisons outside the registry."""
        in_scope = self.in_scope(index)
        if not in_scope:
            return
        literals = self._scheme_literals(index)
        if not literals:
            return
        for module in in_scope:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    for op in node.ops
                ):
                    continue
                operands = [node.left, *node.comparators]
                matched = [
                    literal
                    for operand in operands
                    for literal in self._literal_operands(operand, literals)
                ]
                if not matched:
                    continue
                if not any(self._schemeish(operand) for operand in operands):
                    continue
                yield self.finding(
                    module, node,
                    f"ad-hoc comparison against scheme spelling "
                    f"{matched[0]!r}; resolve through repro.registry "
                    f"(resolve_scheme / make_declusterer) so aliases "
                    f"cannot drift",
                )


#: The dataflow rules, in reporting order.
DATAFLOW_RULES: Tuple[Rule, ...] = (
    TracerGuardRequired(),
    NoUnvalidatedSchemeString(),
)
