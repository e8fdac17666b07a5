"""Cross-module dataflow rules over the project call graph.

These rules check invariants no single-module AST pass can see:

* :class:`NoUnchargedDiskRead` — every ``DiskArray.charge`` call site
  must be *pool-sanctioned* (flow through the attached
  :class:`~repro.parallel.cache.BufferPool`, or sit behind an explicit
  ``cache is None`` cold-path guard), wherever in the tree it lives; the
  finding names the engine/simulator entry point that reaches it.
* :class:`TracerGuardRequired` — hot-path calls into a
  :class:`~repro.obs.tracer.Tracer` must be dominated by a
  ``tracer.enabled`` guard so the null tracer stays zero-overhead.
* :class:`MetricInCatalogue` — metric-name string literals passed to a
  :class:`~repro.obs.metrics.MetricsRegistry` must exist in
  ``METRIC_CATALOGUE`` (checked statically, with the declared kind).
* :class:`NoUnvalidatedSchemeString` — scheme names/aliases resolve
  through :mod:`repro.registry`, never ad-hoc string comparison.

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
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import CallGraph, ProjectIndex, dotted_name
from repro.lint.config import LintConfig, module_matches
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.rules import Rule

__all__ = [
    "NoUnchargedDiskRead",
    "TracerGuardRequired",
    "MetricInCatalogue",
    "NoUnvalidatedSchemeString",
    "DATAFLOW_RULES",
]

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Dotted-name fragments identifying a buffer-pool-ish receiver.
_POOLISH = ("cache", "pool", "buffer")


def _is_poolish(name: Optional[str]) -> bool:
    """True when a dotted name plausibly denotes the buffer pool."""
    if not name:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _POOLISH)


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


def _module_functions(module: ModuleInfo) -> Iterator[ast.AST]:
    """Every function/method definition in ``module`` (including nested)."""
    for node in ast.walk(module.tree):
        if isinstance(node, _FUNC_TYPES):
            yield node


class NoUnchargedDiskRead(Rule):
    """Upgrade of ``charge-through-buffer-pool`` from module-allowlist to
    whole-program dataflow: *any* ``DiskArray.charge`` call — including
    those inside the sanctioned engine modules — must either follow a
    buffer-pool lookup (``pool.access(...)`` earlier in the same
    function) or sit behind an explicit ``cache is None`` cold-path
    guard.  The finding reports the engine/simulator entry point whose
    call chain reaches the uncharged read, so a helper module smuggling
    raw disk reads under an engine is caught even though the engine
    module itself is allow-listed by the older local rule."""

    name = "no-uncharged-disk-read"
    summary = ("DiskArray.charge call that bypasses the buffer pool "
               "(no pool.access flow, no `cache is None` guard)")
    default_scope = ("repro",)
    #: Window queries are cold-by-design (no pool yet, documented in
    #: docs/linting.md); the disks/cache modules define the primitives.
    default_exempt = (
        "repro.parallel.window",
        "repro.parallel.disks",
        "repro.parallel.cache",
    )
    example_bad = (
        "def fetch(self, leaf):\n"
        "    self.disks.charge(leaf)         # no pool flow, no guard\n"
        "    return self.store.read_page(leaf)"
    )
    example_good = (
        "def fetch(self, leaf):\n"
        "    if self.cache is None or not self.cache.access(page_id):\n"
        "        self.disks.charge(leaf)     # miss (or cold) path only\n"
        "    return self.store.read_page(leaf)"
    )

    @staticmethod
    def _pool_access_lines(func: ast.AST) -> List[int]:
        """Line numbers of buffer-pool ``.access(...)`` lookups."""
        lines: List[int] = []
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "access"
                and _is_poolish(dotted_name(node.func.value))
            ):
                lines.append(node.lineno)
        return lines

    @staticmethod
    def _cache_none_guard(guards: Sequence[ast.expr]) -> bool:
        """True when a dominating test compares a pool name with None."""
        for guard in guards:
            for node in ast.walk(guard):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
                ):
                    continue
                operands = [node.left, *node.comparators]
                if any(
                    _is_poolish(dotted_name(operand)) for operand in operands
                ):
                    return True
        return False

    def _unsanctioned_charges(
        self, func: ast.AST
    ) -> Iterator[ast.Call]:
        """Charge calls in ``func`` with neither pool flow nor guard."""
        access_lines = self._pool_access_lines(func)
        for node, guards in _walk_with_guards(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "charge"
            ):
                continue
            if any(line <= node.lineno for line in access_lines):
                continue
            if self._cache_none_guard(guards):
                continue
            yield node

    def _entry_points(self, index: ProjectIndex, config: LintConfig) -> List[str]:
        """Engine/simulator entry-point qualnames of this project."""
        return sorted(
            qualname
            for qualname, info in index.functions.items()
            if info.module.name.startswith("repro.parallel")
            and info.name in config.entry_point_names
            and info.class_name is not None
        )

    def check_project(
        self, modules: Sequence[ModuleInfo], config: LintConfig
    ) -> Iterator[Finding]:
        """Flag unsanctioned charge sites, naming a reaching entry point."""
        in_scope = [m for m in modules if self.applies_to(m.name, config)]
        if not in_scope:
            return
        index = ProjectIndex(list(modules))
        graph: Optional[CallGraph] = None
        entries: List[str] = []
        for module in in_scope:
            for qualname, info in index.functions.items():
                if info.module is not module:
                    continue
                for call in self._unsanctioned_charges(info.node):
                    if graph is None:
                        graph = CallGraph(index)
                        entries = self._entry_points(index, config)
                    chain = ""
                    for entry in entries:
                        path = graph.find_path(entry, qualname)
                        if path and len(path) > 1:
                            chain = (
                                "; reached from " + " -> ".join(path)
                            )
                            break
                    yield self.finding(
                        module, call,
                        f"DiskArray read in {qualname} is charged without "
                        f"flowing through the attached BufferPool (no "
                        f"pool.access(...) before it and no `cache is "
                        f"None` cold-path guard){chain}",
                    )


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

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterator[Finding]:
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


class MetricInCatalogue(Rule):
    """``MetricsRegistry`` refuses undeclared names at runtime; this rule
    moves the check to lint time so an undocumented metric cannot even be
    merged.  Every string literal passed to ``.counter`` /
    ``.vector_counter`` / ``.histogram`` must appear in
    ``repro.obs.metrics.METRIC_CATALOGUE`` with the matching kind."""

    name = "metric-in-catalogue"
    summary = ("metric-name literal not declared (or declared with a "
               "different kind) in repro.obs.metrics.METRIC_CATALOGUE")
    default_scope = ("repro",)
    default_exempt = ("repro.obs.metrics",)
    example_bad = 'registry.counter("pages_fetched")   # not in the catalogue'
    example_good = (
        "# repro/obs/metrics.py\n"
        'METRIC_CATALOGUE = {..., "pages_fetched": "counter"}\n'
        "# call site\n"
        'registry.counter("pages_fetched")'
    )

    _KIND_FOR_METHOD = {
        "counter": "counter",
        "vector_counter": "vector",
        "histogram": "histogram",
    }

    @staticmethod
    def _parse_catalogue(module: ModuleInfo) -> Dict[str, str]:
        """``name -> kind`` parsed from the METRIC_CATALOGUE literal."""
        catalogue: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "METRIC_CATALOGUE"
                for t in targets
            ):
                continue
            value = node.value
            for call in ast.walk(value):
                if not isinstance(call, ast.Call):
                    continue
                strings = [
                    arg.value
                    for arg in call.args[:2]
                    if isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                ]
                if len(strings) == 2:
                    catalogue[strings[0]] = strings[1]
        return catalogue

    def _metric_calls(
        self, module: ModuleInfo
    ) -> Iterator[Tuple[ast.Call, str, str]]:
        """``(call, literal_name, registry_kind)`` triples in ``module``."""
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._KIND_FOR_METHOD
            ):
                continue
            if not (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            yield (
                node,
                node.args[0].value,
                self._KIND_FOR_METHOD[node.func.attr],
            )

    def check_project(
        self, modules: Sequence[ModuleInfo], config: LintConfig
    ) -> Iterator[Finding]:
        """Cross-check metric literals against the parsed catalogue."""
        in_scope = [m for m in modules if self.applies_to(m.name, config)]
        sites = [
            (module, call, name, kind)
            for module in in_scope
            for call, name, kind in self._metric_calls(module)
        ]
        if not sites:
            return
        catalogue_module = next(
            (m for m in modules if m.name == config.catalogue_module), None
        )
        if catalogue_module is None:
            catalogue_module = ModuleInfo.locate_sibling(
                sites[0][0], config.catalogue_module
            )
        if catalogue_module is None:
            module, call, name, _ = sites[0]
            yield self.finding(
                module, call,
                f"metric catalogue module {config.catalogue_module} not "
                f"found; metric name {name!r} cannot be checked",
            )
            return
        catalogue = self._parse_catalogue(catalogue_module)
        for module, call, name, kind in sites:
            declared = catalogue.get(name)
            if declared is None:
                yield self.finding(
                    module, call,
                    f"metric {name!r} is not declared in "
                    f"{config.catalogue_module}.METRIC_CATALOGUE; declare "
                    f"it (and regenerate docs/observability.md) before "
                    f"recording it",
                )
            elif declared != kind:
                yield self.finding(
                    module, call,
                    f"metric {name!r} is declared as {declared!r} in the "
                    f"catalogue but requested as {kind!r}",
                )


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
    def _scheme_literals(modules: Sequence[ModuleInfo], config: LintConfig) -> Set[str]:
        """Alias keys and scheme ``name`` attributes of the project."""
        literals: Set[str] = set()
        registry = next(
            (m for m in modules if m.name == config.registry_module), None
        )
        if registry is None and modules:
            registry = ModuleInfo.locate_sibling(
                modules[0], config.registry_module
            )
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
        suffix = config.scheme_suffix
        for module in modules:
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.ClassDef)
                    and node.name.endswith(suffix)
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

    def check_project(
        self, modules: Sequence[ModuleInfo], config: LintConfig
    ) -> Iterator[Finding]:
        """Flag scheme-literal comparisons outside the registry."""
        in_scope = [m for m in modules if self.applies_to(m.name, config)]
        if not in_scope:
            return
        literals = self._scheme_literals(list(modules), config)
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


#: The cross-module rules, in reporting order.
DATAFLOW_RULES: Tuple[type, ...] = (
    NoUnchargedDiskRead,
    TracerGuardRequired,
    MetricInCatalogue,
    NoUnvalidatedSchemeString,
)
