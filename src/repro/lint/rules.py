"""The repo-specific lint rules.

Each rule machine-checks one invariant that the paper's guarantees (or a
prior PR's contract) depend on; ``docs/linting.md`` maps every rule to
the claim it protects.  Rules are AST visitors over one module
(:meth:`Rule.check_module`) or over the whole linted tree at once
(:meth:`Rule.check_project` — used by ``registry-completeness``), which
reads the one :class:`~repro.lint.callgraph.ProjectIndex` built per run.
Each rule's tunables are module constants next to the rule that reads
them.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Iterator, List, Sequence, Tuple, Type

from repro.lint.callgraph import ProjectIndex, dotted_name, resolve_alias
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo

__all__ = ["Rule", "RULES", "rule_names", "module_matches"]


def module_matches(module: str, prefixes: Tuple[str, ...]) -> bool:
    """True if ``module`` equals or lives under any dotted ``prefix``."""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


class Rule:
    """Base class: name, docs, and default module scope."""

    name: str = "abstract"
    summary: str = ""
    #: ``"error"`` fails the lint run; ``"warn"`` is advisory only.
    severity: str = "error"
    #: Dotted-module prefixes the rule applies to by default.
    default_scope: Tuple[str, ...] = ("repro",)
    #: Prefixes inside the scope that are sanctioned by default.
    default_exempt: Tuple[str, ...] = ()
    #: Minimal offending snippet, rendered by ``--explain``.
    example_bad: str = ""
    #: The sanctioned counterpart, rendered by ``--explain``.
    example_good: str = ""

    def applies_to(self, module: str) -> bool:
        """True when this rule should check dotted module ``module``."""
        return module_matches(module, self.default_scope) and not (
            module_matches(module, self.default_exempt)
        )

    def in_scope(self, index: ProjectIndex) -> List[ModuleInfo]:
        """The linted modules this rule applies to, in lint order."""
        return [m for m in index.modules if self.applies_to(m.name)]

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Findings for one module in isolation (default: none)."""
        return iter(())

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Findings needing the whole linted tree at once (default: none)."""
        return iter(())

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` at ``node`` with this rule's severity."""
        return Finding(module.display_path, getattr(node, "lineno", 1),
                       self.name, message, severity=self.severity)


#: ``numpy.random`` attributes that are deterministic-by-construction and
#: therefore allowed: creating a seeded generator is the sanctioned way in.
RNG_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


class SeededRngOnly(Rule):
    """Experiments must be deterministic: Figures 3-7 are reproduced from
    fixed seeds, so randomness must flow through an injected, seeded
    ``numpy.random.Generator`` — never the process-global RNG state."""

    name = "seeded-rng-only"
    summary = ("global numpy.random.* / random.* call; inject a seeded "
               "numpy.random.Generator instead")
    default_scope = ("repro", "tests", "benchmarks")
    #: The sanitizer's RNG guard reads global state on purpose (to detect
    #: exactly this misuse at runtime).
    default_exempt = ("repro.sanitize.runtime",)
    example_bad = "points = np.random.uniform(size=(n, d))"
    example_good = (
        "rng = np.random.default_rng(seed)\n"
        "points = rng.uniform(size=(n, d))"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag global-RNG calls resolved through import aliases."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            local = dotted_name(node.func)
            if local is None:
                continue
            target = resolve_alias(module.aliases, local)
            if target.startswith("numpy.random."):
                attribute = target.split(".", 2)[2].split(".")[0]
                if attribute not in RNG_ALLOWED:
                    yield self.finding(
                        module, node,
                        f"call to global numpy.random.{attribute}; pass a "
                        f"seeded numpy.random.Generator "
                        f"(np.random.default_rng(seed)) instead",
                    )
            elif target.startswith("random."):
                attribute = target.split(".")[1]
                yield self.finding(
                    module, node,
                    f"call to stdlib random.{attribute} uses hidden global "
                    f"state; use an injected numpy.random.Generator",
                )


class UseCoreBits(Rule):
    """``col`` is O(d) bit-exact only because all bucket bit arithmetic
    funnels through ``repro.core.bits`` (Def. 6, Lemma 6).  Ad-hoc
    popcount/Hamming reimplementations drift out from under the proofs
    and the property tests that pin them."""

    name = "use-core-bits"
    summary = ("ad-hoc bit twiddling; call repro.core.bits.popcount / "
               "hamming_distance")
    default_scope = ("repro", "tests", "benchmarks")
    default_exempt = ("repro.core.bits", "tests.test_bits")
    example_bad = 'ones = bin(mask).count("1")'
    example_good = (
        "from repro.core.bits import popcount\n"
        "ones = popcount(mask)"
    )

    @staticmethod
    def _is_count_of_ones(node: ast.Call) -> bool:
        """``bin(x).count("1")`` or ``format(x, "b").count("1")``."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "count"):
            return False
        if not (
            len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "1"
        ):
            return False
        receiver = func.value
        if not isinstance(receiver, ast.Call):
            return False
        inner = receiver.func
        if isinstance(inner, ast.Name) and inner.id == "bin":
            return True
        return (
            isinstance(inner, ast.Name)
            and inner.id == "format"
            and len(receiver.args) == 2
            and isinstance(receiver.args[1], ast.Constant)
            and receiver.args[1].value in ("b", "#b", "064b")
        )

    @staticmethod
    def _is_kernighan_loop(node: ast.While) -> bool:
        """``while x: ...; x &= x - 1`` — the classic popcount loop."""
        for child in ast.walk(node):
            if (
                isinstance(child, ast.AugAssign)
                and isinstance(child.op, ast.BitAnd)
                and isinstance(child.target, ast.Name)
                and isinstance(child.value, ast.BinOp)
                and isinstance(child.value.op, ast.Sub)
                and isinstance(child.value.left, ast.Name)
                and child.value.left.id == child.target.id
            ):
                return True
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag popcount/Hamming reimplementations."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if self._is_count_of_ones(node):
                    yield self.finding(
                        module, node,
                        'bin(x).count("1") reimplements popcount; call '
                        "repro.core.bits.popcount",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "bit_count"
                    and not node.args
                ):
                    yield self.finding(
                        module, node,
                        "x.bit_count() bypasses repro.core.bits; call "
                        "popcount / hamming_distance so the O(d) hot path "
                        "stays in one audited module",
                    )
            elif isinstance(node, ast.While) and self._is_kernighan_loop(node):
                yield self.finding(
                    module, node,
                    "manual clear-lowest-set-bit popcount loop; call "
                    "repro.core.bits.popcount",
                )


class ChargeThroughBufferPool(Rule):
    """PR 1's contract: only cache *misses* may be charged to the
    simulated ``DiskArray``.  Any ``.charge()`` call outside the
    sanctioned engine/simulator/cache modules bypasses the buffer pool
    and silently inflates I/O counts."""

    name = "charge-through-buffer-pool"
    summary = ("DiskArray.charge outside the sanctioned engine modules "
               "bypasses the buffer pool")
    default_scope = ("repro",)
    default_exempt = (
        "repro.parallel.engine",
        "repro.parallel.paged",
        "repro.parallel.window",
        "repro.parallel.cache",
        "repro.parallel.disks",
    )
    example_bad = (
        "def fetch(disks, leaf):\n"
        "    disks.charge(leaf)          # bypasses the buffer pool\n"
        "    return leaf.entries"
    )
    example_good = (
        "# Read through the engine: PagedEngine consults its BufferPool\n"
        "# and charges the DiskArray only on a miss.\n"
        "points, oids = engine.fetch_page(leaf)"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag every DiskArray.charge call in non-exempt modules."""
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "charge"
            ):
                yield self.finding(
                    module, node,
                    "page reads must be charged through the buffer-pool "
                    "engines (repro.parallel.engine/paged/window) so only "
                    "cache misses hit the DiskArray",
                )


class NoFloatEq(Rule):
    """Distances are floating point; ``==``/``!=`` on them makes kNN
    tie-breaking and pruning depend on rounding.  Compare squared keys,
    or use ``math.isclose`` / ``numpy.isclose`` with explicit tolerance."""

    name = "no-float-eq"
    summary = "exact ==/!= on a float-valued distance expression"
    default_scope = ("repro.index", "repro.analysis")
    example_bad = "if mindist(query, mbr) == best_dist:"
    example_good = "if math.isclose(mindist(query, mbr), best_dist,\n                rel_tol=1e-12):"

    _FLOAT_CALL_NAMES = frozenset(
        {"sqrt", "norm", "mindist", "minmaxdist", "key_to_distance"}
    )

    @classmethod
    def _is_floatish(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return cls._is_floatish(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Div, ast.Pow)):
                return True
            return cls._is_floatish(node.left) or cls._is_floatish(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else ""
            )
            lowered = name.lower()
            return lowered in cls._FLOAT_CALL_NAMES or "dist" in lowered
        return False

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag exact ==/!= between float-valued expressions."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._is_floatish(operand) for operand in operands):
                yield self.finding(
                    module, node,
                    "exact ==/!= on a float distance expression is "
                    "rounding-dependent; compare squared keys or use "
                    "math.isclose with an explicit tolerance",
                )


class NoPrintOutsideCli(Rule):
    """Library modules are imported by engines, simulators, and tests;
    stray ``print`` output corrupts reports and benchmark pipelines.
    Output belongs to the CLI layer (and ``experiments.report``)."""

    name = "no-print-outside-cli"
    summary = "print() in a library module; route output through the CLI"
    default_scope = ("repro",)
    default_exempt = (
        "repro.cli",
        "repro.__main__",
        "repro.experiments.report",
        "repro.lint.cli",
        "repro.lint.__main__",
        "repro.obs.catalogue",
        "repro.sanitize.cli",
        "repro.sanitize.__main__",
    )
    example_bad = (
        "def query(self, point, k):\n"
        '    print(f"visited {self.pages} pages")   # corrupts pipelines'
    )
    example_good = (
        "def query(self, point, k):\n"
        "    ...\n"
        "    return QueryResult(neighbors, pages)   # CLI renders it"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag print() calls in library modules."""
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module, node,
                    "library modules must not print; return data and let "
                    "the CLI (repro.cli) render it",
                )


class NoBroadExcept(Rule):
    """``except Exception`` hides the precise failure modes the
    reproduction scorecard is meant to distinguish; catch the specific
    types a checker can actually raise."""

    name = "no-broad-except"
    summary = "bare/over-broad except; catch specific exception types"
    default_scope = ("repro",)
    example_bad = (
        "try:\n"
        "    store = MmapStore(path)\n"
        "except Exception:\n"
        "    store = None"
    )
    example_good = (
        "try:\n"
        "    store = MmapStore(path)\n"
        "except (OSError, PageFormatError):\n"
        "    store = None"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag bare and Exception/BaseException handlers."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare except catches SystemExit/KeyboardInterrupt too; "
                    "name the exception types this block can really handle",
                )
                continue
            names = (
                [elt for elt in node.type.elts]
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for caught in names:
                dotted = dotted_name(caught) or ""
                if dotted.split(".")[-1] in ("Exception", "BaseException"):
                    yield self.finding(
                        module, node,
                        f"except {dotted} is too broad; catch the specific "
                        f"failure types instead",
                    )
                    break


#: The module holding the scheme registry that ``registry-completeness``
#: and ``no-unvalidated-scheme-string`` check against.
REGISTRY_MODULE = "repro.registry"
#: Class-name suffix identifying a declustering scheme definition.
SCHEME_SUFFIX = "Declusterer"
#: Scheme class names that are abstract bases, not registrable.
ABSTRACT_SCHEMES = ("Declusterer", "BucketDeclusterer")


class RegistryCompleteness(Rule):
    """Every declustering scheme defined in ``core/`` and ``baselines/``
    must be reachable from the CLI/harness registry
    (``repro.registry.DECLUSTERERS``), or experiments silently stop
    covering it."""

    name = "registry-completeness"
    summary = "declustering scheme not registered in repro.registry"
    default_scope = ("repro.core", "repro.baselines")
    example_bad = (
        "# repro/baselines/shiny.py — never imported by repro.registry\n"
        "class ShinyDeclusterer(Declusterer): ..."
    )
    example_good = (
        "# repro/registry.py\n"
        'DECLUSTERERS["shiny"] = ShinyDeclusterer'
    )

    @staticmethod
    def _scheme_classes(module: ModuleInfo) -> Iterator[ast.ClassDef]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_") or node.name in ABSTRACT_SCHEMES:
                continue
            base_names = [
                (dotted_name(base) or "").split(".")[-1]
                for base in node.bases
            ]
            if node.name.endswith(SCHEME_SUFFIX) and any(
                name.endswith(SCHEME_SUFFIX) or name == "ABC"
                for name in base_names
            ):
                yield node

    @staticmethod
    def _registered_names(registry: ModuleInfo) -> frozenset:
        names = set()
        for node in ast.walk(registry.tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        return frozenset(names)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Cross-check scheme classes against the registry module."""
        schemes: List[Tuple[ModuleInfo, ast.ClassDef]] = [
            (module, node)
            for module in self.in_scope(index)
            for node in self._scheme_classes(module)
        ]
        if not schemes:
            return
        registry = index.find_module(REGISTRY_MODULE, schemes[0][0])
        if registry is None:
            module, node = schemes[0]
            yield self.finding(
                module, node,
                f"registry module {REGISTRY_MODULE} not found; "
                f"schemes cannot be checked for CLI/harness reachability",
            )
            return
        registered = self._registered_names(registry)
        for module, node in schemes:
            if node.name not in registered:
                yield self.finding(
                    module, node,
                    f"scheme {node.name} is not referenced by "
                    f"{REGISTRY_MODULE}; register it in DECLUSTERERS "
                    f"so the CLI and harness can reach it",
                )


#: Module prefixes where ``no-missing-public-docstring`` escalates from
#: warn to error (the lint/sanitizer dogfood scope).
DOCSTRING_ERROR_SCOPE = ("repro.lint", "repro.sanitize")


class NoMissingPublicDocstring(Rule):
    """The observability contract is documented *at* the API surface:
    every public class/function in ``repro.parallel`` and ``repro.obs``
    states what it does (and, for query paths, which trace events it
    emits).  Advisory in the instrumented packages — a warning, not a
    failure — so refactors are not blocked mid-flight; *escalated to
    error* inside the correctness tooling itself (``repro.lint`` and
    ``repro.sanitize``, per ``DOCSTRING_ERROR_SCOPE``): the
    linter dogfoods its own documentation bar."""

    name = "no-missing-public-docstring"
    summary = ("public def/class without a docstring in the instrumented "
               "packages (advisory; error in repro.lint/repro.sanitize)")
    severity = "warn"
    default_scope = ("repro.parallel", "repro.obs", "repro.lint",
                     "repro.sanitize", "repro.serve")
    example_bad = (
        "class PagedEngine:\n"
        "    def query(self, point, k):\n"
        "        ..."
    )
    example_good = (
        "class PagedEngine:\n"
        "    def query(self, point, k):\n"
        '        """kNN over mmap pages; emits page_read trace events."""'
    )

    def _undocumented(
        self, body: Sequence[ast.stmt], owner: str
    ) -> Iterator[Tuple[ast.AST, str]]:
        for node in body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("_"):
                continue
            qualified = f"{owner}{node.name}" if owner else node.name
            if ast.get_docstring(node) is None:
                yield node, qualified
            if isinstance(node, ast.ClassDef):
                yield from self._undocumented(node.body, f"{qualified}.")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag undocumented publics (error-severity in the dogfood scope)."""
        escalate = module_matches(module.name, DOCSTRING_ERROR_SCOPE)
        for node, qualified in self._undocumented(module.tree.body, ""):
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            found = self.finding(
                module, node,
                f"public {kind} {qualified} has no docstring; state what "
                f"it does and which trace events (if any) it emits",
            )
            if escalate:
                found = replace(found, severity="error")
            yield found


#: Registered rule classes, in reporting order.
RULES: Tuple[Type[Rule], ...] = (
    SeededRngOnly,
    UseCoreBits,
    ChargeThroughBufferPool,
    NoFloatEq,
    NoPrintOutsideCli,
    NoBroadExcept,
    RegistryCompleteness,
    NoMissingPublicDocstring,
)


def rule_names() -> Tuple[str, ...]:
    """Names of the per-module rules (excludes the dataflow layer; see
    ``repro.lint.engine.all_rule_names`` for the complete set)."""
    return tuple(rule.name for rule in RULES)
