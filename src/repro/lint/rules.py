"""The repo-specific lint rules.

Each rule machine-checks one invariant that the paper's guarantees (or a
prior PR's contract) depend on; ``docs/linting.md`` maps every rule to
the claim it protects.  Rules are AST visitors over one module
(:meth:`Rule.check_module`) or over the whole linted tree at once
(:meth:`Rule.check_project`), which reads the one
:class:`~repro.lint.callgraph.ProjectIndex` built per run.  The "call X
only inside module Y" rules are rows of one table
(:data:`CONFINED_CALLS`) checked by :class:`ConfinedCall`.  Each rule's
tunables are module constants next to the rule that reads them.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.callgraph import ProjectIndex, dotted_name, resolve_alias
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo

__all__ = [
    "Rule",
    "RULES",
    "CONFINED_CALLS",
    "ConfinedCall",
    "module_matches",
]


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


def _global_rng_call(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """A call to the process-global numpy or stdlib RNG."""
    local = dotted_name(call.func)
    if local is None:
        return None
    target = resolve_alias(aliases, local)
    if target.startswith("numpy.random."):
        attribute = target.split(".", 2)[2].split(".")[0]
        if attribute not in RNG_ALLOWED:
            return (
                f"call to global numpy.random.{attribute}; pass a "
                f"seeded numpy.random.Generator "
                f"(np.random.default_rng(seed)) instead"
            )
    elif target.startswith("random."):
        attribute = target.split(".")[1]
        return (
            f"call to stdlib random.{attribute} uses hidden global "
            f"state; use an injected numpy.random.Generator"
        )
    return None


def _disk_charge(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """A ``DiskArray.charge`` call."""
    if isinstance(call.func, ast.Attribute) and call.func.attr == "charge":
        return (
            "page reads must be charged through the buffer-pool "
            "engine (repro.parallel.engine; window queries are cold) "
            "so only cache misses hit the DiskArray"
        )
    return None


def _print_call(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """A ``print()`` call."""
    if isinstance(call.func, ast.Name) and call.func.id == "print":
        return (
            "library modules must not print; return data and let "
            "the CLI (repro.cli) render it"
        )
    return None


#: multiprocessing top-level factories that silently bind the
#: platform-default start method (``fork`` on Linux, ``spawn`` on
#: macOS/Windows) — exactly the nondeterminism ``ctx-required`` bans.
MP_BARE_FACTORIES = frozenset(
    {
        "Process",
        "Pool",
        "Queue",
        "SimpleQueue",
        "JoinableQueue",
        "Lock",
        "RLock",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Condition",
        "Barrier",
        "Value",
        "Array",
        "RawValue",
        "RawArray",
    }
)


def _bare_mp_factory(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
    """A ``multiprocessing`` factory called on the module itself."""
    local = dotted_name(call.func)
    if local is None:
        return None
    final = local.rsplit(".", 1)[-1]
    resolved = resolve_alias(aliases, local)
    if final in MP_BARE_FACTORIES and resolved == f"multiprocessing.{final}":
        return (
            f"bare multiprocessing.{final} binds the "
            f"platform-default start method (fork on Linux, spawn "
            f"on macOS/Windows) and makes behavior "
            f"platform-dependent; create an explicit context — "
            f'ctx = multiprocessing.get_context("spawn") — and '
            f"call ctx.{final}"
        )
    return None


class ConfinedCall(Rule):
    """A "call X only inside module Y" rule, one row of
    :data:`CONFINED_CALLS`: every call ``match`` recognizes (it returns
    the finding text) in a module of ``scope`` outside ``exempt`` is a
    finding.  ``rationale`` is the *why* ``--explain`` prints."""

    def __init__(
        self,
        name: str,
        summary: str,
        rationale: str,
        scope: Tuple[str, ...],
        exempt: Tuple[str, ...],
        match: Callable[[ast.Call, Dict[str, str]], Optional[str]],
        example_bad: str,
        example_good: str,
    ):
        self.name = name
        self.summary = summary
        self.__doc__ = rationale
        self.default_scope = scope
        self.default_exempt = exempt
        self.match = match
        self.example_bad = example_bad
        self.example_good = example_good

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag every call the row's matcher recognizes."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                message = self.match(node, module.aliases)
                if message is not None:
                    yield self.finding(module, node, message)


CONFINED_CALLS: Tuple[ConfinedCall, ...] = (
    ConfinedCall(
        name="seeded-rng-only",
        summary=("global numpy.random.* / random.* call; inject a seeded "
                 "numpy.random.Generator instead"),
        rationale=(
            "Experiments must be deterministic: Figures 3-7 are "
            "reproduced from fixed seeds, so randomness must flow "
            "through an injected, seeded ``numpy.random.Generator`` — "
            "never the process-global RNG state."
        ),
        scope=("repro", "tests", "benchmarks"),
        exempt=(),
        match=_global_rng_call,
        example_bad="points = np.random.uniform(size=(n, d))",
        example_good=(
            "rng = np.random.default_rng(seed)\n"
            "points = rng.uniform(size=(n, d))"
        ),
    ),
    ConfinedCall(
        name="charge-through-buffer-pool",
        summary=("DiskArray.charge outside the sanctioned engine modules "
                 "bypasses the buffer pool"),
        rationale=(
            "Only cache *misses* may be charged to the simulated "
            "``DiskArray``.  Any ``.charge()`` call outside the modules "
            "that charge today — the engine shell's one pool-aware "
            "charge site and the ``DiskArray`` itself — bypasses the "
            "buffer pool and silently inflates I/O counts."
        ),
        scope=("repro",),
        exempt=("repro.parallel.engine", "repro.parallel.disks"),
        match=_disk_charge,
        example_bad=(
            "def fetch(disks, leaf):\n"
            "    disks.charge(leaf)          # bypasses the buffer pool\n"
            "    return leaf.entries"
        ),
        example_good=(
            "# Let the engine read the page: it consults the attached\n"
            "# BufferPool and charges the DiskArray only on a miss.\n"
            "result = engine.query(point, k)\n"
            "pages = result.pages_per_disk"
        ),
    ),
    ConfinedCall(
        name="no-print-outside-cli",
        summary="print() in a library module; route output through the CLI",
        rationale=(
            "Library modules are imported by engines, simulators, and "
            "tests; stray ``print`` output corrupts reports and "
            "benchmark pipelines. Output belongs to the CLI layer (and "
            "``experiments.report``)."
        ),
        scope=("repro",),
        exempt=(
            "repro.cli",
            "repro.__main__",
            "repro.experiments.report",
            "repro.lint.cli",
            "repro.lint.__main__",
            "repro.obs.catalogue",
        ),
        match=_print_call,
        example_bad=(
            "def query(self, point, k):\n"
            '    print(f"visited {self.pages} pages")   # corrupts pipelines'
        ),
        example_good=(
            "def query(self, point, k):\n"
            "    ...\n"
            "    return QueryResult(neighbors, pages)   # CLI renders it"
        ),
    ),
    ConfinedCall(
        name="ctx-required",
        summary=(
            "bare multiprocessing.Process/Queue/Lock; use an explicit "
            "get_context(...) handle"
        ),
        rationale=(
            "``multiprocessing.Process()`` binds the platform-default "
            "start method: ``fork`` on Linux, ``spawn`` on "
            "macOS/Windows.  Forked workers inherit mmap views, locks, "
            "and tracer state that spawned workers must reconstruct — "
            "so code that only ever ran under fork is routinely broken "
            "under spawn, and results can differ between the two.  The "
            'process engine pins ``get_context("forkserver")``: each '
            "worker is forked from a clean interpreter that preloaded "
            "numpy and the engine, and inherits nothing from the "
            "coordinator, as under spawn.  This rule bans the bare "
            "module-level factories so the choice stays explicit "
            "everywhere."
        ),
        scope=("repro",),
        exempt=(),
        match=_bare_mp_factory,
        example_bad=(
            "import multiprocessing\n"
            "\n"
            "queue = multiprocessing.Queue()\n"
            "proc = multiprocessing.Process(target=work, args=(queue,))\n"
        ),
        example_good=(
            "import multiprocessing\n"
            "\n"
            'ctx = multiprocessing.get_context("spawn")\n'
            "queue = ctx.Queue()\n"
            "proc = ctx.Process(target=work, args=(queue,))\n"
        ),
    ),
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


#: Module prefixes where ``no-missing-public-docstring`` escalates from
#: warn to error (the linter's dogfood scope).
DOCSTRING_ERROR_SCOPE = ("repro.lint",)


class NoMissingPublicDocstring(Rule):
    """The observability contract is documented *at* the API surface:
    every public class/function in ``repro.parallel`` and ``repro.obs``
    states what it does (and, for query paths, which trace events it
    emits).  Advisory in the instrumented packages — a warning, not a
    failure — so refactors are not blocked mid-flight; *escalated to
    error* inside the correctness tooling itself (``repro.lint``, per
    ``DOCSTRING_ERROR_SCOPE``): the linter dogfoods its own
    documentation bar."""

    name = "no-missing-public-docstring"
    summary = ("public def/class without a docstring in the instrumented "
               "packages (advisory; error in repro.lint)")
    severity = "warn"
    default_scope = ("repro.parallel", "repro.obs", "repro.lint",
                     "repro.serve")
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


#: The per-module rules, in reporting order.
RULES: Tuple[Rule, ...] = (
    *CONFINED_CALLS,
    UseCoreBits(),
    NoFloatEq(),
    NoBroadExcept(),
    NoMissingPublicDocstring(),
)
