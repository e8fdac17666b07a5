"""Project-wide symbol table, call graph and the shared AST toolkit.

The per-module rules in :mod:`repro.lint.rules` see one AST at a time;
the dataflow rules in :mod:`repro.lint.dataflow` need to answer
*whole-program* questions — "can an engine entry point reach this
``DiskArray.charge`` call?" — so this module builds the shared
infrastructure once per lint run:

* :class:`ProjectIndex` — every function/method in the linted tree under
  its dotted qualified name (``repro.parallel.engine.ParallelEngine
  ._fetch``), resolved through each module's import-alias table;
* :class:`CallGraph` — resolved call edges between those functions,
  built on first use (``ProjectIndex.call_graph``).

It is also the one home of the AST helpers every rule family uses:
:func:`dotted_name`, :func:`import_aliases`, the alias-only
:func:`resolve_alias` (``ProjectIndex.resolve`` additionally falls back
to the local module), :func:`own_nodes` and :func:`class_qualname`.

Resolution is deliberately conservative-but-useful (class-hierarchy-
analysis style): ``self.m(...)`` resolves to the enclosing class's own
method, then to project-local base classes; plain and dotted names
resolve through the import table; an attribute call that cannot be
resolved precisely (``self._engine.query(...)``) falls back to *every*
project function with that method name.  Over-approximating edges is the
right failure mode for reachability-based rules: a violation is never
hidden by a missed edge.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

if TYPE_CHECKING:
    from repro.lint.module import ModuleInfo

__all__ = ["FunctionInfo", "ProjectIndex", "CallGraph", "dotted_name",
           "import_aliases", "resolve_alias", "own_nodes", "class_qualname"]

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the absolute dotted things they refer to.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from repro.parallel
    import disks as dk`` -> ``{"dk": "repro.parallel.disks"}``;
    ``from repro.parallel.disks import DiskArray`` ->
    ``{"DiskArray": "repro.parallel.disks.DiskArray"}``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


def resolve_alias(aliases: Dict[str, str], local: str) -> str:
    """Resolve a local dotted name's head through an import table only
    (``np.frombuffer`` -> ``numpy.frombuffer``); unknown heads stay."""
    head, _, rest = local.partition(".")
    resolved = aliases.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Nodes lexically inside ``func`` but not inside a nested def."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNC_TYPES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the linted tree.

    ``qualname`` is the dotted address (module, enclosing classes, then
    the function name — nested functions chain through their parents);
    ``class_name`` is the innermost enclosing class, None for
    module-level functions.
    """

    qualname: str
    module: ModuleInfo
    node: ast.AST
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        """The unqualified function name."""
        return self.qualname.rsplit(".", 1)[-1]


def class_qualname(info: FunctionInfo) -> Optional[str]:
    """Dotted name of the class owning method ``info``, if any."""
    if info.class_name is None:
        return None
    marker = f".{info.class_name}."
    if marker not in info.qualname:
        return None
    head = info.qualname.rsplit(marker, 1)[0]
    return f"{head}.{info.class_name}"


class ProjectIndex:
    """Symbol table over every module of one lint run.

    Exposes ``modules`` (the parsed modules, in lint order),
    ``functions`` (qualname -> :class:`FunctionInfo`),
    ``by_method_name`` (unqualified name -> qualnames) for
    class-hierarchy-analysis fallbacks, ``classes`` (dotted class name ->
    ``ast.ClassDef``) and, built on first use, the :class:`CallGraph`.
    """

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: List[ModuleInfo] = list(modules)
        self.module_by_name: Dict[str, ModuleInfo] = {
            module.name: module for module in modules
        }
        self.functions: Dict[str, FunctionInfo] = {}
        self.by_method_name: Dict[str, List[str]] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        for module in modules:
            self._collect(module, module.tree.body, module.name, None)

    def _collect(
        self,
        module: ModuleInfo,
        body: Sequence[ast.stmt],
        prefix: str,
        class_name: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, _FUNC_TYPES):
                qualname = f"{prefix}.{node.name}"
                info = FunctionInfo(qualname, module, node, class_name)
                self.functions[qualname] = info
                self.by_method_name.setdefault(node.name, []).append(qualname)
                self._collect(module, node.body, qualname, class_name)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                self.classes[qualname] = node
                self._collect(module, node.body, qualname, node.name)

    def find_module(
        self, dotted: str, near: ModuleInfo
    ) -> Optional[ModuleInfo]:
        """The linted module ``dotted``, else parsed from the tree
        ``near`` came from (a run over a subset of the files)."""
        found = self.module_by_name.get(dotted)
        return found if found is not None else near.locate_sibling(
            near, dotted
        )

    @cached_property
    def call_graph(self) -> CallGraph:
        """The project's call graph, built once on first use."""
        return CallGraph(self)

    def resolve(self, module_name: str, local_dotted: str) -> str:
        """Absolute dotted name for ``local_dotted`` seen in a module.

        The head segment is resolved through the module's import table;
        unresolvable heads fall back to ``module_name.local_dotted`` so
        module-local definitions are found.
        """
        module = self.module_by_name.get(module_name)
        aliases = module.aliases if module is not None else {}
        if local_dotted.partition(".")[0] in aliases:
            return resolve_alias(aliases, local_dotted)
        return f"{module_name}.{local_dotted}"

    def base_classes(self, class_qualname: str) -> List[str]:
        """Project-local base-class qualnames of ``class_qualname``."""
        node = self.classes.get(class_qualname)
        if node is None:
            return []
        # Bases resolve in the defining module: walk off the class's own
        # name (and any enclosing classes/functions) until a module.
        module_name = class_qualname.rsplit(".", 1)[0]
        while "." in module_name and module_name not in self.module_by_name:
            module_name = module_name.rsplit(".", 1)[0]
        bases: List[str] = []
        for base in node.bases:
            local = dotted_name(base)
            if local is None:
                continue
            resolved = self.resolve(module_name, local)
            if resolved in self.classes:
                bases.append(resolved)
        return bases

    def resolve_method(
        self, class_qualname: str, method: str
    ) -> Optional[str]:
        """``Class.method`` resolved through project-local inheritance."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            candidate = f"{current}.{method}"
            if candidate in self.functions:
                return candidate
            stack.extend(self.base_classes(current))
        return None

    def resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        """Precise project-local target of ``call`` made in ``info``.

        ``self.m(...)`` resolves through the owning class's hierarchy,
        other names through the import table (then the local module); a
        call of a project class targets its ``__init__``.  None when no
        precise target exists — there is no name-based guessing here.
        """
        local = dotted_name(call.func)
        if local is None:
            return None
        if local.startswith("self."):
            rest = local[len("self."):]
            owner = class_qualname(info)
            if owner is None or "." in rest:
                return None
            return self.resolve_method(owner, rest)
        absolute = self.resolve(info.module.name, local)
        if absolute in self.functions:
            return absolute
        if absolute in self.classes:
            return self.resolve_method(absolute, "__init__")
        return None


class CallGraph:
    """Resolved call edges over a :class:`ProjectIndex`.

    ``edges[caller]`` is the set of callee qualnames.  Unresolvable
    attribute calls contribute name-based edges to every project
    function with that method name (see the module docstring for why
    over-approximation is the safe direction).
    """

    def __init__(self, index: ProjectIndex):
        self.index = index
        self.edges: Dict[str, Set[str]] = {}
        for info in index.functions.values():
            self.edges[info.qualname] = set(self._callees(info))

    def _callees(self, info: FunctionInfo) -> Iterator[str]:
        # Nested functions are reachable from their enclosing function.
        parent = info.qualname.rsplit(".", 1)[0]
        if parent in self.index.functions:
            self.edges.setdefault(parent, set()).add(info.qualname)
        for call in own_nodes(info.node):
            if not isinstance(call, ast.Call):
                continue
            resolved = self.index.resolve_call(info, call)
            if resolved is not None:
                yield resolved
                continue
            # Unresolvable attribute call — on a dotted receiver or a
            # computed one (``make()...x()``, subscripts): the graph must
            # stay over-approximating, so fall back by method name.
            local = dotted_name(call.func)
            if local is not None and (
                "." not in local
                or self.index.resolve(info.module.name, local)
                in self.index.classes
            ):
                continue
            if isinstance(call.func, ast.Attribute):
                yield from self.index.by_method_name.get(call.func.attr, ())

    # -------------------------------------------------------------- queries

    def reachable_from(self, roots: Sequence[str]) -> Set[str]:
        """Every function reachable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        queue = deque(root for root in roots if root in self.edges)
        seen.update(queue)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen

    def find_path(self, source: str, target: str) -> Optional[List[str]]:
        """Shortest call chain from ``source`` to ``target`` (BFS)."""
        if source not in self.edges:
            return None
        parents: Dict[str, str] = {}
        queue = deque([source])
        seen = {source}
        while queue:
            current = queue.popleft()
            if current == target:
                path = [current]
                while path[-1] != source:
                    path.append(parents[path[-1]])
                return list(reversed(path))
            for callee in sorted(self.edges.get(current, ())):
                if callee not in seen:
                    seen.add(callee)
                    parents[callee] = current
                    queue.append(callee)
        return None
