"""Resource-lifetime & process-safety rules for the out-of-core layer.

PR 8 made the paper's parallel-disk architecture real: mmap page files
(:mod:`repro.storage`), spawn-started worker processes and a
shared-memory pruning bound (:mod:`repro.parallel.process`).  The bug
classes that silently corrupt that layer — a leaked ``PageFile``, a
read of the shared bound outside its lock — are *path* properties,
invisible to the lexical walks used by the other rule groups.  This
module pairs the per-function control-flow graphs of
:mod:`repro.lint.cfg` with the import-resolved project index of
:mod:`repro.lint.callgraph` to check them statically:

* :class:`ResourceLeak` — closeable values (``PageFile``, ``MmapStore``,
  ``mmap``, ``open()``, multiprocessing queues / shared memory) must be
  closed on **every** CFG path, including exception paths; escaping by
  ``return`` or into ``self`` on a class with an owning ``close()`` is
  sanctioned;
* :class:`SharedStateWithoutLock` — element accesses on
  ``multiprocessing`` ``Value``/``Array``/shared-memory buffers (and
  ``np.frombuffer`` views over them, tracked interprocedurally through
  call arguments and ``Process(target=..., args=...)``) outside a
  lock-held ``with`` block, honoring ``_SINGLE_WRITER`` annotations and
  callees invoked only with the lock already held.

Shared over-approximation philosophy: the CFG has spurious edges but no
missing ones, so a leak can be flagged that a human would argue away,
but a real leak is never hidden.  Sanctioned escapes, in preference
order: a ``with`` block, ``close()`` in a ``finally``, returning the
resource to the caller, storing it on ``self`` of a class that defines
``close()``/``stop()``/``shutdown()``, or — last resort — a same-line
``# repro-lint: disable=<rule>`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.callgraph import (
    _FUNC_TYPES,
    FunctionInfo,
    ProjectIndex,
    class_qualname,
    dotted_name,
    own_nodes,
    resolve_alias,
)
from repro.lint.cfg import CFG, build_cfg
from repro.lint.concurrency import (
    SINGLE_WRITER_ATTR,
    _in_spans,
    _locked_spans,
    _single_writer_attrs,
)
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.rules import Rule

__all__ = [
    "ResourceLeak",
    "SharedStateWithoutLock",
    "LIFETIME_RULES",
]

#: Class names whose constructor returns a resource that
#: ``resource-leak`` requires closed on every path (project page stores,
#: the streaming builder's spill-run temp files, plus the stdlib handles
#: they wrap).
CLOSEABLE_TYPES = (
    "PageFile",
    "PageFileWriter",
    "MmapStore",
    "SharedMemory",
    "SpillFile",
)

#: Method names that release a tracked resource when called on it.
#: ``delete`` is the spill-file release verb (close + unlink): the
#: streaming builder deletes — or adopts into a registry — every spill
#: run on every CFG path, and this rule is what enforces that.
_CLOSE_METHODS = frozenset(
    {"close", "stop", "terminate", "shutdown", "unlink", "delete"}
)

#: A class defining any of these owns the lifetime of resources stored
#: on its ``self`` — storing a handle there is a sanctioned escape.
_OWNING_CLOSERS = frozenset(
    {"close", "stop", "shutdown", "terminate", "__exit__", "__del__"}
)

#: Container-mutation methods that transfer a resource into a registry.
_CONTAINER_ADDERS = frozenset(
    {"append", "add", "extend", "insert", "register", "setdefault"}
)

_MP_QUEUE_FACTORIES = frozenset({"Queue", "SimpleQueue", "JoinableQueue"})
_MP_SHARED_FACTORIES = frozenset({"Array", "Value", "RawArray", "RawValue"})

# --------------------------------------------------------------- helpers


def _final(name: str) -> str:
    """Last segment of a dotted name."""
    return name.rsplit(".", 1)[-1]


def _mp_receiver(
    local: str, resolved: str, ctx_names: Set[str], ctx_attrs: Set[str]
) -> bool:
    """True when a factory call's receiver is ``multiprocessing`` itself
    or a known ``get_context(...)`` handle (local or ``self`` attribute)."""
    if resolved.startswith("multiprocessing."):
        return True
    parts = local.split(".")
    if len(parts) == 2 and parts[0] in ctx_names:
        return True
    return len(parts) == 3 and parts[0] == "self" and parts[1] in ctx_attrs


def _ctx_origin(call: ast.Call) -> bool:
    """True for ``multiprocessing.get_context(...)`` calls."""
    local = dotted_name(call.func)
    return local is not None and _final(local) == "get_context"


def _shared_origin(
    call: ast.Call,
    aliases: Dict[str, str],
    ctx_names: Set[str],
    ctx_attrs: Set[str],
) -> Optional[str]:
    """Description of the shared object this call constructs, if any:
    a raw array (``Raw*`` or ``lock=False``) from any receiver, a context
    handed in as an argument included."""
    local = dotted_name(call.func)
    if local is None:
        return None
    final = _final(local)
    raw = final.startswith("Raw") or any(
        kw.arg == "lock" and getattr(kw.value, "value", None) is False
        for kw in call.keywords
    )
    if final in _MP_SHARED_FACTORIES and (raw or _mp_receiver(
        local, resolve_alias(aliases, local), ctx_names, ctx_attrs
    )):
        return f"multiprocessing shared {final}"
    if final == "SharedMemory":
        return "shared-memory segment"
    return None


def _frombuffer_source(
    expr: ast.AST, aliases: Dict[str, str]
) -> Optional[ast.expr]:
    """The buffer of ``np.frombuffer(buffer, ...)``, reshaped or not:
    ``expr`` is then a view sharing its memory."""
    func = getattr(expr, "func", None)
    if isinstance(func, ast.Attribute) and func.attr == "reshape":
        expr = func.value
    if not isinstance(expr, ast.Call) or not expr.args:
        return None
    local = dotted_name(expr.func)
    if local is None or resolve_alias(aliases, local) != "numpy.frombuffer":
        return None
    return expr.args[0]


def _closeable_origin(
    call: ast.Call,
    aliases: Dict[str, str],
    ctx_names: Set[str],
    ctx_attrs: Set[str],
) -> Optional[str]:
    """Description of the closeable resource this call creates, if any."""
    local = dotted_name(call.func)
    if local is None:
        return None
    resolved = resolve_alias(aliases, local)
    if resolved in ("open", "builtins.open"):
        return "open() file handle"
    if resolved == "mmap.mmap":
        return "mmap handle"
    final = _final(local)
    if final in CLOSEABLE_TYPES:
        return f"{final} instance"
    if final in _MP_QUEUE_FACTORIES and _mp_receiver(
        local, resolved, ctx_names, ctx_attrs
    ):
        return f"multiprocessing {final}"
    return None


def _stmt_exprs(stmt: ast.AST) -> List[ast.AST]:
    """The expressions a statement's *own header* evaluates.

    A compound statement's CFG node holds the whole AST subtree, but
    only the header belongs to that node — its suites have nodes of
    their own — so path-sensitive rules must scan these, never
    ``ast.walk(stmt)``.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        headers: List[ast.AST] = []
        for item in stmt.items:
            headers.append(item.context_expr)
            if item.optional_vars is not None:
                headers.append(item.optional_vars)
        return headers
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Raise):
        return [expr for expr in (stmt.exc, stmt.cause) if expr is not None]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    match_cls = getattr(ast, "Match", None)
    if match_cls is not None and isinstance(stmt, match_cls):
        return [stmt.subject]  # type: ignore[attr-defined]
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try)
    ):
        return []
    if isinstance(stmt, ast.stmt):
        return [stmt]
    return []


def _escaping_names(expr: Optional[ast.AST]) -> Set[str]:
    """Names whose *referent* escapes when ``expr``'s value escapes.

    A name passed whole — directly, inside tuple/list/set literals or
    dict values, starred, as a call argument, or through a conditional
    expression — hands the object out.  An attribute or subscript read
    *off* the name (``handle.size``) only hands out the read value.
    """
    names: Set[str] = set()
    stack: List[ast.AST] = [] if expr is None else [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        elif isinstance(node, ast.Dict):
            stack.extend(value for value in node.values if value is not None)
        elif isinstance(node, ast.Call):
            stack.extend(node.args)
            stack.extend(keyword.value for keyword in node.keywords)
        elif isinstance(node, ast.IfExp):
            stack.extend((node.body, node.orelse))
    return names


def _root_name(node: ast.AST) -> Optional[str]:
    """Leftmost name of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


# --------------------------------------------------- per-class/function facts


@dataclass
class _ClassFacts:
    """What a class's methods collectively establish about ``self``."""

    has_owning_close: bool = False
    ctx_attrs: Set[str] = field(default_factory=set)
    shared_attrs: Dict[str, str] = field(default_factory=dict)


def _class_facts(
    classdef: ast.ClassDef, aliases: Dict[str, str]
) -> _ClassFacts:
    """Collect shared/context attribute facts for a class."""
    facts = _ClassFacts()
    methods = [node for node in classdef.body if isinstance(node, _FUNC_TYPES)]
    facts.has_owning_close = any(
        method.name in _OWNING_CLOSERS for method in methods
    )
    # Two passes so facts established through an intermediate attribute
    # (``self._ctx = get_context(...)`` in __init__, ``self._ctx.Queue()``
    # elsewhere) resolve regardless of method order.
    for _ in range(2):
        for method in methods:
            _scan_method_facts(method, aliases, facts)
    for attr in _single_writer_attrs(classdef):
        facts.shared_attrs.pop(attr, None)
    return facts


def _scan_method_facts(
    method: ast.AST,
    aliases: Dict[str, str],
    facts: _ClassFacts,
) -> None:
    """One pass of attribute-fact collection over one method body."""
    nodes = list(own_nodes(method))
    local_ctx: Set[str] = set()
    for node in nodes:  # locals first: source order is not guaranteed
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Call) and _ctx_origin(value):
            local_ctx.add(target.id)
        elif _self_attr(value) in facts.ctx_attrs:
            local_ctx.add(target.id)
    for node in nodes:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        attr = _self_attr(node.targets[0])
        value = node.value
        if attr is None or not isinstance(value, ast.Call):
            continue
        if _ctx_origin(value):
            facts.ctx_attrs.add(attr)
            continue
        shared = _shared_origin(value, aliases, local_ctx, facts.ctx_attrs)
        buffer = _frombuffer_source(value, aliases)
        if shared is None and buffer is not None:  # a view attribute
            source = _shared_ref(buffer, {}, facts.shared_attrs)
            shared = source and f"{source} (via np.frombuffer)"
        if shared is not None:
            facts.shared_attrs.setdefault(attr, shared)


@dataclass
class _FunctionScan:
    """Flow-insensitive classification of one function's local names."""

    ctx: Set[str] = field(default_factory=set)
    shared: Dict[str, str] = field(default_factory=dict)


def _shared_ref(
    expr: ast.AST, shared: Dict[str, str], shared_attrs: Dict[str, str]
) -> Optional[str]:
    """Description when ``expr`` reads from a known shared object."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in shared:
            return shared[node.id]
        attr = _self_attr(node)
        if attr is not None and attr in shared_attrs:
            return shared_attrs[attr]
    return None


def _view_ref(
    expr: ast.AST, shared: Dict[str, str], shared_attrs: Dict[str, str]
) -> Optional[str]:
    """Description when ``expr`` evaluates to shared memory itself: a
    shared name or ``self`` attribute, sliced or not.  A call on it
    (``.copy()``, ``int(...)``) gives an owned value and is clean."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return shared.get(expr.id)
    attr = _self_attr(expr)
    return shared_attrs.get(attr) if attr is not None else None


def _returned_views(
    func: ast.AST, shared: Dict[str, str], shared_attrs: Dict[str, str]
) -> Dict[Optional[int], str]:
    """The shared memory a function returns: by position for a returned
    tuple's elements, under ``None`` for a whole returned value."""
    views: Dict[Optional[int], str] = {}
    for node in own_nodes(func):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        value = node.value
        if isinstance(value, ast.Tuple):
            elements: List[Tuple[Optional[int], ast.expr]] = list(
                enumerate(value.elts)
            )
        else:
            elements = [(None, value)]
        for position, element in elements:
            desc = _view_ref(element, shared, shared_attrs)
            if desc is not None:
                views.setdefault(position, desc)
    return views


def _callee(
    index: ProjectIndex, info: FunctionInfo, call: ast.Call
) -> Optional[str]:
    """:meth:`ProjectIndex.resolve_call`, plus ``param.method(...)`` on a
    parameter annotated with a project class: that class's method."""
    resolved = index.resolve_call(info, call)
    if resolved is not None:
        return resolved
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if not isinstance(receiver, ast.Name):
        return None
    arguments = info.node.args  # type: ignore[attr-defined]
    for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
        if arg.arg != receiver.id or arg.annotation is None:
            continue
        annotation = arg.annotation
        local = (
            annotation.value
            if isinstance(annotation, ast.Constant)
            and isinstance(annotation.value, str)
            else dotted_name(annotation)
        )
        if local is None:
            return None
        owner = index.resolve(info.module.name, local)
        if owner not in index.classes:
            return None
        return index.resolve_method(owner, func.attr)
    return None


def _scan_function(
    func: ast.AST,
    aliases: Dict[str, str],
    facts: Optional[_ClassFacts],
) -> _FunctionScan:
    """Classify a function's locals as contexts/shared objects."""
    scan = _FunctionScan()
    nodes = list(own_nodes(func))
    ctx_attrs = facts.ctx_attrs if facts is not None else set()
    shared_attrs = facts.shared_attrs if facts is not None else {}
    for _ in range(3):  # fixpoint for alias-of-alias chains
        for node in nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target, value = node.targets[0], node.value
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if isinstance(value, ast.Call):
                if _ctx_origin(value):
                    scan.ctx.add(name)
                    continue
                shared = _shared_origin(value, aliases, scan.ctx, ctx_attrs)
                if shared is not None:
                    scan.shared[name] = shared
                    continue
                buffer = _frombuffer_source(value, aliases)
                if buffer is not None:
                    source = _shared_ref(buffer, scan.shared, shared_attrs)
                    if source is not None:
                        scan.shared[name] = f"{source} (via np.frombuffer)"
            elif isinstance(value, ast.Name):
                other = value.id
                if other in scan.ctx:
                    scan.ctx.add(name)
                if other in scan.shared:
                    scan.shared.setdefault(name, scan.shared[other])
            else:
                attr = _self_attr(value)
                if attr is None:
                    continue
                if attr in ctx_attrs:
                    scan.ctx.add(name)
                if attr in shared_attrs:
                    scan.shared.setdefault(name, shared_attrs[attr])
    return scan


def _functions_with_facts(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.AST, Optional[_ClassFacts]]]:
    """Every function in a module paired with its owning class's facts."""

    def visit(
        body: Sequence[ast.stmt], facts: Optional[_ClassFacts]
    ) -> Iterator[Tuple[ast.AST, Optional[_ClassFacts]]]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(
                    node.body, _class_facts(node, module.aliases)
                )
            elif isinstance(node, _FUNC_TYPES):
                yield node, facts
                yield from visit(node.body, facts)

    yield from visit(module.tree.body, None)


# ------------------------------------------------------------ resource-leak


@dataclass
class _Creation:
    """One tracked resource-creation site inside a function."""

    node_index: int
    stmt: ast.stmt
    name: str
    desc: str


class ResourceLeak(Rule):
    """The out-of-core engines open mmap-backed page files per disk and
    per worker; a handle that misses its ``close()`` on *one* path (an
    early return, a raising write) keeps the mapping and fd alive until
    interpreter exit — on Windows it also keeps the file locked, and
    under the multi-worker regime of the wall-clock benchmark the fd
    table fills long before anything visibly fails.  This rule walks
    every CFG path from each creation site and demands a close (or a
    sanctioned escape: ``with``, ``return``, storage on a ``self`` that
    owns a ``close()``) before function exit — exception paths
    included, which is where hand-review reliably goes blind."""

    name = "resource-leak"
    summary = (
        "closeable resource (PageFile/MmapStore/mmap/open()/mp queue) "
        "not closed on every path to function exit"
    )
    default_scope = ("repro",)
    example_bad = """\
def count(path):
    page = PageFile(path)
    if page.entry_count(0) == 0:
        return 0          # leaked: early return skips close()
    total = sum(page.entry_count(d) for d in range(4))
    page.close()          # leaked too if entry_count raises
    return total
"""
    example_good = """\
def count(path):
    page = PageFile(path)
    try:
        if page.entry_count(0) == 0:
            return 0
        return sum(page.entry_count(d) for d in range(4))
    finally:
        page.close()      # every path, exception paths included
"""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag creation sites whose resource can reach exit unclosed."""
        for func, facts in _functions_with_facts(module):
            yield from self._check_function(module, func, facts)

    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.AST,
        facts: Optional[_ClassFacts],
    ) -> Iterator[Finding]:
        aliases = module.aliases
        scan = _scan_function(func, aliases, facts)
        owning = facts is not None and facts.has_owning_close
        cfg = build_cfg(func)
        creations: List[_Creation] = []
        emitted: Set[Tuple[int, str]] = set()
        for node in cfg.nodes:
            if node.kind != "stmt" or node.stmt is None:
                continue
            stmt = node.stmt
            for header in _stmt_exprs(stmt):
                for call in ast.walk(header):
                    if not isinstance(call, ast.Call):
                        continue
                    desc = _closeable_origin(
                        call, aliases, scan.ctx,
                        facts.ctx_attrs if facts is not None else set(),
                    )
                    if desc is None:
                        continue
                    for line, message in self._classify(
                        node.index, stmt, call, desc, owning, creations
                    ):
                        if (line, message) not in emitted:
                            emitted.add((line, message))
                            site = ast.Pass()
                            site.lineno = line
                            yield self.finding(module, site, message)
        for creation in creations:
            for line, message in self._search(cfg, creation, owning):
                if (line, message) not in emitted:
                    emitted.add((line, message))
                    site = ast.Pass()
                    site.lineno = line
                    yield self.finding(module, site, message)

    @staticmethod
    def _classify(
        node_index: int,
        stmt: ast.stmt,
        call: ast.Call,
        desc: str,
        owning: bool,
        creations: List[_Creation],
    ) -> Iterator[Tuple[int, str]]:
        """Sort one closeable-creation call into sanctioned / tracked /
        immediately-wrong, yielding findings for the last category."""
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return  # the with block owns and closes it
        if isinstance(stmt, ast.Return):
            return  # escapes to the caller, which now owns it
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is call:
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            target = targets[0]
            if isinstance(target, ast.Name):
                creations.append(
                    _Creation(node_index, stmt, target.id, desc)
                )
                return
            root = _root_name(target)
            if root == "self" and not owning:
                yield (
                    call.lineno,
                    f"{desc} stored on self, but the class defines no "
                    f"close()/stop()/shutdown() that could ever release "
                    f"it; add an owning close() or keep it local",
                )
            return  # self-with-close or another object owns it now
        if isinstance(stmt, ast.Expr) and stmt.value is call:
            yield (
                call.lineno,
                f"{desc} created and immediately discarded; the handle "
                f"can never be closed — bind it and close it, or use a "
                f"with block",
            )
            return
        yield (
            call.lineno,
            f"{desc} created without a named owner (nested in a larger "
            f"expression); bind it to a name so a close() can reach it, "
            f"or wrap it in a with block",
        )

    def _search(
        self, cfg: CFG, creation: _Creation, owning: bool
    ) -> List[Tuple[int, str]]:
        """BFS all paths from one creation; report unclosed exits."""
        results: List[Tuple[int, str]] = []
        start: FrozenSet[str] = frozenset({creation.name})
        seen: Set[Tuple[int, FrozenSet[str], bool]] = set()
        # The creation statement itself may raise — but then the
        # constructor never returned, so only normal successors start
        # a live-resource path.
        queue: List[Tuple[int, FrozenSet[str], bool]] = [
            (succ, start, False)
            for succ in sorted(cfg.nodes[creation.node_index].succs)
        ]
        leaked_normal = False
        leaked_exc = False
        while queue:
            index, names, via_exc = queue.pop(0)
            state = (index, names, via_exc)
            if state in seen:
                continue
            seen.add(state)
            if index == cfg.exit:
                if via_exc:
                    leaked_exc = True
                else:
                    leaked_normal = True
                continue
            node = cfg.nodes[index]
            if node.kind == "stmt" and node.stmt is not None:
                verdict, names = self._transfer(
                    node.stmt, names, owning, results
                )
                if verdict in ("closed", "escaped", "stopped") or not names:
                    continue
            for succ, exc_edge in cfg.successors(index):
                queue.append((succ, names, via_exc or exc_edge))
        line = creation.stmt.lineno
        if leaked_normal:
            results.append(
                (
                    line,
                    f"{creation.desc} assigned to '{creation.name}' is not "
                    f"closed on at least one fall-through path to function "
                    f"exit; close it on every path (with block / finally)",
                )
            )
        if leaked_exc and not leaked_normal:
            results.append(
                (
                    line,
                    f"{creation.desc} assigned to '{creation.name}' leaks "
                    f"when a later statement raises: the exception path "
                    f"reaches function exit without close(); move it into "
                    f"a with block or close it in a finally",
                )
            )
        return results

    @staticmethod
    def _transfer(
        stmt: ast.stmt,
        names: FrozenSet[str],
        owning: bool,
        results: List[Tuple[int, str]],
    ) -> Tuple[str, FrozenSet[str]]:
        """Apply one statement to the alias set of a tracked resource.

        Returns ``(verdict, new_names)``; a ``"closed"`` / ``"escaped"``
        / ``"stopped"`` verdict ends the path, an empty alias set means
        the resource was rebound away (reported as a leak in-place).
        """
        # -- close: x.close() (any release method) in statement position
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute):
                receiver = dotted_name(call.func.value)
                if call.func.attr in _CLOSE_METHODS and receiver in names:
                    return "closed", names
                if call.func.attr in _CONTAINER_ADDERS and (
                    _escaping_names_in_call(call) & names
                ):
                    root = _root_name(call.func.value)
                    if root == "self" and not owning:
                        results.append(
                            (
                                stmt.lineno,
                                "resource appended to a container on self, "
                                "but the class defines no close()/stop()/"
                                "shutdown() that could release it later",
                            )
                        )
                        return "stopped", names
                    return "escaped", names
        # -- with x: / with closing(x): — the block takes ownership
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new = set(names)
            for item in stmt.items:
                ctx_expr = item.context_expr
                if (
                    isinstance(ctx_expr, ast.Name) and ctx_expr.id in names
                ) or (_escaping_names(ctx_expr) & names):
                    return "closed", names
                if item.optional_vars is not None:
                    for target in ast.walk(item.optional_vars):
                        if isinstance(target, ast.Name):
                            new.discard(target.id)
            return "", frozenset(new)
        # -- escape to the caller
        if isinstance(stmt, ast.Return):
            if _escaping_names(stmt.value) & names:
                return "escaped", names
            return "", names
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom, ast.Await)
        ):
            if _escaping_names(stmt.value.value) & names:
                return "escaped", names
            return "", names
        # -- assignment: alias, escape into an owner, or rebind away
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            aliases_resource = (
                value is not None and bool(_escaping_names(value) & names)
            )
            new = set(names)
            for target in targets:
                if isinstance(target, ast.Name):
                    if aliases_resource and isinstance(value, ast.Name):
                        new.add(target.id)
                    else:
                        new.discard(target.id)
                elif aliases_resource:
                    root = _root_name(target)
                    if root == "self" and not owning:
                        results.append(
                            (
                                stmt.lineno,
                                "resource stored on self, but the class "
                                "defines no close()/stop()/shutdown() that "
                                "could ever release it",
                            )
                        )
                        return "stopped", names
                    return "escaped", names
            if not new:
                results.append(
                    (
                        stmt.lineno,
                        "resource rebound before being closed; the only "
                        "reference is lost and the handle can no longer "
                        "be released",
                    )
                )
            return "", frozenset(new)
        # -- for x in ...: rebinds x; del x drops the reference
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            new = set(names)
            for target in ast.walk(stmt.target):
                if isinstance(target, ast.Name):
                    new.discard(target.id)
            return "", frozenset(new)
        if isinstance(stmt, ast.Delete):
            new = set(names)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    new.discard(target.id)
            if not new:
                results.append(
                    (
                        stmt.lineno,
                        "resource deleted without close(); relying on the "
                        "garbage collector to release fds/mmaps is exactly "
                        "the nondeterminism this rule exists to prevent",
                    )
                )
            return "", frozenset(new)
        return "", names


def _escaping_names_in_call(call: ast.Call) -> Set[str]:
    """Names escaping through a call's arguments (not its receiver)."""
    names: Set[str] = set()
    for arg in call.args:
        names |= _escaping_names(arg)
    for keyword in call.keywords:
        names |= _escaping_names(keyword.value)
    return names


# ------------------------------------------- shared-state-without-lock


class SharedStateWithoutLock(Rule):
    """The process engine's global pruning bound lives in a
    ``multiprocessing`` shared array; workers read it to prune and the
    parent tightens it between batches.  One unlocked access turns the
    paper's bit-for-bit determinism claim into a data race: torn 8-byte
    reads are rare enough to pass every test and wrong enough to corrupt
    a benchmark.  Taint starts at ``Value``/``Array``/``SharedMemory``
    construction, flows through ``np.frombuffer`` views (reshaped, or
    held by ``self`` attributes), locals, call arguments (including
    ``Process(target=..., args=...)`` into worker entry points) and
    return values (a returned tuple's elements by position, through
    tuple unpacking; an owned ``.copy()`` stays clean), and every
    element access outside a lock-held ``with`` block is flagged.  A
    method call on a parameter annotated with a project class resolves
    to that class's method.  Escapes: ``_SINGLE_WRITER`` class
    annotations, and callees invoked *only* with the lock already held."""

    name = "shared-state-without-lock"
    summary = (
        "read/write of multiprocessing shared memory outside a "
        "lock-held with block"
    )
    default_scope = ("repro",)
    example_bad = """\
def _worker(shared, lock):
    view = np.frombuffer(shared, dtype=np.float64)
    bound = view[0]          # torn read: writer may be mid-store
"""
    example_good = """\
def _worker(shared, lock):
    view = np.frombuffer(shared, dtype=np.float64)
    with lock:
        bound = view[0]      # lock serializes against the writer
"""

    _MAX_ROUNDS = 20

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Flag unlocked accesses to interprocedurally tainted buffers.

        Taint is seeded, propagated and reported over in-scope functions
        only, so a test handing a shared view to a ``repro`` helper
        cannot taint the helper.
        """
        scoped = {module.name for module in self.in_scope(index)}
        functions = {
            qualname: info
            for qualname, info in sorted(index.functions.items())
            if info.module.name in scoped
        }
        class_facts: Dict[str, _ClassFacts] = {}
        facts_by_func: Dict[str, Optional[_ClassFacts]] = {}
        taint: Dict[str, Dict[str, str]] = {}
        for qualname, info in functions.items():
            owner = class_qualname(info)
            if owner is not None and owner not in class_facts:
                class_facts[owner] = _class_facts(
                    index.classes[owner], info.module.aliases
                )
            facts = class_facts.get(owner) if owner is not None else None
            facts_by_func[qualname] = facts
            scan = _scan_function(info.node, info.module.aliases, facts)
            taint[qualname] = dict(scan.shared)
        call_sites = self._propagate(index, functions, facts_by_func, taint)
        yield from self._report(functions, facts_by_func, taint, call_sites)

    def _propagate(
        self,
        index: ProjectIndex,
        functions: Dict[str, FunctionInfo],
        facts_by_func: Dict[str, Optional[_ClassFacts]],
        taint: Dict[str, Dict[str, str]],
    ) -> Dict[str, List[Tuple[str, int]]]:
        """Push taint through call arguments and return values until a
        fixpoint (bounded)."""
        call_sites: Dict[str, List[Tuple[str, int]]] = {}
        for _ in range(self._MAX_ROUNDS):
            changed = False
            call_sites = {}
            for qualname, info in functions.items():
                facts = facts_by_func[qualname]
                self._rescan(info, facts, taint[qualname])
                for call in own_nodes(info.node):
                    if not isinstance(call, ast.Call):
                        continue
                    spawned = self._process_target(index, info, call)
                    callee = (
                        spawned
                        if spawned is not None
                        else _callee(index, info, call)
                    )
                    if callee is None or callee not in taint:
                        continue
                    call_sites.setdefault(callee, []).append(
                        (qualname, call.lineno)
                    )
                    changed |= self._bind_args(
                        index, call, callee, qualname, facts, taint,
                        spawned is not None,
                    )
                changed |= self._bind_returns(
                    index, info, functions, facts_by_func, taint
                )
            if not changed:
                break
        return call_sites

    @staticmethod
    def _bind_returns(
        index: ProjectIndex,
        info: FunctionInfo,
        functions: Dict[str, FunctionInfo],
        facts_by_func: Dict[str, Optional[_ClassFacts]],
        taint: Dict[str, Dict[str, str]],
    ) -> bool:
        """Taint the names ``info`` assigns shared memory returned by a
        project callee: ``a, b = f()`` by position, ``a = f()`` whole."""
        caller_taint = taint[info.qualname]
        changed = False
        for node in own_nodes(info.node):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.value, ast.Call)
            ):
                continue
            callee = _callee(index, info, node.value)
            if callee is None or callee not in functions:
                continue
            facts, source = facts_by_func[callee], functions[callee]
            views = _returned_views(
                source.node, taint[callee],
                facts.shared_attrs if facts is not None else {},
            )
            origin = ".".join(filter(None, (source.class_name, source.name)))
            target = node.targets[0]
            if isinstance(target, ast.Tuple):
                bound: List[Tuple[ast.expr, Optional[int]]] = []
                for position, element in enumerate(target.elts):
                    if isinstance(element, ast.Starred):
                        break  # later positions count from the end
                    bound.append((element, position))
            else:
                bound = [(target, None)]
            for element, position in bound:
                if (
                    isinstance(element, ast.Name)
                    and position in views
                    and element.id not in caller_taint
                ):
                    caller_taint[element.id] = (
                        f"{views[position]} (returned by {origin})"
                    )
                    changed = True
        return changed

    @staticmethod
    def _process_target(
        index: ProjectIndex, info: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        """The worker entry point of a ``Process(target=...)`` call."""
        dotted = dotted_name(call.func)
        if dotted is None or _final(dotted) != "Process":
            return None
        target_kw = next(
            (kw for kw in call.keywords if kw.arg == "target"), None
        )
        if target_kw is None:
            return None
        local = dotted_name(target_kw.value)
        if local is None:
            return None
        absolute = index.resolve(info.module.name, local)
        return absolute if absolute in index.functions else None

    def _bind_args(
        self,
        index: ProjectIndex,
        call: ast.Call,
        callee: str,
        caller: str,
        facts: Optional[_ClassFacts],
        taint: Dict[str, Dict[str, str]],
        spawned: bool,
    ) -> bool:
        """Taint callee parameters bound to tainted caller arguments."""
        callee_info = index.functions[callee]
        params = [
            arg.arg
            for arg in callee_info.node.args.args  # type: ignore[attr-defined]
        ]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        shared_attrs = facts.shared_attrs if facts is not None else {}
        caller_taint = taint[caller]
        changed = False
        bindings: List[Tuple[ast.AST, str, str]] = []
        if spawned:
            # Process(target=f, args=(...)) pickles the tuple into the
            # worker: each element binds positionally to f's parameters.
            args_kw = next(
                (kw for kw in call.keywords if kw.arg == "args"), None
            )
            if args_kw is not None and isinstance(args_kw.value, ast.Tuple):
                for position, elt in enumerate(args_kw.value.elts):
                    if position < len(params):
                        bindings.append(
                            (elt, params[position],
                             " (pickled to Process(target=...))")
                        )
        else:
            for position, arg in enumerate(call.args):
                if position < len(params):
                    bindings.append((arg, params[position], ""))
            for keyword in call.keywords:
                if keyword.arg is not None and keyword.arg in params:
                    bindings.append((keyword.value, keyword.arg, ""))
        for expr, param, note in bindings:
            desc = _shared_ref(expr, caller_taint, shared_attrs)
            if desc is None:
                continue
            if param not in taint[callee]:
                taint[callee][param] = f"{desc}{note}"
                changed = True
        return changed

    def _rescan(
        self,
        info: FunctionInfo,
        facts: Optional[_ClassFacts],
        func_taint: Dict[str, str],
    ) -> None:
        """Re-run local propagation (frombuffer views, aliases) over the
        function with its current taint as the seed."""
        shared_attrs = facts.shared_attrs if facts is not None else {}
        for node in own_nodes(info.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target, value = node.targets[0], node.value
            if not isinstance(target, ast.Name) or value is None:
                continue
            if isinstance(value, ast.Name) and value.id in func_taint:
                func_taint.setdefault(target.id, func_taint[value.id])
            elif isinstance(value, ast.Call):
                buffer = _frombuffer_source(value, info.module.aliases)
                if buffer is not None:
                    desc = _shared_ref(buffer, func_taint, shared_attrs)
                    if desc is not None:
                        func_taint.setdefault(
                            target.id, f"{desc} (via np.frombuffer)"
                        )

    def _report(
        self,
        functions: Dict[str, FunctionInfo],
        facts_by_func: Dict[str, Optional[_ClassFacts]],
        taint: Dict[str, Dict[str, str]],
        call_sites: Dict[str, List[Tuple[str, int]]],
    ) -> Iterator[Finding]:
        """Emit findings for unlocked accesses to tainted buffers."""
        locked_spans = {
            qualname: _locked_spans(info.node)
            for qualname, info in functions.items()
        }
        for qualname, info in functions.items():
            func_taint = taint.get(qualname, {})
            facts = facts_by_func.get(qualname)
            shared_attrs = facts.shared_attrs if facts is not None else {}
            if not func_taint and not shared_attrs:
                continue
            if self._lock_held_at_all_sites(
                qualname, call_sites, locked_spans
            ):
                continue
            spans = locked_spans[qualname]
            emitted: Set[int] = set()
            for node in own_nodes(info.node):
                desc = self._access_desc(node, func_taint, shared_attrs)
                if desc is None:
                    continue
                line = node.lineno
                if _in_spans(line, spans) or line in emitted:
                    continue
                emitted.add(line)
                yield self.finding(
                    info.module,
                    node,
                    f"unlocked access to {desc} in {qualname}; another "
                    f"process can interleave mid-read/write — wrap the "
                    f"access in `with <lock>:`, or declare the attribute "
                    f"in {SINGLE_WRITER_ATTR} if only one process "
                    f"ever writes it",
                )

    @staticmethod
    def _lock_held_at_all_sites(
        qualname: str,
        call_sites: Dict[str, List[Tuple[str, int]]],
        locked_spans: Dict[str, List[Tuple[int, int]]],
    ) -> bool:
        """True when every project call of ``qualname`` holds a lock —
        the callee inherits the caller's critical section."""
        sites = call_sites.get(qualname, [])
        if not sites:
            return False
        return all(
            _in_spans(line, locked_spans.get(caller, []))
            for caller, line in sites
        )

    @staticmethod
    def _access_desc(
        node: ast.AST,
        func_taint: Dict[str, str],
        shared_attrs: Dict[str, str],
    ) -> Optional[str]:
        """Description when ``node`` is an element access on shared state."""
        target: Optional[ast.AST] = None
        if isinstance(node, ast.Subscript):
            target = node.value
        elif isinstance(node, ast.Attribute) and node.attr == "value":
            target = node.value
        if target is None:
            return None
        if isinstance(target, ast.Name) and target.id in func_taint:
            return f"{func_taint[target.id]} ('{target.id}')"
        attr = _self_attr(target)
        if attr is not None and attr in shared_attrs:
            return f"{shared_attrs[attr]} (self.{attr})"
        return None


#: The lifetime/process-safety rules, in reporting order.
LIFETIME_RULES: Tuple[Rule, ...] = (
    ResourceLeak(),
    SharedStateWithoutLock(),
)
