"""Resource-lifetime & process-safety rules for the out-of-core layer.

PR 8 made the paper's parallel-disk architecture real: mmap page files
(:mod:`repro.storage`), spawn-started worker processes and a
shared-memory pruning bound (:mod:`repro.parallel.process`).  The bug
classes that silently corrupt that layer — a leaked ``PageFile``, a
read of the shared bound outside its lock, a handle pickled into a
spawned worker — are all *path* properties, invisible to the lexical
walks used by the other rule groups.  This module pairs the per-function
control-flow graphs of :mod:`repro.lint.cfg` with the import-resolved
project index of :mod:`repro.lint.callgraph` to check them statically:

* :class:`ResourceLeak` — closeable values (``PageFile``, ``MmapStore``,
  ``mmap``, ``open()``, multiprocessing queues / shared memory) must be
  closed on **every** CFG path, including exception paths; escaping by
  ``return`` or into ``self`` on a class with an owning ``close()`` is
  sanctioned;
* :class:`UseAfterClose` — method calls on a resource along any normal
  path after its ``.close()``;
* :class:`SharedStateWithoutLock` — element accesses on
  ``multiprocessing`` ``Value``/``Array``/shared-memory buffers (and
  ``np.frombuffer`` views over them, tracked interprocedurally through
  call arguments and ``Process(target=..., args=...)``) outside a
  lock-held ``with`` block, honoring ``_SINGLE_WRITER`` annotations and
  callees invoked only with the lock already held;
* :class:`SpawnUnsafeCapture` — mmap-owning stores, ``threading`` locks,
  tracers, or open files reachable in the args pickled to
  ``Process(target=...)`` or ``put(...)`` onto a worker task queue;
* :class:`CtxRequired` — bare ``multiprocessing.Process/Queue/Lock``
  instead of an explicit ``get_context("spawn")`` handle.

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
    "UseAfterClose",
    "SharedStateWithoutLock",
    "SpawnUnsafeCapture",
    "CtxRequired",
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

#: Class names ``spawn-unsafe-capture`` refuses to see pickled into a
#: worker process (they own mmap/file handles that do not survive a
#: spawn).
SPAWN_UNSAFE_TYPES = ("PageFile", "PageFileWriter", "MmapStore")

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

#: Methods a resource may still receive after ``close()`` (idempotent
#: re-close and the multiprocessing queue drain protocol).
_POST_CLOSE_OK = _CLOSE_METHODS | {
    "join",
    "join_thread",
    "cancel_join_thread",
}

_MP_QUEUE_FACTORIES = frozenset({"Queue", "SimpleQueue", "JoinableQueue"})
_MP_SHARED_FACTORIES = frozenset({"Array", "Value", "RawArray", "RawValue"})

#: multiprocessing top-level factories that silently bind the
#: platform-default start method (``fork`` on Linux, ``spawn`` on
#: macOS/Windows) — exactly the nondeterminism ``ctx-required`` bans.
_MP_BARE = frozenset(
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

#: threading primitives are process-local: pickling one into a spawned
#: worker either fails outright or yields an unrelated copy.
_THREADING_PRIMITIVES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
    }
)


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


def _queue_origin(
    call: ast.Call,
    aliases: Dict[str, str],
    ctx_names: Set[str],
    ctx_attrs: Set[str],
) -> bool:
    """True when the call constructs a multiprocessing queue."""
    local = dotted_name(call.func)
    return (
        local is not None
        and _final(local) in _MP_QUEUE_FACTORIES
        and _mp_receiver(
            local, resolve_alias(aliases, local), ctx_names, ctx_attrs
        )
    )


def _shared_origin(
    call: ast.Call,
    aliases: Dict[str, str],
    ctx_names: Set[str],
    ctx_attrs: Set[str],
) -> Optional[str]:
    """Description of the shared object this call constructs, if any."""
    local = dotted_name(call.func)
    if local is None:
        return None
    final = _final(local)
    if final in _MP_SHARED_FACTORIES and _mp_receiver(
        local, resolve_alias(aliases, local), ctx_names, ctx_attrs
    ):
        return f"multiprocessing shared {final}"
    if final == "SharedMemory":
        return "shared-memory segment"
    return None


def _is_frombuffer(call: ast.Call, aliases: Dict[str, str]) -> bool:
    """True for ``np.frombuffer(source, ...)``: a view sharing memory."""
    local = dotted_name(call.func)
    return (
        local is not None
        and resolve_alias(aliases, local) == "numpy.frombuffer"
        and bool(call.args)
    )


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


def _unsafe_origin(
    call: ast.Call, aliases: Dict[str, str]
) -> Optional[str]:
    """Description when this call constructs a spawn-unsafe value."""
    local = dotted_name(call.func)
    if local is None:
        return None
    resolved = resolve_alias(aliases, local)
    if resolved in ("open", "builtins.open"):
        return "an open() file handle"
    if resolved == "mmap.mmap":
        return "an mmap handle"
    final = _final(local)
    if final in SPAWN_UNSAFE_TYPES:
        return f"a {final} (owns an mmap/file handle)"
    if final.endswith("Tracer"):
        return f"a {final} (process-local tracer)"
    if resolved in _THREADING_PRIMITIVES:
        return f"a {resolved} (process-local, not picklable)"
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

    name: str = ""
    has_owning_close: bool = False
    ctx_attrs: Set[str] = field(default_factory=set)
    shared_attrs: Dict[str, str] = field(default_factory=dict)
    queue_attrs: Set[str] = field(default_factory=set)
    unsafe_attrs: Dict[str, str] = field(default_factory=dict)


def _class_facts(
    classdef: ast.ClassDef, aliases: Dict[str, str]
) -> _ClassFacts:
    """Collect shared/queue/context/unsafe attribute facts for a class."""
    facts = _ClassFacts(name=classdef.name)
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
    local_queues: Set[str] = set()
    for node in nodes:  # locals first: source order is not guaranteed
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target, value = node.targets[0], node.value
        if not isinstance(target, ast.Name):
            continue
        if isinstance(value, ast.Call) and _ctx_origin(value):
            local_ctx.add(target.id)
        elif isinstance(value, ast.Call) and _queue_origin(
            value, aliases, local_ctx, facts.ctx_attrs
        ):
            local_queues.add(target.id)
        elif _self_attr(value) in facts.ctx_attrs:
            local_ctx.add(target.id)
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = _self_attr(node.targets[0])
            value = node.value
            if attr is None:
                continue
            if isinstance(value, ast.Call):
                if _ctx_origin(value):
                    facts.ctx_attrs.add(attr)
                    continue
                shared = _shared_origin(
                    value, aliases, local_ctx, facts.ctx_attrs
                )
                if shared is not None:
                    facts.shared_attrs.setdefault(attr, shared)
                if _queue_origin(value, aliases, local_ctx, facts.ctx_attrs):
                    facts.queue_attrs.add(attr)
                unsafe = _unsafe_origin(value, aliases)
                if unsafe is not None:
                    facts.unsafe_attrs.setdefault(attr, unsafe)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CONTAINER_ADDERS
        ):
            attr = _self_attr(node.func.value)
            if attr is not None and any(
                isinstance(arg, ast.Name) and arg.id in local_queues
                for arg in node.args
            ):
                facts.queue_attrs.add(attr)


@dataclass
class _FunctionScan:
    """Flow-insensitive classification of one function's local names."""

    ctx: Set[str] = field(default_factory=set)
    queues: Set[str] = field(default_factory=set)
    shared: Dict[str, str] = field(default_factory=dict)
    unsafe: Dict[str, str] = field(default_factory=dict)


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


def _scan_function(
    func: ast.AST,
    aliases: Dict[str, str],
    facts: Optional[_ClassFacts],
) -> _FunctionScan:
    """Classify a function's locals as contexts/queues/shared/unsafe."""
    scan = _FunctionScan()
    nodes = list(own_nodes(func))
    ctx_attrs = facts.ctx_attrs if facts is not None else set()
    queue_attrs = facts.queue_attrs if facts is not None else set()
    shared_attrs = facts.shared_attrs if facts is not None else {}
    unsafe_attrs = facts.unsafe_attrs if facts is not None else {}
    for _ in range(3):  # fixpoint for alias-of-alias chains
        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                attr = _self_attr(node.iter)
                if (
                    attr is not None
                    and attr in queue_attrs
                    and isinstance(node.target, ast.Name)
                ):
                    scan.queues.add(node.target.id)
                continue
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
                if _queue_origin(value, aliases, scan.ctx, ctx_attrs):
                    scan.queues.add(name)
                    continue
                shared = _shared_origin(value, aliases, scan.ctx, ctx_attrs)
                if shared is not None:
                    scan.shared[name] = shared
                    continue
                unsafe = _unsafe_origin(value, aliases)
                if unsafe is not None:
                    scan.unsafe.setdefault(
                        name, f"{unsafe} (created at line {node.lineno})"
                    )
                    continue
                if _is_frombuffer(value, aliases):
                    source = _shared_ref(
                        value.args[0], scan.shared, shared_attrs
                    )
                    if source is not None:
                        scan.shared[name] = f"{source} (via np.frombuffer)"
            elif isinstance(value, ast.Name):
                other = value.id
                if other in scan.ctx:
                    scan.ctx.add(name)
                if other in scan.queues:
                    scan.queues.add(name)
                if other in scan.shared:
                    scan.shared.setdefault(name, scan.shared[other])
                if other in scan.unsafe:
                    scan.unsafe.setdefault(name, scan.unsafe[other])
            elif isinstance(value, ast.Tuple):
                for elt in value.elts:
                    unsafe_elt = _unsafe_in_expr(
                        elt, scan, unsafe_attrs, aliases
                    )
                    if unsafe_elt is not None:
                        scan.unsafe.setdefault(
                            name,
                            f"{unsafe_elt}, packed into '{name}' at line "
                            f"{node.lineno}",
                        )
                        break
            else:
                attr = _self_attr(value)
                if attr is None:
                    continue
                if attr in ctx_attrs:
                    scan.ctx.add(name)
                if attr in queue_attrs:
                    scan.queues.add(name)
                if attr in shared_attrs:
                    scan.shared.setdefault(name, shared_attrs[attr])
                if attr in unsafe_attrs:
                    scan.unsafe.setdefault(
                        name, f"self.{attr} — {unsafe_attrs[attr]}"
                    )
    return scan


def _unsafe_in_expr(
    expr: ast.AST,
    scan: _FunctionScan,
    unsafe_attrs: Dict[str, str],
    aliases: Dict[str, str],
) -> Optional[str]:
    """Description of the first spawn-unsafe value reachable in ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in scan.unsafe:
            return f"'{node.id}' — {scan.unsafe[node.id]}"
        attr = _self_attr(node)
        if attr is not None and attr in unsafe_attrs:
            return f"self.{attr} — {unsafe_attrs[attr]}"
        if isinstance(node, ast.Call):
            inline = _unsafe_origin(node, aliases)
            if inline is not None:
                return f"{inline} constructed inline"
        if isinstance(node, ast.Name) and node.id in ("tracer", "_tracer"):
            return f"'{node.id}' (a process-local tracer, by name)"
        if isinstance(node, ast.Attribute) and node.attr in (
            "tracer",
            "_tracer",
        ):
            return f".{node.attr} (a process-local tracer, by name)"
    return None


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


# ---------------------------------------------------------- use-after-close


class UseAfterClose(Rule):
    """A closed ``PageFile`` answers reads with whatever the layer
    beneath happens to raise (historically a raw ``ValueError: mmap
    closed or invalid`` from the C level) — or worse, a stale view.  The
    runtime contract (post-close reads raise a clear ``ValueError``) is
    only half the fix; this rule removes the pattern statically by
    walking normal-flow CFG paths from every ``x.close()`` and flagging
    the first later method call or subscript on ``x`` that is not an
    idempotent re-close or a queue-drain ``join_thread``."""

    name = "use-after-close"
    summary = "method call/subscript on a resource after its .close()"
    default_scope = ("repro",)
    example_bad = """\
page = PageFile(path)
count = page.entry_count(0)
page.close()
data = page.read_slot(0, 0)   # closed handle: undefined behavior
"""
    example_good = """\
page = PageFile(path)
count = page.entry_count(0)
data = page.read_slot(0, 0)
page.close()                  # close strictly last (or use `with`)
"""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag uses of a name along any normal path after its close()."""
        for func, _ in _functions_with_facts(module):
            yield from self._check_function(module, func)

    def _check_function(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterator[Finding]:
        cfg = build_cfg(func)
        emitted: Set[Tuple[int, int]] = set()
        for node in cfg.nodes:
            if node.kind != "stmt" or not isinstance(node.stmt, ast.Expr):
                continue
            call = node.stmt.value
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "close"
            ):
                continue
            receiver = dotted_name(call.func.value)
            if receiver is None or receiver == "self":
                continue
            for use_line, use_desc in self._uses_after(
                cfg, node.index, receiver
            ):
                key = (call.lineno, use_line)
                if key in emitted:
                    continue
                emitted.add(key)
                site = ast.Pass()
                site.lineno = use_line
                yield self.finding(
                    module,
                    site,
                    f"'{receiver}' is used here ({use_desc}) after its "
                    f"close() on line {call.lineno}; a closed handle's "
                    f"behavior is undefined — reorder the close, or "
                    f"rebind the name first",
                )

    def _uses_after(
        self, cfg: CFG, close_index: int, receiver: str
    ) -> List[Tuple[int, str]]:
        """``(line, use)`` post-close uses of ``receiver`` (normal
        paths)."""
        uses: List[Tuple[int, str]] = []
        seen: Set[int] = set()
        queue = sorted(cfg.nodes[close_index].succs)
        while queue:
            index = queue.pop(0)
            if index in seen or index == cfg.exit:
                continue
            seen.add(index)
            node = cfg.nodes[index]
            stop = False
            if node.kind == "stmt" and node.stmt is not None:
                if self._rebinds(node.stmt, receiver):
                    continue  # fresh object from here on
                use = self._first_use(node.stmt, receiver)
                if use is not None:
                    uses.append(use)
                    stop = True
            if not stop:
                queue.extend(succ for succ in node.succs if succ not in seen)
        return uses

    @staticmethod
    def _rebinds(stmt: ast.stmt, receiver: str) -> bool:
        """True when ``stmt`` rebinds exactly the receiver name."""
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        for target in targets:
            for node in ast.walk(target):
                if dotted_name(node) == receiver:
                    return True
        return False

    @staticmethod
    def _first_use(
        stmt: ast.stmt, receiver: str
    ) -> Optional[Tuple[int, str]]:
        """``(line, use)`` of the first disallowed use of ``receiver``."""
        for header in _stmt_exprs(stmt):
            for node in ast.walk(header):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and dotted_name(node.func.value) == receiver
                    and node.func.attr not in _POST_CLOSE_OK
                ):
                    return node.lineno, f".{node.func.attr}(...)"
                if (
                    isinstance(node, ast.Subscript)
                    and dotted_name(node.value) == receiver
                ):
                    return node.lineno, "subscript"
        return None


# ------------------------------------------- shared-state-without-lock


class SharedStateWithoutLock(Rule):
    """The process engine's global pruning bound lives in a
    ``multiprocessing`` shared array; workers read it to prune and the
    parent tightens it between batches.  One unlocked access turns the
    paper's bit-for-bit determinism claim into a data race: torn 8-byte
    reads are rare enough to pass every test and wrong enough to corrupt
    a benchmark.  Taint starts at ``Value``/``Array``/``SharedMemory``
    construction, flows through ``np.frombuffer`` views, locals, and
    call arguments (including ``Process(target=..., args=...)`` into
    worker entry points), and every element access outside a lock-held
    ``with`` block is flagged.  Escapes: ``_SINGLE_WRITER`` class
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
        """Push taint through call arguments until a fixpoint (bounded)."""
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
                        else index.resolve_call(info, call)
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
            if not changed:
                break
        return call_sites

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
                if _is_frombuffer(value, info.module.aliases):
                    desc = _shared_ref(value.args[0], func_taint, shared_attrs)
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


# --------------------------------------------------- spawn-unsafe-capture


class SpawnUnsafeCapture(Rule):
    """Everything in ``Process(target=..., args=...)`` — and everything
    ``put()`` onto a worker task queue — is pickled into the spawned
    child.  mmap-backed stores, open files, ``threading`` locks, and
    tracers either fail to pickle (best case) or arrive as disconnected
    copies that shadow the parent's state (worst case: the engine
    "works" and returns results from a stale mapping).  Workers must
    receive *identifiers* — paths, disk ids — and reopen resources
    inside the child, which is exactly what
    ``repro.parallel.process._worker_main`` does with its store
    directory."""

    name = "spawn-unsafe-capture"
    summary = (
        "mmap/file handle, threading lock, or tracer pickled into "
        "Process(args=...) or a worker task queue"
    )
    default_scope = ("repro",)
    example_bad = """\
store = MmapStore(directory)
proc = ctx.Process(target=_worker, args=(store, results))
# the store's mmap handles cannot survive the spawn pickle
"""
    example_good = """\
proc = ctx.Process(target=_worker, args=(directory, results))
# the worker reopens: store = MmapStore(directory)
"""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag spawn-unsafe values in Process args / task-queue puts."""
        for func, facts in _functions_with_facts(module):
            scan = _scan_function(func, module.aliases, facts)
            unsafe_attrs = facts.unsafe_attrs if facts is not None else {}
            queue_attrs = facts.queue_attrs if facts is not None else set()
            for call in own_nodes(func):
                if isinstance(call, ast.Call):
                    yield from self._check_call(
                        module, call, scan, unsafe_attrs, queue_attrs
                    )

    def _check_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        scan: _FunctionScan,
        unsafe_attrs: Dict[str, str],
        queue_attrs: Set[str],
    ) -> Iterator[Finding]:
        dotted = dotted_name(call.func)
        if dotted is not None and _final(dotted) == "Process":
            for keyword in call.keywords:
                if keyword.arg != "args":
                    continue
                desc = _unsafe_in_expr(
                    keyword.value, scan, unsafe_attrs, module.aliases
                )
                if desc is not None:
                    yield self.finding(
                        module,
                        call,
                        f"Process(target=..., args=...) captures {desc}; "
                        f"it is pickled into the spawned worker, where "
                        f"mmap/file handles, threading locks and tracers "
                        f"do not survive — pass a path/identifier and "
                        f"reopen inside the worker",
                    )
            return
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("put", "put_nowait")
        ):
            receiver = call.func.value
            is_task_queue = (
                isinstance(receiver, ast.Name) and receiver.id in scan.queues
            ) or (_self_attr(receiver) in queue_attrs)
            if not is_task_queue:
                return
            for arg in call.args:
                desc = _unsafe_in_expr(
                    arg, scan, unsafe_attrs, module.aliases
                )
                if desc is not None:
                    yield self.finding(
                        module,
                        call,
                        f"task put() onto a worker queue captures {desc}; "
                        f"queue items are pickled across the process "
                        f"boundary — send a path/identifier and reopen "
                        f"inside the worker",
                    )


# ------------------------------------------------------------ ctx-required


class CtxRequired(Rule):
    """``multiprocessing.Process()`` binds the platform-default start
    method: ``fork`` on Linux, ``spawn`` on macOS/Windows.  Forked
    workers inherit mmap views, locks, and tracer state that spawned
    workers must reconstruct — so code that only ever ran under fork is
    routinely broken under spawn, and results can differ between the
    two.  The engines pin ``get_context("spawn")`` (the strictest,
    portable semantics); this rule bans the bare module-level factories
    so the choice stays explicit everywhere."""

    name = "ctx-required"
    summary = (
        "bare multiprocessing.Process/Queue/Lock; use an explicit "
        'get_context("spawn") handle'
    )
    default_scope = ("repro",)
    example_bad = """\
import multiprocessing

queue = multiprocessing.Queue()
proc = multiprocessing.Process(target=work, args=(queue,))
"""
    example_good = """\
import multiprocessing

ctx = multiprocessing.get_context("spawn")
queue = ctx.Queue()
proc = ctx.Process(target=work, args=(queue,))
"""

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag bare multiprocessing factory calls."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            local = dotted_name(node.func)
            if local is None:
                continue
            final = _final(local)
            resolved = resolve_alias(module.aliases, local)
            if final in _MP_BARE and resolved == f"multiprocessing.{final}":
                yield self.finding(
                    module,
                    node,
                    f"bare multiprocessing.{final} binds the "
                    f"platform-default start method (fork on Linux, spawn "
                    f"on macOS/Windows) and makes behavior "
                    f"platform-dependent; create an explicit context — "
                    f'ctx = multiprocessing.get_context("spawn") — and '
                    f"call ctx.{final}",
                )


#: The lifetime/process-safety rules, in reporting order.
LIFETIME_RULES: Tuple[type, ...] = (
    ResourceLeak,
    UseAfterClose,
    SharedStateWithoutLock,
    SpawnUnsafeCapture,
    CtxRequired,
)
