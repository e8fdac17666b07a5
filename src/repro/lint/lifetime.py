"""Resource-lifetime & process-safety rules for the out-of-core layer.

PR 8 made the paper's parallel-disk architecture real: mmap page files
(:mod:`repro.storage`), spawn-started worker processes and a
shared-memory pruning bound (:mod:`repro.parallel.process`).  Two bug
classes silently corrupt that layer: a leaked ``PageFile``, a *path*
property that the per-function control-flow graphs of
:mod:`repro.lint.cfg` check, and a read of the shared bound outside its
lock, which one class's structure rules out:

* :class:`ResourceLeak` — closeable values (``PageFile``, ``MmapStore``,
  ``mmap``, ``open()``, multiprocessing queues / shared memory) must be
  closed on **every** CFG path, including exception paths; escaping by
  ``return`` or into ``self`` on a class with an owning ``close()`` is
  sanctioned;
* :class:`SharedStateWithoutLock` — a structural check, no flow
  analysis: ``multiprocessing`` ``Value``/``Array``/``Raw*``/
  ``SharedMemory`` buffers are allocated only into ``self`` attributes
  of a class; that class touches them, and the ``np.frombuffer`` views
  it keeps of them, only inside a lock-held ``with`` block, never
  returns one or a slice of one, and no code outside it names one.  The
  lock invariant is then checked by reading one class.

``resource-leak`` over-approximates: the CFG has spurious edges but no
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
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    _FUNC_TYPES,
    ProjectIndex,
    dotted_name,
    own_nodes,
    resolve_alias,
)
from repro.lint.cfg import CFG, build_cfg
from repro.lint.concurrency import _in_spans, _locked_spans
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.rules import Rule

__all__ = ["ResourceLeak", "SharedStateWithoutLock", "LIFETIME_RULES"]

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


def _class_facts(classdef: ast.ClassDef) -> _ClassFacts:
    """Whether a class owns a ``close()`` and its context attributes."""
    methods = [node for node in classdef.body if isinstance(node, _FUNC_TYPES)]
    facts = _ClassFacts(
        has_owning_close=any(method.name in _OWNING_CLOSERS for method in methods)
    )
    for method in methods:
        for node in own_nodes(method):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            attr, value = _self_attr(node.targets[0]), node.value
            if attr is not None and isinstance(value, ast.Call) and _ctx_origin(value):
                facts.ctx_attrs.add(attr)
    return facts


def _ctx_locals(func: ast.AST, ctx_attrs: Set[str]) -> Set[str]:
    """A function's local names bound to a ``multiprocessing`` context:
    ``get_context(...)``, a context attribute of ``self``, or another
    such name."""
    names: Set[str] = set()
    assigns: List[Tuple[str, ast.expr]] = []
    for node in own_nodes(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigns.append((target.id, node.value))
    for _ in range(3):  # fixpoint for alias-of-alias chains
        for name, value in assigns:
            if (
                (isinstance(value, ast.Call) and _ctx_origin(value))
                or (isinstance(value, ast.Name) and value.id in names)
                or _self_attr(value) in ctx_attrs
            ):
                names.add(name)
    return names


def _functions_with_facts(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.AST, Optional[_ClassFacts]]]:
    """Every function in a module paired with its owning class's facts."""

    def visit(
        body: Sequence[ast.stmt], facts: Optional[_ClassFacts]
    ) -> Iterator[Tuple[ast.AST, Optional[_ClassFacts]]]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, _class_facts(node))
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
        ctx_attrs = facts.ctx_attrs if facts is not None else set()
        ctx_names = _ctx_locals(func, ctx_attrs)
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
                    desc = _closeable_origin(call, aliases, ctx_names, ctx_attrs)
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
    """The process engine's pruning bounds, candidate arena and page
    ledgers live in ``multiprocessing`` shared memory that the
    coordinator and every disk worker touch.  One unlocked access turns
    the paper's bit-for-bit determinism claim into a data race: torn
    8-byte reads are rare enough to pass every test and wrong enough to
    corrupt a benchmark.  The rule keeps that memory where one look can
    check it, inside one class.  Shared memory (``Array``/``Value``/
    ``Raw*``/``SharedMemory``) is allocated only into a ``self``
    attribute of a class.  In that class every access to such an
    attribute, or to an attribute holding an ``np.frombuffer`` view of
    one, sits in a lock-held ``with`` block (``with self.lock``,
    ``with _lock_within(self.lock, ...)``); no method returns one of
    them or a slice of one; and no code outside the class names one.
    Callers go through the class's locked methods and get owned arrays
    back."""

    name = "shared-state-without-lock"
    summary = (
        "multiprocessing shared memory allocated, touched or named outside "
        "the lock-held methods of the class that holds it"
    )
    default_scope = ("repro",)
    example_bad = """\
class Ring:
    def __init__(self, ctx):
        self.lock = ctx.Lock()
        self._raw = ctx.Array("d", 8, lock=False)
        self._rows = np.frombuffer(self._raw)

    def rows(self):
        with self.lock:
            return self._rows[:4]  # a live view: its caller reads it unlocked
"""
    example_good = """\
class Ring:
    def __init__(self, ctx):
        self.lock = ctx.Lock()
        self._raw = ctx.Array("d", 8, lock=False)
        self._rows = np.frombuffer(self._raw)

    def bound(self, local):
        with self.lock:            # read under the lock, an owned result
            return min(local, self._rows[3])
"""

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Check every in-scope class that holds shared memory, every
        allocation outside one, then every name of its attributes
        outside it (``self.<attr>`` elsewhere is another class's own)."""
        owners: Dict[str, Dict[int, str]] = {}
        named: List[Tuple[ModuleInfo, ast.Attribute, Optional[int]]] = []
        for module in self.in_scope(index):
            ctx_names: Set[str] = set()
            ctx_attrs: Set[str] = set()
            calls: List[Tuple[ast.Call, Optional[int]]] = []
            classes: Dict[int, ast.ClassDef] = {}
            # One walk, each node with its innermost enclosing class.
            stack: List[Tuple[ast.AST, Optional[int]]] = [(module.tree, None)]
            while stack:
                node, inside = stack.pop()
                if isinstance(node, ast.ClassDef):
                    inside = id(node)
                    classes[inside] = node
                elif isinstance(node, ast.Call):
                    calls.append((node, inside))
                elif isinstance(node, ast.Attribute):
                    named.append((module, node, inside))
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)
                    and _ctx_origin(node.value)
                ):
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        ctx_names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        ctx_attrs.add(target.attr)
                stack.extend((child, inside) for child in ast.iter_child_nodes(node))
            allocations: List[Tuple[ast.Call, str, Optional[int]]] = []
            for call, inside in calls:
                desc = _shared_origin(call, module.aliases, ctx_names, ctx_attrs)
                if desc is not None:
                    allocations.append((call, desc, inside))
            sanctioned: Set[int] = set()
            for owner in dict.fromkeys(inside for *_, inside in allocations):
                if owner is None:
                    continue
                classdef = classes[owner]
                shared = self._shared_attrs(
                    module, classdef, ctx_names, ctx_attrs, sanctioned
                )
                for attr in shared:
                    owners.setdefault(attr, {})[owner] = classdef.name
                yield from self._check_class(module, classdef, shared, sanctioned)
            for call, desc, _ in allocations:
                if id(call) not in sanctioned:
                    yield self.finding(
                        module, call,
                        f"{desc} allocated outside a class attribute; "
                        f"allocate it into `self.<attr>` of one class and "
                        f"touch it only in that class's lock-held methods",
                    )
        emitted: Set[Tuple[str, int]] = set()
        for where, name, inside in named:
            holders = owners.get(name.attr)
            if not holders or inside in holders or _self_attr(name) is not None:
                continue
            if (where.name, name.lineno) not in emitted:
                emitted.add((where.name, name.lineno))
                classes_named = "/".join(sorted(set(holders.values())))
                yield self.finding(
                    where, name,
                    f"'{dotted_name(name) or name.attr}' names the shared "
                    f"memory of {classes_named} outside it; go through its "
                    f"locked methods, which return owned arrays",
                )

    @staticmethod
    def _shared_attrs(
        module: ModuleInfo,
        classdef: ast.ClassDef,
        ctx_names: Set[str],
        ctx_attrs: Set[str],
        sanctioned: Set[int],
    ) -> Dict[str, str]:
        """The class's shared attributes and what they hold: ``self.X =
        <shared allocation>`` and ``self.Y = np.frombuffer(self.X, ...)``
        (reshaped or not).  Adds those allocations and view buffers to
        ``sanctioned``."""
        assigns: List[Tuple[str, ast.expr]] = []
        for method in classdef.body:
            if not isinstance(method, _FUNC_TYPES):
                continue
            for node in own_nodes(method):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    attr = _self_attr(node.targets[0])
                    if attr is not None:
                        assigns.append((attr, node.value))
        shared: Dict[str, str] = {}
        for attr, value in assigns:
            for call in ast.walk(value):
                if not isinstance(call, ast.Call):
                    continue
                desc = _shared_origin(call, module.aliases, ctx_names, ctx_attrs)
                if desc is not None:
                    shared.setdefault(attr, desc)
                    sanctioned.add(id(call))
        for attr, value in assigns:  # views, once every buffer is known
            buffer = _frombuffer_source(value, module.aliases)
            source = _self_attr(buffer) if buffer is not None else None
            if source is not None and source in shared:
                shared.setdefault(attr, f"{shared[source]} (via np.frombuffer)")
                sanctioned.add(id(buffer))
        return shared

    def _check_class(
        self,
        module: ModuleInfo,
        classdef: ast.ClassDef,
        shared: Dict[str, str],
        sanctioned: Set[int],
    ) -> Iterator[Finding]:
        """Unlocked accesses to, and returns of, ``shared`` attributes."""
        if not shared:
            return
        for func in ast.walk(classdef):
            if not isinstance(func, _FUNC_TYPES):
                continue
            where = f"{classdef.name}.{func.name}"
            spans = _locked_spans(func)
            emitted: Set[int] = set()
            for node in own_nodes(func):
                if isinstance(node, ast.Return) and node.value is not None:
                    value = node.value
                    for element in (
                        value.elts if isinstance(value, ast.Tuple) else [value]
                    ):
                        while isinstance(element, ast.Subscript):
                            element = element.value
                        attr = _self_attr(element)
                        if attr is not None and attr in shared:
                            yield self.finding(
                                module, node,
                                f"{where} returns {shared[attr]} "
                                f"(self.{attr}): its caller reads it without "
                                f"the lock; return a copy",
                            )
                            break
                if not isinstance(node, ast.Attribute):
                    continue
                attr = _self_attr(node)
                if (
                    attr is not None
                    and attr in shared
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in sanctioned
                    and not _in_spans(node.lineno, spans)
                    and node.lineno not in emitted
                ):
                    emitted.add(node.lineno)
                    yield self.finding(
                        module, node,
                        f"unlocked access to {shared[attr]} (self.{attr}) in "
                        f"{where}; another process can interleave "
                        f"mid-read/write: hold `with self.lock:` around it",
                    )


#: The lifetime/process-safety rules, in reporting order.
LIFETIME_RULES: Tuple[Rule, ...] = (
    ResourceLeak(),
    SharedStateWithoutLock(),
)
