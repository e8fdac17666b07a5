"""Async-safety rules: a static race/atomicity detector for the
serving layer.

``repro.serve`` promises that a fixed arrival trace plus a seed yields
bit-for-bit the same results as direct ``query_batch`` calls.  The
classic asyncio hazards — state mutated across an ``await``, wall time
leaking into virtual timestamps, a coroutine stalled by a blocking
call — all break that promise *probabilistically*, which is exactly
the failure mode a reproduction repository cannot tolerate.  This
module extends the project call graph (:mod:`repro.lint.callgraph`)
into an async-aware analysis:

* every function is classified sync/async through the import-resolved
  symbol table (:func:`async_functions`);
* each async function's *suspension points* (``await``, ``async for``,
  ``async with``) are computed (:func:`suspension_lines`);
* three rules consume those facts —
  :class:`AsyncAtomicityViolation`, :class:`NoWallClockInVirtualTime`
  and :class:`AsyncBlockingCall`.

The analysis shares the linter's over-approximation philosophy: call
edges may be spurious (name-based fallback) but are never missing, so
reachability-based rules cannot *hide* a violation.

Sanctioned escapes, in preference order: restructure the code (capture
attributes into locals before suspending — transfer ownership, don't
share), hold an ``async with ...lock:`` around the critical section,
declare a class-level ``_SINGLE_WRITER`` frozenset for attributes only
the scheduler task mutates, or — last resort — a same-line
``# repro-lint: disable=<rule>`` comment.
"""

from __future__ import annotations

import ast
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
    ProjectIndex,
    dotted_name,
    own_nodes,
    resolve_alias,
)
from repro.lint.findings import Finding
from repro.lint.module import ModuleInfo
from repro.lint.rules import Rule

__all__ = [
    "async_functions",
    "suspension_lines",
    "AsyncAtomicityViolation",
    "NoWallClockInVirtualTime",
    "AsyncBlockingCall",
    "CONCURRENCY_RULES",
]

#: AST nodes at which an async function can yield control to the event
#: loop (``async for`` suspends per iteration, ``async with`` on
#: enter/exit).
_SUSPEND_TYPES = (ast.Await, ast.AsyncFor, ast.AsyncWith)

_LOOP_TYPES = (ast.For, ast.While, ast.AsyncFor)


#: Class-attribute name holding the single-writer annotation that
#: sanctions attributes for ``async-atomicity-violation``.
SINGLE_WRITER_ATTR = "_SINGLE_WRITER"

#: Function qualnames ``no-wall-clock-in-virtual-time`` treats as
#: virtual-time entry points (simulator ``run`` methods are added
#: automatically by class-name convention).
VIRTUAL_TIME_ROOTS = (
    "repro.serve.service.QueryService.run_trace",
    "repro.serve.service.QueryService.run_stream",
    "repro.serve.loadgen.run_closed_loop",
    "repro.serve.loadgen.sweep",
)


def suspension_lines(func: ast.AST) -> Tuple[int, ...]:
    """Sorted line numbers where ``func`` can suspend (its own body
    only — a nested coroutine suspends on its *own* schedule)."""
    return tuple(
        sorted(
            node.lineno
            for node in own_nodes(func)
            if isinstance(node, _SUSPEND_TYPES)
        )
    )


def async_functions(index: ProjectIndex) -> FrozenSet[str]:
    """Qualnames of every ``async def`` in the project index."""
    return frozenset(
        qualname
        for qualname, info in index.functions.items()
        if isinstance(info.node, ast.AsyncFunctionDef)
    )


def _self_accesses(
    func: ast.AST,
) -> Tuple[Dict[str, List[int]], Dict[str, List[int]]]:
    """``self.<attr>`` access lines in ``func``: ``(reads, writes)``.

    An augmented assignment (``self.x += 1``) is both — it reads the
    old value and writes the new one on the same line.
    """
    reads: Dict[str, List[int]] = {}
    writes: Dict[str, List[int]] = {}
    for node in own_nodes(func):
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Attribute
        ):
            target = node.target
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                reads.setdefault(target.attr, []).append(node.lineno)
                writes.setdefault(target.attr, []).append(node.lineno)
            continue
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            continue
        if isinstance(node.ctx, ast.Store):
            writes.setdefault(node.attr, []).append(node.lineno)
        elif isinstance(node.ctx, ast.Load):
            reads.setdefault(node.attr, []).append(node.lineno)
    return reads, writes


def _lockish(expr: ast.expr) -> bool:
    """True when a with-item's context expression looks like a lock."""
    name = dotted_name(expr)
    if name is None and isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
    return bool(name) and any(
        fragment in name.lower() for fragment in ("lock", "mutex", "sem")
    )


def _locked_spans(func: ast.AST) -> List[Tuple[int, int]]:
    """``(first, last)`` line spans of lock-holding ``with`` blocks."""
    spans: List[Tuple[int, int]] = []
    for node in own_nodes(func):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if any(_lockish(item.context_expr) for item in node.items):
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _in_spans(line: int, spans: Sequence[Tuple[int, int]]) -> bool:
    """True when ``line`` falls inside any ``(first, last)`` span."""
    return any(first <= line <= last for first, last in spans)


def _single_writer_attrs(classdef: ast.ClassDef) -> Set[str]:
    """String constants of the class-level single-writer annotation."""
    names: Set[str] = set()
    for stmt in classdef.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == SINGLE_WRITER_ATTR
            for t in targets
        ):
            continue
        value = stmt.value
        assert value is not None
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


class AsyncAtomicityViolation(Rule):
    """A static race detector for async methods.  Reading a shared
    attribute, suspending at an ``await``, then writing the attribute
    back is a read-modify-write whose middle another task can interleave
    — the canonical asyncio atomicity bug (it needs no threads, only two
    tasks and bad luck).  Flagged unless the critical section holds a
    lock, the attribute is declared in the class's ``_SINGLE_WRITER``
    annotation, or the method never suspends.  The interleaved-ordering
    check is lexical; a read *and* write of the same attribute inside
    one loop body that also suspends is flagged too, because iteration
    N's write follows iteration N-1's suspension."""

    name = "async-atomicity-violation"
    summary = ("shared attribute read before an await and written after "
               "it in an async method (no lock, no single-writer "
               "annotation)")
    default_scope = ("repro",)
    example_bad = (
        "async def admit(self, req):\n"
        "    n = self.in_flight          # read\n"
        "    await self.gate.wait()      # another task interleaves here\n"
        "    self.in_flight = n + 1      # stale write"
    )
    example_good = (
        "async def admit(self, req):\n"
        "    async with self.lock:\n"
        "        self.in_flight += 1"
    )

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        """Flag read-await-write attribute races in async methods."""
        for classdef in ast.walk(module.tree):
            if not isinstance(classdef, ast.ClassDef):
                continue
            sanctioned = _single_writer_attrs(classdef)
            for stmt in classdef.body:
                if isinstance(stmt, ast.AsyncFunctionDef):
                    yield from self._check_method(
                        module, classdef, stmt, sanctioned
                    )

    def _check_method(
        self,
        module: ModuleInfo,
        classdef: ast.ClassDef,
        method: ast.AsyncFunctionDef,
        sanctioned: Set[str],
    ) -> Iterator[Finding]:
        suspends = suspension_lines(method)
        if not suspends:
            return
        reads, writes = _self_accesses(method)
        locked = _locked_spans(method)
        flagged: Set[str] = set()
        for attr, write_lines in sorted(writes.items()):
            if attr in sanctioned or attr not in reads:
                continue
            hit = self._straddling_write(
                reads[attr], suspends, write_lines, locked
            )
            if hit is not None:
                flagged.add(attr)
                yield self._race_finding(
                    module, classdef, method, attr, hit
                )
        yield from self._check_loops(
            module, classdef, method, sanctioned, locked, flagged
        )

    @staticmethod
    def _straddling_write(
        read_lines: Sequence[int],
        suspends: Sequence[int],
        write_lines: Sequence[int],
        locked: Sequence[Tuple[int, int]],
    ) -> Optional[Tuple[int, int]]:
        """``(await_line, write_line)`` of a read→await→write straddle."""
        first_read = min(read_lines)
        for write_line in sorted(write_lines):
            if _in_spans(write_line, locked):
                continue
            for suspend in suspends:
                if first_read < suspend < write_line:
                    return suspend, write_line
        return None

    def _check_loops(
        self,
        module: ModuleInfo,
        classdef: ast.ClassDef,
        method: ast.AsyncFunctionDef,
        sanctioned: Set[str],
        locked: Sequence[Tuple[int, int]],
        flagged: Set[str],
    ) -> Iterator[Finding]:
        """Read+write+suspend inside one loop body races across
        iterations even when the lexical order looks safe."""
        for loop in own_nodes(method):
            if not isinstance(loop, _LOOP_TYPES):
                continue
            suspends = suspension_lines(loop)
            if isinstance(loop, ast.AsyncFor):
                suspends = tuple(sorted(set(suspends) | {loop.lineno}))
            if not suspends:
                continue
            reads, writes = _self_accesses(loop)
            for attr, write_lines in sorted(writes.items()):
                if (
                    attr in sanctioned
                    or attr in flagged
                    or attr not in reads
                ):
                    continue
                unlocked = [
                    line for line in write_lines
                    if not _in_spans(line, locked)
                ]
                if not unlocked:
                    continue
                flagged.add(attr)
                yield self._race_finding(
                    module, classdef, method, attr,
                    (suspends[0], unlocked[0]),
                )

    def _race_finding(
        self,
        module: ModuleInfo,
        classdef: ast.ClassDef,
        method: ast.AsyncFunctionDef,
        attr: str,
        hit: Tuple[int, int],
    ) -> Finding:
        suspend_line, write_line = hit
        site = ast.Constant(value=None)
        site.lineno = write_line  # anchor the finding at the write
        return self.finding(
            module, site,
            f"async method {classdef.name}.{method.name} reads "
            f"self.{attr}, may suspend at an await (line {suspend_line}),"
            f" then writes it (line {write_line}); another task can "
            f"interleave at the suspension and act on stale state — "
            f"capture the attribute into a local before awaiting, hold a "
            f"lock, or declare it in "
            f"{classdef.name}.{SINGLE_WRITER_ATTR}",
        )


class NoWallClockInVirtualTime(Rule):
    """The virtual-time planner's timestamps must be pure functions of
    the arrival trace; one ``time.time()`` (or ``loop.time()``)
    reachable from a virtual-time entry point makes latencies — and
    through flush deadlines, batch composition — depend on machine
    speed.  Wall-clock reads live behind
    :class:`repro.serve.clock.LoopClock` (the sanctioned, exempted
    boundary) and nowhere else."""

    name = "no-wall-clock-in-virtual-time"
    summary = ("wall-clock read (time.time/monotonic, loop.time()) "
               "reachable from a virtual-time entry point")
    default_scope = ("repro",)
    #: ``repro.serve.clock`` is the sanctioned wall-clock boundary;
    #: experiment drivers legitimately measure real elapsed time.
    default_exempt = ("repro.serve.clock", "repro.experiments")
    example_bad = (
        "def stamp(self, event):\n"
        "    event.at = time.monotonic()   # machine-speed dependent"
    )
    example_good = (
        "def stamp(self, event):\n"
        "    event.at = self.clock.now()   # LoopClock / VirtualClock"
    )

    _WALL_TARGETS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
        }
    )

    _LOOP_GETTERS = frozenset(
        {"asyncio.get_running_loop", "asyncio.get_event_loop"}
    )

    def _wall_sites(
        self, func: ast.AST, aliases: Dict[str, str]
    ) -> Iterator[Tuple[ast.Call, str]]:
        """``(call, description)`` wall-clock reads in ``func``."""
        for node in own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            local = dotted_name(node.func)
            if local is not None:
                resolved = resolve_alias(aliases, local)
                if resolved in self._WALL_TARGETS:
                    yield node, f"{resolved}()"
                    continue
            if not (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"
            ):
                continue
            receiver = node.func.value
            # ``asyncio.get_running_loop().time()`` — the receiver is
            # itself a call to a loop getter.
            if isinstance(receiver, ast.Call):
                getter = dotted_name(receiver.func)
                if (
                    getter is not None
                    and resolve_alias(aliases, getter) in self._LOOP_GETTERS
                ):
                    yield node, "asyncio event-loop time()"
                continue
            # ``loop.time()`` / ``self._loop.time()`` — a stored loop.
            receiver_name = dotted_name(receiver)
            if receiver_name is not None and "loop" in (
                receiver_name.rsplit(".", 1)[-1].lower()
            ):
                yield node, f"{receiver_name}.time()"

    @staticmethod
    def _roots(index: ProjectIndex) -> List[str]:
        """Virtual-time entry points present in this project."""
        roots = [
            qualname
            for qualname in VIRTUAL_TIME_ROOTS
            if qualname in index.functions
        ]
        for qualname, info in index.functions.items():
            if (
                info.name == "run"
                and info.class_name is not None
                and info.class_name.endswith("Simulator")
            ):
                roots.append(qualname)
        return sorted(set(roots))

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Flag wall-clock reads reachable from virtual-time roots."""
        in_scope = {m.name for m in self.in_scope(index)}
        roots = self._roots(index)
        if not in_scope or not roots:
            return
        graph = index.call_graph
        reachable = graph.reachable_from(roots)
        for qualname in sorted(reachable):
            info = index.functions[qualname]
            if info.module.name not in in_scope:
                continue
            aliases = info.module.aliases
            for call, description in self._wall_sites(info.node, aliases):
                chain = ""
                for root in roots:
                    path = graph.find_path(root, qualname)
                    if path:
                        chain = "; reached from " + " -> ".join(path)
                        break
                yield self.finding(
                    info.module, call,
                    f"wall-clock read {description} in {qualname} is "
                    f"reachable from a virtual-time entry point — "
                    f"virtual timestamps must be pure functions of the "
                    f"arrival trace; read time through the injected "
                    f"Clock (repro.serve.clock) instead{chain}",
                )


class AsyncBlockingCall(Rule):
    """A blocking call anywhere in an ``async def``'s *synchronous* call
    chain stalls the event loop: no admission, no timer, no concurrent
    client makes progress until it returns.  Engine ``query`` /
    ``query_batch`` executions are the expensive case in this repository
    — offload them with ``asyncio.to_thread`` (which both unblocks the
    loop and, passing the function by reference, drops the synchronous
    call edge this rule traverses)."""

    name = "async-blocking-call"
    summary = ("blocking call (time.sleep, file I/O, sync engine query) "
               "reachable inside an async def without executor offload")
    default_scope = ("repro",)
    example_bad = (
        "async def handle(self, query):\n"
        "    return self.engine.query(query, k)   # stalls the loop"
    )
    example_good = (
        "async def handle(self, query):\n"
        "    return await asyncio.to_thread(self.engine.query, query, k)"
    )

    _BLOCKING_TARGETS = frozenset(
        {
            "time.sleep",
            "subprocess.run",
            "subprocess.check_call",
            "subprocess.check_output",
            "urllib.request.urlopen",
            "socket.create_connection",
        }
    )

    #: Sync engine entry points; receivers must look engine-ish so a
    #: dict's ``.query`` helper elsewhere is not misflagged.
    _ENGINE_METHODS = frozenset({"query", "query_batch"})

    def _blocking_sites(
        self, func: ast.AST, aliases: Dict[str, str]
    ) -> Iterator[Tuple[ast.Call, str]]:
        """``(call, description)`` blocking calls in ``func``."""
        for node in own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            local = dotted_name(node.func)
            if local is None:
                continue
            resolved = resolve_alias(aliases, local)
            if resolved in self._BLOCKING_TARGETS:
                yield node, f"{resolved}()"
                continue
            if resolved == "open" or resolved == "builtins.open":
                yield node, "open() file I/O"
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._ENGINE_METHODS
            ):
                receiver = dotted_name(node.func.value)
                if receiver is not None and "engine" in receiver.lower():
                    yield node, f"sync {receiver}.{node.func.attr}()"

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        """Flag blocking sites on async functions' sync call chains.

        BFS from each async function over the call graph, *not*
        expanding through other async callees — an awaited coroutine's
        blocking work is attributed to that coroutine, where the fix
        belongs.  The finding reconstructs the async entry's path so
        the offending frame is obvious.
        """
        in_scope = {m.name for m in self.in_scope(index)}
        coroutines = async_functions(index)
        if not in_scope or not coroutines:
            return
        graph = index.call_graph
        reported: Set[Tuple[str, int]] = set()
        for root in sorted(coroutines):
            root_info = index.functions[root]
            if root_info.module.name not in in_scope:
                continue
            parents: Dict[str, str] = {}
            seen = {root}
            queue = [root]
            while queue:
                current = queue.pop(0)
                info = index.functions[current]
                if info.module.name in in_scope:
                    for call, description in self._blocking_sites(
                        info.node, info.module.aliases
                    ):
                        key = (info.module.display_path, call.lineno)
                        if key in reported:
                            continue
                        reported.add(key)
                        path = [current]
                        while path[-1] != root:
                            path.append(parents[path[-1]])
                        chain = " -> ".join(reversed(path))
                        yield self.finding(
                            info.module, call,
                            f"blocking call {description} in {current} "
                            f"runs on the event loop (reached from async "
                            f"{chain}); offload it with asyncio.to_thread"
                            f" / run_in_executor so concurrent clients "
                            f"keep being served",
                        )
                for callee in sorted(graph.edges.get(current, ())):
                    if callee in seen or callee in coroutines:
                        continue
                    seen.add(callee)
                    parents[callee] = current
                    queue.append(callee)


#: The async-safety rules, in reporting order.
CONCURRENCY_RULES: Tuple[Rule, ...] = (
    AsyncAtomicityViolation(),
    NoWallClockInVirtualTime(),
    AsyncBlockingCall(),
)
