"""Statement-level control-flow graphs for path-sensitive lint rules.

``resource-leak`` (:mod:`repro.lint.lifetime`) must answer *path*
questions — "is this ``PageFile`` closed on **every** path to function
exit, including the path where a later call raises?" — which the purely
lexical walks used elsewhere in the linter cannot express.  This module
builds a small, deliberately simple CFG per function body:

* every *statement* is a node (functions in this repository are small,
  so basic blocks buy nothing);
* ``entry`` / ``exit`` pseudo-nodes bracket the body, and structural
  ``join`` nodes glue branches back together without carrying code;
* normal successors (:attr:`CFGNode.succs`) are distinguished from
  *exceptional* successors (:attr:`CFGNode.exc_succs`) — edges taken
  only when the statement raises — so an analysis can report "leaks on
  the exception path" separately from "leaks on straight-line flow";
* a statement is considered able to raise when its own header contains
  a call (or is ``raise`` / ``assert`` / a ``with`` header, whose
  context-manager protocol can always fail) — attribute and subscript
  accesses are deliberately not exception sources, keeping the graph
  quiet.

Over-approximations, all in the safe (extra-edges) direction:

* a ``try``/``finally`` body is built with **two copies** of the
  ``finally`` suite: the *normal* copy flows on to the statement after
  the ``try``, the *abrupt* copy (entered from exceptions, ``return``,
  ``break``, ``continue``) flows to the enclosing exception target,
  function exit, and any redirected loop targets — so a ``finally``
  that closes a resource sanctions both entry modes, while an empty
  ``finally`` still lets the exception path escape;
* exceptions raised in a ``try`` body get edges to *every* handler plus
  the uncaught path (no exception-type matching);
* a ``with`` body's exceptions route through a synthetic ``with-exit``
  node (the ``__exit__`` call) before propagating.

Spurious paths can therefore exist, but no real path is ever missing —
the right failure mode for rules that must never *hide* a leak.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import _FUNC_TYPES

__all__ = ["CFG", "CFGNode", "build_cfg"]


#: Statement kinds that never transfer control abnormally by themselves.
_SIMPLE_TYPES = (
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Assert,
    ast.Delete,
    ast.Pass,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
)


@dataclass
class CFGNode:
    """One statement (or pseudo-statement) of a function's flow graph.

    ``kind`` is ``"entry"``, ``"exit"``, ``"join"`` (structural glue,
    no code), ``"stmt"`` (``stmt`` holds the AST statement — for
    compound statements only the *header* belongs to the node), or
    ``"with-exit"`` (the synthetic ``__exit__`` of a ``with`` block;
    ``stmt`` holds the ``ast.With``).  ``succs`` are normal-flow
    successors; ``exc_succs`` are taken only when the statement raises.
    """

    index: int
    kind: str
    stmt: Optional[ast.AST] = None
    succs: Set[int] = field(default_factory=set)
    exc_succs: Set[int] = field(default_factory=set)


class CFG:
    """A built control-flow graph: ``nodes`` plus ``entry``/``exit``.

    Traverse with :meth:`successors`, which yields ``(index,
    via_exception)`` pairs so path searches can track whether a path
    needed an exception to exist.
    """

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._add("entry")
        self.exit = self._add("exit")

    def _add(self, kind: str, stmt: Optional[ast.AST] = None) -> int:
        index = len(self.nodes)
        self.nodes.append(CFGNode(index=index, kind=kind, stmt=stmt))
        return index

    def successors(self, index: int) -> List[Tuple[int, bool]]:
        """``(successor, via_exception)`` pairs of one node."""
        node = self.nodes[index]
        return [(succ, False) for succ in sorted(node.succs)] + [
            (succ, True) for succ in sorted(node.exc_succs)
        ]


@dataclass(frozen=True)
class _Frame:
    """Control-transfer targets active while building one suite."""

    exc: int
    ret: int
    brk: Optional[int] = None
    cont: Optional[int] = None


def _header_can_raise(stmt: ast.stmt) -> bool:
    """True when the statement's *own* evaluation may raise.

    Compound statements contribute only their header expressions (an
    ``if`` test, a ``for`` iterable, ...), never their bodies — the
    bodies get their own nodes.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return True  # __enter__ / context evaluation can always fail
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return True  # the iterator protocol can raise
    headers: List[ast.AST] = []
    if isinstance(stmt, (ast.If, ast.While)):
        headers = [stmt.test]
    elif isinstance(stmt, ast.Return):
        headers = [stmt.value] if stmt.value is not None else []
    elif isinstance(stmt, _SIMPLE_TYPES):
        headers = [stmt]
    else:  # Break/Continue/def/class headers: nothing evaluable
        match_cls = getattr(ast, "Match", None)
        if match_cls is not None and isinstance(stmt, match_cls):
            headers = [stmt.subject]
    for header in headers:
        for node in ast.walk(header):
            if isinstance(node, _FUNC_TYPES):
                continue
            if isinstance(node, (ast.Call, ast.Await)):
                return True
    return False


class _Builder:
    """Recursive-descent CFG construction over one function body."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg

    # ------------------------------------------------------------ plumbing

    def _connect(self, preds: Sequence[int], target: int) -> None:
        for pred in preds:
            self.cfg.nodes[pred].succs.add(target)

    def _stmt_node(self, stmt: ast.stmt, frame: _Frame) -> int:
        index = self.cfg._add("stmt", stmt)
        if _header_can_raise(stmt):
            self.cfg.nodes[index].exc_succs.add(frame.exc)
        return index

    # -------------------------------------------------------------- suites

    def build_body(
        self, body: Sequence[ast.stmt], preds: List[int], frame: _Frame
    ) -> List[int]:
        """Build one suite; returns its open normal exits."""
        for stmt in body:
            if not preds:
                break  # unreachable tail (after return/raise/...)
            preds = self._build_stmt(stmt, preds, frame)
        return preds

    def _build_stmt(
        self, stmt: ast.stmt, preds: List[int], frame: _Frame
    ) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, preds, frame)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, preds, frame)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, preds, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, preds, frame)
        match_cls = getattr(ast, "Match", None)
        if match_cls is not None and isinstance(stmt, match_cls):
            return self._build_match(stmt, preds, frame)
        node = self._stmt_node(stmt, frame)
        self._connect(preds, node)
        if isinstance(stmt, ast.Return):
            self.cfg.nodes[node].succs.add(frame.ret)
            return []
        if isinstance(stmt, ast.Raise):
            self.cfg.nodes[node].exc_succs.add(frame.exc)
            return []
        if isinstance(stmt, ast.Break):
            target = frame.brk if frame.brk is not None else self.cfg.exit
            self.cfg.nodes[node].succs.add(target)
            return []
        if isinstance(stmt, ast.Continue):
            target = frame.cont if frame.cont is not None else self.cfg.exit
            self.cfg.nodes[node].succs.add(target)
            return []
        return [node]

    def _build_if(
        self, stmt: ast.If, preds: List[int], frame: _Frame
    ) -> List[int]:
        test = self._stmt_node(stmt, frame)
        self._connect(preds, test)
        exits = self.build_body(stmt.body, [test], frame)
        if stmt.orelse:
            exits += self.build_body(stmt.orelse, [test], frame)
        else:
            exits.append(test)
        return exits

    def _build_loop(
        self, stmt: ast.stmt, preds: List[int], frame: _Frame
    ) -> List[int]:
        head = self._stmt_node(stmt, frame)
        self._connect(preds, head)
        after = self.cfg._add("join")
        self.cfg.nodes[head].succs.add(after)  # zero iterations / test false
        inner = _Frame(exc=frame.exc, ret=frame.ret, brk=after, cont=head)
        body: Sequence[ast.stmt] = stmt.body  # type: ignore[attr-defined]
        body_exits = self.build_body(body, [head], inner)
        self._connect(body_exits, head)
        orelse: Sequence[ast.stmt] = getattr(stmt, "orelse", [])
        if orelse:
            else_exits = self.build_body(orelse, [head], frame)
            self._connect(else_exits, after)
        return [after]

    def _build_with(
        self, stmt: ast.stmt, preds: List[int], frame: _Frame
    ) -> List[int]:
        head = self._stmt_node(stmt, frame)
        self._connect(preds, head)
        with_exit = self.cfg._add("with-exit", stmt)
        self.cfg.nodes[with_exit].exc_succs.add(frame.exc)
        inner = _Frame(
            exc=with_exit, ret=frame.ret, brk=frame.brk, cont=frame.cont
        )
        body: Sequence[ast.stmt] = stmt.body  # type: ignore[attr-defined]
        body_exits = self.build_body(body, [head], inner)
        self._connect(body_exits, with_exit)
        return [with_exit]

    def _build_match(
        self, stmt: ast.AST, preds: List[int], frame: _Frame
    ) -> List[int]:
        subject = self._stmt_node(stmt, frame)  # type: ignore[arg-type]
        self._connect(preds, subject)
        exits: List[int] = [subject]  # no case may match
        for case in stmt.cases:  # type: ignore[attr-defined]
            exits += self.build_body(case.body, [subject], frame)
        return exits

    def _build_try(
        self, stmt: ast.Try, preds: List[int], frame: _Frame
    ) -> List[int]:
        if stmt.finalbody:
            # Abrupt copy: entered on exceptions and on return/break/
            # continue out of the protected region; resumes the abrupt
            # transfer afterwards (over-approximated as *all* redirected
            # targets plus the uncaught-exception path).
            fin_abrupt = self.cfg._add("join")
            abrupt_exits = self.build_body(stmt.finalbody, [fin_abrupt], frame)
            for index in abrupt_exits:
                self.cfg.nodes[index].exc_succs.add(frame.exc)
                self.cfg.nodes[index].succs.add(frame.ret)
                if frame.brk is not None:
                    self.cfg.nodes[index].succs.add(frame.brk)
                if frame.cont is not None:
                    self.cfg.nodes[index].succs.add(frame.cont)
            inner_exc: int = fin_abrupt
            inner = _Frame(
                exc=fin_abrupt,
                ret=fin_abrupt,
                brk=fin_abrupt if frame.brk is not None else None,
                cont=fin_abrupt if frame.cont is not None else None,
            )
        else:
            inner_exc = frame.exc
            inner = frame

        handler_frame = inner
        if stmt.handlers:
            # Exceptions in the body fan out to every handler plus the
            # uncaught path (no type matching — extra edges, never
            # missing ones).
            dispatch = self.cfg._add("join")
            self.cfg.nodes[dispatch].succs.add(inner_exc)
            body_frame = _Frame(
                exc=dispatch, ret=inner.ret, brk=inner.brk, cont=inner.cont
            )
        else:
            dispatch = -1
            body_frame = inner

        body_exits = self.build_body(stmt.body, preds, body_frame)
        if stmt.orelse:
            body_exits = self.build_body(stmt.orelse, body_exits, inner)

        open_exits = list(body_exits)
        for handler in stmt.handlers:
            head = self.cfg._add("stmt", handler)
            self.cfg.nodes[dispatch].succs.add(head)
            open_exits += self.build_body(handler.body, [head], handler_frame)

        if stmt.finalbody:
            fin_normal = self.cfg._add("join")
            self._connect(open_exits, fin_normal)
            return self.build_body(stmt.finalbody, [fin_normal], frame)
        return open_exits


def build_cfg(func: ast.AST) -> CFG:
    """Build the statement-level CFG of one function body.

    ``func`` is an ``ast.FunctionDef`` / ``ast.AsyncFunctionDef``;
    nested function definitions are single opaque statements (they get
    their own graphs).  The returned graph always routes every path to
    :attr:`CFG.exit`.
    """
    cfg = CFG()
    builder = _Builder(cfg)
    frame = _Frame(exc=cfg.exit, ret=cfg.exit)
    body: Sequence[ast.stmt] = func.body  # type: ignore[attr-defined]
    exits = builder.build_body(body, [cfg.entry], frame)
    builder._connect(exits, cfg.exit)
    return cfg
