"""In-memory wall-clock span recorder of the end-to-end benchmark.

The benchmark wraps its calls into the program's public functions in
spans (name, start, end, parent, request id).  Spans are kept in a list
and written as one JSON document when the run ends; nothing inside
``src/`` is instrumented.  The parent of a span is the span that was
current where it was opened; ``contextvars`` carries that across
``asyncio`` tasks, so the eight in-flight ``serve.request`` spans of a
serve phase all hang under the ``serve.phase`` span that created their
tasks.

A span's *self time* is its duration minus the part of that interval
its child spans cover (the union of the children, so overlapping
children are not counted twice).
"""

from __future__ import annotations

import contextvars
import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["SpanRecorder", "NullRecorder", "self_times", "coverage"]

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_current_span", default=-1
)


class NullRecorder:
    """Recorder of the untraced rounds: opening a span does nothing."""

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        """No-op stand-in for :meth:`SpanRecorder.span`."""
        yield


class SpanRecorder:
    """Collects spans as dicts ``{id, name, start, end, parent, request}``.

    ``start``/``end`` are ``time.perf_counter`` seconds relative to the
    recorder's creation.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[None]:
        """Record one span around the ``with`` body."""
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": _CURRENT.get(),
            "request": request,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        token = _CURRENT.set(record["id"])
        try:
            yield
        finally:
            _CURRENT.reset(token)
            record["end"] = time.perf_counter() - self._t0

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write every span, with ``header``, as one JSON document."""
        document = dict(header)
        document["schema"] = "repro.e2e-spans/v1"
        document["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")


def _covered(intervals: List[List[float]]) -> float:
    """Total length of the union of ``[start, end]`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Seconds of self time per span id."""
    children: Dict[int, List[List[float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            [span["start"], span["end"]]
        )
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []))
        for span in spans
    }


def coverage(spans: List[Dict[str, Any]], name: str) -> float:
    """Share of the first span called ``name`` that its children cover."""
    own = self_times(spans)
    for span in spans:
        if span["name"] == name:
            duration = span["end"] - span["start"]
            return 1.0 - own[span["id"]] / duration if duration else 0.0
    return 0.0
