"""Clock abstraction for the serving layer: virtual vs wall time.

The serving layer runs on two different clocks and must never confuse
them:

* the **virtual** stream clock of :meth:`QueryService.run_trace
  <repro.serve.service.QueryService.run_trace>` /
  :meth:`~repro.serve.service.QueryService.run_stream`, where "now" is
  a pure function of the arrival trace and the paper's service-time
  model — this is what makes served runs bit-for-bit reproducible;
* the **wall** clock of the live asyncio front door, where "now" is
  whatever the event loop says.

Before this module, the wall clock leaked into the service as raw
``asyncio.get_running_loop().time()`` calls, indistinguishable (to a
reader or a static analyzer) from the virtual timestamps around them.
Now every "what time is it?" question goes through a :class:`Clock`,
and the ``no-wall-clock-in-virtual-time`` lint rule
(:mod:`repro.lint.concurrency`) statically verifies that nothing
reachable from the virtual-time entry points reads wall time — this
module is the single sanctioned wall-clock boundary and is exempt by
name.

**VirtualClock contract** (enforced at runtime; ``test_serve_clock``
pins the served timeline end to end):

* ``now_ms()`` returns the last instant the clock was advanced to
  (initially ``start_ms``);
* ``advance_to(t)`` / ``advance(dt)`` move the clock forward only —
  moving backwards raises ``ValueError`` (time in a deterministic
  replay never rewinds);
* after :meth:`QueryService.run_stream
  <repro.serve.service.QueryService.run_stream>` drains a source, the
  clock sits exactly on the report's ``completion_ms``.
"""

from __future__ import annotations

import asyncio
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "VirtualClock", "LoopClock"]


@runtime_checkable
class Clock(Protocol):
    """Anything that can answer "what time is it?" in milliseconds."""

    def now_ms(self) -> float:
        """The current instant on this clock, in milliseconds."""
        ...


class VirtualClock:
    """Deterministic, manually-advanced stream clock.

    The virtual-time planner owns one per run and advances it to each
    batch's flush and completion instants; everything stamped from it
    (trace events, latencies) is therefore a pure function of the
    arrival trace.  The clock is monotone by contract: advancing
    backwards raises instead of silently rewinding history.
    """

    __slots__ = ("_now_ms",)

    def __init__(self, start_ms: float = 0.0):
        if start_ms < 0:
            raise ValueError(f"start_ms must be >= 0, got {start_ms}")
        self._now_ms = float(start_ms)

    def now_ms(self) -> float:
        """The instant the clock was last advanced to."""
        return self._now_ms

    def advance_to(self, instant_ms: float) -> float:
        """Move the clock forward to ``instant_ms``; returns it.

        Raises ``ValueError`` if ``instant_ms`` lies in the past —
        virtual time never rewinds.
        """
        if instant_ms < self._now_ms:
            raise ValueError(
                f"virtual clock cannot rewind: now={self._now_ms} ms, "
                f"requested {instant_ms} ms"
            )
        self._now_ms = float(instant_ms)
        return self._now_ms

    def advance(self, delta_ms: float) -> float:
        """Move the clock forward by ``delta_ms`` >= 0; returns now."""
        if delta_ms < 0:
            raise ValueError(f"delta_ms must be >= 0, got {delta_ms}")
        return self.advance_to(self._now_ms + delta_ms)


class LoopClock:
    """The asyncio event loop's monotonic clock, in milliseconds.

    This is the **only** sanctioned wall-clock read in the serving
    layer (the module is name-exempted by the
    ``no-wall-clock-in-virtual-time`` rule); the asyncio front door
    uses it to stamp admissions.  ``now_ms`` requires a running event
    loop.
    """

    __slots__ = ()

    def now_ms(self) -> float:
        """Milliseconds on the running event loop's monotonic clock."""
        return asyncio.get_running_loop().time() * 1000.0
