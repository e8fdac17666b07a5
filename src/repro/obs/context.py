"""Ambient observation context: one tracer/registry for a whole run.

The experiment harness (:mod:`repro.experiments.harness`) and the figure
runners construct engines internally, so there is no argument path to
hand them a tracer.  Instead, every engine that was not given an
explicit ``tracer`` falls back to :func:`current_tracer` at query time —
wrapping any existing experiment in :func:`observe` is therefore enough
to trace it end to end::

    from repro.obs import MetricsRegistry, RecordingTracer, observe
    from repro.experiments import run_fig12_speedup_uniform

    tracer = RecordingTracer(metrics=MetricsRegistry())
    with observe(tracer):
        run_fig12_speedup_uniform(scale=0.25)
    # tracer.events / tracer.metrics now hold the whole run

Outside any :func:`observe` block, :func:`current_tracer` returns the
:data:`~repro.obs.tracer.NULL_TRACER` singleton, so the default cost is
one context-variable read per query — page-level hot paths are guarded
by ``tracer.enabled`` and never reach this module.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["observe", "current_tracer", "current_metrics"]

_ACTIVE_TRACER: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_tracer", default=None
)
_ACTIVE_METRICS: ContextVar[Optional[MetricsRegistry]] = ContextVar(
    "repro_obs_metrics", default=None
)


def current_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """``tracer`` when given, else the tracer of the innermost
    :func:`observe` block (or the null tracer) — how every engine,
    simulator and service resolves its own ``tracer`` argument."""
    if tracer is None:
        tracer = _ACTIVE_TRACER.get()
    return tracer if tracer is not None else NULL_TRACER


def current_metrics(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[MetricsRegistry]:
    """``metrics`` when given, else the registry of the innermost
    :func:`observe` block, if any.

    Falls back to the active tracer's ``metrics`` attribute so
    ``observe(RecordingTracer(metrics=registry))`` publishes simulator
    aggregates without repeating the registry, and last to the
    ``metrics`` of ``tracer`` (the caller's own tracer).
    """
    if metrics is None:
        metrics = _ACTIVE_METRICS.get()
    if metrics is None:
        metrics = getattr(_ACTIVE_TRACER.get(), "metrics", None)
    if metrics is None:
        metrics = getattr(tracer, "metrics", None)
    return metrics


@contextlib.contextmanager
def observe(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Tracer]:
    """Make ``tracer``/``metrics`` ambient for the enclosed block.

    Every engine or simulator constructed (or queried) inside the block
    without an explicit ``tracer`` argument reports into these.  Blocks
    nest; the inner one wins.
    """
    active = tracer if tracer is not None else NULL_TRACER
    tracer_token = _ACTIVE_TRACER.set(active)
    metrics_token = _ACTIVE_METRICS.set(metrics)
    try:
        yield active
    finally:
        _ACTIVE_TRACER.reset(tracer_token)
        _ACTIVE_METRICS.reset(metrics_token)
