"""Observability: span tracing, labeled metrics, and exporters.

The package the rest of the stack imports as ``from repro import obs``:

- ``obs.span("cegar:iter", iteration=n)`` — contextvar-scoped nested
  spans (a shared no-op singleton while disabled, so hot loops pay one
  global load + comparison);
- ``obs.event(...)`` / ``obs.complete_span(...)`` / ``obs.annotate(...)``
  — markers, after-the-fact spans, and attribute attachment;
- ``obs.metrics`` — the labeled counter/gauge/histogram registry the
  existing :class:`~repro.solver.stats.SolverStats` tallies feed;
- ``obs.snapshot()`` — the JSON-shaped combined state (the ``/stats``
  surface of the future serve daemon);
- :class:`~repro.obs.export.ObsRun` — per-invocation orchestration
  (spool directory, worker shipping, artifact writing), wired to the
  ``--trace`` / ``--trace-format`` / ``--metrics-json`` /
  ``--slow-query-ms`` CLI flags.

Worker processes call :func:`configure_worker` from the pool
initializer with :meth:`ObsRun.worker_config`'s dict; each job
boundary calls :func:`checkpoint` so the parent can merge worker
metrics without shared memory.  Everything degrades silently: a broken
spool directory loses telemetry, never results.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from repro.obs import metrics
from repro.obs.tracer import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    SpoolSink,
    Tracer,
    annotate,
    complete_span,
    current_span,
    enabled,
    event,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "NOOP_SPAN",
    "NoopSpan",
    "Span",
    "SpoolSink",
    "Tracer",
    "annotate",
    "checkpoint",
    "complete_span",
    "configure_worker",
    "current_span",
    "enabled",
    "event",
    "get_tracer",
    "metrics",
    "set_tracer",
    "shutdown",
    "snapshot",
    "span",
]

#: Sink used by ``checkpoint()`` to ship metrics without a tracer
#: (``--metrics-json`` alone keeps span overhead at zero).
_CHECKPOINT_SINK: Optional[SpoolSink] = None
_CHECKPOINT_SEQ = 0
_CHECKPOINT_LOCK = threading.Lock()


def configure_worker(config: Optional[dict]) -> None:
    """Install the run's observability in a worker process.

    ``config`` is :meth:`repro.obs.export.ObsRun.worker_config` output
    (or ``None``/empty to leave the worker untouched).  Safe under both
    fork and spawn start methods: a forked worker that inherited the
    parent's tracer is simply re-pointed at the same spool (the sink's
    pid guard would already have reopened a per-pid file).
    """
    global _CHECKPOINT_SINK
    if not config:
        return
    spool = config.get("spool")
    if not spool:
        return
    sink = SpoolSink(spool)
    _CHECKPOINT_SINK = sink
    if config.get("trace_spans") or config.get("slow_query_ms") is not None:
        set_tracer(
            Tracer(
                sink,
                record_spans=bool(config.get("trace_spans")),
                slow_query_ms=config.get("slow_query_ms"),
            )
        )
    if config.get("metrics"):
        metrics.set_registry(metrics.MetricsRegistry())


def checkpoint() -> None:
    """Spool a cumulative metrics snapshot for this process.

    Called at job boundaries in workers; the parent's merge keeps the
    *latest* checkpoint per pid, so calling often only costs I/O.
    """
    global _CHECKPOINT_SEQ
    registry = metrics.get_registry()
    if registry is None:
        return
    tracer = get_tracer()
    sink = (
        tracer.sink
        if tracer is not None and tracer.sink is not None
        else _CHECKPOINT_SINK
    )
    if sink is None:
        return
    with _CHECKPOINT_LOCK:
        _CHECKPOINT_SEQ += 1
        seq = _CHECKPOINT_SEQ
    sink.write(
        {
            "k": "metrics",
            "pid": os.getpid(),
            "seq": seq,
            "data": registry.snapshot(),
        }
    )


def store_counters() -> dict:
    """Aggregate disk-store health for this process: load/store/failure
    and corruption-eviction totals per kind (``query``, ``dfa``, and
    ``artifact`` once one is open) across every live store handle.
    ``corrupt_evictions`` climbing is the operator's early-warning for
    a bad disk (or an active chaos plan) — entries being garbled and
    silently re-solved instead of served.
    """
    # Lazy import: ``repro.diskstore`` imports ``repro.obs`` at module
    # level, so the reverse edge must stay inside the function body.
    from repro.diskstore import store_counters as _store_counters

    return _store_counters()


def snapshot() -> dict:
    """JSON-shaped combined observability state of this process.

    The ``/stats`` surface of the future serve daemon: tracer counters
    and the slow-query ring under ``"tracing"``, the full metrics
    registry under ``"metrics"`` (each ``None`` while disabled), and
    the disk stores' aggregate health under ``"stores"`` (always
    present — store counters are plain integers, not gated telemetry).
    """
    tracer = get_tracer()
    registry = metrics.get_registry()
    return {
        "pid": os.getpid(),
        "tracing": tracer.snapshot() if tracer is not None else None,
        "metrics": registry.snapshot() if registry is not None else None,
        "stores": store_counters(),
    }


def shutdown() -> None:
    """Disable tracing and metrics and release the spool sink."""
    global _CHECKPOINT_SINK
    tracer = get_tracer()
    set_tracer(None)
    metrics.disable()
    if tracer is not None and tracer.sink is not None:
        tracer.sink.close()
    if _CHECKPOINT_SINK is not None:
        _CHECKPOINT_SINK.close()
        _CHECKPOINT_SINK = None
