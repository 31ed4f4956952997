"""Span-based tracing: contextvar-scoped, nested, thread/process-safe.

The design constraint that shapes everything here is the *disabled*
path: the instrumentation points live on the solver's hottest loops
(per-query, per-refinement-iteration, per-backend-dispatch), so when no
``--trace``/``--slow-query-ms`` was requested the module-level helpers
must cost one global load, one comparison, and a returned singleton —
no allocation, no clock read, no lock.  ``repro.obs`` re-exports these
helpers; instrumented code calls ``obs.span(...)`` and never checks a
flag itself.

When enabled, each process appends JSON-line records to its own spool
file (``obs-<pid>.jsonl`` under the run's spool directory) — workers
never contend on a shared file, and the runner merges the spool
deterministically at the end of the run (:mod:`repro.obs.export`).
Timestamps are epoch-anchored ``perf_counter`` readings: one anchor
(``time.time() - perf_counter()``) is computed per tracer, so spans
within a process order exactly by the monotonic clock while staying
comparable across processes to wall-clock precision.

Thread-safety: the current span lives in a :class:`contextvars.ContextVar`
(per-thread by construction); the sink serializes writes with a lock.
contextvars do *not* propagate into ``ThreadPoolExecutor`` worker
threads, so code that fans out to threads (the portfolio backend)
passes the parent span explicitly via ``span(..., parent=...)``.

Fork-safety: the sink records its creating pid and reopens a fresh
``obs-<pid>.jsonl`` on first write after a fork, so a forked worker
inheriting the parent's configured tracer never appends to the
parent's file.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

#: The innermost open span of the current thread/context (or ``None``).
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Span names eligible for the slow-query log.  These are the "one
#: solver query" units — a CEGAR run or a raw DSE flip — where a
#: canonical fingerprint / backend / refinement depth annotation makes
#: the log entry actionable.
SLOW_FAMILIES = ("cegar:solve", "dse:flip")


class NoopSpan:
    """The shared do-nothing span returned while tracing is disabled.

    ``attrs`` is a class-level empty dict so callers may read
    ``span.attrs.get(...)`` unconditionally; ``set`` ignores its
    arguments (callers must not rely on attrs persisting on it).
    """

    __slots__ = ()

    attrs: Dict[str, Any] = {}
    span_id: Optional[str] = None
    name = ""

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()


class Span:
    """One live span: context manager that records itself on exit."""

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "seq",
        "tid",
        "ts",
        "dur",
        "_t0",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        parent_id: Optional[str],
        seq: int,
    ):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.seq = seq
        self.span_id = f"{tracer.pid}-{seq}"
        self.parent_id = parent_id
        self.tid = threading.get_ident()
        self._t0 = time.perf_counter()
        self.ts = tracer.epoch_anchor + self._t0
        self.dur = 0.0
        self._token: Optional[contextvars.Token] = None

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.dur = time.perf_counter() - self._t0
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.tracer.finish(self)
        return False


class SpoolSink:
    """Per-process JSON-lines writer into a shared spool directory.

    One file per pid; a pid change (fork) reopens transparently.  All
    I/O is best-effort — observability must never take down the run.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._lock = threading.Lock()
        self._pid: Optional[int] = None
        self._file = None

    def _handle(self):
        pid = os.getpid()
        if self._file is None or self._pid != pid:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
            os.makedirs(self.directory, exist_ok=True)
            self._pid = pid
            self._file = open(
                os.path.join(self.directory, f"obs-{pid}.jsonl"),
                "a",
                encoding="utf-8",
            )
        return self._file

    def write(self, record: dict) -> None:
        try:
            line = json.dumps(record, default=repr)
        except (TypeError, ValueError):
            return
        with self._lock:
            try:
                handle = self._handle()
                handle.write(line + "\n")
                handle.flush()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                try:
                    self._file.close()
                except OSError:
                    pass
                self._file = None
                self._pid = None


class Tracer:
    """The per-process recording engine behind ``obs.span()``.

    ``record_spans=False`` keeps timing (for the slow-query log) while
    writing no per-span records — the ``--slow-query-ms``-only mode.
    ``sink=None`` keeps everything in memory (tests, ``obs.snapshot()``).
    """

    def __init__(
        self,
        sink: Optional[SpoolSink] = None,
        *,
        record_spans: bool = True,
        slow_query_ms: Optional[float] = None,
        slow_families: tuple = SLOW_FAMILIES,
        max_slow_records: int = 256,
    ):
        self.sink = sink
        self.record_spans = record_spans
        self.slow_query_ms = slow_query_ms
        self.slow_families = tuple(slow_families)
        self.max_slow_records = max_slow_records
        self.pid = os.getpid()
        #: Wall-clock origin of the process's perf_counter timeline.
        self.epoch_anchor = time.time() - time.perf_counter()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self.spans_recorded = 0
        self.events_recorded = 0
        self.slow_recorded = 0
        #: Local ring of slow-query entries (newest last), also spooled.
        self.slow_queries: List[dict] = []

    # -- ids -----------------------------------------------------------------

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _fork_guard(self) -> None:
        """After a fork the inherited tracer restarts its id space."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            with self._seq_lock:
                self._seq = 0

    # -- recording -----------------------------------------------------------

    def start_span(
        self,
        name: str,
        attrs: Dict[str, Any],
        parent: Optional[object] = None,
    ) -> Span:
        self._fork_guard()
        if parent is None:
            parent = _CURRENT.get()
        parent_id = getattr(parent, "span_id", None)
        return Span(self, name, attrs, parent_id, self._next_seq())

    def finish(self, span: Span) -> None:
        self.spans_recorded += 1
        if self.record_spans and self.sink is not None:
            self.sink.write(
                {
                    "k": "span",
                    "name": span.name,
                    "id": span.span_id,
                    "parent": span.parent_id,
                    "pid": self.pid,
                    "tid": span.tid,
                    "seq": span.seq,
                    "ts": span.ts,
                    "dur": span.dur,
                    "attrs": span.attrs,
                }
            )
        if (
            self.slow_query_ms is not None
            and span.dur * 1000.0 >= self.slow_query_ms
            and span.name.startswith(self.slow_families)
        ):
            self._record_slow(span)

    def record_complete(
        self, name: str, seconds: float, attrs: Dict[str, Any]
    ) -> None:
        """Record an already-timed span (start = now - seconds).

        Used where a duration is measured anyway (backend ``_tally``):
        the span costs no extra clock reads on the traced path.
        """
        self._fork_guard()
        seq = self._next_seq()
        self.spans_recorded += 1
        if self.record_spans and self.sink is not None:
            now = self.epoch_anchor + time.perf_counter()
            parent = _CURRENT.get()
            self.sink.write(
                {
                    "k": "span",
                    "name": name,
                    "id": f"{self.pid}-{seq}",
                    "parent": getattr(parent, "span_id", None),
                    "pid": self.pid,
                    "tid": threading.get_ident(),
                    "seq": seq,
                    "ts": now - seconds,
                    "dur": seconds,
                    "attrs": attrs,
                }
            )

    def record_event(self, name: str, attrs: Dict[str, Any]) -> None:
        """An instantaneous marker (worker crash, lease revoked, ...)."""
        self._fork_guard()
        seq = self._next_seq()
        self.events_recorded += 1
        if self.record_spans and self.sink is not None:
            parent = _CURRENT.get()
            self.sink.write(
                {
                    "k": "event",
                    "name": name,
                    "id": f"{self.pid}-{seq}",
                    "parent": getattr(parent, "span_id", None),
                    "pid": self.pid,
                    "tid": threading.get_ident(),
                    "seq": seq,
                    "ts": self.epoch_anchor + time.perf_counter(),
                    "attrs": attrs,
                }
            )

    def _record_slow(self, span: Span) -> None:
        self.slow_recorded += 1
        entry = {
            "name": span.name,
            "ms": span.dur * 1000.0,
            "ts": span.ts,
            "pid": self.pid,
            "attrs": dict(span.attrs),
        }
        self.slow_queries.append(entry)
        if len(self.slow_queries) > self.max_slow_records:
            del self.slow_queries[: -self.max_slow_records]
        if self.sink is not None:
            self.sink.write({"k": "slow", **entry})

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "spans_recorded": self.spans_recorded,
            "events_recorded": self.events_recorded,
            "slow_recorded": self.slow_recorded,
            "slow_query_ms": self.slow_query_ms,
            "slow_queries": list(self.slow_queries),
        }


# -- module-level switch (what instrumented code calls) -----------------------

_TRACER: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> None:
    global _TRACER
    _TRACER = tracer


def enabled() -> bool:
    """Whether spans are being timed (tracing and/or slow-query log)."""
    return _TRACER is not None


def span(name: str, parent: Optional[object] = None, **attrs):
    """Open a span (context manager).  The no-op singleton when disabled."""
    tracer = _TRACER
    if tracer is None:
        return NOOP_SPAN
    return tracer.start_span(name, attrs, parent)


def event(name: str, **attrs) -> None:
    """Record an instantaneous event under the current span."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.record_event(name, attrs)


def complete_span(name: str, seconds: float, **attrs) -> None:
    """Record an already-timed span ending now (see ``record_complete``)."""
    tracer = _TRACER
    if tracer is None:
        return
    tracer.record_complete(name, seconds, attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the current span, if any."""
    if _TRACER is None:
        return
    current = _CURRENT.get()
    if current is not None:
        current.attrs.update(attrs)


def current_span() -> Optional[Span]:
    """The innermost open span of this thread/context (or ``None``)."""
    return _CURRENT.get()
