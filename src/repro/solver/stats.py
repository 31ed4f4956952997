"""Instrumentation counters for the solver and the CEGAR loop.

The paper's Table 8 and §7.4 report per-query and per-package solver
times, broken down by whether the query modelled capture groups and
whether refinement was needed.  This module provides the collector those
experiments read from.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import metrics as _metrics


#: The solver's work counters, carried by ``SolverResult`` and summed
#: into :class:`QueryRecord` by callers that make several raw solves.
WORK_COUNTERS = (
    "cores_tried", "candidates_tried", "concat_refuted", "prefixes_refuted",
    "literals_ingested", "units",
)

#: The cause an UNKNOWN from a backend that names none (an external
#: solver) is counted under.
UNNAMED_CAUSE = "backend"


@dataclass
class QueryRecord:
    """One solver query (one ``Solve(P)`` call in Algorithm 1's loop)."""

    seconds: float
    status: str
    cores_tried: int = 0
    candidates_tried: int = 0
    had_regex: bool = False
    had_captures: bool = False
    refinements: int = 0
    hit_refinement_limit: bool = False
    #: Cores and partial conjunctions refuted by upward language
    #: propagation (an empty concatenation language) rather than by
    #: search.  A prefix refuted this way counts here and in
    #: ``prefixes_refuted``.
    concat_refuted: int = 0
    #: Partial conjunctions refuted while enumerating cores (each one
    #: skips every core that extends it).
    prefixes_refuted: int = 0
    #: Literals the solver's incremental core took in: a conjunction
    #: re-ingests only those it does not share with the previous one.
    literals_ingested: int = 0
    #: Work units spent from the solver's per-query budgets.
    units: int = 0
    #: Why an UNKNOWN is one (``repro.solver.core``'s cause names, or
    #: ``refinement_limit``); ``None`` otherwise.
    unknown_cause: Optional[str] = None

    @property
    def settled(self) -> bool:
        """Whether the verdict is the same on every run: SAT, UNSAT, or
        an UNKNOWN for a named cause other than the wall-clock
        backstop."""
        return self.status != "unknown" or self.unknown_cause not in (
            None, "timeout"
        )


@dataclass
class BackendTally:
    """Outcome/latency counters for one solver backend (by spec name)."""

    queries: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    errors: int = 0
    seconds: float = 0.0
    #: Most recent error detail (``"ExcType: message"``) — populated by
    #: crash-capturing callers (the portfolio's member wrapper) so a
    #: crashed backend is diagnosable from the tallies, not just a bare
    #: ``errors`` count.
    last_error: Optional[str] = None

    @property
    def definitive(self) -> int:
        return self.sat + self.unsat

    @property
    def definitive_rate(self) -> float:
        return self.definitive / self.queries if self.queries else 0.0

    def add(self, status: str, seconds: float,
            error: Optional[str] = None) -> None:
        self.queries += 1
        self.seconds += seconds
        if status == "sat":
            self.sat += 1
        elif status == "unsat":
            self.unsat += 1
        elif status == "error":
            self.errors += 1
        else:
            self.unknown += 1
        if error is not None:
            self.last_error = error

    def as_dict(self) -> dict:
        shaped = {
            "queries": self.queries,
            "sat": self.sat,
            "unsat": self.unsat,
            "unknown": self.unknown,
            "errors": self.errors,
            "seconds": self.seconds,
            "definitive_rate": self.definitive_rate,
        }
        if self.last_error is not None:
            # Only when an error was captured: the common clean-path
            # payload keeps its pre-existing shape exactly.
            shaped["last_error"] = self.last_error
        return shaped

    def merge_dict(self, other: dict) -> None:
        """Fold a JSON-shaped tally (``as_dict`` output) into this one."""
        self.queries += other.get("queries", 0)
        self.sat += other.get("sat", 0)
        self.unsat += other.get("unsat", 0)
        self.unknown += other.get("unknown", 0)
        self.errors += other.get("errors", 0)
        self.seconds += other.get("seconds", 0.0)
        if other.get("last_error") is not None:
            self.last_error = other["last_error"]


@dataclass
class SessionTally:
    """Lifecycle counters for one incremental solver session (by name).

    ``seconds`` is cumulative subprocess lifetime: each spawn's clock is
    added when the process ends (crash, reset-kill, or close).  The
    amortization claim of the session backend is ``queries_per_spawn``:
    a healthy session answers many queries per subprocess spawn, where
    the one-shot ``smtlib:`` backend is pinned at 1.
    """

    spawns: int = 0
    restarts: int = 0
    resets: int = 0
    queries: int = 0
    seconds: float = 0.0
    #: Pool traffic (populated by ``repro.solver.backends.pool``): how
    #: many times this session spec was leased from the shared pool,
    #: and how many of those leases had to block on the request queue.
    checkouts: int = 0
    waits: int = 0

    @property
    def queries_per_spawn(self) -> float:
        return self.queries / self.spawns if self.spawns else 0.0

    def add(
        self,
        spawns: int = 0,
        restarts: int = 0,
        resets: int = 0,
        queries: int = 0,
        seconds: float = 0.0,
        checkouts: int = 0,
        waits: int = 0,
    ) -> None:
        self.spawns += spawns
        self.restarts += restarts
        self.resets += resets
        self.queries += queries
        self.seconds += seconds
        self.checkouts += checkouts
        self.waits += waits

    def as_dict(self) -> dict:
        return {
            "spawns": self.spawns,
            "restarts": self.restarts,
            "resets": self.resets,
            "queries": self.queries,
            "seconds": self.seconds,
            "checkouts": self.checkouts,
            "waits": self.waits,
            "queries_per_spawn": self.queries_per_spawn,
        }

    def merge_dict(self, other: dict) -> None:
        """Fold a JSON-shaped tally (``as_dict`` output) into this one."""
        self.add(
            spawns=other.get("spawns", 0),
            restarts=other.get("restarts", 0),
            resets=other.get("resets", 0),
            queries=other.get("queries", 0),
            seconds=other.get("seconds", 0.0),
            checkouts=other.get("checkouts", 0),
            waits=other.get("waits", 0),
        )


@dataclass
class SolverStats:
    """Aggregated statistics across queries (reset per experiment)."""

    queries: List[QueryRecord] = field(default_factory=list)
    #: Solver query cache counters (populated when solving through a
    #: :class:`repro.solver.backends.cached.CachedSolver`).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Per-backend outcome/latency tallies, keyed by backend name
    #: (populated when solving through ``repro.solver.backends``).
    backend_tallies: Dict[str, BackendTally] = field(default_factory=dict)
    #: Incremental-session lifecycle counters, keyed by session backend
    #: name (populated by ``repro.solver.backends.session``).
    session_tallies: Dict[str, SessionTally] = field(default_factory=dict)
    #: Routing decision counters, keyed by ``"<feature>-><target>"``
    #: (populated by ``repro.solver.backends.router``).
    route_tallies: Dict[str, int] = field(default_factory=dict)
    #: Circuit-breaker transition counters, keyed by
    #: ``"<command>:<event>"`` (``open`` / ``close`` / ``reopen`` /
    #: ``probe`` / ``short_circuit`` — populated by
    #: ``repro.faults.breaker`` through the session backends).
    breaker_tallies: Dict[str, int] = field(default_factory=dict)
    #: Soundness trip-wire counters, keyed by the disagreeing member
    #: pair (``"<member-a>|<member-b>"``) — populated by collect-mode
    #: portfolios and the conformance oracle when two sound-by-
    #: construction deciders return contradictory definitive answers.
    #: Empty on every honest run.
    disagreement_tallies: Dict[str, int] = field(default_factory=dict)
    #: Automata compilation-cache counters (this run's share of the
    #: process-global interner; populated by the engine and the service
    #: jobs from :func:`repro.automata.automata_cache_counters` deltas).
    automata_hits: int = 0
    automata_misses: int = 0
    automata_disk_hits: int = 0
    automata_disk_stores: int = 0
    #: Ring-buffer cap on ``queries``: daemon-length runs record
    #: millions of :class:`QueryRecord`\ s, so past the cap the oldest
    #: records are dropped (and counted in ``dropped_query_records``)
    #: instead of leaking memory.  ``None`` keeps every record.
    max_query_records: Optional[int] = None
    dropped_query_records: int = 0
    #: Backend tallies are the one path mutated from worker threads (a
    #: portfolio's members — including abandoned stragglers finishing
    #: late — all share this object), so they get their own lock.
    _tally_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, record: QueryRecord) -> None:
        with self._tally_lock:
            self.queries.append(record)
            if (
                self.max_query_records is not None
                and len(self.queries) > self.max_query_records
            ):
                overflow = len(self.queries) - self.max_query_records
                del self.queries[:overflow]
                self.dropped_query_records += overflow
        _metrics.count(
            "solver_queries_total",
            status=record.status,
            refined=str(record.refinements > 0).lower(),
        )
        if record.status == "unknown":
            _metrics.count(
                "solver_unknown_total",
                cause=record.unknown_cause or UNNAMED_CAUSE,
            )
        _metrics.observe("solver_query_seconds", record.seconds)

    def record_cache(self, hit: bool) -> None:
        # Cached backends race as portfolio members on worker threads
        # and share this object, so the counters take the tally lock
        # exactly like ``record_backend`` does.
        with self._tally_lock:
            if hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
        _metrics.count(
            "query_cache_lookups_total",
            outcome="hit" if hit else "miss",
        )

    def record_backend(self, name: str, status: str, seconds: float,
                       error: Optional[str] = None) -> None:
        with self._tally_lock:
            tally = self.backend_tallies.get(name)
            if tally is None:
                tally = self.backend_tallies[name] = BackendTally()
            tally.add(status, seconds, error=error)
        _metrics.count("backend_queries_total", backend=name, status=status)
        _metrics.observe("backend_seconds", seconds, backend=name)

    def record_session(self, name: str, **delta: float) -> None:
        """Fold session lifecycle counters for backend ``name``.

        Keyword counters are those of :meth:`SessionTally.add`
        (``spawns``, ``restarts``, ``resets``, ``queries``, ``seconds``).
        Sessions share the tally lock with backend tallies: a session
        racing inside a portfolio reports from a worker thread.
        """
        with self._tally_lock:
            tally = self.session_tallies.get(name)
            if tally is None:
                tally = self.session_tallies[name] = SessionTally()
            tally.add(**delta)
        if _metrics.enabled():
            for kind, amount in delta.items():
                if amount and kind != "seconds":
                    _metrics.count(
                        "session_events_total",
                        amount,
                        session=name,
                        kind=kind,
                    )

    def record_route(self, feature: str, target: str) -> None:
        """Count one routing decision ``feature -> target``."""
        key = f"{feature}->{target}"
        with self._tally_lock:
            self.route_tallies[key] = self.route_tallies.get(key, 0) + 1
        _metrics.count("route_decisions_total", route=feature, target=target)

    def record_breaker(self, name: str, event: str) -> None:
        """Count one circuit-breaker event for session command ``name``
        (``open`` / ``close`` / ``reopen`` / ``probe`` /
        ``short_circuit``).  The breaker itself mirrors transitions into
        obs metrics; this is the per-run bucketing for payloads."""
        key = f"{name}:{event}"
        with self._tally_lock:
            self.breaker_tallies[key] = self.breaker_tallies.get(key, 0) + 1

    def record_disagreement(self, pair: str) -> None:
        """Count one backend disagreement for member pair ``pair``
        (``"<member-a>|<member-b>"``).  Disagreements surface from
        worker threads (a portfolio's grace window) and from the
        conformance oracle, so they share the tally lock."""
        with self._tally_lock:
            self.disagreement_tallies[pair] = (
                self.disagreement_tallies.get(pair, 0) + 1
            )
        _metrics.count("backend_disagreements_total", pair=pair)

    def record_automata(self, delta: Dict[str, int]) -> None:
        """Fold a compilation-cache counters delta into this collector.

        Deliberately does *not* mirror into ``repro.obs.metrics``: the
        interner feeds the registry directly at lookup time, and this
        method only re-buckets those same global counters per run.
        """
        with self._tally_lock:
            self.automata_hits += delta.get("hits", 0)
            self.automata_misses += delta.get("misses", 0)
            self.automata_disk_hits += delta.get("disk_hits", 0)
            self.automata_disk_stores += delta.get("disk_stores", 0)

    def automata_summary(self) -> dict:
        """JSON-shaped compilation-cache counters (for payloads/reports)."""
        lookups = (
            self.automata_hits + self.automata_disk_hits
            + self.automata_misses
        )
        return {
            "hits": self.automata_hits,
            "misses": self.automata_misses,
            "disk_hits": self.automata_disk_hits,
            "disk_stores": self.automata_disk_stores,
            "hit_rate": (
                (self.automata_hits + self.automata_disk_hits) / lookups
                if lookups
                else 0.0
            ),
        }

    def backend_summary(self) -> Dict[str, dict]:
        """JSON-shaped per-backend tallies (for job payloads/reports)."""
        with self._tally_lock:
            return {
                name: tally.as_dict()
                for name, tally in sorted(self.backend_tallies.items())
            }

    def session_summary(self) -> Dict[str, dict]:
        """JSON-shaped per-session tallies (for job payloads/reports)."""
        with self._tally_lock:
            return {
                name: tally.as_dict()
                for name, tally in sorted(self.session_tallies.items())
            }

    def route_summary(self) -> Dict[str, int]:
        """JSON-shaped routing decision counts (for payloads/reports)."""
        with self._tally_lock:
            return dict(sorted(self.route_tallies.items()))

    def breaker_summary(self) -> Dict[str, int]:
        """JSON-shaped breaker transition counts (for payloads/reports);
        empty on the no-trip fast path."""
        with self._tally_lock:
            return dict(sorted(self.breaker_tallies.items()))

    def disagreement_summary(self) -> Dict[str, int]:
        """JSON-shaped disagreement counts per member pair (for
        payloads and the report's Soundness table); empty on every
        honest run."""
        with self._tally_lock:
            return dict(sorted(self.disagreement_tallies.items()))

    def cache_summary(self) -> dict:
        """Hit/miss counters of the solver query cache, if one was used."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "lookups": lookups,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
        }

    # -- Table 8 aggregates --------------------------------------------------

    def total_time(self) -> float:
        return sum(q.seconds for q in self.queries)

    def concat_refuted(self) -> int:
        """Cores and prefixes refuted by upward language propagation,
        over all queries."""
        return sum(q.concat_refuted for q in self.queries)

    def prefixes_refuted(self) -> int:
        """Partial conjunctions refuted during core enumeration, over all
        queries."""
        return sum(q.prefixes_refuted for q in self.queries)

    def literals_ingested(self) -> int:
        """Literals ingested by the solver's incremental cores, over all
        queries."""
        return sum(q.literals_ingested for q in self.queries)

    def unknown_causes(self) -> Dict[str, int]:
        """UNKNOWN queries counted by cause; the counts sum to the
        UNKNOWN queries."""
        causes: Dict[str, int] = {}
        for q in self.queries:
            if q.status == "unknown":
                cause = q.unknown_cause or UNNAMED_CAUSE
                causes[cause] = causes.get(cause, 0) + 1
        return dict(sorted(causes.items()))

    def _subset(self, predicate) -> List[QueryRecord]:
        return [q for q in self.queries if predicate(q)]

    def summary(self) -> dict:
        def agg(records: List[QueryRecord]) -> dict:
            if not records:
                return {"count": 0, "min": 0.0, "max": 0.0, "mean": 0.0}
            times = [r.seconds for r in records]
            return {
                "count": len(records),
                "min": min(times),
                "max": max(times),
                "mean": sum(times) / len(times),
            }

        return {
            "all": agg(self.queries),
            "with_captures": agg(self._subset(lambda q: q.had_captures)),
            "with_refinement": agg(self._subset(lambda q: q.refinements > 0)),
            "hit_limit": agg(self._subset(lambda q: q.hit_refinement_limit)),
        }

    def refinement_summary(self) -> dict:
        """The §7.4 numbers: how often refinement ran and how hard it was."""
        regex_queries = self._subset(lambda q: q.had_regex)
        capture_queries = self._subset(lambda q: q.had_captures)
        refined = self._subset(lambda q: q.refinements > 0)
        limited = self._subset(lambda q: q.hit_refinement_limit)
        mean_refinements = (
            sum(q.refinements for q in refined) / len(refined)
            if refined
            else 0.0
        )
        return {
            "total_queries": len(self.queries),
            "dropped_records": self.dropped_query_records,
            "regex_queries": len(regex_queries),
            "capture_queries": len(capture_queries),
            "refined_queries": len(refined),
            "limit_queries": len(limited),
            "mean_refinements": mean_refinements,
        }


#: Global default collector (experiments may substitute their own).
GLOBAL_STATS = SolverStats()


@contextmanager
def timed():
    """Context manager yielding a closure that reports elapsed seconds."""
    start = time.perf_counter()
    box = {}

    def elapsed() -> float:
        return box.get("elapsed", time.perf_counter() - start)

    yield elapsed
    box["elapsed"] = time.perf_counter() - start
