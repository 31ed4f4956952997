"""``cached:<inner>`` — the solver query cache as a backend decorator.

The paper's evaluation re-decides the same string queries thousands of
times: regex literals are heavily duplicated across npm packages
(Table 5: 9.5M occurrences vs 306k unique), so batch analysis keeps
producing structurally identical membership problems.  This module
memoizes *definitive* solver answers across queries, engine runs, and —
through the batch runner — across jobs, for **any** inner backend.

Keying is by :func:`repro.constraints.printer.canonical_fingerprint`:
variables are α-renamed in first-occurrence order, so two translations of
the same regex (which draw fresh variable names from a global counter)
map to the same entry.  Models are stored under canonical names and
translated back through the bijection on a hit.

Soundness rules:

- only ``SAT`` (with its model) and ``UNSAT`` are cached — both are
  definitive for every backend in this package by construction (an
  SMT-LIB subprocess SAT is re-validated natively before it is
  returned, and its UNSAT comes from the exact guarded encoding);
- ``UNKNOWN`` is *never* cached.  The native solver's UNKNOWN for any
  cause but ``timeout`` is a function of the formula and the work
  budget, and the serve daemon replays it for the daemon's lifetime
  (``SolveJob.replayable``).  A store entry, though, outlives the
  process: the budget it was reached under is not in the key, the
  candidate order follows the string hash seed, and another backend
  configuration may decide the query.  Replaying it could turn a
  solvable query into a permanent unknown.

The decorator :class:`CachedBackend` is what the ``cached:<inner>``
spec resolves to; ``QUERY_CODEC`` is the query kind's entry format in a
:class:`~repro.diskstore.DiskStore`.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro import obs
from repro.constraints.formulas import Formula
from repro.constraints.printer import canonical_fingerprint
from repro.constraints.terms import StrVar, Value
from repro.diskstore import Codec, DiskStore, attach, disk_counters
from repro.solver.core import Solver, SolverResult, UNKNOWN
from repro.solver.model import Model
from repro.solver.stats import SolverStats

#: Bump when the on-disk entry layout changes; old entries are ignored.
QUERY_STORE_VERSION = 1
_MAGIC = "repro-query"


@dataclass(frozen=True)
class CachedResult:
    """One cache entry: a definitive status plus the model's assignment
    restricted to the formula's variables, under canonical names."""

    status: str
    assignment: Optional[Tuple[Tuple[str, Value], ...]] = None


def _dump_query(fingerprint: str, entry: CachedResult) -> bytes:
    # The full fingerprint rides inside the blob (entries are named by
    # its hash): verified on load against collisions and foreign files.
    header = (_MAGIC, QUERY_STORE_VERSION, fingerprint)
    return pickle.dumps(header + (entry.status, entry.assignment), protocol=4)


def _load_query(fingerprint: str, data: bytes) -> CachedResult:
    magic, version, stored_fp, status, assignment = pickle.loads(data)
    if (
        magic != _MAGIC
        or version != QUERY_STORE_VERSION
        or stored_fp != fingerprint
    ):
        raise ValueError("mismatched query-store entry")
    return CachedResult(
        str(status),
        None
        if assignment is None
        else tuple((str(n), v) for n, v in assignment),
    )


#: Definitive answers on disk: ``<path>/v1/<sha256(fingerprint)>.qry``.
QUERY_CODEC = Codec(
    "query", QUERY_STORE_VERSION, "qry", _dump_query, _load_query
)


class QueryCache:
    """An LRU map fingerprint → :class:`CachedResult` with counters,
    optionally backed by a persistent query :class:`DiskStore`.

    Process-local.  In the batch runner each worker process keeps one
    instance alive across all jobs it executes (see ``runner.py``), which
    is where cross-job sharing happens; with a store attached
    (``attach_store``) definitive answers additionally persist across
    *invocations* — the warm second batch replays yesterday's solves
    from disk.  A memory miss consults the store; a disk hit is promoted
    into memory and counted as a hit (it avoided a solve).
    """

    def __init__(
        self,
        maxsize: int = 4096,
        store_path: Optional[str] = None,
        store_max_entries: Optional[int] = None,
    ):
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, CachedResult]" = OrderedDict()
        # Guards the LRU structure: the batch runner's inline mode can
        # execute jobs on several threads sharing this one instance
        # (``RunnerConfig.inline_concurrency``), and an OrderedDict
        # mid-``move_to_end`` is not safe to race.
        self._mutex = threading.Lock()
        self.store: Optional[DiskStore] = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        if store_path:
            self.attach_store(store_path, max_entries=store_max_entries)

    def attach_store(
        self, path: Optional[str], max_entries: Optional[int] = None
    ) -> None:
        """Attach (or with ``None`` detach) the on-disk store.

        ``max_entries`` caps the store with age-based GC (see
        :class:`~repro.diskstore.DiskStore`)."""
        self.store = attach(self.store, path, QUERY_CODEC, max_entries)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get(self, key: str) -> Optional[CachedResult]:
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        if self.store is not None:
            entry = self.store.get(key)
            if entry is not None:
                with self._mutex:
                    self._insert(key, entry)
                    self.disk_hits += 1
                    self.hits += 1
                return entry
        with self._mutex:
            self.misses += 1
        return None

    def put(self, key: str, entry: CachedResult) -> None:
        with self._mutex:
            self._insert(key, entry)
        if self.store is not None:
            self.store.put(key, entry)

    def _insert(self, key: str, entry: CachedResult) -> None:
        """Memory-only insert with LRU eviction (no store write-through:
        disk-hit promotion must not rewrite the entry it just read).
        Callers hold ``_mutex``."""
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = entry

    def clear(self) -> None:
        with self._mutex:
            self._entries.clear()

    def counters(self) -> dict:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "disk_hits": self.disk_hits,
            **disk_counters(self.store),
        }


class CachedSolver:
    """Drop-in solver wrapper that memoizes definitive answers.

    Satisfies the solver protocol the engine and CEGAR loop rely on
    (``solve(formula) -> SolverResult``); per-instance ``hits``/``misses``
    counters let each consumer report its own share of a shared cache's
    traffic (e.g. one batch job among many on the same worker).

    The inner ``solver`` may be anything with that protocol — a raw
    :class:`Solver` or any backend from this package.
    """

    def __init__(
        self,
        solver: Optional[Solver] = None,
        cache: Optional[QueryCache] = None,
        stats: Optional[SolverStats] = None,
    ):
        self.solver = solver or Solver()
        self.cache = cache if cache is not None else QueryCache()
        self.stats = stats
        self.hits = 0
        self.misses = 0

    @property
    def timeout(self) -> float:
        return self.solver.timeout

    def solve(self, formula: Formula) -> SolverResult:
        key, renaming = canonical_fingerprint(formula)
        entry = self.cache.get(key)
        if entry is not None:
            self.hits += 1
            if self.stats is not None:
                self.stats.record_cache(hit=True)
            obs.annotate(cache="hit")
            return self._replay(entry, renaming)
        self.misses += 1
        if self.stats is not None:
            self.stats.record_cache(hit=False)
        obs.annotate(cache="miss")
        result = self.solver.solve(formula)
        if result.status != UNKNOWN:
            self.cache.put(key, self._normalize(result, renaming))
        return result

    # -- model translation through the variable bijection -------------------

    @staticmethod
    def _normalize(
        result: SolverResult, renaming: Dict[StrVar, str]
    ) -> CachedResult:
        """Restrict the model to the formula's variables and store it
        under canonical names (internal solver-fresh variables never
        escape to callers, so dropping them is safe)."""
        if result.model is None:
            return CachedResult(result.status, None)
        assignment = tuple(
            (canonical, result.model.assignment[var])
            for var, canonical in renaming.items()
            if var in result.model.assignment
        )
        return CachedResult(result.status, assignment)

    @staticmethod
    def _replay(
        entry: CachedResult, renaming: Dict[StrVar, str]
    ) -> SolverResult:
        if entry.assignment is None:
            return SolverResult(entry.status, None)
        inverse = {canonical: var for var, canonical in renaming.items()}
        model = Model(
            {
                inverse[name]: value
                for name, value in entry.assignment
                if name in inverse
            }
        )
        return SolverResult(entry.status, model)


class CachedBackend(CachedSolver):
    """Memoizing decorator over any inner backend (``cached:<inner>``).

    Adds the backend-API surface on top of :class:`CachedSolver`: a
    ``name`` derived from the inner backend, recursive ``bind_stats``,
    and per-backend outcome/latency tallies.  The tally sink is kept
    deliberately distinct from ``CachedSolver.stats`` (which records
    cache hit/miss events for consumers that track their own share of a
    shared cache).
    """

    def __init__(
        self,
        inner,
        cache: Optional[QueryCache] = None,
        maxsize: int = 4096,
        tally_stats: Optional[SolverStats] = None,
        stats: Optional[SolverStats] = None,
    ):
        super().__init__(
            inner,
            cache=cache if cache is not None else QueryCache(maxsize=maxsize),
            stats=stats if stats is not None else tally_stats,
        )
        self.tally_stats = tally_stats

    @property
    def name(self) -> str:
        return f"cached:{getattr(self.solver, 'name', 'native')}"

    def bind_stats(self, stats: SolverStats) -> None:
        if self.tally_stats is None:
            self.tally_stats = stats
        if self.stats is None:
            self.stats = stats  # hit/miss events reach cache_summary()
        binder = getattr(self.solver, "bind_stats", None)
        if callable(binder):
            binder(stats)

    def solve(self, formula: Formula) -> SolverResult:
        started = perf_counter()
        result = super().solve(formula)
        self._backend_tally(result.status, perf_counter() - started)
        return result

    def _backend_tally(self, status: str, seconds: float) -> None:
        # Not a SolverBackend subclass, so the base ``_tally`` span
        # plumbing is replicated here.
        if self.tally_stats is not None:
            self.tally_stats.record_backend(self.name, status, seconds)
        if obs.enabled():
            obs.complete_span(
                "backend:" + self.name, seconds, status=status
            )
