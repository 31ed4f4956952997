"""Job model for the batch analysis service.

Three job kinds mirror the three workloads of the paper's evaluation:

- :class:`AnalyzeJob` — run DSE over one mini-JS program (one "package"
  of the §7.2/7.3 experiments);
- :class:`SolveJob` — find a matching (or non-matching) input for one
  regex literal through the full model→solve→refine pipeline;
- :class:`SurveyJob` — extract and classify the regex literals of a
  shard of packages (the §7.1 survey).

A fourth kind turns the paper's *soundness* claim into a workload:

- :class:`FuzzJob` — run a shard of the conformance-fuzzing campaign
  (:mod:`repro.conformance`): generate seeded regex/input pairs,
  cross-check the concrete matcher against solver backends, and triage
  every disagreement into a shrunk, deduped, persisted artifact.

Every job serializes to a JSON-compatible *spec* dict (``to_spec`` /
:func:`job_from_spec`) so the runner can ship it across process
boundaries — or, later, across machines — without pickling live
objects.  Results come back as :class:`JobResult`, also JSON-shaped.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.solver.backends import make_backend
from repro.solver.stats import SolverStats

_PRELOAD_LOCK = threading.Lock()
_PRELOADED = False


def _preload_job_modules() -> None:
    """Import the per-job module graph once, under one coarse lock.

    Job kinds import their dependencies lazily inside ``_run`` so a
    worker process only pays for what it executes — but the serve
    daemon's inline mode runs jobs on *threads*, and two kinds
    importing overlapping module graphs in different orders can trip
    Python's per-module import locks into a spurious circular-import
    ``ImportError`` (one thread is handed a partially initialized
    module when the deadlock is broken).  Importing the whole graph
    here, serially, before the first job runs removes the race; after
    that the imports are ``sys.modules`` hits.
    """
    global _PRELOADED
    if _PRELOADED:
        return
    with _PRELOAD_LOCK:
        if _PRELOADED:
            return
        import repro.conformance  # noqa: F401
        import repro.corpus.survey  # noqa: F401
        import repro.dse.engine  # noqa: F401
        import repro.model.api  # noqa: F401

        _PRELOADED = True


#: (pattern, flags, negate) → canonical query-stream fingerprint (or
#: None for unparsable patterns).  Duplicated solve jobs are the
#: designed dedup case, and the scheduler computes keys serially before
#: dispatch — byte-identical jobs must pay for one model build, not N.
_SOLVE_FINGERPRINTS: Dict[tuple, Optional[str]] = {}


def _solve_query_fingerprint(
    pattern: str, flags: str, negate: bool
) -> Optional[str]:
    """Fingerprint of the CEGAR query *stream* a solve job poses.

    Keys on :func:`repro.model.cegar.refinement_stream_fingerprint`
    (initial formula + the capturing constraints that drive its
    refinements) so two jobs coalesce only when their whole refinement
    streams coincide — the initial-formula fingerprint alone is used
    only when no refinement fingerprint exists (no capturing
    constraints, hence no refinements to diverge on).
    """
    key = (pattern, flags, negate)
    if key in _SOLVE_FINGERPRINTS:
        return _SOLVE_FINGERPRINTS[key]
    try:
        from repro.constraints import StrVar
        from repro.constraints.printer import canonical_fingerprint
        from repro.model.api import SymbolicRegExp
        from repro.model.cegar import refinement_stream_fingerprint

        model = SymbolicRegExp(pattern, flags).exec_model(
            StrVar("input!dedup")
        )
        formula = model.no_match_formula if negate else model.match_formula
        constraint = (
            model.negative_constraint if negate else model.constraint
        )
        fingerprint = refinement_stream_fingerprint(formula, [constraint])
        if fingerprint is None:
            fingerprint, _ = canonical_fingerprint(formula)
    except Exception:
        fingerprint = None
    if len(_SOLVE_FINGERPRINTS) >= 4096:
        _SOLVE_FINGERPRINTS.clear()
    _SOLVE_FINGERPRINTS[key] = fingerprint
    return fingerprint


def default_solver_factory(
    timeout: float = 20.0,
    backend: Optional[str] = None,
    stats: Optional[SolverStats] = None,
    query_cache: Optional[str] = None,
    query_cache_max: Optional[int] = None,
    on_disagreement: Optional[str] = None,
    **kwargs,
):
    """Build a solver through the backend registry (default: native).

    ``backend`` is any :func:`repro.solver.backends.make_backend` spec;
    ``stats`` is the per-backend tally sink; ``query_cache`` is the
    persistent query-store directory threaded into any ``cached:`` level
    of the spec, and ``query_cache_max`` caps that store with age-based
    GC.  ``on_disagreement`` (``"raise"``/``"collect"``) is threaded
    into every ``portfolio`` level of the spec — collect mode records
    the contradiction and resolves with the native-backed member's
    answer instead of failing the job.  Remaining kwargs are
    native-solver options (backward compatibility with the pre-registry
    factory) and are passed structurally — they cannot be combined with
    an explicit ``backend`` spec, whose options belong in the spec
    string itself.
    """
    if kwargs:
        if backend is not None:
            raise TypeError(
                f"solver option(s) {sorted(kwargs)} cannot be combined "
                f"with backend={backend!r}; encode them in the spec "
                "(e.g. 'native?timeout=2')"
            )
        from repro.solver.backends import NativeBackend

        return NativeBackend(stats=stats, timeout=timeout, **kwargs)
    built = make_backend(
        backend,
        timeout=timeout,
        stats=stats,
        query_cache=query_cache,
        query_cache_max=query_cache_max,
        on_disagreement=on_disagreement,
    )
    if query_cache and not (
        isinstance(backend, str) and backend.startswith("cached:")
    ):
        # A query-cache directory without an explicit ``cached:`` level
        # still means "cache persistently": wrap the resolved backend so
        # the store is actually consulted (mirrors the batch runner,
        # which satisfies the outer ``cached:`` with its worker cache).
        from repro.solver.backends import CachedBackend, QueryCache

        built = CachedBackend(
            built,
            cache=QueryCache(
                store_path=query_cache, store_max_entries=query_cache_max
            ),
            tally_stats=stats,
            stats=stats,
        )
    return built


class _RecordingFactory:
    """Wraps a solver factory; sums cache counters over every solver it
    hands out, so a job can report its own hit/miss share."""

    def __init__(self, factory: Callable[..., object]):
        self._factory = factory
        self._instances: List[object] = []

    def __call__(self, *args, **kwargs):
        solver = self._factory(*args, **kwargs)
        self._instances.append(solver)
        return solver

    @property
    def hits(self) -> int:
        return sum(getattr(s, "hits", 0) for s in self._instances)

    @property
    def misses(self) -> int:
        return sum(getattr(s, "misses", 0) for s in self._instances)


@dataclass(slots=True)
class JobResult:
    """Outcome of one job, JSON-shaped for aggregation and transport."""

    job_id: str
    kind: str
    status: str  # "ok" | "error" | "timeout" | "quarantined"
    seconds: float = 0.0
    payload: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Re-dispatches this job took before its terminal result (stamped
    #: by the runner's / scheduler's RetryPolicy; 0 on the fast path).
    retries: int = 0

    def to_spec(self) -> dict:
        return asdict(self)

    @classmethod
    def from_spec(cls, spec: dict) -> "JobResult":
        """Rebuild a result from :meth:`to_spec` output.

        Payload keys, ``kind``, ``status`` and short string values are
        interned: every decoded frame would otherwise hold its own
        copies of the same few strings, and a client keeping thousands
        of results pays for them all.
        """
        spec = dict(spec, kind=_interned(spec["kind"]),
                    status=_interned(spec["status"]))
        payload = spec.get("payload")
        if payload:
            spec["payload"] = _interned_payload(payload)
        return cls(**spec)


#: String payload values up to this length are interned on decoding.
_INTERN_MAX = 64


def _interned(value):
    if type(value) is str and len(value) <= _INTERN_MAX:
        return sys.intern(value)
    return value


def _interned_payload(mapping: dict) -> dict:
    """``mapping`` with its string keys and short string values
    interned, nested dicts too."""
    return {
        (sys.intern(key) if type(key) is str else key): (
            _interned_payload(value) if isinstance(value, dict)
            else _interned(value)
        )
        for key, value in mapping.items()
    }


@dataclass
class _JobBase:
    """Shared spec/run plumbing; subclasses implement ``_run``.

    Every job kind carries a ``backend`` field — a solver backend spec
    (``native``, ``smtlib:z3``, ``portfolio:native+smtlib``,
    ``cached:native``, ...) that survives the JSON spec round-trip and
    multiprocessing, so a whole batch can be pointed at any registered
    backend.  ``None`` means the runner's default (native).
    """

    job_id: str

    KIND = "?"
    # Fallbacks so ``self.backend``/``self.automata_cache``/
    # ``self.query_cache``/``self.query_cache_max`` always resolve;
    # subclasses declare the real (defaulted, spec-serialized)
    # dataclass fields.
    backend = None
    automata_cache = None
    query_cache = None
    query_cache_max = None

    def to_spec(self) -> dict:
        spec = asdict(self)
        spec["kind"] = self.KIND
        return spec

    def dedup_key(self) -> Optional[str]:
        """A key under which this job may be coalesced with identical ones.

        ``None`` means "never coalesce".  Two jobs returning the same
        key must be *observationally identical*: same kind, same inputs,
        same bounds, same backend — so the runner can execute one and
        fan its result out to the rest (see ``runner.py``).
        """
        return None

    def replayable(self, result: JobResult) -> bool:
        """Whether ``result`` may answer later jobs with this job's
        :meth:`dedup_key` after its flight has finished.

        Only answers that cannot change on a rerun qualify; the default
        is never.
        """
        return False

    def run(
        self, solver_factory: Optional[Callable[..., object]] = None
    ) -> JobResult:
        """Execute the job, capturing failures instead of raising.

        ``solver_factory`` is the cache injection seam (see
        ``runner.py``); cache hit/miss counts of every solver built for
        this job land on the result.
        """
        _preload_job_modules()
        factory = _RecordingFactory(solver_factory or default_solver_factory)
        started = time.perf_counter()
        with obs.span(
            "job:" + self.KIND,
            job_id=self.job_id,
            backend=self.backend,
        ) as job_span:
            try:
                payload = self._run(factory)
                status, error = "ok", None
            except Exception:
                payload, status = {}, "error"
                error = traceback.format_exc(limit=8)
            job_span.set(status=status)
        return JobResult(
            job_id=self.job_id,
            kind=self.KIND,
            status=status,
            seconds=time.perf_counter() - started,
            payload=payload,
            error=error,
            cache_hits=factory.hits,
            cache_misses=factory.misses,
        )

    def _run(self, solver_factory) -> Dict[str, object]:
        raise NotImplementedError


@dataclass
class AnalyzeJob(_JobBase):
    """Dynamic symbolic execution of one mini-JS program."""

    source: str = ""
    path: Optional[str] = None
    level: str = "refined"
    max_tests: int = 40
    time_budget: float = 10.0
    seed: int = 1909
    backend: Optional[str] = None
    automata_cache: Optional[str] = None
    query_cache: Optional[str] = None
    query_cache_max: Optional[int] = None

    KIND = "analyze"

    def dedup_key(self) -> Optional[str]:
        """Analysis is deterministic in (source, config): exact-field key."""
        return "|".join(
            [
                "analyze",
                self.level,
                str(self.max_tests),
                str(self.time_budget),
                str(self.seed),
                str(self.backend),
                self.source,
            ]
        )

    def _run(self, solver_factory) -> Dict[str, object]:
        from repro.dse.engine import DseEngine, EngineConfig
        from repro.dse.interpreter import RegexSupportLevel

        config = EngineConfig(
            level=RegexSupportLevel[self.level.upper()],
            max_tests=self.max_tests,
            time_budget=self.time_budget,
            seed=self.seed,
            automata_cache=self.automata_cache,
        )

        def engine_factory(timeout):
            if self.backend is None and self.query_cache is None:
                return solver_factory(timeout=timeout)
            return solver_factory(
                timeout=timeout,
                backend=self.backend,
                query_cache=self.query_cache,
                query_cache_max=self.query_cache_max,
            )

        result = DseEngine(
            self.source, config, solver_factory=engine_factory
        ).run()
        refined = [q for q in result.stats.queries if q.refinements > 0]
        return {
            "name": self.path or self.job_id,
            "backend": self.backend or "native",
            "backend_tallies": result.stats.backend_summary(),
            "session_tallies": result.stats.session_summary(),
            "route_tallies": result.stats.route_summary(),
            **(
                {"breaker_tallies": result.stats.breaker_summary()}
                if result.stats.breaker_summary()
                else {}
            ),
            **(
                {
                    "disagreement_tallies": (
                        result.stats.disagreement_summary()
                    )
                }
                if result.stats.disagreement_summary()
                else {}
            ),
            "automata_cache": result.stats.automata_summary(),
            "covered": len(result.covered),
            "statement_count": result.statement_count,
            "coverage": result.coverage,
            "tests_run": result.tests_run,
            "queries": result.queries,
            "sat_queries": result.sat_queries,
            "regex_ops": result.regex_ops,
            "concretizations": result.concretizations,
            "wall_time": result.wall_time,
            "failures": list(result.failures),
            "solver_queries": len(result.stats.queries),
            "solver_seconds": result.stats.total_time(),
            "concat_refuted": result.stats.concat_refuted(),
            "prefixes_refuted": result.stats.prefixes_refuted(),
            "literals_ingested": result.stats.literals_ingested(),
            "unknown_causes": result.stats.unknown_causes(),
            "refined_queries": len(refined),
            "sum_refinements": sum(q.refinements for q in refined),
        }


@dataclass
class SolveJob(_JobBase):
    """Find a matching (or non-matching) input for one regex literal."""

    pattern: str = ""
    flags: str = ""
    negate: bool = False
    solver_timeout: float = 2.0
    refinement_limit: int = 20
    backend: Optional[str] = None
    automata_cache: Optional[str] = None
    query_cache: Optional[str] = None
    query_cache_max: Optional[int] = None

    KIND = "solve"

    def dedup_key(self) -> Optional[str]:
        """Canonical *query* identity, not pattern-text identity.

        Builds the job's initial solver formula and fingerprints it with
        :func:`repro.constraints.printer.canonical_fingerprint` (variables
        α-renamed, language-preserving regex normalisation), so jobs whose
        pattern texts differ only in non-capturing syntax — or whose
        models drew different fresh variable names — still coalesce.
        Unparsable patterns return ``None`` and run individually (the
        worker then reports the parse error per job).
        """
        fingerprint = _solve_query_fingerprint(
            self.pattern, self.flags, self.negate
        )
        if fingerprint is None:
            return None
        return "|".join(
            [
                "solve",
                str(self.negate),
                str(self.solver_timeout),
                str(self.refinement_limit),
                str(self.backend),
                fingerprint,
            ]
        )

    def replayable(self, result: JobResult) -> bool:
        """A settled verdict only: a found word (CEGAR checked it
        against the concrete matcher), UNSAT, or an UNKNOWN that ran out
        of its work budget or another bound of the solver, all fixed by
        the query and by :meth:`dedup_key`'s ``solver_timeout``.  An
        UNKNOWN the wall-clock backstop ended depends on machine load
        and is left out, and so are results that needed a retry."""
        return (
            result.status == "ok"
            and result.payload.get("settled") is True
            and result.retries == 0
        )

    def _run(self, solver_factory) -> Dict[str, object]:
        from repro.automata import (
            automata_cache_counters,
            configure_automata_cache,
        )
        from repro.automata.cache import counters_delta
        from repro.model.api import (
            find_matching_input,
            find_non_matching_input,
        )
        from repro.model.cegar import CegarSolver

        if self.automata_cache:
            configure_automata_cache(self.automata_cache)
        automata0 = automata_cache_counters()
        stats = SolverStats()
        if self.backend is None and self.query_cache is None:
            solver = solver_factory(timeout=self.solver_timeout)
            binder = getattr(solver, "bind_stats", None)
            if callable(binder):
                binder(stats)
        else:
            solver = solver_factory(
                timeout=self.solver_timeout,
                backend=self.backend,
                stats=stats,
                query_cache=self.query_cache,
                query_cache_max=self.query_cache_max,
            )
        cegar = CegarSolver(
            solver=solver,
            refinement_limit=self.refinement_limit,
            stats=stats,
        )
        payload: Dict[str, object] = {
            "pattern": self.pattern,
            "flags": self.flags,
            "negate": self.negate,
            "backend": self.backend or "native",
        }
        if self.negate:
            word = find_non_matching_input(
                self.pattern, self.flags, cegar=cegar
            )
            payload["found"] = word is not None
            payload["word"] = word
        else:
            found = find_matching_input(self.pattern, self.flags, cegar=cegar)
            payload["found"] = found is not None
            if found is not None:
                word, captures = found
                payload["word"] = word
                payload["captures"] = {
                    str(i): v for i, v in captures.items()
                }
        # One CEGAR run, so one record: its verdict's.
        payload["settled"] = all(q.settled for q in stats.queries)
        unknown_causes = stats.unknown_causes()
        if unknown_causes:
            payload["unknown_causes"] = unknown_causes
        payload["solver_queries"] = len(stats.queries)
        payload["solver_seconds"] = stats.total_time()
        payload["concat_refuted"] = stats.concat_refuted()
        payload["prefixes_refuted"] = stats.prefixes_refuted()
        payload["literals_ingested"] = stats.literals_ingested()
        payload["refinements"] = sum(q.refinements for q in stats.queries)
        payload["backend_tallies"] = stats.backend_summary()
        payload["session_tallies"] = stats.session_summary()
        payload["route_tallies"] = stats.route_summary()
        breaker_tallies = stats.breaker_summary()
        if breaker_tallies:
            # Only when a breaker actually transitioned: the common
            # no-trip payload stays byte-identical to earlier releases.
            payload["breaker_tallies"] = breaker_tallies
        disagreement_tallies = stats.disagreement_summary()
        if disagreement_tallies:
            # A collect-mode portfolio caught members contradicting each
            # other mid-solve; surface it for the batch Soundness table.
            payload["disagreement_tallies"] = disagreement_tallies
        stats.record_automata(
            counters_delta(automata0, automata_cache_counters())
        )
        payload["automata_cache"] = stats.automata_summary()
        return payload


@dataclass
class SurveyJob(_JobBase):
    """Extract + classify the regex literals of a shard of packages.

    ``package_files`` is one list of JS source strings per package.  The
    payload carries shard-level counts *and* the per-unique-literal
    feature map so the report layer can merge unique counts exactly
    across shards.
    """

    package_files: List[List[str]] = field(default_factory=list)
    # Unused (no solving/compilation), kept for a uniform spec shape.
    backend: Optional[str] = None
    automata_cache: Optional[str] = None
    query_cache: Optional[str] = None
    query_cache_max: Optional[int] = None

    KIND = "survey"

    def _run(self, solver_factory) -> Dict[str, object]:
        import hashlib

        from repro.corpus.features import RegexFeatures
        from repro.corpus.generator import SyntheticPackage
        from repro.corpus.survey import survey_packages

        packages = [
            SyntheticPackage(name=f"{self.job_id}#{i}", files=list(files))
            for i, files in enumerate(self.package_files)
        ]
        # Per-unique-literal features, for exact cross-shard unique
        # counts in the report's merge.  The payload ships one *hash*
        # per unique literal mapped to a feature *bitmask* (bit i =
        # ``RegexFeatures.feature_names()[i]``) instead of the literal
        # text and its feature-name list: at the paper's 306k uniques
        # the map stays a few MB of digests rather than the corpus's
        # regex text, and cross-shard dedup still works — equal
        # literals hash equally in every shard.
        unique_seen: Dict[tuple, object] = {}
        result = survey_packages(packages, unique_out=unique_seen)
        feature_names = RegexFeatures.feature_names()
        uniques: Dict[str, int] = {
            hashlib.blake2b(
                "\x00".join(key).encode("utf-8"), digest_size=12
            ).hexdigest(): sum(
                1 << i
                for i, name in enumerate(feature_names)
                if getattr(features, name)
            )
            for key, features in unique_seen.items()
        }
        return {
            "n_packages": result.n_packages,
            "with_source": result.with_source,
            "with_regex": result.with_regex,
            "with_captures": result.with_captures,
            "with_backrefs": result.with_backrefs,
            "with_quantified_backrefs": result.with_quantified_backrefs,
            "total_regexes": result.total_regexes,
            "unparsable": result.unparsable,
            "feature_totals": dict(result.feature_totals),
            "uniques": uniques,
        }


@dataclass
class FuzzJob(_JobBase):
    """One shard of a conformance-fuzzing campaign.

    Generates ``budget`` regex/input pairs (deterministic in
    ``(seed, offset + i)``), runs each through the differential oracle,
    and triages every disagreement: shrink by delta debugging, dedupe
    by canonical fingerprint, persist to ``artifact_dir``.

    ``on_disagreement`` decides the failure mode: ``"collect"``
    (default) records the artifact and completes the job — a soundness
    find is the campaign's *product*, not its crash — while ``"raise"``
    fails the job on the first contradiction, for CI gates that must go
    red.  ``oracle_backends`` lists the solver deciders (any
    :func:`make_backend` specs); ``None`` means ``[backend or
    "native"]``.  ``query_cache``/``query_cache_max`` exist for a
    uniform spec shape but are *not* threaded into oracle members —
    a shared query cache would replay one member's answer as another
    member's verdict (see ``_run``).
    """

    budget: int = 50
    seed: int = 1909
    #: Global pair-index offset — see :func:`fuzz_workload`'s sharding.
    offset: int = 0
    oracle_backends: Optional[List[str]] = None
    solver_timeout: float = 2.0
    shrink: bool = True
    artifact_dir: Optional[str] = None
    artifact_max: Optional[int] = None
    on_disagreement: str = "collect"
    backend: Optional[str] = None
    automata_cache: Optional[str] = None
    query_cache: Optional[str] = None
    query_cache_max: Optional[int] = None

    KIND = "fuzz"

    def dedup_key(self) -> Optional[str]:
        """Fuzzing is deterministic in its spec: exact-field key."""
        return "|".join(
            [
                "fuzz",
                str(self.budget),
                str(self.seed),
                str(self.offset),
                str(self.oracle_backends),
                str(self.solver_timeout),
                str(self.shrink),
                str(self.artifact_dir),
                str(self.artifact_max),
                self.on_disagreement,
                str(self.backend),
            ]
        )

    def _run(self, solver_factory) -> Dict[str, object]:
        from repro.automata import (
            automata_cache_counters,
            configure_automata_cache,
        )
        from repro.automata.cache import counters_delta
        from repro.conformance import (
            ARTIFACT_CODEC,
            DifferentialOracle,
            TriagePipeline,
            artifact_fingerprint,
            coverage_summary,
            generate_pairs,
            register_planted_backend,
        )
        from repro.diskstore import DiskStore
        from repro.solver.backends.base import BackendDisagreement

        if self.on_disagreement not in ("raise", "collect"):
            raise ValueError(
                f"on_disagreement must be 'raise' or 'collect', "
                f"got {self.on_disagreement!r}"
            )
        # The ``planted:`` scheme must exist in *this* process before
        # the factory resolves specs (workers start with a bare registry).
        register_planted_backend()
        if self.automata_cache:
            configure_automata_cache(self.automata_cache)
        automata0 = automata_cache_counters()
        stats = SolverStats()
        specs = [
            str(spec)
            for spec in (self.oracle_backends or [self.backend or "native"])
        ]
        # Oracle members bypass ``solver_factory`` on purpose: the
        # runner's seam wraps every solver it builds with the shared
        # worker query cache, which is keyed on the formula alone — a
        # cached layer would replay one member's answer as another
        # member's verdict and the differential check would be vacuous.
        # Each member decides every pinned query independently.
        members = [
            make_backend(spec, timeout=self.solver_timeout, stats=stats)
            for spec in specs
        ]
        oracle = DifferentialOracle(
            members, timeout=self.solver_timeout, stats=stats
        )
        store = (
            DiskStore(
                self.artifact_dir, ARTIFACT_CODEC, self.artifact_max
            )
            if self.artifact_dir
            else None
        )
        triage = TriagePipeline(oracle, store, shrink=self.shrink)
        pairs = generate_pairs(
            self.budget, seed=self.seed, offset=self.offset
        )
        artifacts = {"new": 0, "dup": 0, "unstored": 0}
        fingerprints = set()
        for pair in pairs:
            for outcome in oracle.check_pair(pair):
                disagreement = outcome.disagreement
                if disagreement is None:
                    continue
                if self.on_disagreement == "raise":
                    raise BackendDisagreement(
                        f"conformance disagreement on "
                        f"/{disagreement.pattern}/{disagreement.flags} "
                        f"with input {disagreement.word!r}: "
                        f"{disagreement.members[0]} says match, "
                        f"{disagreement.members[1]} says nomatch",
                        members=disagreement.members,
                        statuses=("match", "nomatch"),
                        fingerprint=artifact_fingerprint(
                            disagreement.pattern,
                            disagreement.flags,
                            disagreement.word,
                        ),
                    )
                result = triage.handle(disagreement)
                artifacts[result.status] = artifacts.get(result.status, 0) + 1
                fingerprints.add(result.artifact.fingerprint)
        counters = dict(oracle.counters)
        payload: Dict[str, object] = {
            "backend": self.backend or "native",
            "oracle_backends": specs,
            "budget": self.budget,
            "seed": self.seed,
            "offset": self.offset,
            "pairs": len(pairs),
            "coverage": coverage_summary(pairs),
            "checks": counters.pop("checks"),
            "skipped": counters.pop("skipped"),
            "disagreements": counters.pop("disagreements"),
            "tolerated_overapprox": counters.pop("tolerated_overapprox"),
            "verdicts": counters,  # match / nomatch / unknown / error
            "artifacts_new": artifacts["new"],
            "artifacts_dup": artifacts["dup"],
            "artifacts_unstored": artifacts["unstored"],
            "unique_fingerprints": sorted(fingerprints),
            "shrink_steps": triage.shrink_steps,
            "disagreement_tallies": stats.disagreement_summary(),
            "backend_tallies": stats.backend_summary(),
        }
        if store is not None:
            payload["artifact_dir"] = self.artifact_dir
            payload["artifact_store"] = {
                "entries": len(store),
                **store.counters(),
                "dup_hits": artifacts["dup"],
            }
        stats.record_automata(
            counters_delta(automata0, automata_cache_counters())
        )
        payload["automata_cache"] = stats.automata_summary()
        return payload


_JOB_KINDS = {
    AnalyzeJob.KIND: AnalyzeJob,
    SolveJob.KIND: SolveJob,
    SurveyJob.KIND: SurveyJob,
    FuzzJob.KIND: FuzzJob,
}


def job_from_spec(spec: dict) -> _JobBase:
    """Rebuild a job from its ``to_spec()`` dict."""
    spec = dict(spec)
    kind = spec.pop("kind")
    try:
        cls = _JOB_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown job kind {kind!r}") from None
    return cls(**spec)


def survey_workload(
    n_packages: int = 200,
    seed: int = 1909,
    shards: int = 8,
    solve_cap: int = 48,
    backend: Optional[str] = None,
) -> List[_JobBase]:
    """The batch-mode survey workload: survey shards + solve jobs.

    Generates the synthetic corpus, shards its packages into
    :class:`SurveyJob`\\ s, and turns the first ``solve_cap`` extracted
    regex literals — duplicates included, as in the wild — into
    :class:`SolveJob`\\ s.  The duplication is what exercises the shared
    solver query cache.
    """
    from repro.corpus.extract import extract_regex_literals
    from repro.corpus.generator import CorpusConfig, generate_corpus

    corpus = generate_corpus(
        CorpusConfig(n_packages=n_packages, seed=seed)
    )
    jobs: List[_JobBase] = []
    shards = max(1, min(shards, len(corpus)))
    per_shard = (len(corpus) + shards - 1) // shards
    for shard in range(shards):
        chunk = corpus[shard * per_shard:(shard + 1) * per_shard]
        if not chunk:
            continue
        jobs.append(
            SurveyJob(
                job_id=f"survey-{shard:03d}",
                package_files=[list(p.files) for p in chunk],
            )
        )
    count = 0
    for package in corpus:
        if count >= solve_cap:
            break
        for content in package.files:
            for literal in extract_regex_literals(content):
                if count >= solve_cap:
                    break
                jobs.append(
                    SolveJob(
                        job_id=f"solve-{count:03d}",
                        pattern=literal.source,
                        flags=literal.flags.replace("g", "").replace(
                            "y", ""
                        ),
                        solver_timeout=1.0,
                        backend=backend,
                    )
                )
                count += 1
    return jobs


def fuzz_workload(
    budget: int = 200,
    seed: int = 1909,
    shards: int = 4,
    backend: Optional[str] = None,
    oracle_backends: Optional[List[str]] = None,
    solver_timeout: float = 2.0,
    shrink: bool = True,
    artifact_dir: Optional[str] = None,
    artifact_max: Optional[int] = None,
    on_disagreement: str = "collect",
) -> List[FuzzJob]:
    """Shard one conformance-fuzzing budget into :class:`FuzzJob`\\ s.

    Shards split the budget by *global index range* (``offset``), so
    the campaign checks exactly the pairs a single unsharded run would
    — each pair is seeded by its global index, and the shard count only
    changes which worker checks it.  All shards share ``artifact_dir``;
    the store's atomic per-entry writes make concurrent dedupe safe.
    """
    jobs: List[FuzzJob] = []
    shards = max(1, min(shards, max(1, budget)))
    per_shard = (budget + shards - 1) // shards
    offset = 0
    for shard in range(shards):
        chunk = min(per_shard, budget - offset)
        if chunk <= 0:
            break
        jobs.append(
            FuzzJob(
                job_id=f"fuzz-{shard:03d}",
                budget=chunk,
                seed=seed,
                offset=offset,
                backend=backend,
                oracle_backends=(
                    list(oracle_backends) if oracle_backends else None
                ),
                solver_timeout=solver_timeout,
                shrink=shrink,
                artifact_dir=artifact_dir,
                artifact_max=artifact_max,
                on_disagreement=on_disagreement,
            )
        )
        offset += chunk
    return jobs


def analyze_jobs_from_files(
    paths: Sequence[str],
    level: str = "refined",
    max_tests: int = 40,
    time_budget: float = 10.0,
    seed: int = 1909,
    backend: Optional[str] = None,
) -> List[AnalyzeJob]:
    """One :class:`AnalyzeJob` per mini-JS file."""
    jobs = []
    for i, path in enumerate(paths):
        with open(path) as handle:
            source = handle.read()
        jobs.append(
            AnalyzeJob(
                job_id=f"analyze-{i:03d}",
                source=source,
                path=path,
                level=level,
                max_tests=max_tests,
                time_budget=time_budget,
                seed=seed,
                backend=backend,
            )
        )
    return jobs
