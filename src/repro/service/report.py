"""Aggregation of batch results into corpus-level reports.

Mirrors ``eval/tables.py``: per-kind merge functions produce structured
rows plus a rendered text table.  Everything consumes the JSON-shaped
:class:`~repro.service.jobs.JobResult` payloads, never live objects, so
the same code paths aggregate in-process, cross-process, and (later)
cross-machine results.

Merging is **order-independent**: every merge function and table
canonicalizes its inputs by job id first (:func:`ordered_results`), so
results collected as-completed from the serve daemon's stream render
byte-identical reports to the batch runner's submission-order joins —
down to float summation order, which would otherwise drift in the last
bits between two arrival orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.service.jobs import JobResult


def ordered_results(results: Sequence[JobResult]) -> List[JobResult]:
    """The canonical aggregation order: sorted by job id.

    Submitted job ids are unique within a batch, so this is a total
    order no matter how the results arrived (submission-order joins,
    the as-completed stream, or a shuffled JSON round-trip).
    """
    return sorted(results, key=lambda result: result.job_id)


@dataclass
class BatchReport:
    """Everything one batch run produced, in submission order."""

    results: List[JobResult] = field(default_factory=list)
    wall_time: float = 0.0
    workers: int = 0
    #: Scheduler-level dedup accounting: how many jobs were submitted
    #: vs actually dispatched (the rest were coalesced onto identical
    #: single-flight executions).  Zero/zero when the runner predates
    #: the counters or dedup never ran.
    jobs_submitted: int = 0
    jobs_executed: int = 0
    #: Observability artifacts, set by the runner when the batch ran
    #: with ``--trace`` / ``--metrics-json`` / ``--slow-query-ms``.
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
    slow_queries: List[dict] = field(default_factory=list)
    obs_pids: List[int] = field(default_factory=list)

    # -- batch-level aggregates ---------------------------------------------

    @property
    def jobs_coalesced(self) -> int:
        return max(0, self.jobs_submitted - self.jobs_executed)

    @property
    def jobs_per_minute(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return len(self.results) * 60.0 / self.wall_time

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.results)

    @property
    def cache_misses(self) -> int:
        return sum(r.cache_misses for r in self.results)

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def total_retries(self) -> int:
        """Worker-crash/timeout redispatches absorbed across the batch."""
        return sum(getattr(r, "retries", 0) for r in self.results)

    @property
    def quarantined_jobs(self) -> int:
        return sum(
            1 for r in self.results if r.status == "quarantined"
        )

    def by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.status] = counts.get(result.status, 0) + 1
        return counts

    def of_kind(self, kind: str) -> List[JobResult]:
        """Results of one kind, in canonical (job-id) order."""
        return ordered_results(
            [r for r in self.results if r.kind == kind]
        )

    def to_spec(self) -> dict:
        return {
            "wall_time": self.wall_time,
            "workers": self.workers,
            "jobs_per_minute": self.jobs_per_minute,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "dedup": {
                "submitted": self.jobs_submitted,
                "executed": self.jobs_executed,
                "coalesced": self.jobs_coalesced,
            },
            "automata_cache": merge_automata_counters(self.results),
            "routes": merge_route_tallies(self.results),
            "sessions": merge_session_tallies(self.results),
            "statuses": self.by_status(),
            "recovery": {
                "retries": self.total_retries,
                "quarantined": self.quarantined_jobs,
            },
            "observability": {
                "trace_path": self.trace_path,
                "metrics_path": self.metrics_path,
                "slow_queries": self.slow_queries,
                "pids": self.obs_pids,
            },
            "results": [r.to_spec() for r in self.results],
        }


# -- analyze merge ------------------------------------------------------------


def merge_analyze(results: Sequence[JobResult]) -> dict:
    """Corpus-level coverage/query/timing aggregates over analyze jobs."""
    results = ordered_results(results)
    ok = [r for r in results if r.status == "ok"]
    payloads = [r.payload for r in ok]
    covered = sum(p["covered"] for p in payloads)
    statements = sum(p["statement_count"] for p in payloads)
    refined = sum(p.get("refined_queries", 0) for p in payloads)
    refinements = sum(p.get("sum_refinements", 0) for p in payloads)
    return {
        "packages": len(results),
        "analyzed": len(ok),
        "failed_jobs": len(results) - len(ok),
        "tests_run": sum(p["tests_run"] for p in payloads),
        "covered": covered,
        "statements": statements,
        "coverage": covered / statements if statements else 0.0,
        "queries": sum(p["queries"] for p in payloads),
        "sat_queries": sum(p["sat_queries"] for p in payloads),
        "regex_ops": sum(p["regex_ops"] for p in payloads),
        "solver_queries": sum(p.get("solver_queries", 0) for p in payloads),
        "solver_seconds": sum(p.get("solver_seconds", 0.0) for p in payloads),
        "concat_refuted": sum(p.get("concat_refuted", 0) for p in payloads),
        "prefixes_refuted": sum(
            p.get("prefixes_refuted", 0) for p in payloads
        ),
        "literals_ingested": sum(
            p.get("literals_ingested", 0) for p in payloads
        ),
        "unknown_causes": merge_unknown_causes(payloads),
        "refined_queries": refined,
        "mean_refinements": refinements / refined if refined else 0.0,
        "wall_time": sum(p["wall_time"] for p in payloads),
        "program_failures": sum(len(p["failures"]) for p in payloads),
    }


def format_analyze_table(results: Sequence[JobResult]) -> str:
    results = ordered_results(results)
    lines = [
        "Program                        Tests  Cov(%)  Queries   SAT  Bugs",
    ]
    for result in results:
        if result.status != "ok":
            lines.append(
                f"{result.job_id:<30} {result.status.upper()}: "
                f"{(result.error or '').splitlines()[-1] if result.error else ''}"
            )
            continue
        p = result.payload
        name = str(p.get("name", result.job_id))
        if len(name) > 30:
            name = "..." + name[-27:]
        lines.append(
            f"{name:<30} {p['tests_run']:>5} {100 * p['coverage']:>7.1f} "
            f"{p['queries']:>8} {p['sat_queries']:>5} "
            f"{len(p['failures']):>5}"
        )
    merged = merge_analyze(results)
    lines.append(
        f"{'TOTAL':<30} {merged['tests_run']:>5} "
        f"{100 * merged['coverage']:>7.1f} {merged['queries']:>8} "
        f"{merged['sat_queries']:>5} {merged['program_failures']:>5}"
    )
    return "\n".join(lines)


# -- solve merge --------------------------------------------------------------


def merge_solve(results: Sequence[JobResult]) -> dict:
    results = ordered_results(results)
    ok = [r for r in results if r.status == "ok"]
    found = [r for r in ok if r.payload.get("found")]
    return {
        "jobs": len(results),
        "solved": len(found),
        "unsolved": len(ok) - len(found),
        "failed_jobs": len(results) - len(ok),
        "solver_queries": sum(
            r.payload.get("solver_queries", 0) for r in ok
        ),
        "solver_seconds": sum(
            r.payload.get("solver_seconds", 0.0) for r in ok
        ),
        "concat_refuted": sum(
            r.payload.get("concat_refuted", 0) for r in ok
        ),
        "prefixes_refuted": sum(
            r.payload.get("prefixes_refuted", 0) for r in ok
        ),
        "literals_ingested": sum(
            r.payload.get("literals_ingested", 0) for r in ok
        ),
        "unknown_causes": merge_unknown_causes([r.payload for r in ok]),
    }


def merge_unknown_causes(payloads: Sequence[dict]) -> Dict[str, int]:
    """Sum the payloads' UNKNOWN solver queries per cause."""
    causes: Dict[str, int] = {}
    for payload in payloads:
        for cause, count in (payload.get("unknown_causes") or {}).items():
            causes[cause] = causes.get(cause, 0) + count
    return dict(sorted(causes.items()))


def format_unknown_causes(causes: Dict[str, int]) -> str:
    """``"; unknown: budget 3, timeout 1"``, or ``""`` for none."""
    if not causes:
        return ""
    return "; unknown: " + ", ".join(
        f"{cause} {count}" for cause, count in causes.items()
    )


# -- fuzz merge ---------------------------------------------------------------


def merge_fuzz(results: Sequence[JobResult]) -> dict:
    """Campaign-level aggregates over conformance-fuzz shards.

    Counts sum; unique artifact fingerprints merge as a set union (two
    shards tripping the same bug must report one unique find, not two);
    disagreement tallies merge per contradicting pair.
    """
    results = ordered_results(results)
    ok = [r for r in results if r.status == "ok"]
    payloads = [r.payload for r in ok]
    coverage: Dict[str, int] = {}
    verdicts: Dict[str, int] = {}
    fingerprints: set = set()
    for p in payloads:
        for key, value in (p.get("coverage") or {}).items():
            coverage[key] = coverage.get(key, 0) + value
        for key, value in (p.get("verdicts") or {}).items():
            verdicts[key] = verdicts.get(key, 0) + value
        fingerprints.update(p.get("unique_fingerprints") or ())
    return {
        "jobs": len(results),
        "failed_jobs": len(results) - len(ok),
        "pairs": sum(p.get("pairs", 0) for p in payloads),
        "checks": sum(p.get("checks", 0) for p in payloads),
        "skipped": sum(p.get("skipped", 0) for p in payloads),
        "disagreements": sum(
            p.get("disagreements", 0) for p in payloads
        ),
        "tolerated_overapprox": sum(
            p.get("tolerated_overapprox", 0) for p in payloads
        ),
        "artifacts_new": sum(p.get("artifacts_new", 0) for p in payloads),
        "artifacts_dup": sum(p.get("artifacts_dup", 0) for p in payloads),
        "artifacts_unstored": sum(
            p.get("artifacts_unstored", 0) for p in payloads
        ),
        "unique_fingerprints": len(fingerprints),
        "shrink_steps": sum(p.get("shrink_steps", 0) for p in payloads),
        "coverage": dict(sorted(coverage.items())),
        "verdicts": dict(sorted(verdicts.items())),
        "disagreement_tallies": merge_disagreement_tallies(results),
    }


def merge_disagreement_tallies(
    results: Sequence[JobResult],
) -> Dict[str, int]:
    """Sum backend-disagreement counts across *all* job payloads.

    Fuzz jobs always carry ``payload["disagreement_tallies"]``; solve
    and analyze jobs carry it only when a collect-mode portfolio
    actually tripped — so a non-empty merge is the batch-level
    soundness alarm regardless of which workload rang it.
    """
    totals: Dict[str, int] = {}
    for result in ordered_results(results):
        if result.status != "ok":
            continue
        tallies = result.payload.get("disagreement_tallies") or {}
        for pair, count in tallies.items():
            totals[pair] = totals.get(pair, 0) + count
    return dict(sorted(totals.items()))


def format_soundness_table(tallies: Dict[str, int]) -> str:
    """Who contradicted whom, and how often, across the whole batch."""
    lines = ["Contradicting pair                          Count"]
    for pair, count in sorted(tallies.items()):
        shown = pair if len(pair) <= 40 else "..." + pair[-37:]
        lines.append(f"{shown:<40} {count:>9}")
    return "\n".join(lines)


# -- automata-cache merge -----------------------------------------------------


def merge_automata_counters(results: Sequence[JobResult]) -> dict:
    """Sum per-job automata compilation-cache counters.

    Jobs that compiled anything carry ``payload["automata_cache"]``
    (their run's share of the process-global interner counters);
    coalesced duplicates carry an empty dict and contribute nothing.
    """
    totals = {"hits": 0, "misses": 0, "disk_hits": 0, "disk_stores": 0}
    for result in ordered_results(results):
        if result.status != "ok":
            continue
        counters = result.payload.get("automata_cache") or {}
        for key in totals:
            totals[key] += counters.get(key, 0)
    lookups = totals["hits"] + totals["disk_hits"] + totals["misses"]
    totals["hit_rate"] = (
        (totals["hits"] + totals["disk_hits"]) / lookups if lookups else 0.0
    )
    return totals


# -- backend merge ------------------------------------------------------------


def merge_backend_tallies(results: Sequence[JobResult]) -> Dict[str, dict]:
    """Sum per-backend outcome/latency tallies across job payloads.

    Jobs that solved anything carry ``payload["backend_tallies"]``
    (JSON-shaped :class:`repro.solver.stats.BackendTally` dicts keyed by
    backend name); the merge is a plain per-name sum, so one corpus
    table can compare e.g. ``native`` vs ``cached:native`` traffic.
    """
    from repro.solver.stats import BackendTally

    totals: Dict[str, BackendTally] = {}
    for result in ordered_results(results):
        if result.status != "ok":
            continue
        tallies = result.payload.get("backend_tallies") or {}
        for name, tally in tallies.items():
            agg = totals.setdefault(name, BackendTally())
            agg.merge_dict(tally)
    return {name: tally.as_dict() for name, tally in sorted(totals.items())}


def merge_session_tallies(results: Sequence[JobResult]) -> Dict[str, dict]:
    """Sum incremental-session lifecycle tallies across job payloads.

    Jobs that solved through a ``session:`` (or ``route:``) backend
    carry ``payload["session_tallies"]`` — JSON-shaped
    :class:`repro.solver.stats.SessionTally` dicts keyed by session
    name; the merged ``queries_per_spawn`` is the batch-level
    amortization figure (a one-shot ``smtlib:`` backend would sit at 1).
    """
    from repro.solver.stats import SessionTally

    totals: Dict[str, SessionTally] = {}
    for result in ordered_results(results):
        if result.status != "ok":
            continue
        tallies = result.payload.get("session_tallies") or {}
        for name, tally in tallies.items():
            agg = totals.setdefault(name, SessionTally())
            agg.merge_dict(tally)
    return {name: tally.as_dict() for name, tally in sorted(totals.items())}


def merge_route_tallies(results: Sequence[JobResult]) -> Dict[str, int]:
    """Sum routing decision counts (``feature->target``) across payloads."""
    totals: Dict[str, int] = {}
    for result in ordered_results(results):
        if result.status != "ok":
            continue
        for key, count in (result.payload.get("route_tallies") or {}).items():
            totals[key] = totals.get(key, 0) + count
    return dict(sorted(totals.items()))


def format_session_table(tallies: Dict[str, dict]) -> str:
    """Per-session corpus table: spawns, restarts, pool traffic,
    amortization (``Q/spawn`` spans jobs when sessions are pooled)."""
    lines = [
        "Session                        Queries  Spawns  Restarts  Resets"
        "  Chkouts  Waits  Q/spawn   Life(s)",
    ]
    for name, tally in tallies.items():
        shown = name if len(name) <= 30 else "..." + name[-27:]
        lines.append(
            f"{shown:<30} {tally['queries']:>8} {tally['spawns']:>7} "
            f"{tally['restarts']:>9} {tally['resets']:>7} "
            f"{tally.get('checkouts', 0):>8} {tally.get('waits', 0):>6} "
            f"{tally['queries_per_spawn']:>8.1f} {tally['seconds']:>9.2f}"
        )
    return "\n".join(lines)


def format_route_table(tallies: Dict[str, int]) -> str:
    """Routing decisions: which feature class went to which target."""
    total = sum(tallies.values()) or 1
    lines = ["Route                          Queries   Share"]
    for key, count in tallies.items():
        lines.append(f"{key:<30} {count:>8} {100 * count / total:>6.1f}%")
    return "\n".join(lines)


def format_backend_table(tallies: Dict[str, dict]) -> str:
    """Per-backend corpus table: outcomes, definitive rate, latency."""
    lines = [
        "Backend                        Queries   SAT  UNSAT   UNK  ERR"
        "  Defin.%   Time(s)",
    ]
    for name, tally in tallies.items():
        shown = name if len(name) <= 30 else "..." + name[-27:]
        lines.append(
            f"{shown:<30} {tally['queries']:>8} {tally['sat']:>5} "
            f"{tally['unsat']:>6} {tally['unknown']:>5} "
            f"{tally['errors']:>4} {100 * tally['definitive_rate']:>8.1f} "
            f"{tally['seconds']:>9.2f}"
        )
    return "\n".join(lines)


def format_slow_query_table(entries: Sequence[dict]) -> str:
    """Slowest traced queries, worst first.

    Each entry is a tracer slow-log record: span name, duration, owning
    pid, and the span attrs (fingerprint / route / backend /
    refinements where the instrumented layers annotated them).
    """
    lines = [
        "Span          Time(ms)    PID  Route         Backend"
        "       Refs  Fingerprint",
    ]
    ordered = sorted(entries, key=lambda e: e.get("ms", 0.0), reverse=True)
    for entry in ordered[:20]:
        attrs = entry.get("attrs") or {}
        fingerprint = str(attrs.get("fingerprint", "-"))
        if len(fingerprint) > 16:
            fingerprint = fingerprint[:16]
        lines.append(
            f"{entry.get('name', '?'):<12} {entry.get('ms', 0.0):>9.1f} "
            f"{entry.get('pid', 0):>6}  {str(attrs.get('route', '-')):<12} "
            f"{str(attrs.get('backend', attrs.get('target', '-'))):<12} "
            f"{str(attrs.get('refinements', '-')):>5}  {fingerprint}"
        )
    if len(ordered) > 20:
        lines.append(f"... and {len(ordered) - 20} more")
    return "\n".join(lines)


# -- survey merge -------------------------------------------------------------


def merge_survey(results: Sequence[JobResult]):
    """Exact cross-shard merge back into a ``SurveyResult``.

    Scalar counts sum; unique counts are recomputed from the union of
    the shards' per-unique-literal maps (that is why the payload
    carries them), so sharding never double-counts a literal that
    appears in two shards.  Payload values are feature *bitmasks* over
    ``RegexFeatures.feature_names()`` keyed by literal hashes (the
    compact wire format of :class:`~repro.service.jobs.SurveyJob`);
    feature-name lists from older payloads merge identically.
    """
    from repro.corpus.features import RegexFeatures
    from repro.corpus.survey import SurveyResult

    merged = SurveyResult()
    feature_names = RegexFeatures.feature_names()
    merged.feature_totals = {name: 0 for name in feature_names}
    merged.feature_uniques = {name: 0 for name in feature_names}
    uniques: Dict[str, object] = {}
    for result in ordered_results(results):
        if result.status != "ok":
            continue
        p = result.payload
        merged.n_packages += p["n_packages"]
        merged.with_source += p["with_source"]
        merged.with_regex += p["with_regex"]
        merged.with_captures += p["with_captures"]
        merged.with_backrefs += p["with_backrefs"]
        merged.with_quantified_backrefs += p["with_quantified_backrefs"]
        merged.total_regexes += p["total_regexes"]
        merged.unparsable += p["unparsable"]
        for name, count in p["feature_totals"].items():
            merged.feature_totals[name] = (
                merged.feature_totals.get(name, 0) + count
            )
        uniques.update(p["uniques"])
    merged.unique_regexes = len(uniques)
    for encoded in uniques.values():
        if isinstance(encoded, int):
            names = [
                name
                for i, name in enumerate(feature_names)
                if encoded >> i & 1
            ]
        else:
            names = encoded
        for name in names:
            merged.feature_uniques[name] = (
                merged.feature_uniques.get(name, 0) + 1
            )
    return merged


# -- rendering ----------------------------------------------------------------


def format_batch_report(report: BatchReport) -> str:
    """The full text report ``python -m repro batch`` prints."""
    statuses = report.by_status()
    status_text = ", ".join(
        f"{count} {status}" for status, count in sorted(statuses.items())
    )
    lines = [
        f"jobs:        {len(report.results)} ({status_text})",
        f"workers:     {report.workers or 'inline'}",
        f"wall time:   {report.wall_time:.2f}s "
        f"({report.jobs_per_minute:.1f} jobs/minute)",
        f"query cache: {report.cache_hits} hits / "
        f"{report.cache_misses} misses "
        f"({100 * report.cache_hit_rate:.1f}% hit rate)",
    ]
    automata = merge_automata_counters(report.results)
    if any(automata[key] for key in ("hits", "misses", "disk_hits")):
        lines.append(
            f"automata:    {automata['hits']} hits / "
            f"{automata['misses']} compiles / "
            f"{automata['disk_hits']} disk loads / "
            f"{automata['disk_stores']} disk stores "
            f"({100 * automata['hit_rate']:.1f}% hit rate)"
        )
    if report.jobs_submitted:
        lines.append(
            f"dedup:       {report.jobs_submitted} submitted, "
            f"{report.jobs_executed} executed, "
            f"{report.jobs_coalesced} coalesced"
        )
    if report.total_retries or report.quarantined_jobs:
        lines.append(
            f"recovery:    {report.total_retries} retries, "
            f"{report.quarantined_jobs} quarantined"
        )

    analyze = report.of_kind("analyze")
    if analyze:
        merged = merge_analyze(analyze)
        lines += ["", "== Analysis (DSE) " + "=" * 46]
        lines.append(format_analyze_table(analyze))
        lines.append(
            f"solver: {merged['solver_queries']} queries, "
            f"{merged['solver_seconds']:.2f}s total; "
            f"{merged['refined_queries']} refined "
            f"(mean {merged['mean_refinements']:.1f} refinements); "
            f"{merged['concat_refuted']} refuted by concatenation "
            f"(cores and prefixes), "
            f"{merged['prefixes_refuted']} prefixes refuted, "
            f"{merged['literals_ingested']} literals ingested"
            + format_unknown_causes(merged["unknown_causes"])
        )

    solve = report.of_kind("solve")
    if solve:
        merged = merge_solve(solve)
        lines += ["", "== Solve (model -> solve -> refine) " + "=" * 28]
        lines.append(
            f"{merged['solved']} solved / {merged['unsolved']} unsolved "
            f"/ {merged['failed_jobs']} failed of {merged['jobs']} jobs; "
            f"{merged['solver_queries']} solver queries, "
            f"{merged['solver_seconds']:.2f}s; "
            f"{merged['concat_refuted']} refuted by concatenation "
            f"(cores and prefixes), "
            f"{merged['prefixes_refuted']} prefixes refuted, "
            f"{merged['literals_ingested']} literals ingested"
            + format_unknown_causes(merged["unknown_causes"])
        )

    fuzz = report.of_kind("fuzz")
    disagreement_tallies = merge_disagreement_tallies(report.results)
    if fuzz or disagreement_tallies:
        lines += ["", "== Soundness (conformance) " + "=" * 37]
        if fuzz:
            merged = merge_fuzz(fuzz)
            cov = merged["coverage"]
            lines.append(
                f"{merged['pairs']} pairs, {merged['checks']} checks "
                f"({merged['skipped']} skipped); coverage: "
                f"sticky {cov.get('sticky', 0)}, "
                f"unicode {cov.get('unicode', 0)}, "
                f"named groups {cov.get('named_groups', 0)}, "
                f"backrefs {cov.get('backrefs', 0)}, "
                f"lookaheads {cov.get('lookaheads', 0)}"
            )
            lines.append(
                f"{merged['disagreements']} disagreements "
                f"({merged['tolerated_overapprox']} tolerated "
                f"over-approximations); artifacts: "
                f"{merged['artifacts_new']} new / "
                f"{merged['artifacts_dup']} dup, "
                f"{merged['unique_fingerprints']} unique, "
                f"{merged['shrink_steps']} shrink steps"
            )
        if disagreement_tallies:
            lines.append(format_soundness_table(disagreement_tallies))
        else:
            lines.append("no backend disagreements recorded")

    backend_tallies = merge_backend_tallies(report.results)
    if backend_tallies:
        lines += ["", "== Solver backends " + "=" * 45]
        lines.append(format_backend_table(backend_tallies))

    route_tallies = merge_route_tallies(report.results)
    if route_tallies:
        lines += ["", "== Query routing " + "=" * 47]
        lines.append(format_route_table(route_tallies))

    session_tallies = merge_session_tallies(report.results)
    if session_tallies:
        lines += ["", "== Incremental sessions " + "=" * 40]
        lines.append(format_session_table(session_tallies))

    if report.trace_path or report.metrics_path or report.slow_queries:
        lines += ["", "== Observability " + "=" * 47]
        if report.trace_path:
            procs = (
                f" ({len(report.obs_pids)} processes)"
                if report.obs_pids
                else ""
            )
            lines.append(f"trace:       {report.trace_path}{procs}")
        if report.metrics_path:
            lines.append(f"metrics:     {report.metrics_path}")
        if report.slow_queries:
            lines.append(
                f"slow queries: {len(report.slow_queries)} recorded"
            )
            lines.append(format_slow_query_table(report.slow_queries))

    survey = report.of_kind("survey")
    if survey:
        from repro.corpus.survey import format_table4, format_table5

        merged = merge_survey(survey)
        lines += ["", "== Survey (Tables 4/5) " + "=" * 41]
        lines.append(format_table4(merged))
        lines.append("")
        lines.append(format_table5(merged))

    errors = ordered_results(
        [r for r in report.results if r.status != "ok"]
    )
    if errors:
        lines += ["", "== Failed jobs " + "=" * 49]
        for result in errors:
            last = (
                result.error.strip().splitlines()[-1]
                if result.error
                else "?"
            )
            lines.append(f"{result.job_id} [{result.status}]: {last}")
    return "\n".join(lines)
