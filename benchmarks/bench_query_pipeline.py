"""Query-pipeline benchmarks: persistent query cache + tracing overhead.

Backs two acceptance claims of the solver fast path and writes the
``BENCH_query.json`` and ``BENCH_obs.json`` trajectories the CI
perf-smoke job uploads:

- **Cold vs warm batch with ``--query-cache``** — the same solve batch
  executed against an empty persistent store and then re-executed in a
  "fresh process" (cleared in-memory caches, same directory).  The warm
  run must be ≥5× faster: every definitive answer replays from disk
  instead of re-entering the CEGAR loop.
- **Tracing overhead** — disabled instrumentation must cost under 3%
  of a warm cached query (see :func:`test_tracing_overhead`).
"""

import time

from conftest import PERF_SMOKE, update_json_result

from repro.automata import clear_caches
from repro.constraints.printer import canonical_regex
from repro.service import BatchRunner, RunnerConfig, SolveJob

#: The corpus-flavoured pattern set of bench_automata_cache, doubled
#: into match + non-match jobs: solving (not model building) dominates.
PATTERNS = [
    r"(?:[a-z0-9]+[-._])*[a-z0-9]+@[a-z]+\.[a-z]{2,3}",
    r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}",
    r"v?[0-9]+\.[0-9]+(?:\.[0-9]+)?(?:-[a-z0-9]+)?",
    r"(?:/[a-zA-Z0-9_.-]+)+/?",
    r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*",
    r"#?[0-9a-fA-F]{6}|#?[0-9a-fA-F]{3}",
    r"[a-z]+(?:-[a-z]+)*\.(?:js|json|min\.js)",
    r"(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?",
]
if PERF_SMOKE:
    PATTERNS = PATTERNS[:5]


def _solve_jobs(tag):
    jobs = []
    for i, pattern in enumerate(PATTERNS):
        jobs.append(
            SolveJob(
                job_id=f"{tag}-m{i}", pattern=pattern, solver_timeout=5.0
            )
        )
        jobs.append(
            SolveJob(
                job_id=f"{tag}-n{i}",
                pattern=pattern,
                negate=True,
                solver_timeout=5.0,
            )
        )
    return jobs


def _fresh_process_state():
    """Simulate a new invocation: no warm in-memory caches survive."""
    clear_caches()
    canonical_regex.cache_clear()


def test_cold_vs_warm_query_cache(benchmark, record_table, tmp_path):
    store = str(tmp_path / "queries")

    def measure():
        def run(tag):
            _fresh_process_state()
            started = time.perf_counter()
            report = BatchRunner(
                RunnerConfig(workers=0, query_cache=store)
            ).run(_solve_jobs(tag))
            elapsed = time.perf_counter() - started
            assert all(r.status == "ok" for r in report.results)
            return elapsed, report

        cold_s, cold_report = run("cold")
        warm_times = []
        for round_no in range(2 if PERF_SMOKE else 3):
            warm_s, warm_report = run(f"warm{round_no}")
            warm_times.append(warm_s)
            assert warm_report.cache_misses == 0  # all replayed from disk
        return cold_s, min(warm_times), cold_report, warm_report

    cold_s, warm_s, cold_report, warm_report = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = cold_s / warm_s if warm_s else 0.0
    data = {
        "jobs": len(PATTERNS) * 2,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "cold_cache_misses": cold_report.cache_misses,
        "warm_cache_hits": warm_report.cache_hits,
    }
    update_json_result("BENCH_query.json", "query_cache", data)
    record_table(
        "query_cache.txt",
        f"Persistent query cache: cold vs warm batch "
        f"({len(PATTERNS) * 2} solve jobs)\n"
        f"cold:  {1000 * cold_s:8.2f} ms "
        f"({cold_report.cache_misses} misses)\n"
        f"warm:  {1000 * warm_s:8.2f} ms "
        f"({warm_report.cache_hits} disk replays, {speedup:.1f}x)",
    )
    assert speedup >= 5.0


#: Generous estimate of obs calls on one warm cached query's hot path
#: (job span, cegar spans, backend span, cache annotate, metric counts).
_OBS_CALLS_PER_QUERY = 25


def test_tracing_overhead(benchmark, record_table, tmp_path):
    """Observability cost, both switched off and on.

    The disabled path is the contract: instrumentation is everywhere on
    the hot path, so a disabled ``obs.span`` (one global load + one
    comparison) must stay under **3%** of even the cheapest real query —
    the warm cached replay — at a generous per-query call count.
    Measured as a microbenchmark (per-call cost × calls per query vs the
    measured warm per-query time) so the bound is stable on noisy CI
    boxes.  The enabled-tracer batch overhead is reported alongside.
    """
    from repro import obs

    store = str(tmp_path / "obs-queries")

    def run_batch(tag, **obs_cfg):
        _fresh_process_state()
        started = time.perf_counter()
        report = BatchRunner(
            RunnerConfig(workers=0, query_cache=store, **obs_cfg)
        ).run(_solve_jobs(tag))
        elapsed = time.perf_counter() - started
        assert all(r.status == "ok" for r in report.results)
        return elapsed

    calls = 50_000 if PERF_SMOKE else 200_000

    def measure():
        run_batch("seed")  # populate the store: later runs replay warm

        rounds = 2 if PERF_SMOKE else 3
        disabled_s = min(
            run_batch(f"off{i}") for i in range(rounds)
        )
        trace = str(tmp_path / "overhead-trace.jsonl")
        metrics_json = str(tmp_path / "overhead-metrics.json")
        enabled_s = min(
            run_batch(
                f"on{i}",
                trace=trace,
                metrics_json=metrics_json,
                slow_query_ms=0.0,
            )
            for i in range(rounds)
        )

        # Disabled-call microbenchmark: the per-call price every
        # uninstrumented run pays at each obs.span site.
        assert not obs.enabled()
        started = time.perf_counter()
        for _ in range(calls):
            with obs.span("bench:noop"):
                pass
        per_call_s = (time.perf_counter() - started) / calls
        return disabled_s, enabled_s, per_call_s

    disabled_s, enabled_s, per_call_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    jobs = len(PATTERNS) * 2
    warm_query_s = disabled_s / jobs
    disabled_overhead = (
        per_call_s * _OBS_CALLS_PER_QUERY / warm_query_s
        if warm_query_s
        else 0.0
    )
    enabled_overhead = (
        enabled_s / disabled_s - 1.0 if disabled_s else 0.0
    )
    data = {
        "jobs": jobs,
        "disabled_span_ns": per_call_s * 1e9,
        "obs_calls_per_query": _OBS_CALLS_PER_QUERY,
        "warm_query_us": warm_query_s * 1e6,
        "disabled_overhead_fraction": disabled_overhead,
        "disabled_overhead_bound": 0.03,
        "disabled_batch_s": disabled_s,
        "enabled_batch_s": enabled_s,
        "enabled_overhead_fraction": enabled_overhead,
    }
    update_json_result("BENCH_obs.json", "tracing_overhead", data)
    record_table(
        "obs_overhead.txt",
        f"Tracing overhead (warm cached batch, {jobs} solve jobs)\n"
        f"disabled span:   {per_call_s * 1e9:8.1f} ns/call "
        f"(x{_OBS_CALLS_PER_QUERY} calls = "
        f"{100 * disabled_overhead:.3f}% of a "
        f"{warm_query_s * 1e6:.0f}us warm query; bound 3%)\n"
        f"batch disabled:  {1000 * disabled_s:8.2f} ms\n"
        f"batch traced:    {1000 * enabled_s:8.2f} ms "
        f"({100 * enabled_overhead:+.1f}%)",
    )
    # Acceptance: disabled instrumentation is invisible on the warm path.
    assert disabled_overhead < 0.03

