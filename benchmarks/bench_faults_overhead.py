"""Fault-injection overhead: the no-fault fast path must stay free.

Backs the fault-tolerance acceptance bound and writes the
``BENCH_faults.json`` trajectory the CI perf-smoke job uploads: fault
sites (``faults.fire`` / ``faults.enabled`` / ``faults.crash_point``)
sit on the worker, store, and serve hot paths, so with **no
plan installed** their combined per-query price must stay under **3%**
of even the cheapest real query — the warm cached replay.  Measured as
a microbenchmark (per-call cost × a generous per-query site count vs
the measured warm per-query time) so the bound is stable on noisy CI
boxes.  The installed-but-inert plan cost is reported alongside: a
chaos run whose rules never match pays only rule matching, not solving.
"""

import time

from conftest import PERF_SMOKE, update_json_result

from repro import faults
from repro.automata import clear_caches
from repro.constraints.printer import canonical_regex
from repro.service import BatchRunner, RunnerConfig, SolveJob

PATTERNS = [
    r"(?:[a-z0-9]+[-._])*[a-z0-9]+@[a-z]+\.[a-z]{2,3}",
    r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}",
    r"v?[0-9]+\.[0-9]+(?:\.[0-9]+)?(?:-[a-z0-9]+)?",
    r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*",
    r"(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?",
]
if PERF_SMOKE:
    PATTERNS = PATTERNS[:3]

#: Generous count of fault-site consultations per solved query: the
#: worker crash point, the query- and dfa-store reads, and a serve
#: frame or two.  Kept at 16 although fewer sites remain: a lower
#: count would loosen the 3% bound.
_FAULT_CALLS_PER_QUERY = 16


def _solve_jobs(tag):
    return [
        SolveJob(job_id=f"{tag}-{i}", pattern=p, solver_timeout=5.0)
        for i, p in enumerate(PATTERNS)
    ]


def _fresh_process_state():
    clear_caches()
    canonical_regex.cache_clear()


def test_fault_sites_overhead(benchmark, record_table, tmp_path):
    """Acceptance: dormant fault injection is invisible on the warm path."""
    store = str(tmp_path / "fault-queries")

    def run_batch(tag):
        _fresh_process_state()
        started = time.perf_counter()
        report = BatchRunner(
            RunnerConfig(workers=0, query_cache=store)
        ).run(_solve_jobs(tag))
        elapsed = time.perf_counter() - started
        assert all(r.status == "ok" for r in report.results)
        return elapsed

    calls = 50_000 if PERF_SMOKE else 200_000

    def measure():
        run_batch("seed")  # populate the store: later runs replay warm
        rounds = 2 if PERF_SMOKE else 3
        warm_s = min(run_batch(f"warm{i}") for i in range(rounds))

        # Disabled-site microbenchmark: the per-call price every
        # fault-free run pays at each faults.fire site.
        faults.reset()
        assert not faults.enabled()
        started = time.perf_counter()
        for _ in range(calls):
            faults.fire("bench:noop", job_id="bench")
        disabled_call_s = (time.perf_counter() - started) / calls

        # Installed-but-inert plan: rules exist but match nothing on
        # this path — the chaos tier's cost when its faults lie in wait.
        faults.install(
            {
                "rules": [
                    {
                        "site": "bench:other-site",
                        "action": "error",
                        "match": "never-matches",
                    }
                ]
            }
        )
        started = time.perf_counter()
        for _ in range(calls):
            faults.fire("bench:noop", job_id="bench")
        inert_call_s = (time.perf_counter() - started) / calls
        faults.reset()
        return warm_s, disabled_call_s, inert_call_s

    warm_s, disabled_call_s, inert_call_s = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    jobs = len(PATTERNS)
    warm_query_s = warm_s / jobs
    disabled_overhead = (
        disabled_call_s * _FAULT_CALLS_PER_QUERY / warm_query_s
        if warm_query_s
        else 0.0
    )
    inert_overhead = (
        inert_call_s * _FAULT_CALLS_PER_QUERY / warm_query_s
        if warm_query_s
        else 0.0
    )
    data = {
        "jobs": jobs,
        "disabled_fire_ns": disabled_call_s * 1e9,
        "inert_plan_fire_ns": inert_call_s * 1e9,
        "fault_calls_per_query": _FAULT_CALLS_PER_QUERY,
        "warm_query_us": warm_query_s * 1e6,
        "disabled_overhead_fraction": disabled_overhead,
        "disabled_overhead_bound": 0.03,
        "inert_plan_overhead_fraction": inert_overhead,
        "warm_batch_s": warm_s,
    }
    update_json_result("BENCH_faults.json", "fault_overhead", data)
    record_table(
        "faults_overhead.txt",
        f"Fault-site overhead (warm cached batch, {jobs} solve jobs)\n"
        f"disabled fire:   {disabled_call_s * 1e9:8.1f} ns/call "
        f"(x{_FAULT_CALLS_PER_QUERY} calls = "
        f"{100 * disabled_overhead:.3f}% of a "
        f"{warm_query_s * 1e6:.0f}us warm query; bound 3%)\n"
        f"inert-plan fire: {inert_call_s * 1e9:8.1f} ns/call "
        f"({100 * inert_overhead:.3f}%)",
    )
    # Acceptance: no plan installed means no measurable tax per query.
    assert disabled_overhead < 0.03
