"""Refinement-stream fast-path benchmarks (tentpole of the CEGAR PR).

Backs the acceptance claims and writes the ``BENCH_refinement.json``
trajectory the CI perf-smoke job uploads:

- **Refined-query caching** — a refinement-heavy solve batch against
  an empty persistent query store and again warm: every query of every
  refinement stream replays from disk.
- **Lazy union products** — the alternation suite queried through
  ``LazyUnion`` must visit strictly fewer states than the eagerly
  determinized union materializes.
"""

import time

from conftest import PERF_SMOKE, update_json_result

from repro.automata import clear_caches, dfa_for_pattern
from repro.automata.lazy import LazyUnion
from repro.constraints.printer import canonical_regex
from repro.service import BatchRunner, RunnerConfig, SolveJob

#: Refinement-prone capture patterns (the paper's §3.4 greediness trap
#: and friends): the model admits capture assignments no ES6 engine
#: produces, so every solve runs at least one refinement.
REFINEMENT_PATTERNS = [
    r"^a*(a)?$",
    r"^(a+)?(a+)?(a+)?$",
    r"^[ab]*(ab?)?(b)?$",
    r"^(x+y*)?(y)?(x)?$",
    r"^a*(a)?a*(a)?$",
    r"^(a*)(a)?(a)?$",
    r"^w*([uv]+)?(v)?$",
    r"^v?([0-9]*)([0-9])?$",
]
if PERF_SMOKE:
    REFINEMENT_PATTERNS = REFINEMENT_PATTERNS[:5]


def test_refined_queries_replay_from_warm_store(
    benchmark, record_table, tmp_path
):
    """Cold vs warm batch on the refinement-heavy corpus: the warm run
    replays every query of every refinement stream from the persistent
    store."""
    store = str(tmp_path / "refined-queries")

    def solve_jobs(tag):
        jobs = []
        for i, pattern in enumerate(REFINEMENT_PATTERNS):
            jobs.append(
                SolveJob(
                    job_id=f"{tag}-m{i}",
                    pattern=pattern,
                    solver_timeout=5.0,
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

    def fresh_process_state():
        clear_caches()
        canonical_regex.cache_clear()

    def measure():
        def run(tag):
            fresh_process_state()
            started = time.perf_counter()
            report = BatchRunner(
                RunnerConfig(workers=0, query_cache=store)
            ).run(solve_jobs(tag))
            elapsed = time.perf_counter() - started
            assert all(r.status == "ok" for r in report.results)
            return elapsed, report

        cold_s, cold_report = run("cold")
        refined = sum(
            r.payload.get("refinements", 0) for r in cold_report.results
        )
        assert refined >= len(REFINEMENT_PATTERNS)  # streams refined
        warm_times = []
        for round_no in range(2 if PERF_SMOKE else 3):
            warm_s, warm_report = run(f"warm{round_no}")
            warm_times.append(warm_s)
            assert warm_report.cache_misses == 0  # whole streams replay
        return cold_s, min(warm_times), refined, warm_report

    cold_s, warm_s, refined, warm_report = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    speedup = cold_s / warm_s if warm_s else 0.0
    data = {
        "jobs": len(REFINEMENT_PATTERNS) * 2,
        "refined_queries": refined,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "warm_cache_hits": warm_report.cache_hits,
    }
    update_json_result("BENCH_refinement.json", "refined_cache", data)
    record_table(
        "refinement_cache.txt",
        f"Refined-query store: cold vs warm "
        f"({len(REFINEMENT_PATTERNS) * 2} refinement-heavy solve jobs, "
        f"{refined} refined queries)\n"
        f"cold:  {1000 * cold_s:8.2f} ms\n"
        f"warm:  {1000 * warm_s:8.2f} ms "
        f"({warm_report.cache_hits} replays, {speedup:.1f}x)",
    )
    assert speedup >= 3.0


#: Alternation suite: periodic-length unions.  ``L = ⋃ (a^i)+`` needs
#: an lcm-sized cycle eagerly (the minimal DFA counts length modulo
#: lcm of the periods), while the queries — shortest witness, bounded
#: word enumeration — only walk one tuple state per explored length.
#: (Literal-word alternations, by contrast, minimize to small tries
#: and have nothing to win lazily.)
ALTERNATION_SUITE = [
    [f"(?:a{{{i}}})+" for i in (2, 3, 5, 7)],  # lcm 210
    [f"(?:a{{{i}}})+" for i in (2, 3, 4, 5, 6)],  # lcm 60
    [f"(?:[ab]{{{i}}})+" for i in (3, 4, 5)],  # lcm 60, 2-letter labels
]


def test_lazy_union_visits_fewer_states(benchmark, record_table):
    """The alternation suite through ``LazyUnion`` vs the eagerly
    determinized union — states visited and wall clock."""

    def measure():
        rows = []
        for options in ALTERNATION_SUITE:
            clear_caches()
            started = time.perf_counter()
            lazy = LazyUnion([dfa_for_pattern(p) for p in options])
            witness = lazy.shortest_word()
            lazy_words = list(lazy.words(max_count=10, max_length=12))
            lazy_s = time.perf_counter() - started

            clear_caches()
            started = time.perf_counter()
            eager = dfa_for_pattern(
                "|".join(f"(?:{p})" for p in options)
            )
            eager_witness = eager.shortest_word()
            list(eager.words(max_count=10, max_length=12))
            eager_s = time.perf_counter() - started

            assert (witness is None) == (eager_witness is None)
            assert all(eager.accepts_word(w) for w in lazy_words)
            rows.append(
                {
                    "options": len(options),
                    "lazy_states_visited": lazy.states_visited,
                    "eager_states": eager.n_states,
                    "lazy_s": lazy_s,
                    "eager_s": eager_s,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    update_json_result(
        "BENCH_refinement.json", "lazy_union", {"suite": rows}
    )
    lines = [
        "Lazy union vs eager determinization (alternation suite)",
        "options  visited  eager-states  lazy(ms)  eager(ms)",
    ]
    for row in rows:
        lines.append(
            f"{row['options']:>7} {row['lazy_states_visited']:>8} "
            f"{row['eager_states']:>13} {1000 * row['lazy_s']:>9.2f} "
            f"{1000 * row['eager_s']:>10.2f}"
        )
    record_table("refinement_union.txt", "\n".join(lines))
    # Acceptance: strictly fewer states than the eager union on every
    # alternation set.
    for row in rows:
        assert row["lazy_states_visited"] < row["eager_states"]
