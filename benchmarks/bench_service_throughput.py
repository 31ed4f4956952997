"""Batch service throughput: jobs/minute and cache hit rate by workers.

Runs the survey workload (survey shards + solve jobs over the synthetic
corpus's heavily-duplicated regex literals) through the batch runner at
1, 2 and 4 workers.  Reproduction targets: the worker pool scales
jobs/minute with available cores, and each worker's solver query cache
reports a nonzero hit rate because duplicated literals re-pose the same
canonical query.

The scaling assertion is gated on the CPUs actually available to this
process — on a single-core container 4 workers cannot beat 1, and the
table records that honestly rather than asserting fiction.
"""

import os

from repro.service import (
    BatchRunner,
    RunnerConfig,
    merge_automata_counters,
    survey_workload,
)

WORKER_COUNTS = (1, 2, 4)


def _run(workers: int):
    jobs = survey_workload(n_packages=160, seed=1909, shards=8, solve_cap=40)
    runner = BatchRunner(
        RunnerConfig(workers=workers, job_timeout=120.0, use_cache=True)
    )
    return runner.run(jobs)


def _sweep():
    return {workers: _run(workers) for workers in WORKER_COUNTS}


def test_service_throughput(benchmark, record_table):
    reports = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    cpus = len(os.sched_getaffinity(0))

    lines = [
        f"(available CPUs: {cpus})",
        "Workers     Jobs   Wall(s)   Jobs/min   Cache hits   Hit rate",
    ]
    for workers, report in reports.items():
        lines.append(
            f"{workers:>7} {len(report.results):>8} "
            f"{report.wall_time:>9.2f} {report.jobs_per_minute:>10.1f} "
            f"{report.cache_hits:>12} {100 * report.cache_hit_rate:>9.1f}%"
        )
    base = reports[1].jobs_per_minute
    for workers in (2, 4):
        speedup = reports[workers].jobs_per_minute / base if base else 0.0
        lines.append(f"speedup x{workers} vs x1: {speedup:.2f}x")
    record_table(
        "service_throughput.txt",
        "Batch service throughput (survey workload)\n" + "\n".join(lines),
    )

    for workers, report in reports.items():
        assert all(
            r.status == "ok" for r in report.results
        ), f"failed jobs at {workers} workers"
        # The duplicated survey literals must actually hit the cache.
        assert report.cache_hits > 0, f"no cache hits at {workers} workers"
        assert report.cache_hit_rate > 0.0

    if cpus >= 4:
        assert reports[4].jobs_per_minute >= 1.5 * base
    elif cpus >= 2:
        assert reports[2].jobs_per_minute >= 1.1 * base


def test_warm_automata_cache_batch(benchmark, record_table, tmp_path):
    """Second batch invocation against a populated on-disk automata cache.

    The cold run compiles every corpus regex in every worker process and
    populates the store; the warm run (fresh processes, same path) loads
    compiled DFAs instead.  Scheduler dedup is on for both, so the table
    also records how many duplicated solve jobs were coalesced.
    """
    store = str(tmp_path / "automata")

    def _run():
        jobs = survey_workload(
            n_packages=160, seed=1909, shards=8, solve_cap=40
        )
        runner = BatchRunner(
            RunnerConfig(
                workers=2,
                job_timeout=120.0,
                use_cache=True,
                automata_cache=store,
                dedup=True,
            )
        )
        return runner.run(jobs)

    cold, warm = benchmark.pedantic(
        lambda: (_run(), _run()), rounds=1, iterations=1
    )
    cold_automata = merge_automata_counters(cold.results)
    warm_automata = merge_automata_counters(warm.results)
    speedup = (
        cold.wall_time / warm.wall_time if warm.wall_time else 0.0
    )
    record_table(
        "service_warm_automata.txt",
        "Batch run: cold vs warm on-disk automata cache (2 workers)\n"
        "Run    Wall(s)  Compiles  DiskLoads  Coalesced\n"
        f"cold {cold.wall_time:>8.2f} {cold_automata['misses']:>9} "
        f"{cold_automata['disk_hits']:>10} {cold.jobs_coalesced:>10}\n"
        f"warm {warm.wall_time:>8.2f} {warm_automata['misses']:>9} "
        f"{warm_automata['disk_hits']:>10} {warm.jobs_coalesced:>10}\n"
        f"warm-path speedup: {speedup:.2f}x",
    )

    assert all(r.status == "ok" for r in cold.results)
    assert all(r.status == "ok" for r in warm.results)
    # The warm run replays compilations from disk instead of redoing
    # them, and never compiles more than the cold run did.
    assert warm_automata["disk_hits"] > 0
    assert warm_automata["misses"] < max(1, cold_automata["misses"])
    # Dedup must actually coalesce the duplicated survey literals.
    assert warm.jobs_coalesced > 0
