"""Tests for the worker-pool batch runner."""

import sys
import threading
import time
from dataclasses import dataclass

import pytest

from repro.service import (
    AnalyzeJob,
    BatchRunner,
    JobResult,
    RunnerConfig,
    SolveJob,
    SurveyJob,
    merge_analyze,
)
from repro.service.jobs import _JobBase
from repro.service.runner import replay_result

PROGRAM = (
    'var s = symbol("s", "");\n'
    'if (/^x+$/.test(s)) { 1; } else { 2; }\n'
)


def small_jobs():
    return [
        SolveJob(job_id="s0", pattern="a+b"),
        AnalyzeJob(
            job_id="a0", source=PROGRAM, max_tests=4, time_budget=5.0
        ),
        SolveJob(job_id="s1", pattern="a+b"),  # duplicate → cache hit
        SurveyJob(job_id="v0", package_files=[["var r = /a(b)/;"]]),
    ]


class TestInline:
    def test_runs_all_kinds_in_order(self):
        report = BatchRunner(workers=0).run(small_jobs())
        assert [r.job_id for r in report.results] == ["s0", "a0", "s1", "v0"]
        assert all(r.status == "ok" for r in report.results)
        assert report.wall_time > 0
        assert report.jobs_per_minute > 0

    def test_cache_shared_across_jobs(self):
        report = BatchRunner(workers=0).run(small_jobs())
        assert report.cache_hits >= 1  # s1 replays s0's query
        assert report.cache_misses >= 1

    def test_cache_can_be_disabled(self):
        report = BatchRunner(workers=0, use_cache=False).run(small_jobs())
        assert report.cache_hits == 0
        assert report.cache_misses == 0
        assert all(r.status == "ok" for r in report.results)


class TestPool:
    def test_two_workers_deterministic_order(self):
        jobs = small_jobs()
        report = BatchRunner(workers=2, job_timeout=120.0).run(jobs)
        assert [r.job_id for r in report.results] == [j.job_id for j in jobs]
        assert all(r.status == "ok" for r in report.results)
        assert report.workers == 2

    def test_worker_persistent_cache_hits(self):
        # One worker ⇒ every duplicate lands on the same process cache.
        jobs = [
            SolveJob(job_id=f"s{i}", pattern="(ab)+c") for i in range(3)
        ]
        report = BatchRunner(workers=1, job_timeout=120.0).run(jobs)
        assert all(r.status == "ok" for r in report.results)
        assert report.cache_hits >= 2

    def test_failure_capture_does_not_poison_batch(self):
        jobs = [
            AnalyzeJob(job_id="bad", source="var = = ;"),
            SolveJob(job_id="good", pattern="ok"),
        ]
        report = BatchRunner(workers=2, job_timeout=120.0).run(jobs)
        assert report.results[0].status == "error"
        assert report.results[1].status == "ok"
        assert report.by_status() == {"error": 1, "ok": 1}


@dataclass
class NapJob(_JobBase):
    """Sleeps, then reports — for backstop-timeout assertions.

    Only usable with the inline runner (``workers=0``): the class is
    test-local, so a pool worker process could not unpickle its spec.
    """

    duration: float = 0.0

    KIND = "nap"

    def _run(self, solver_factory) -> dict:
        time.sleep(self.duration)
        return {"duration": self.duration}


@pytest.fixture
def nap_kind(monkeypatch):
    from repro.service import jobs

    monkeypatch.setitem(jobs._JOB_KINDS, "nap", NapJob)


class TestPersistentPool:
    """The start/submit/close seam the scheduler drives."""

    def test_submit_before_start_raises(self):
        with pytest.raises(RuntimeError):
            BatchRunner(workers=0).submit(
                SolveJob(job_id="s", pattern="a"), lambda result: None
            )

    def test_submit_delivers_on_completion(self):
        done = threading.Event()
        landed = []
        with BatchRunner(workers=0) as runner:
            assert runner.started
            runner.submit(
                SolveJob(job_id="s0", pattern="a+b"),
                lambda result: (landed.append(result), done.set()),
            )
            assert done.wait(timeout=60.0)
        assert landed[0].job_id == "s0"
        assert landed[0].status == "ok"
        assert not runner.started  # context exit closed the pool

    def test_submit_reuses_the_inline_cache(self):
        done = threading.Event()
        landed = []

        def on_done(result):
            landed.append(result)
            if len(landed) == 2:
                done.set()

        with BatchRunner(workers=0) as runner:
            runner.submit(SolveJob(job_id="s0", pattern="q(r)+s"), on_done)
            runner.submit(SolveJob(job_id="s1", pattern="q(r)+s"), on_done)
            assert done.wait(timeout=60.0)
        assert sum(r.cache_hits for r in landed) >= 1

    def test_run_timeout_yields_timeout_result(self, nap_kind):
        runner = BatchRunner(RunnerConfig(workers=0, job_timeout=0.2))
        jobs = [NapJob(job_id="stuck", duration=5.0)]
        result, = runner.run(jobs).results
        assert result.status == "timeout"
        assert result.job_id == "stuck"

    def test_pool_mode_submit(self):
        with BatchRunner(workers=2, job_timeout=120.0) as runner:
            done = threading.Event()
            landed = []
            runner.submit(
                SolveJob(job_id="p0", pattern="a[bc]+d"),
                lambda result: (landed.append(result), done.set()),
            )
            assert done.wait(timeout=120.0)
        assert landed[0].status == "ok"
        assert landed[0].payload["found"] is True

    def test_concurrent_submits_settle_exactly_once(self):
        """Four threads submit to three workers while every worker dies
        on its 5th job: each submission is delivered exactly once, and
        every delivered crash is one the runner counted."""
        jobs_per_thread, threads = 15, 4
        total = jobs_per_thread * threads
        landed = []
        lock = threading.Lock()
        all_landed = threading.Event()

        def on_done(result):
            with lock:
                landed.append(result)
                if len(landed) == total:
                    all_landed.set()

        config = RunnerConfig(
            workers=3,
            job_timeout=60.0,
            fault_plan={
                "rules": [{"site": "worker:job", "action": "kill", "every": 5}]
            },
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchRunner(config) as runner:

                def submit_all(thread):
                    for i in range(jobs_per_thread):
                        runner.submit(
                            SolveJob(job_id=f"t{thread}-{i}", pattern="a+b"),
                            on_done,
                        )

                submitters = [
                    threading.Thread(target=submit_all, args=(t,))
                    for t in range(threads)
                ]
                for thread in submitters:
                    thread.start()
                for thread in submitters:
                    thread.join(timeout=60.0)
                assert all_landed.wait(timeout=120.0)
                health = runner.pool_health()
        finally:
            sys.setswitchinterval(interval)
        ids = sorted(result.job_id for result in landed)
        assert ids == sorted(
            f"t{t}-{i}" for t in range(threads) for i in range(jobs_per_thread)
        )
        crashed = [r for r in landed if r.status == "error"]
        assert all(r.error.startswith("WorkerCrashed") for r in crashed)
        assert len(crashed) == health["worker_crashes"] > 0
        assert health["workers_alive"] == 3
        assert health["jobs_tracked"] == 0

    def test_close_is_idempotent(self):
        runner = BatchRunner(workers=0).start()
        runner.close()
        runner.close()
        assert not runner.started


class TestReplayResult:
    def test_replay_marks_and_zeroes(self):
        rep_job = SolveJob(job_id="rep", pattern="a+")
        dup_job = SolveJob(job_id="dup", pattern="a+")
        rep_result = rep_job.run()
        replayed = replay_result(dup_job, rep_job, rep_result)
        assert replayed.job_id == "dup"
        assert replayed.status == rep_result.status
        assert replayed.payload["deduped_from"] == "rep"
        assert "solver_queries" not in replayed.payload
        assert replayed.seconds == 0.0
        assert replayed.cache_hits == 0
        # The representative's own result is untouched.
        assert "deduped_from" not in rep_result.payload

    def test_replayed_analysis_counts_no_refinements(self):
        rep_job = AnalyzeJob(job_id="rep", source="var x = 1;")
        dup_job = AnalyzeJob(job_id="dup", source="var x = 1;")
        payload = {
            "name": "rep", "covered": 1, "statement_count": 1,
            "coverage": 1.0, "tests_run": 1, "queries": 3,
            "sat_queries": 2, "regex_ops": 1, "wall_time": 0.1,
            "failures": [], "solver_queries": 3, "refined_queries": 2,
            "sum_refinements": 5, "unknown_causes": {"budget": 1},
        }
        rep_result = JobResult("rep", "analyze", "ok", payload=payload)
        replayed = replay_result(dup_job, rep_job, rep_result)
        merged = merge_analyze([rep_result, replayed])
        assert merged["tests_run"] == 2
        assert (merged["solver_queries"], merged["refined_queries"]) == (3, 2)
        assert merged["unknown_causes"] == {"budget": 1}


class TestConfig:
    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            BatchRunner(RunnerConfig(workers=-1))
