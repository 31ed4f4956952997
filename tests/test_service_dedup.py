"""Scheduler-level dedup: coalescing identical queued queries."""

from repro.service import (
    AnalyzeJob,
    BatchRunner,
    RunnerConfig,
    SolveJob,
    SurveyJob,
    format_batch_report,
    merge_backend_tallies,
)
from repro.service.runner import _coalesce


class TestDedupKeys:
    def test_solve_key_is_canonical_query_identity(self):
        # Same query, different pattern text: laziness and character-class
        # spelling don't change the canonical model.  (A capturing variant
        # like ``(ab)+`` would *not* coalesce — it adds capture variables,
        # i.e. genuinely asks for more.)
        a = SolveJob(job_id="a", pattern="(?:[a-c]b)+")
        b = SolveJob(job_id="b", pattern="(?:[cba]b)+?")
        assert a.dedup_key() == b.dedup_key()
        assert a.dedup_key() != SolveJob(
            job_id="c", pattern="([a-c]b)+"
        ).dedup_key()

    def test_solve_key_distinguishes_polarity_and_bounds(self):
        base = SolveJob(job_id="a", pattern="a+b")
        assert base.dedup_key() != SolveJob(
            job_id="b", pattern="a+b", negate=True
        ).dedup_key()
        assert base.dedup_key() != SolveJob(
            job_id="c", pattern="a+b", solver_timeout=9.0
        ).dedup_key()
        assert base.dedup_key() != SolveJob(
            job_id="d", pattern="a+b", backend="cached:native"
        ).dedup_key()

    def test_unparsable_pattern_never_coalesces(self):
        bad = SolveJob(job_id="a", pattern="(")
        assert bad.dedup_key() is None
        unique, assignment = _coalesce(
            [bad, SolveJob(job_id="b", pattern="(")]
        )
        assert len(unique) == 2
        assert assignment == [0, 1]

    def test_analyze_key_covers_config(self):
        src = 'var s = symbol("s", "");\nif (/a+/.test(s)) { 1; }\n'
        a = AnalyzeJob(job_id="a", source=src, max_tests=4)
        b = AnalyzeJob(job_id="b", source=src, max_tests=4)
        c = AnalyzeJob(job_id="c", source=src, max_tests=5)
        assert a.dedup_key() == b.dedup_key()
        assert a.dedup_key() != c.dedup_key()

    def test_survey_jobs_never_coalesce(self):
        job = SurveyJob(job_id="v", package_files=[["var r = /a/;"]])
        assert job.dedup_key() is None


class TestBatchDedup:
    def duplicated_jobs(self):
        # 6 submitted, 2 unique canonical queries.
        return [
            SolveJob(job_id=f"x{i}", pattern="a+b") for i in range(3)
        ] + [
            SolveJob(job_id=f"y{i}", pattern="[0-9]{2}") for i in range(3)
        ]

    def test_fewer_native_solves_than_jobs_submitted(self):
        jobs = self.duplicated_jobs()
        report = BatchRunner(RunnerConfig(workers=0, dedup=True)).run(jobs)
        assert all(r.status == "ok" for r in report.results)
        assert report.jobs_submitted == 6
        assert report.jobs_executed == 2
        assert report.jobs_coalesced == 4
        tallies = merge_backend_tallies(report.results)
        native_queries = sum(t["queries"] for t in tallies.values())
        # 2 single-flight executions answered all 6 jobs.
        assert 0 < native_queries < len(jobs)

    def test_coalesced_results_replay_the_representative(self):
        jobs = self.duplicated_jobs()
        report = BatchRunner(RunnerConfig(workers=0, dedup=True)).run(jobs)
        assert [r.job_id for r in report.results] == [
            j.job_id for j in jobs
        ]
        replayed = [
            r for r in report.results if "deduped_from" in r.payload
        ]
        assert len(replayed) == 4
        for result in replayed:
            assert result.payload["found"] is True
            assert result.payload["word"]
            assert "solver_queries" not in result.payload
            assert result.seconds == 0.0

    def test_dedup_counters_in_report_text_and_spec(self):
        jobs = self.duplicated_jobs()
        report = BatchRunner(RunnerConfig(workers=0, dedup=True)).run(jobs)
        spec = report.to_spec()
        assert spec["dedup"] == {
            "submitted": 6,
            "executed": 2,
            "coalesced": 4,
        }
        text = format_batch_report(report)
        assert "dedup:       6 submitted, 2 executed, 4 coalesced" in text

    def test_disabled_by_default(self):
        jobs = self.duplicated_jobs()
        report = BatchRunner(RunnerConfig(workers=0)).run(jobs)
        assert report.jobs_executed == 6
        assert report.jobs_coalesced == 0
        assert not any(
            "deduped_from" in r.payload for r in report.results
        )

    def test_dedup_across_pool_workers(self):
        jobs = self.duplicated_jobs()
        report = BatchRunner(
            RunnerConfig(workers=2, dedup=True, job_timeout=120.0)
        ).run(jobs)
        assert all(r.status == "ok" for r in report.results)
        assert report.jobs_executed == 2
        assert [r.job_id for r in report.results] == [
            j.job_id for j in jobs
        ]

    def test_coalesced_analyze_results_keep_their_own_name(self):
        src = 'var s = symbol("s", "");\nif (/a+/.test(s)) { 1; }\n'
        jobs = [
            AnalyzeJob(job_id="a0", source=src, path="a.js", max_tests=4),
            AnalyzeJob(job_id="a1", source=src, path="b.js", max_tests=4),
        ]
        report = BatchRunner(RunnerConfig(workers=0, dedup=True)).run(jobs)
        assert report.jobs_executed == 1
        assert [r.payload["name"] for r in report.results] == [
            "a.js",
            "b.js",
        ]

    def test_error_results_fan_out_too(self):
        jobs = [
            AnalyzeJob(job_id="bad0", source="var = = ;"),
            AnalyzeJob(job_id="bad1", source="var = = ;"),
        ]
        report = BatchRunner(RunnerConfig(workers=0, dedup=True)).run(jobs)
        assert report.jobs_executed == 1
        assert [r.status for r in report.results] == ["error", "error"]
        assert report.results[0].error == report.results[1].error
