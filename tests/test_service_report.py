"""Tests for batch report merging and rendering."""

import random

from repro.service import (
    BatchReport,
    BatchRunner,
    JobResult,
    SurveyJob,
    format_backend_table,
    format_batch_report,
    merge_analyze,
    merge_backend_tallies,
    merge_solve,
    merge_survey,
)


def analyze_result(job_id, covered, statements, **over):
    payload = {
        "name": job_id,
        "covered": covered,
        "statement_count": statements,
        "coverage": covered / statements,
        "tests_run": 5,
        "queries": 10,
        "sat_queries": 8,
        "regex_ops": 3,
        "concretizations": 0,
        "wall_time": 1.0,
        "failures": [],
        "solver_queries": 10,
        "solver_seconds": 0.5,
        "refined_queries": 2,
        "sum_refinements": 6,
    }
    payload.update(over)
    return JobResult(job_id=job_id, kind="analyze", status="ok", payload=payload)


class TestMergeAnalyze:
    def test_corpus_level_aggregates(self):
        merged = merge_analyze(
            [
                analyze_result("a", 6, 10),
                analyze_result("b", 10, 10),
                JobResult(job_id="c", kind="analyze", status="error"),
            ]
        )
        assert merged["packages"] == 3
        assert merged["analyzed"] == 2
        assert merged["failed_jobs"] == 1
        assert merged["coverage"] == 16 / 20
        assert merged["queries"] == 20
        assert merged["mean_refinements"] == 3.0

    def test_concat_refuted_sums_onto_the_solver_line(self):
        results = [
            analyze_result("a", 6, 10, concat_refuted=3),
            analyze_result("b", 10, 10, concat_refuted=4),
            analyze_result("c", 1, 10),  # payload from before the counter
        ]
        assert merge_analyze(results)["concat_refuted"] == 7
        text = format_batch_report(BatchReport(results=results))
        solver_line = next(
            line for line in text.splitlines() if line.startswith("solver:")
        )
        assert "7 refuted by concatenation (cores and prefixes)" in solver_line

    def test_prefixes_refuted_sums_onto_the_solver_line(self):
        results = [
            analyze_result("a", 6, 10, prefixes_refuted=5),
            analyze_result("b", 10, 10, prefixes_refuted=2),
            analyze_result("c", 1, 10),  # payload from before the counter
        ]
        assert merge_analyze(results)["prefixes_refuted"] == 7
        text = format_batch_report(BatchReport(results=results))
        solver_line = next(
            line for line in text.splitlines() if line.startswith("solver:")
        )
        assert "7 prefixes refuted" in solver_line

    def test_literals_ingested_sums_onto_the_solver_line(self):
        results = [
            analyze_result("a", 6, 10, literals_ingested=40),
            analyze_result("b", 10, 10, literals_ingested=2),
            analyze_result("c", 1, 10),  # payload from before the counter
        ]
        assert merge_analyze(results)["literals_ingested"] == 42
        text = format_batch_report(BatchReport(results=results))
        solver_line = next(
            line for line in text.splitlines() if line.startswith("solver:")
        )
        assert "42 literals ingested" in solver_line

    def test_empty(self):
        merged = merge_analyze([])
        assert merged["coverage"] == 0.0
        assert merged["packages"] == 0


class TestMergeSolve:
    def test_counts(self):
        results = [
            JobResult(
                job_id="a", kind="solve", status="ok",
                payload={"found": True, "solver_queries": 2,
                         "solver_seconds": 0.1},
            ),
            JobResult(
                job_id="b", kind="solve", status="ok",
                payload={"found": False, "solver_queries": 1,
                         "solver_seconds": 0.2},
            ),
            JobResult(job_id="c", kind="solve", status="timeout"),
        ]
        merged = merge_solve(results)
        assert merged["solved"] == 1
        assert merged["unsolved"] == 1
        assert merged["failed_jobs"] == 1
        assert merged["solver_queries"] == 3
        assert merged["prefixes_refuted"] == 0
        assert merged["literals_ingested"] == 0


class TestMergeBackendTallies:
    def _result(self, job_id, tallies, status="ok"):
        return JobResult(
            job_id=job_id, kind="solve", status=status,
            payload={"backend_tallies": tallies},
        )

    def test_per_backend_sums_across_jobs(self):
        tally = {
            "queries": 3, "sat": 2, "unsat": 1, "unknown": 0,
            "errors": 0, "seconds": 0.5, "definitive_rate": 1.0,
        }
        other = {
            "queries": 1, "sat": 0, "unsat": 0, "unknown": 1,
            "errors": 0, "seconds": 0.2, "definitive_rate": 0.0,
        }
        merged = merge_backend_tallies(
            [
                self._result("a", {"native": tally}),
                self._result("b", {"native": tally, "smtlib:z3": other}),
                self._result("c", {"native": tally}, status="error"),
            ]
        )
        assert merged["native"]["queries"] == 6
        assert merged["native"]["sat"] == 4
        assert merged["native"]["definitive_rate"] == 1.0
        assert merged["smtlib:z3"]["unknown"] == 1
        assert merged["smtlib:z3"]["definitive_rate"] == 0.0

    def test_jobs_without_tallies_are_fine(self):
        assert merge_backend_tallies(
            [JobResult(job_id="a", kind="survey", status="ok")]
        ) == {}

    def test_table_has_one_row_per_backend(self):
        merged = merge_backend_tallies(
            [
                self._result(
                    "a",
                    {
                        "native": {
                            "queries": 2, "sat": 1, "unsat": 1,
                            "unknown": 0, "errors": 0, "seconds": 0.1,
                        }
                    },
                )
            ]
        )
        table = format_backend_table(merged)
        assert "Backend" in table and "Defin.%" in table
        assert "native" in table
        assert "100.0" in table


class TestMergeSurvey:
    def test_cross_shard_unique_dedup(self):
        # The same literal in two shards must count once in uniques.
        shard_a = SurveyJob(
            job_id="v0", package_files=[["var a = /x(y)/;"]]
        ).run()
        shard_b = SurveyJob(
            job_id="v1",
            package_files=[["var b = /x(y)/; var c = /\\d+/;"]],
        ).run()
        merged = merge_survey([shard_a, shard_b])
        assert merged.n_packages == 2
        assert merged.total_regexes == 3
        assert merged.unique_regexes == 2
        assert merged.feature_uniques["capture_groups"] == 1


class TestBatchReport:
    def test_cache_totals_and_statuses(self):
        report = BatchReport(
            results=[
                JobResult(
                    job_id="a", kind="solve", status="ok",
                    cache_hits=2, cache_misses=3,
                ),
                JobResult(job_id="b", kind="solve", status="error"),
            ],
            wall_time=30.0,
            workers=2,
        )
        assert report.cache_hits == 2
        assert report.cache_misses == 3
        assert report.cache_hit_rate == 0.4
        assert report.jobs_per_minute == 4.0
        assert report.by_status() == {"ok": 1, "error": 1}
        spec = report.to_spec()
        assert spec["cache"]["hits"] == 2
        assert len(spec["results"]) == 2

    def test_format_full_report(self):
        jobs = [
            SurveyJob(job_id="v0", package_files=[["var a = /q(r)/;"]]),
        ]
        report = BatchRunner(workers=0).run(jobs)
        text = format_batch_report(report)
        assert "jobs:" in text
        assert "query cache:" in text
        assert "Total Regex" in text  # table 5 section

    def test_report_is_order_independent(self):
        """Streamed (as-completed) result order must not change a report.

        The serve daemon delivers results in completion order; the same
        result set arriving in any permutation has to render the exact
        same bytes — including float aggregates, whose summation order
        would otherwise drift in the last bits.
        """
        results = [
            analyze_result(
                f"a{i}", 5 + i, 10,
                solver_seconds=0.1 * (10 ** (i % 5)) + 1e-9,
                wall_time=0.3 * (7 ** (i % 3)),
            )
            for i in range(8)
        ]
        results += [
            JobResult(
                job_id=f"s{i}", kind="solve", status="ok",
                payload={
                    "found": i % 2 == 0,
                    "solver_queries": i,
                    "solver_seconds": 0.01 * (3 ** i) + 1e-10,
                    "backend_tallies": {
                        "native": {
                            "queries": i, "sat": i, "unsat": 0,
                            "unknown": 0, "errors": 0,
                            "seconds": 0.001 * (5 ** (i % 4)),
                        }
                    },
                },
            )
            for i in range(6)
        ]
        results.append(
            JobResult(
                job_id="bad", kind="solve", status="error",
                error="Boom\nlast line",
            )
        )

        def render(ordering):
            return format_batch_report(
                BatchReport(results=list(ordering), wall_time=2.0, workers=2)
            )

        reference = render(results)
        rng = random.Random(1909)
        for _ in range(5):
            shuffled = list(results)
            rng.shuffle(shuffled)
            assert render(shuffled) == reference

    def test_of_kind_is_canonically_ordered(self):
        report = BatchReport(
            results=[
                JobResult(job_id="s2", kind="solve", status="ok"),
                JobResult(job_id="s0", kind="solve", status="ok"),
                JobResult(job_id="a0", kind="analyze", status="ok"),
                JobResult(job_id="s1", kind="solve", status="ok"),
            ]
        )
        assert [r.job_id for r in report.of_kind("solve")] == [
            "s0", "s1", "s2",
        ]

    def test_format_lists_failed_jobs(self):
        report = BatchReport(
            results=[
                JobResult(
                    job_id="bad", kind="analyze", status="error",
                    error="Boom\nlast line",
                )
            ],
            wall_time=1.0,
            workers=1,
        )
        text = format_batch_report(report)
        assert "Failed jobs" in text
        assert "bad [error]: last line" in text
