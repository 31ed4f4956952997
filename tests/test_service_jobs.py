"""Tests for the batch service job model (specs + execution)."""

import json

import pytest

from repro.service import (
    AnalyzeJob,
    JobResult,
    SolveJob,
    SurveyJob,
    job_from_spec,
    survey_workload,
)
from repro.service.jobs import analyze_jobs_from_files

PROGRAM = (
    'var s = symbol("s", "");\n'
    'if (/^a+$/.test(s)) { 1; } else { 2; }\n'
)


class TestSpecs:
    def test_round_trip_all_kinds(self):
        jobs = [
            AnalyzeJob(job_id="a", source=PROGRAM, max_tests=5),
            SolveJob(job_id="s", pattern="a+b", flags="i"),
            SurveyJob(job_id="v", package_files=[["var x = /a/;"]]),
        ]
        for job in jobs:
            spec = json.loads(json.dumps(job.to_spec()))  # JSON-safe
            assert job_from_spec(spec) == job

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            job_from_spec({"kind": "nope", "job_id": "x"})

    def test_backend_field_survives_the_spec_round_trip(self):
        jobs = [
            AnalyzeJob(job_id="a", source=PROGRAM,
                       backend="portfolio:native+smtlib"),
            SolveJob(job_id="s", pattern="a+b", backend="cached:native"),
            SurveyJob(job_id="v", package_files=[],
                      backend="native?timeout=1"),
        ]
        for job in jobs:
            spec = json.loads(json.dumps(job.to_spec()))
            rebuilt = job_from_spec(spec)
            assert rebuilt == job
            assert rebuilt.backend == job.backend

    def test_specs_without_backend_default_to_none(self):
        # Old (pre-backend) job specs must still rebuild.
        job = job_from_spec(
            {"kind": "solve", "job_id": "s", "pattern": "a"}
        )
        assert job.backend is None

    def test_result_round_trip(self):
        result = JobResult(
            job_id="a", kind="solve", status="ok", payload={"found": True}
        )
        assert JobResult.from_spec(result.to_spec()) == result

    @pytest.mark.parametrize("kind", ["solve", "survey", "replayed"])
    def test_executed_results_round_trip(self, kind):
        from repro.service.runner import replay_result

        solve = SolveJob(job_id="s", pattern="(a|b)c")
        survey = SurveyJob(
            job_id="v", package_files=[["var x = /(a)\\1/; var y = /b+/i;"]]
        )
        if kind == "survey":
            result = survey.run()
        else:
            result = solve.run()
            if kind == "replayed":
                twin = SolveJob(job_id="t", pattern="(a|b)c")
                result = replay_result(twin, solve, result)
        assert result.status == "ok"
        spec = result.to_spec()
        assert JobResult.from_spec(spec) == result
        # Through the wire format too, and the payload is a copy.
        assert JobResult.from_spec(json.loads(json.dumps(spec))) == result
        assert spec["payload"] == result.payload
        assert spec["payload"] is not result.payload


class TestAnalyzeJob:
    def test_runs_and_reports_coverage(self):
        result = AnalyzeJob(
            job_id="a", source=PROGRAM, max_tests=6, time_budget=5.0
        ).run()
        assert result.status == "ok"
        assert result.payload["coverage"] > 0
        assert result.payload["tests_run"] >= 1
        assert result.seconds > 0

    def test_parse_error_is_captured(self):
        result = AnalyzeJob(job_id="bad", source="var = = ;").run()
        assert result.status == "error"
        assert result.error
        assert result.payload == {}


class TestSolveJob:
    def test_positive(self):
        result = SolveJob(job_id="s", pattern="(a+)b").run()
        assert result.status == "ok"
        assert result.payload["found"]
        assert result.payload["word"].endswith("b")
        assert result.payload["captures"]["1"]

    def test_negated(self):
        result = SolveJob(job_id="s", pattern="^a+$", negate=True).run()
        assert result.status == "ok"
        assert result.payload["found"]

    def test_unsatisfiable(self):
        result = SolveJob(job_id="s", pattern="^(?=b)a$").run()
        assert result.status == "ok"
        assert not result.payload["found"]


class TestDefaultSolverFactory:
    def test_legacy_native_options_apply_structurally(self):
        from repro.service.jobs import default_solver_factory

        backend = default_solver_factory(timeout=2.0, max_word_length=7)
        assert backend.timeout == 2.0
        assert backend.solver.max_word_length == 7

    def test_options_with_explicit_backend_raise_instead_of_dropping(self):
        from repro.service.jobs import default_solver_factory

        with pytest.raises(TypeError, match="cannot be combined"):
            default_solver_factory(
                backend="smtlib:z3", max_word_length=7
            )


class TestJobBackends:
    def test_solve_job_runs_on_every_backend_spec(self):
        for spec in ("native", "cached:native", "portfolio:native+smtlib"):
            result = SolveJob(
                job_id="s", pattern="(a+)b", backend=spec
            ).run()
            assert result.status == "ok"
            assert result.payload["found"]
            assert result.payload["backend"] == spec
            assert result.payload["backend_tallies"]

    def test_analyze_job_reports_backend_tallies(self):
        result = AnalyzeJob(
            job_id="a",
            source=PROGRAM,
            max_tests=6,
            time_budget=5.0,
            backend="cached:native",
        ).run()
        assert result.status == "ok"
        tallies = result.payload["backend_tallies"]
        assert "cached:native" in tallies
        assert tallies["cached:native"]["queries"] > 0

    def test_bad_backend_spec_is_a_job_error_not_a_crash(self):
        result = SolveJob(job_id="s", pattern="a", backend="bogus").run()
        assert result.status == "error"
        assert "unknown solver backend" in result.error


class TestSurveyJob:
    def test_counts_and_uniques(self):
        files = [
            ["var a = /x(y)/; var b = /\\d+/g;"],
            ["var c = /x(y)/;"],  # duplicate of the capture literal
            [],
        ]
        result = SurveyJob(job_id="v", package_files=files).run()
        assert result.status == "ok"
        p = result.payload
        assert p["n_packages"] == 3
        assert p["with_regex"] == 2
        assert p["total_regexes"] == 3
        assert len(p["uniques"]) == 2
        assert p["with_captures"] == 2


class TestWorkloads:
    def test_survey_workload_shapes(self):
        jobs = survey_workload(n_packages=40, shards=4, solve_cap=10)
        kinds = {type(job) for job in jobs}
        assert kinds == {SurveyJob, SolveJob}
        solves = [j for j in jobs if isinstance(j, SolveJob)]
        assert len(solves) == 10
        surveys = [j for j in jobs if isinstance(j, SurveyJob)]
        assert sum(len(j.package_files) for j in surveys) == 40
        # deterministic for a fixed seed
        again = survey_workload(n_packages=40, shards=4, solve_cap=10)
        assert [j.to_spec() for j in again] == [j.to_spec() for j in jobs]

    def test_analyze_jobs_from_files(self, tmp_path):
        path = tmp_path / "p.js"
        path.write_text(PROGRAM)
        jobs = analyze_jobs_from_files([str(path)], max_tests=3)
        assert len(jobs) == 1
        assert jobs[0].source == PROGRAM
        assert jobs[0].path == str(path)
