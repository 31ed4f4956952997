"""Span tracing and trace export: disabled fast path, nesting,
multi-process merge, and the Chrome trace-event round-trip."""

import json
import os

import pytest

from repro import obs
from repro.obs.export import (
    ObsRun,
    merge_records,
    read_spool,
    write_chrome_trace,
    write_jsonl_trace,
)
from repro.obs.schema import (
    validate_chrome_trace,
    validate_jsonl_trace,
    validate_metrics_file,
)
from repro.obs.tracer import NOOP_SPAN, SpoolSink, Tracer
from repro.service import AnalyzeJob, BatchRunner, RunnerConfig, SolveJob


def _tracer(tmp_path, **kwargs):
    sink = SpoolSink(str(tmp_path / "spool"))
    tracer = Tracer(sink, **kwargs)
    obs.set_tracer(tracer)
    return tracer


class TestDisabledMode:
    def test_span_is_the_shared_noop_singleton(self):
        assert obs.get_tracer() is None
        with obs.span("cegar:solve", iteration=3) as span:
            assert span is NOOP_SPAN
            span.set(status="sat")
            with obs.span("cegar:iter") as inner:
                assert inner is NOOP_SPAN
        assert obs.current_span() is None
        assert not obs.enabled()

    def test_disabled_helpers_emit_nothing(self, tmp_path):
        obs.event("session:restart", reason="test")
        obs.complete_span("backend:native", 0.5, status="sat")
        obs.annotate(route="bounded")
        # Nothing was configured, so nothing can have been spooled.
        assert obs.snapshot()["tracing"] is None
        assert obs.snapshot()["metrics"] is None

    def test_traced_solve_then_disabled_emits_nothing(self, tmp_path):
        spool = tmp_path / "spool"
        tracer = _tracer(tmp_path)
        with obs.span("job:solve"):
            pass
        obs.shutdown()
        before = sorted(os.listdir(spool))
        SolveJob(job_id="s", pattern="a+b").run()
        with obs.span("untracked"):
            pass
        assert sorted(os.listdir(spool)) == before
        assert tracer.spans_recorded == 1


class TestSpanRecording:
    def test_nested_spans_record_parentage(self, tmp_path):
        _tracer(tmp_path)
        with obs.span("job:analyze", job_id="a") as outer:
            with obs.span("cegar:iter", iteration=0) as inner:
                assert obs.current_span() is inner
            assert obs.current_span() is outer
        spool = read_spool(str(tmp_path / "spool"))
        spans = {s["name"]: s for s in spool["spans"]}
        assert spans["cegar:iter"]["parent"] == spans["job:analyze"]["id"]
        assert spans["job:analyze"]["parent"] is None
        assert spans["job:analyze"]["attrs"]["job_id"] == "a"

    def test_error_exit_is_annotated(self, tmp_path):
        _tracer(tmp_path)
        with pytest.raises(ValueError):
            with obs.span("job:analyze"):
                raise ValueError("boom")
        spool = read_spool(str(tmp_path / "spool"))
        assert spool["spans"][0]["attrs"]["error"] == "ValueError"

    def test_explicit_parent_crosses_threads(self, tmp_path):
        # The portfolio backend hands the parent span to executor
        # threads explicitly (contextvars don't follow submit()).
        import threading

        _tracer(tmp_path)
        with obs.span("cegar:solve") as parent:
            thread = threading.Thread(
                target=lambda: obs.span(
                    "portfolio:member", parent=parent
                ).__enter__().__exit__(None, None, None)
            )
            thread.start()
            thread.join()
        spool = read_spool(str(tmp_path / "spool"))
        spans = {s["name"]: s for s in spool["spans"]}
        assert (
            spans["portfolio:member"]["parent"]
            == spans["cegar:solve"]["id"]
        )

    def test_slow_query_log_keeps_only_named_families(self, tmp_path):
        tracer = _tracer(tmp_path, record_spans=False, slow_query_ms=0.0)
        with obs.span("cegar:solve", fingerprint="fp", route="bounded"):
            pass
        with obs.span("backend:native"):
            pass
        assert [e["name"] for e in tracer.slow_queries] == ["cegar:solve"]
        assert tracer.slow_queries[0]["attrs"]["route"] == "bounded"
        assert tracer.spans_recorded == 2  # timed, but not spooled


class TestMergeAndExport:
    def _spool_two_processes(self, tmp_path):
        """Simulate two workers by writing two per-pid spool files."""
        spool = str(tmp_path / "spool")
        os.makedirs(spool, exist_ok=True)
        records = [
            {"k": "span", "name": "b", "id": "2-1", "parent": None,
             "pid": 2, "tid": 2, "seq": 1, "ts": 10.5, "dur": 0.5,
             "attrs": {}},
            {"k": "span", "name": "a", "id": "1-1", "parent": None,
             "pid": 1, "tid": 1, "seq": 1, "ts": 10.0, "dur": 1.0,
             "attrs": {}},
            {"k": "span", "name": "a2", "id": "1-2", "parent": "1-1",
             "pid": 1, "tid": 1, "seq": 2, "ts": 10.0, "dur": 0.25,
             "attrs": {}},
        ]
        for record in records:
            with open(
                os.path.join(spool, f"obs-{record['pid']}.jsonl"), "a"
            ) as handle:
                handle.write(json.dumps(record) + "\n")
        return spool, records

    def test_merge_orders_by_ts_pid_seq(self, tmp_path):
        spool, _ = self._spool_two_processes(tmp_path)
        merged = merge_records(read_spool(spool)["spans"])
        assert [r["name"] for r in merged] == ["a", "a2", "b"]

    def test_jsonl_export_round_trips_and_validates(self, tmp_path):
        spool, _ = self._spool_two_processes(tmp_path)
        out = str(tmp_path / "trace.jsonl")
        write_jsonl_trace(out, merge_records(read_spool(spool)["spans"]))
        assert validate_jsonl_trace(out) == []
        lines = [json.loads(l) for l in open(out)]
        assert [r["pid"] for r in lines] == [1, 1, 2]

    def test_chrome_export_round_trips_and_validates(self, tmp_path):
        spool, _ = self._spool_two_processes(tmp_path)
        out = str(tmp_path / "trace.json")
        write_chrome_trace(
            out, merge_records(read_spool(spool)["spans"])
        )
        doc = json.loads(open(out).read())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {1, 2}
        for event in complete:
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["tid"], int)
            assert event["ph"] == "X"
        # Timestamps are origin-normalized microseconds.
        origin = min(e["ts"] for e in complete)
        assert origin == 0
        durations = {e["name"]: e["dur"] for e in complete}
        assert durations["a"] == pytest.approx(1_000_000)
        assert validate_chrome_trace(out) == []

    def test_obs_run_none_when_nothing_requested(self):
        assert ObsRun.start() is None


class TestTracedBatchEndToEnd:
    SOURCE = (
        'var s = symbol("s", "");\n'
        'if (/^a+$/.test(s)) { 1; } else { 2; }\n'
    )

    def _jobs(self, count):
        return [
            AnalyzeJob(
                job_id=f"a{i}", source=self.SOURCE, max_tests=3,
                time_budget=5.0, backend="native",
            )
            for i in range(count)
        ]

    def test_two_worker_batch_produces_nested_chrome_trace(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        metrics_json = str(tmp_path / "metrics.json")
        runner = BatchRunner(
            RunnerConfig(
                workers=2,
                trace=trace,
                trace_format="chrome",
                metrics_json=metrics_json,
                slow_query_ms=0.0,
            )
        )
        report = runner.run(self._jobs(8))
        assert all(r.status == "ok" for r in report.results)
        assert report.trace_path == trace
        assert report.metrics_path == metrics_json
        # Tracing is torn back down after the run.
        assert not obs.enabled()

        doc = json.load(open(trace))
        assert validate_chrome_trace(trace) == []
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in complete}
        assert len(pids) >= 2  # parent + >=2 workers spooled spans
        assert len(report.obs_pids) >= 2

        by_id = {e["args"]["span_id"]: e for e in complete}

        def ancestry(event):
            names = [event["name"]]
            while event["args"].get("parent_id") in by_id:
                event = by_id[event["args"]["parent_id"]]
                names.append(event["name"])
            return names

        # The acceptance shape: job -> ... -> CEGAR iteration -> backend.
        backend_spans = [
            e for e in complete if e["name"].startswith("backend:")
        ]
        assert backend_spans
        chains = [ancestry(e) for e in backend_spans]
        assert any(
            "cegar:iter" in chain and "job:analyze" in chain
            for chain in chains
        )
        iter_spans = [e for e in complete if e["name"] == "cegar:iter"]
        assert iter_spans  # one span per refinement iteration
        assert validate_metrics_file(metrics_json) == []
        merged = json.load(open(metrics_json))
        totals = {
            series["labels"].get("status"): series["value"]
            for series in merged["counters"].get(
                "solver_queries_total", []
            )
        }
        assert sum(totals.values()) > 0
        # Slow-query entries (threshold 0) surfaced into the report.
        assert report.slow_queries
        assert {"name", "ms", "pid", "attrs"} <= set(
            report.slow_queries[0]
        )

    def test_inline_job_spans_parent_to_the_batch_span(self, tmp_path):
        """Inline jobs run on an executor thread; their spans still hang
        off the one ``batch:run`` span of the calling thread."""
        trace = str(tmp_path / "trace.jsonl")
        report = BatchRunner(RunnerConfig(workers=0, trace=trace)).run(
            self._jobs(2)
        )
        assert all(r.status == "ok" for r in report.results)
        assert validate_jsonl_trace(trace) == []
        records = [json.loads(line) for line in open(trace)]
        batch = [r for r in records if r["name"] == "batch:run"]
        job_spans = [r for r in records if r["name"] == "job:analyze"]
        assert len(batch) == 1
        assert len(job_spans) == 2
        assert all(r["parent"] == batch[0]["id"] for r in job_spans)

    def test_untraced_batch_leaves_no_artifacts(self, tmp_path):
        report = BatchRunner(RunnerConfig(workers=0)).run(self._jobs(1))
        assert report.trace_path is None
        assert report.metrics_path is None
        assert report.slow_queries == []
        assert not obs.enabled()
