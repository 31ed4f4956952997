"""The labeled metrics registry, its merge, and the SolverStats feed."""

import threading

import pytest

from repro import obs
from repro.obs import metrics
from repro.obs.export import merge_metrics
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.solver.stats import QueryRecord, SolverStats


def _enable():
    registry = MetricsRegistry()
    metrics.set_registry(registry)
    return registry


class TestRegistry:
    def test_disabled_calls_are_noops(self):
        assert metrics.get_registry() is None
        metrics.count("solver_queries_total", status="sat")
        metrics.observe("solver_query_seconds", 0.5)
        metrics.gauge_set("pool_size", 3)
        assert metrics.get_registry() is None
        assert not metrics.enabled()

    def test_counter_gauge_histogram_snapshot_shape(self):
        registry = _enable()
        metrics.count("queries_total", status="sat")
        metrics.count("queries_total", 2, status="sat")
        metrics.count("queries_total", status="unsat")
        metrics.gauge_set("sessions_live", 4, pool="z3")
        metrics.observe("query_seconds", 0.002)
        metrics.observe("query_seconds", 3.0)
        snapshot = registry.snapshot()
        counters = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in snapshot["counters"]["queries_total"]
        }
        assert counters[(("status", "sat"),)] == 3
        assert counters[(("status", "unsat"),)] == 1
        gauge = snapshot["gauges"]["sessions_live"][0]
        assert gauge == {"labels": {"pool": "z3"}, "value": 4}
        histogram = snapshot["histograms"]["query_seconds"][0]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(3.002)
        # One observation under 2ms, one in the overflow bucket.
        assert sum(histogram["buckets"].values()) == 2

    def test_concurrent_counts_do_not_lose_increments(self):
        registry = _enable()

        def hammer():
            for _ in range(500):
                metrics.count("hits_total", outcome="hit")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits_total"][0]["value"] == 2000

    def test_merge_snapshots_sums_every_section(self):
        first = _enable()
        metrics.count("queries_total", 2, status="sat")
        metrics.observe("seconds", 0.001)
        one = first.snapshot()
        second = MetricsRegistry()
        metrics.set_registry(second)
        metrics.count("queries_total", 3, status="sat")
        metrics.count("queries_total", 1, status="unsat")
        metrics.observe("seconds", 0.001)
        two = second.snapshot()
        merged = merge_snapshots([one, two])
        by_status = {
            s["labels"]["status"]: s["value"]
            for s in merged["counters"]["queries_total"]
        }
        assert by_status == {"sat": 5, "unsat": 1}
        assert merged["histograms"]["seconds"][0]["count"] == 2

    def test_merge_metrics_prefers_live_parent_snapshot(self):
        registry = _enable()
        metrics.count("queries_total", 7)
        live = registry.snapshot()
        import os

        stale = {
            "counters": {"queries_total": [{"labels": {}, "value": 1}]},
            "gauges": {},
            "histograms": {},
        }
        spool = {
            "metrics": {os.getpid(): stale, 999999: stale}
        }
        merged = merge_metrics(spool, live)
        # Own spooled checkpoint superseded by the live snapshot; the
        # foreign worker checkpoint still contributes.
        assert merged["counters"]["queries_total"][0]["value"] == 8


class TestSolverStatsFeed:
    def test_stats_feed_registry_without_duplicating_tallies(self):
        registry = _enable()
        stats = SolverStats()
        stats.record(QueryRecord(seconds=0.01, status="sat"))
        stats.record(
            QueryRecord(seconds=0.02, status="unsat", refinements=2)
        )
        stats.record_cache(hit=True)
        stats.record_cache(hit=False)
        stats.record_backend("native", "sat", 0.01)
        snapshot = registry.snapshot()
        queries = {
            (s["labels"]["status"], s["labels"]["refined"]): s["value"]
            for s in snapshot["counters"]["solver_queries_total"]
        }
        assert queries == {("sat", "false"): 1, ("unsat", "true"): 1}
        cache = {
            s["labels"]["outcome"]: s["value"]
            for s in snapshot["counters"]["query_cache_lookups_total"]
        }
        assert cache == {"hit": 1, "miss": 1}
        backend = snapshot["counters"]["backend_queries_total"][0]
        assert backend["labels"] == {"backend": "native", "status": "sat"}
        # The stats object itself still tallies as before.
        assert len(stats.queries) == 2
        assert stats.cache_hits == 1 and stats.cache_misses == 1

    def test_stats_work_with_metrics_disabled(self):
        stats = SolverStats()
        stats.record(QueryRecord(seconds=0.01, status="sat"))
        stats.record_cache(hit=True)
        stats.record_backend("native", "sat", 0.01)
        assert len(stats.queries) == 1
        assert stats.cache_hits == 1


class TestQueryRecordRing:
    def test_unbounded_by_default(self):
        stats = SolverStats()
        for _ in range(300):
            stats.record(QueryRecord(seconds=0.0, status="sat"))
        assert len(stats.queries) == 300
        assert stats.dropped_query_records == 0

    def test_cap_drops_oldest_and_counts(self):
        stats = SolverStats(max_query_records=10)
        for index in range(25):
            stats.record(
                QueryRecord(seconds=float(index), status="sat")
            )
        assert len(stats.queries) == 10
        # The survivors are the newest records.
        assert [r.seconds for r in stats.queries] == [
            float(i) for i in range(15, 25)
        ]
        assert stats.dropped_query_records == 15
        assert stats.refinement_summary()["dropped_records"] == 15

    def test_summary_reports_zero_drops_without_cap(self):
        stats = SolverStats()
        stats.record(QueryRecord(seconds=0.0, status="sat"))
        assert stats.refinement_summary()["dropped_records"] == 0


class TestObsSnapshot:
    def test_snapshot_shape_when_enabled(self, tmp_path):
        from repro.obs.tracer import SpoolSink, Tracer

        _enable()
        metrics.count("queries_total")
        obs.set_tracer(
            Tracer(SpoolSink(str(tmp_path / "spool")), slow_query_ms=0.0)
        )
        with obs.span("cegar:solve"):
            pass
        snapshot = obs.snapshot()
        assert snapshot["tracing"]["spans_recorded"] == 1
        assert snapshot["tracing"]["slow_queries"]
        assert (
            snapshot["metrics"]["counters"]["queries_total"][0]["value"]
            == 1
        )
        assert snapshot["pid"] > 0
