"""Tests for the persistent solver query store and LRU cache tiers.

The store's defensive reads (corrupt, version-skewed and foreign-key
entries evicted as misses) are checked for every kind in
``test_diskstore.py``; these tests cover the query kind's round trip
and the cache tiers over it.
"""

import pytest

from repro.automata.build import erase_captures
from repro.constraints import Eq, InRe, StrConst, StrVar, conj
from repro.regex import parse_regex
from repro.solver import SAT, Model, SolverResult, UNKNOWN, UNSAT
from repro.diskstore import DiskStore
from repro.solver.backends import CachedBackend, QueryCache
from repro.solver.backends.cached import (
    CachedResult,
    QUERY_CODEC,
    QUERY_STORE_VERSION,
)


def membership(pattern: str, var_name: str = "x"):
    node = erase_captures(parse_regex(pattern, "").body)
    return InRe(StrVar(var_name), node)


X = StrVar("x")


class _Stub:
    def __init__(self, status, model=None):
        self.status = status
        self.model = model
        self.name = "stub"
        self.calls = 0

    def solve(self, formula):
        self.calls += 1
        return SolverResult(self.status, self.model)


class TestQueryDiskStore:
    def test_round_trip(self, tmp_path):
        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC)
        entry = CachedResult(SAT, (("?0", "ab"), ("?1", None)))
        store.put("fp-1", entry)
        assert store.get("fp-1") == entry
        assert store.get("fp-1").assignment[1] == ("?1", None)  # ⊥ survives
        assert store.stores == 1 and store.loads == 2
        assert len(store) == 1

    def test_unsat_entry_round_trips(self, tmp_path):
        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC)
        store.put("fp-2", CachedResult(UNSAT, None))
        assert store.get("fp-2") == CachedResult(UNSAT, None)

    def test_missing_entry_is_a_silent_miss(self, tmp_path):
        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC)
        assert store.get("nope") is None
        assert store.failures == 0

    def test_versioned_layout(self, tmp_path):
        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC)
        assert store.path.endswith(f"v{QUERY_STORE_VERSION}")


class TestQueryCacheWithStore:
    def test_put_writes_through_and_fresh_cache_reads_back(self, tmp_path):
        path = str(tmp_path / "q")
        cache = QueryCache(store_path=path)
        cache.put("fp", CachedResult(UNSAT))
        fresh = QueryCache(store_path=path)  # a new process, same dir
        assert fresh.get("fp") == CachedResult(UNSAT)
        assert fresh.disk_hits == 1
        assert fresh.hits == 1 and fresh.misses == 0
        # promoted to memory: the second lookup never touches disk
        assert fresh.get("fp") is not None
        assert fresh.disk_hits == 1

    def test_counters_expose_every_tier(self, tmp_path):
        cache = QueryCache(store_path=str(tmp_path / "q"))
        cache.put("fp", CachedResult(UNSAT))
        cache.get("fp")
        cache.get("absent")
        counters = cache.counters()
        assert counters["disk_stores"] == 1
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert "disk_failures" in counters and "disk_loads" in counters

    def test_unusable_path_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = QueryCache(store_path=str(blocker / "sub"))
        assert cache.store is None
        cache.put("fp", CachedResult(UNSAT))  # must not raise
        assert cache.get("fp") is not None

    def test_reattach_same_path_keeps_counters(self, tmp_path):
        path = str(tmp_path / "q")
        cache = QueryCache(store_path=path)
        cache.put("fp", CachedResult(UNSAT))
        store = cache.store
        cache.attach_store(path)
        assert cache.store is store

    def test_cached_backend_replays_across_processes(self, tmp_path):
        """The cross-invocation path: a fresh CachedBackend on the same
        dir answers from disk without consulting its inner backend."""
        path = str(tmp_path / "q")
        formula = membership("a+b")
        inner1 = _Stub(SAT, Model({X: "aab"}))
        first = CachedBackend(inner1, cache=QueryCache(store_path=path))
        assert first.solve(formula).status == SAT
        assert inner1.calls == 1

        inner2 = _Stub(SAT, Model({X: "aab"}))
        second = CachedBackend(inner2, cache=QueryCache(store_path=path))
        result = second.solve(formula)
        assert result.status == SAT
        assert result.model[X] == "aab"
        assert inner2.calls == 0  # replayed from disk

    def test_disk_replay_translates_variable_renaming(self, tmp_path):
        """Entries are stored under canonical names; a structurally
        identical query with different variable names replays from disk
        with its own variables in the model."""
        path = str(tmp_path / "q")
        first = CachedBackend(
            _Stub(SAT, Model({X: "ab"})), cache=QueryCache(store_path=path)
        )
        first.solve(conj([membership("ab?"), Eq(X, StrConst("ab"))]))

        y = StrVar("y!7")
        renamed = conj(
            [membership("ab?", "y!7"), Eq(y, StrConst("ab"))]
        )
        second = CachedBackend(
            _Stub(UNKNOWN), cache=QueryCache(store_path=path)
        )
        result = second.solve(renamed)
        assert result.status == SAT
        assert result.model[y] == "ab"

    def test_unknown_is_never_persisted(self, tmp_path):
        path = str(tmp_path / "q")
        backend = CachedBackend(
            _Stub(UNKNOWN), cache=QueryCache(store_path=path)
        )
        backend.solve(membership("a"))
        assert len(backend.cache.store) == 0


class TestRunnerQueryCacheWiring:
    def test_inline_runner_persists_across_invocations(self, tmp_path):
        from repro.service import BatchRunner, RunnerConfig, SolveJob

        path = str(tmp_path / "q")
        jobs = [
            SolveJob(job_id="s0", pattern="a+b"),
            SolveJob(job_id="s1", pattern="(x|y)+"),
        ]
        config = RunnerConfig(workers=0, query_cache=path)
        cold = BatchRunner(config).run(jobs)
        assert all(r.status == "ok" for r in cold.results)
        assert cold.cache_misses > 0
        warm = BatchRunner(config).run(
            [
                SolveJob(job_id="t0", pattern="a+b"),
                SolveJob(job_id="t1", pattern="(x|y)+"),
            ]
        )
        assert all(r.status == "ok" for r in warm.results)
        assert warm.cache_misses == 0
        assert warm.cache_hits > 0

    def test_pool_runner_query_cache_round_trip(self, tmp_path):
        from repro.service import BatchRunner, RunnerConfig, SolveJob

        path = str(tmp_path / "q")
        jobs = [SolveJob(job_id="s0", pattern="ab+c")]
        config = RunnerConfig(workers=1, query_cache=path, job_timeout=60.0)
        BatchRunner(config).run(jobs)
        warm = BatchRunner(config).run(jobs)
        assert warm.results[0].status == "ok"
        assert warm.cache_hits > 0 and warm.cache_misses == 0

    def test_job_level_query_cache_stays_job_private(self, tmp_path):
        """A job carrying its own query_cache must not leak persistence
        to unrelated jobs sharing the worker-wide cache: the store ends
        up with exactly the entries of the jobs that asked for it."""
        from repro.service import BatchRunner, RunnerConfig, SolveJob

        alone = str(tmp_path / "alone")
        mixed = str(tmp_path / "mixed")
        runner = BatchRunner(RunnerConfig(workers=0))
        runner.run(
            [SolveJob(job_id="a", pattern="a+b", query_cache=alone)]
        )
        runner.run(
            [
                SolveJob(job_id="a", pattern="a+b", query_cache=mixed),
                SolveJob(job_id="b", pattern="c?d{2}"),  # no persistence
            ]
        )
        alone_entries = len(DiskStore(alone, QUERY_CODEC))
        assert alone_entries > 0
        assert len(DiskStore(mixed, QUERY_CODEC)) == alone_entries

    def test_job_level_query_cache_spec_round_trips(self, tmp_path):
        import json

        from repro.service import SolveJob, job_from_spec

        job = SolveJob(
            job_id="s0",
            pattern="a+",
            backend="cached:native",
            query_cache=str(tmp_path / "q"),
        )
        spec = json.loads(json.dumps(job.to_spec()))
        rebuilt = job_from_spec(spec)
        assert rebuilt == job
        result = rebuilt.run()
        assert result.status == "ok"
        assert len(DiskStore(str(tmp_path / "q"), QUERY_CODEC)) > 0
