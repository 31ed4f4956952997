"""Tests for the CEGAR refinement-stream fast path.

Covers refined-query caching through the ``cached:`` decorator and
``CegarSolver.query_cache``, dedup keyed on the refined
query stream, the capped persistent query store, and the hashed survey
unique-merge payload.
"""

import os
import time

import pytest

from repro.automata.build import erase_captures
from repro.constraints import Eq, InRe, StrConst, StrVar
from repro.model.api import SymbolicRegExp
from repro.model.cegar import CegarSolver, refinement_stream_fingerprint
from repro.regex import parse_regex
from repro.solver import SAT, Solver, SolverResult, UNSAT
from repro.diskstore import DiskStore
from repro.solver.backends import CachedBackend, QueryCache
from repro.solver.backends.cached import QUERY_CODEC


X = StrVar("x")


def membership(pattern: str, var_name: str = "x", keep_captures=False):
    node = parse_regex(pattern, "").body
    if not keep_captures:
        node = erase_captures(node)
    return InRe(StrVar(var_name), node)


class TestRefinedCaching:
    class _Counting:
        def __init__(self, status=UNSAT):
            self.status = status
            self.solves = 0

        def solve(self, formula):
            self.solves += 1
            return SolverResult(self.status)

    def test_refined_and_initial_share_the_cache(self):
        inner = self._Counting()
        backend = CachedBackend(inner, cache=QueryCache())
        formula = membership("a+b")
        backend.solve(formula)
        assert backend.solve(formula).status == UNSAT
        assert inner.solves == 1 and backend.hits == 1  # hit replayed

    def test_cegar_query_cache_replays_refinement_prefixes(self):
        """Two flips posing the same problem: the second run's queries
        — initial and refined — all replay from the shared cache."""

        class Counting:
            def __init__(self):
                self.calls = 0
                self.native = Solver(timeout=5.0)

            def solve(self, formula):
                self.calls += 1
                return self.native.solve(formula)

        cache = QueryCache()
        regexp = SymbolicRegExp(r"^a*(a)?$", "")
        model = regexp.exec_model(StrVar("in!cacheflip"))

        first = Counting()
        result = CegarSolver(solver=first, query_cache=cache).solve(
            model.match_formula, [model.constraint]
        )
        assert result.status == SAT
        assert result.refinements > 0
        assert first.calls == result.refinements + 1

        second = Counting()
        replay = CegarSolver(solver=second, query_cache=cache).solve(
            model.match_formula, [model.constraint]
        )
        assert replay.status == SAT
        assert replay.refinements == result.refinements
        assert second.calls == 0  # the whole stream hit the cache

class TestRefinedDedupKeys:
    def test_language_equal_capture_variants_do_not_coalesce(self):
        """(a+)b vs (a+?)b: identical canonical formulas, different
        concrete capture extents — the refined streams diverge, so the
        keys must too."""
        from repro.service import SolveJob

        greedy = SolveJob(job_id="g", pattern="(a+)b")
        lazy = SolveJob(job_id="l", pattern="(a+?)b")
        assert greedy.dedup_key() is not None
        assert greedy.dedup_key() != lazy.dedup_key()

    def test_identical_capture_jobs_still_coalesce(self):
        from repro.service import SolveJob

        a = SolveJob(job_id="a", pattern="(a+)b")
        b = SolveJob(job_id="b", pattern="(a+)b")
        assert a.dedup_key() == b.dedup_key()

    def test_fingerprint_none_without_real_captures(self):
        regexp = SymbolicRegExp("a+b", "")
        model = regexp.exec_model(StrVar("in!nocap"))
        assert (
            refinement_stream_fingerprint(
                model.no_match_formula, [model.negative_constraint]
            )
            is None
        )

    def test_fingerprint_alpha_renames_variables(self):
        def stream(var):
            regexp = SymbolicRegExp(r"(a+)b", "")
            model = regexp.exec_model(StrVar(var))
            return refinement_stream_fingerprint(
                model.match_formula, [model.constraint]
            )

        assert stream("in!one") == stream("in!two")


class TestQueryStoreGC:
    def _fill(self, store, n, base_time):
        from repro.solver.backends.cached import CachedResult

        for i in range(n):
            store.put(f"fp-{i}", CachedResult(UNSAT, None))
            entry = store._entry(f"fp-{i}")
            os.utime(entry, (base_time + i, base_time + i))

    def test_oldest_entries_evicted_past_cap(self, tmp_path):
        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC, max_entries=4)
        base = time.time() - 1000
        self._fill(store, 10, base)
        assert len(store) <= 4
        assert store.evictions >= 6
        # The newest entries survive; the oldest are gone.
        assert store.get("fp-9") is not None
        assert store.get("fp-0") is None

    def test_gc_hysteresis_amortizes_scans(self, tmp_path):
        from repro.solver.backends.cached import CachedResult

        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC, max_entries=16)
        base = time.time() - 1000
        self._fill(store, 17, base)  # crosses the cap once
        after_first_gc = store.evictions
        assert after_first_gc >= 1
        assert len(store) < 16  # low-water mark, not the cap itself
        store.put("fp-extra", CachedResult(UNSAT, None))
        # One put right after a GC must not rescan the directory.
        assert store.evictions == after_first_gc

    def test_cap_of_one_still_serves_hits(self, tmp_path):
        from repro.solver.backends.cached import CachedResult

        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC, max_entries=1)
        base = time.time() - 1000
        self._fill(store, 3, base)
        assert len(store) == 1
        assert store.get("fp-2") is not None  # the newest survives

    def test_unbounded_store_never_gcs(self, tmp_path):
        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC)
        self._fill(store, 10, time.time() - 1000)
        assert len(store) == 10
        assert store.evictions == 0
        assert store.gc() == 0

    def test_evictions_surface_in_cache_counters(self, tmp_path):
        cache = QueryCache(
            store_path=str(tmp_path / "q"), store_max_entries=2
        )
        from repro.solver.backends.cached import CachedResult

        for i in range(5):
            cache.put(f"fp-{i}", CachedResult(UNSAT, None))
            time.sleep(0.01)
        counters = cache.counters()
        assert counters["disk_evictions"] >= 3
        assert len(cache.store) <= 2

    def test_attach_store_applies_cap_to_existing_handle(self, tmp_path):
        cache = QueryCache(store_path=str(tmp_path / "q"))
        assert cache.store.max_entries is None
        cache.attach_store(str(tmp_path / "q"), max_entries=7)
        assert cache.store.max_entries == 7

    def test_runner_threads_cap_to_worker_store(self, tmp_path):
        from repro.service import BatchRunner, RunnerConfig, SolveJob

        store_dir = str(tmp_path / "q")
        report = BatchRunner(
            RunnerConfig(
                workers=0, query_cache=store_dir, query_cache_max=1
            )
        ).run(
            [
                SolveJob(job_id="a", pattern="a+b"),
                SolveJob(job_id="b", pattern="[0-9]{2}"),
                SolveJob(job_id="c", pattern="x?y"),
            ]
        )
        assert all(r.status == "ok" for r in report.results)
        assert len(DiskStore(store_dir, QUERY_CODEC)) <= 1

    def test_cli_flag_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["batch", "--survey", "--query-cache", "/tmp/q",
             "--query-cache-max", "100"]
        )
        assert args.query_cache_max == 100
        args = build_parser().parse_args(
            ["solve", "a+", "--query-cache", "/tmp/q",
             "--query-cache-max", "5"]
        )
        assert args.query_cache_max == 5

    def test_cli_cap_without_store_is_an_error(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "a+", "--query-cache-max", "5"]) == 2
        assert "requires --query-cache" in capsys.readouterr().err
        assert (
            main(["batch", "--survey", "-n", "5", "--query-cache-max",
                  "5"])
            == 2
        )


class TestHashedSurveyUniques:
    def test_payload_ships_hashed_bitmasks(self):
        from repro.service import SurveyJob

        result = SurveyJob(
            job_id="v",
            package_files=[["var a = /x(y)/; var b = /\\d+/g;"]],
        ).run()
        assert result.status == "ok"
        uniques = result.payload["uniques"]
        assert len(uniques) == 2
        for key, mask in uniques.items():
            assert isinstance(key, str) and len(key) == 24  # hex digest
            assert isinstance(mask, int)
        assert any(mask for mask in uniques.values())  # features set

    def test_merge_reproduces_direct_survey(self):
        from repro.corpus.generator import CorpusConfig, generate_corpus
        from repro.corpus.survey import survey_packages
        from repro.service import SurveyJob
        from repro.service.report import merge_survey

        corpus = generate_corpus(CorpusConfig(n_packages=30, seed=7))
        direct = survey_packages(corpus)
        shards = [
            SurveyJob(
                job_id=f"v{i}",
                package_files=[list(p.files) for p in corpus[i::3]],
            ).run()
            for i in range(3)
        ]
        merged = merge_survey(shards)
        assert merged.total_regexes == direct.total_regexes
        assert merged.unique_regexes == direct.unique_regexes
        assert merged.feature_totals == direct.feature_totals
        assert merged.feature_uniques == direct.feature_uniques

    def test_merge_accepts_legacy_feature_lists(self):
        from repro.service import SurveyJob
        from repro.service.report import merge_survey

        result = SurveyJob(
            job_id="v", package_files=[["var a = /x(y)/;"]]
        ).run()
        # A payload from an older worker: feature-name lists keyed by
        # literal text.
        result.payload["uniques"] = {"x(y)\x00": ["capture_groups"]}
        merged = merge_survey([result])
        assert merged.unique_regexes == 1
        assert merged.feature_uniques["capture_groups"] == 1

    def test_report_text_output_unchanged(self):
        from repro.corpus.survey import format_table4, format_table5
        from repro.service import SurveyJob
        from repro.service.report import merge_survey

        merged = merge_survey(
            [
                SurveyJob(
                    job_id="v",
                    package_files=[["var a = /x(y)/; var b = /\\d+/;"]],
                ).run()
            ]
        )
        table4 = format_table4(merged)
        table5 = format_table5(merged)
        assert "Packages" in table4
        assert "Total Regex" in table5
