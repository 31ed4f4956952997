"""Tests for the CEGAR refinement-stream fast path.

Covers mid-loop re-routing (``RouterBackend.route_refined`` /
``solve_refined``), refined-query caching through the ``cached:``
decorator and ``CegarSolver.query_cache``, dedup keyed on the refined
query stream, the capped persistent query store, and the hashed survey
unique-merge payload.
"""

import os
import time

import pytest

from repro.automata.build import erase_captures
from repro.constraints import Eq, InRe, StrConst, StrVar, conj
from repro.model.api import SymbolicRegExp
from repro.model.cegar import CegarSolver, refinement_stream_fingerprint
from repro.regex import parse_regex
from repro.solver import (
    Model,
    SAT,
    Solver,
    SolverResult,
    SolverStats,
    UNKNOWN,
    UNSAT,
)
from repro.diskstore import DiskStore
from repro.solver.backends import CachedBackend, QueryCache, RouterBackend
from repro.solver.backends.cached import QUERY_CODEC


X = StrVar("x")


def membership(pattern: str, var_name: str = "x", keep_captures=False):
    node = parse_regex(pattern, "").body
    if not keep_captures:
        node = erase_captures(node)
    return InRe(StrVar(var_name), node)


class _Target:
    """A scriptable routing target that remembers what it saw."""

    def __init__(self, status=SAT, name="target", model=None, available=True):
        self.status = status
        self.name = name
        self.model = model
        self.available = available
        self.calls = 0

    def solve(self, formula):
        self.calls += 1
        return SolverResult(self.status, self.model)


class TestRefinedRouting:
    def _router(self, session_available=True, stats=None, session=None):
        native = _Target(SAT, "native", Model({X: "a"}))
        session = session or _Target(
            UNSAT, "session", available=session_available
        )
        portfolio = _Target(UNKNOWN, "portfolio")
        return (
            RouterBackend(native, session, portfolio, stats=stats),
            native,
            session,
            portfolio,
        )

    def test_refined_classical_goes_to_session(self):
        stats = SolverStats()
        router, native, session, _ = self._router(stats=stats)
        assert router.solve_refined(membership("a+")).status == UNSAT
        assert session.calls == 1 and native.calls == 0
        assert stats.route_tallies == {"refined-classical->session": 1}

    def test_refined_captures_migrate_to_session(self):
        """The tentpole migration: a captures query routes native
        initially but its refined stream goes to the session (groups
        print transparently; their meaning rides in word equations)."""
        stats = SolverStats()
        router, native, session, _ = self._router(stats=stats)
        formula = membership("(a+)b", keep_captures=True)
        assert router.solve(formula).status == SAT  # initial → native
        assert router.solve_refined(formula).status == UNSAT  # → session
        assert native.calls == 1 and session.calls == 1
        assert stats.route_tallies == {
            "captures->native": 1,
            "refined-captures->session": 1,
        }

    def test_refined_backrefs_stay_native(self):
        router, native, session, _ = self._router()
        formula = membership(r"(a)\1", keep_captures=True)
        assert router.solve_refined(formula).status == SAT
        assert native.calls == 1 and session.calls == 0

    def test_refined_mixed_stays_on_portfolio(self):
        router, _, session, portfolio = self._router()
        router.solve_refined(membership("(?=a)a", keep_captures=True))
        assert portfolio.calls == 1 and session.calls == 0

    def test_refined_captures_plus_mixed_keep_native(self):
        # Captures beat mixed on the initial route (native); the
        # refined route must not hand the unprintable combination to
        # the portfolio either.
        router, native, session, portfolio = self._router()
        formula = conj(
            [
                membership("(a)b", keep_captures=True),
                membership("(?=c)c", var_name="y", keep_captures=True),
            ]
        )
        assert router.solve(formula).status == SAT
        assert router.solve_refined(formula).status == SAT
        assert native.calls == 2
        assert session.calls == 0 and portfolio.calls == 0

    def test_refined_session_unknown_falls_back_to_native(self):
        stats = SolverStats()
        unknown_session = _Target(UNKNOWN, "session")
        router, native, session, _ = self._router(
            stats=stats, session=unknown_session
        )
        result = router.solve_refined(membership("a+"))
        assert result.status == SAT  # native's answer, not UNKNOWN
        assert session.calls == 1 and native.calls == 1
        assert stats.route_tallies == {
            "refined-classical->session": 1,
            "refined-classical->native-fallback": 1,
        }

    def test_refined_without_binary_goes_native(self):
        router, native, session, _ = self._router(session_available=False)
        assert router.solve_refined(membership("a+")).status == SAT
        assert native.calls == 1 and session.calls == 0

    def test_initial_route_unchanged_for_captures(self):
        router, native, session, _ = self._router()
        router.solve(membership("(a+)b", keep_captures=True))
        assert native.calls == 1 and session.calls == 0


class TestRefinedCaching:
    class _Counting:
        def __init__(self, status=UNSAT):
            self.status = status
            self.solves = 0
            self.refined = 0

        def solve(self, formula):
            self.solves += 1
            return SolverResult(self.status)

        def solve_refined(self, formula):
            self.refined += 1
            return SolverResult(self.status)

    def test_cached_solve_refined_hits_and_delegates(self):
        inner = self._Counting()
        backend = CachedBackend(inner, cache=QueryCache())
        formula = membership("a+b")
        assert backend.solve_refined(formula).status == UNSAT
        assert inner.refined == 1 and inner.solves == 0  # delegated
        assert backend.solve_refined(formula).status == UNSAT
        assert inner.refined == 1  # second refined query replayed
        assert backend.hits == 1

    def test_refined_and_initial_share_the_cache(self):
        inner = self._Counting()
        backend = CachedBackend(inner, cache=QueryCache())
        formula = membership("a+b")
        backend.solve(formula)
        assert backend.solve_refined(formula).status == UNSAT
        assert inner.solves == 1 and inner.refined == 0  # hit replayed

    def test_cegar_dispatches_refined_queries(self):
        """From the second iteration on, the loop calls solve_refined."""

        class Script:
            def __init__(self):
                self.solve_calls = 0
                self.refined_calls = 0
                self.native = Solver(timeout=5.0)

            def solve(self, formula):
                self.solve_calls += 1
                return self.native.solve(formula)

            def solve_refined(self, formula):
                self.refined_calls += 1
                return self.native.solve(formula)

        script = Script()
        # The paper's own greediness trap (§3.4): the model admits
        # C1="a", the concrete matcher never produces it — refines.
        regexp = SymbolicRegExp(r"^a*(a)?$", "")
        model = regexp.exec_model(StrVar("in!refined"))
        result = CegarSolver(solver=script).solve(
            model.match_formula, [model.constraint]
        )
        assert result.status == SAT
        assert result.refinements >= 1
        assert script.solve_calls == 1  # only the initial query
        assert script.refined_calls == result.refinements

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

    def _replay_solver(self, tmp_path, responses):
        """A fake session replaying canned (verdict, model) pairs, one
        per ``(check-sat)`` (the scheme of ``test_session_backend``)."""
        import stat
        import textwrap

        counter = tmp_path / "replay.counter"
        counter.write_text("0")
        body = textwrap.dedent(
            f'''\
            #!/usr/bin/env python3
            import re, sys
            RESPONSES = {responses!r}
            COUNTER = {str(counter)!r}

            def take():
                with open(COUNTER) as f:
                    i = int(f.read().strip() or "0")
                with open(COUNTER, "w") as f:
                    f.write(str(i + 1))
                return RESPONSES[i % len(RESPONSES)]

            current = [None]
            for line in sys.stdin:
                line = line.strip()
                if line == "(check-sat)":
                    current[0] = take()
                    print(current[0][0], flush=True)
                elif line.startswith("(get-value"):
                    print(current[0][1] if current[0] else "()", flush=True)
                else:
                    m = re.match(r'\\(echo "(.*)"\\)', line)
                    if m:
                        print(m.group(1), flush=True)
            '''
        )
        path = tmp_path / "replaysession"
        path.write_text(body)
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
        return str(path)

    def _canned_stream(self, exec_model):
        """Record the CEGAR query stream natively; render each answer
        as solver stdout the replay fake can serve."""
        from repro.constraints.printer import _string_literal, _variables

        class Recorder:
            def __init__(self):
                self.native = Solver(timeout=5.0)
                self.formulas = []

            def solve(self, formula):
                self.formulas.append(formula)
                return self.native.solve(formula)

        recorder = Recorder()
        native_result = CegarSolver(solver=recorder).solve(
            exec_model.match_formula, [exec_model.constraint]
        )
        assert native_result.refinements >= 1  # the scenario's premise
        responses = []
        for formula in recorder.formulas:
            result = Solver(timeout=5.0).solve(formula)
            if result.status != SAT:
                responses.append((result.status, "()"))
                continue
            pairs = []
            for var in sorted(_variables(formula), key=lambda v: v.name):
                value = result.model[var]
                defined = "false" if value is None else "true"
                literal = _string_literal(value or "")
                name = (
                    var.name
                    if all(c.isalnum() or c in "_.$" for c in var.name)
                    else f"|{var.name}|"
                )
                defname = (
                    f"{name[:-1]}.def|" if name.endswith("|")
                    else f"{name}.def"
                )
                pairs.append(f"({name} {literal})")
                pairs.append(f"({defname} {defined})")
            responses.append((SAT, "(" + " ".join(pairs) + ")"))
        return responses, native_result

    def test_route_tallies_show_migration_end_to_end(self, tmp_path):
        """Integration: the CEGAR loop over route:<replay> on a
        refinement-prone pattern — the whole stream (initial + refined)
        is decided by the session, the refined share tallied on the
        ``refined-`` route, and the answer matches the native run."""
        regexp = SymbolicRegExp(r"^a*(a)?$", "")
        input_var = StrVar("input!e2e")
        exec_model = regexp.exec_model(input_var)
        responses, native_result = self._canned_stream(exec_model)
        fake = self._replay_solver(tmp_path, responses)
        stats = SolverStats()
        cegar = CegarSolver(backend=f"route:{fake}", stats=stats)
        result = cegar.solve(
            exec_model.match_formula, [exec_model.constraint]
        )
        assert result.status == SAT
        assert result.model.eval_term(
            input_var
        ) == native_result.model.eval_term(input_var)
        migrated = stats.route_tallies.get("refined-classical->session", 0)
        assert migrated == native_result.refinements  # mid-loop → session
        assert stats.route_tallies.get("classical->session") == 1
        assert "native-fallback" not in "".join(stats.route_tallies)
        # The session decided every query: one spawn for the stream.
        tally = stats.session_summary()[f"session:{fake}"]
        assert tally["queries"] == native_result.refinements + 1
        assert tally["spawns"] == 1
        cegar.solver.close()


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
