"""Work budgets: a query's UNKNOWN costs a fixed amount of work, names its
cause, and only the wall-clock backstop depends on the machine's load.

Also pins Bug C: a sampled candidate list must not read as a complete
enumeration, or a failed search would prove a satisfiable core UNSAT.
"""

import itertools
import time
import types

import pytest

from repro.automata import dfa_for, lazy_intersect_all
from repro.automata.dfa import word_list
from repro.constraints import (
    Eq, InRe, Not, Or, StrConst, StrVar, concat, conj,
)
from repro.model.api import SymbolicRegExp, find_matching_input
from repro.model.cegar import CegarSolver
from repro.obs import metrics
from repro.regex import parse_regex
from repro.solver import SAT, Solver, UNKNOWN, UNSAT
from repro.solver import core as solver_core
from repro.solver.stats import QueryRecord, SolverStats

#: The two lookahead literals of the ``serve`` corpus that no bound
#: decides.
LOOKAHEAD_LITERALS = (r"(?=.*\d)(?=.*[a-z]).{8,}", r"\B(?=(\d{3})+(?!\d))")

x, y, z, w = (StrVar(name) for name in "xyzw")


def rn(source):
    return parse_regex(source).body


def _clock(monkeypatch, monotonic):
    """Give the solver core its own ``time.monotonic``."""
    monkeypatch.setattr(
        solver_core,
        "time",
        types.SimpleNamespace(
            monotonic=monotonic, perf_counter=time.perf_counter
        ),
    )


@pytest.fixture
def frozen_clock(monkeypatch):
    _clock(monkeypatch, lambda: 1000.0)


@pytest.fixture
def racing_clock(monkeypatch):
    """Every read is a second later: the backstop fires at once."""
    ticks = itertools.count()
    _clock(monkeypatch, lambda: float(next(ticks)))


def _solve_literal(pattern, timeout=0.1):
    stats = SolverStats()
    cegar = CegarSolver(solver=Solver(timeout=timeout), stats=stats)
    found = find_matching_input(pattern, cegar=cegar)
    [record] = stats.queries
    return found, record


class TestBudget:
    def test_allowance_scales_with_the_timeout(self):
        budget = solver_core.Budget(0.1)
        assert budget.allowance == 0.1 * solver_core.UNITS_PER_SECOND
        assert not budget.exhausted() and budget.cause is None

    def test_spending_past_the_allowance_exhausts_it_for_good(
        self, frozen_clock
    ):
        budget = solver_core.Budget(0.1)
        budget.spent = budget.allowance
        assert not budget.exhausted()
        budget.spent += 1
        assert budget.exhausted() and budget.cause == "budget"
        budget.spent = 0
        assert budget.exhausted() and budget.cause == "budget"

    def test_the_backstop_reads_timeout(self, racing_clock):
        budget = solver_core.Budget(0.5)
        assert budget.exhausted() and budget.cause == "timeout"


class TestLookaheadLiterals:
    @pytest.mark.parametrize("pattern", LOOKAHEAD_LITERALS)
    def test_they_stop_on_budget_with_the_same_units(
        self, frozen_clock, pattern
    ):
        runs = [_solve_literal(pattern) for _ in range(2)]
        for found, record in runs:
            assert found is None
            assert (record.status, record.unknown_cause) == (
                UNKNOWN, "budget",
            )
            assert record.settled
            assert record.units > 0.1 * solver_core.UNITS_PER_SECOND
        assert runs[0][1].units == runs[1][1].units

    @pytest.mark.parametrize("pattern", LOOKAHEAD_LITERALS)
    def test_the_backstop_is_not_settled(self, racing_clock, pattern):
        found, record = _solve_literal(pattern)
        assert found is None
        assert (record.status, record.unknown_cause) == (UNKNOWN, "timeout")
        assert not record.settled


DECIDED = [
    (conj([InRe(x, rn("a")), InRe(x, rn("b"))]), UNSAT),
    (conj([InRe(x, rn("[a-c]{3}")), Eq(w, concat(x, x)),
           InRe(w, rn("(?:cba){2}"))]), SAT),
    (conj([Eq(w, StrConst("12ab")), Eq(w, concat(x, y)),
           InRe(x, rn("[0-9]+")), InRe(y, rn("[a-z]+"))]), SAT),
    (conj([Eq(w, concat(x, y)), InRe(w, rn("[a-f]{4}")),
           Not(InRe(x, rn("[a-f]*")))]), UNSAT),
]


class TestDecidedVerdicts:
    @pytest.mark.parametrize("formula, status", DECIDED)
    def test_the_clock_does_not_change_them(
        self, monkeypatch, formula, status
    ):
        running = Solver(timeout=0.5).solve(formula)
        _clock(monkeypatch, lambda: 1000.0)
        frozen = Solver(timeout=0.5).solve(formula)
        assert running.status == frozen.status == status
        assert running.units == frozen.units
        assert running.unknown_cause is frozen.unknown_cause is None


class TestUnknownCauses:
    def test_unconstrained_candidates_are_a_default_guess(self):
        result = Solver().solve(Not(Eq(x, x)))
        assert (result.status, result.unknown_cause) == (
            UNKNOWN, "default_guess",
        )

    def test_combo_budget_is_candidates(self):
        formula = conj([InRe(x, rn("a*")), Not(Eq(x, x))])
        result = Solver(combo_budget=2).solve(formula)
        assert (result.status, result.unknown_cause) == (
            UNKNOWN, "candidates",
        )

    def test_core_cap_is_max_cores(self):
        formula = conj([
            Not(InRe(x, rn("a"))),
            Or([InRe(x, rn("a")), InRe(x, rn("b"))]),
        ])
        assert Solver().solve(formula).status == SAT
        result = Solver(max_cores=1).solve(formula)
        assert (result.status, result.unknown_cause) == (
            UNKNOWN, "max_cores",
        )

    def test_zero_budget_is_budget(self, monkeypatch):
        monkeypatch.setattr(solver_core, "UNITS_PER_SECOND", 0)
        result = Solver().solve(conj([
            InRe(x, rn("[a-c]{3}")), Eq(w, concat(x, x)),
            InRe(w, rn("(?:cba){2}")),
        ]))
        assert (result.status, result.unknown_cause) == (UNKNOWN, "budget")

    def test_refinement_limit_is_named(self):
        inp = StrVar("w")
        model = SymbolicRegExp(r"^a*(a)?$").exec_model(inp)
        problem = conj([
            model.match_formula,
            Eq(inp, StrConst("aa")),
            Eq(model.captures[1], StrConst("a")),
        ])
        stats = SolverStats()
        result = CegarSolver(refinement_limit=0, stats=stats).solve(
            problem, [model.constraint]
        )
        assert (result.status, result.unknown_cause) == (
            UNKNOWN, "refinement_limit",
        )
        assert stats.unknown_causes() == {"refinement_limit": 1}


class TestCauseTally:
    def test_causes_sum_to_the_unknown_queries(self):
        stats = SolverStats()
        for status, cause in [
            ("sat", None), ("unknown", "budget"), ("unsat", None),
            ("unknown", "budget"), ("unknown", "timeout"),
            ("unknown", None),
        ]:
            stats.record(QueryRecord(0.0, status, unknown_cause=cause))
        assert stats.unknown_causes() == {
            "backend": 1, "budget": 2, "timeout": 1,
        }

    def test_unknowns_feed_the_cause_counter(self):
        registry = metrics.MetricsRegistry()
        previous = metrics.get_registry()
        metrics.set_registry(registry)
        try:
            stats = SolverStats()
            for cause in ("budget", "budget", None):
                stats.record(QueryRecord(0.0, "unknown", unknown_cause=cause))
            stats.record(QueryRecord(0.0, "unsat"))
        finally:
            metrics.set_registry(previous)
        counters = registry.snapshot()["counters"]["solver_unknown_total"]
        assert {
            entry["labels"]["cause"]: entry["value"] for entry in counters
        } == {"budget": 2, "backend": 1}

    def test_settled_verdicts(self):
        assert QueryRecord(0.0, "unsat").settled
        assert QueryRecord(0.0, "unknown", unknown_cause="split_cap").settled
        assert not QueryRecord(0.0, "unknown", unknown_cause="timeout").settled
        assert not QueryRecord(0.0, "unknown").settled


class TestSampledWordLists:
    """Bug C: ``z ∈ L([a-d]{3}) ∧ w = z ++ z ∧ w ∈ L((dcb){2})`` read
    UNSAT, since three sampled characters of ``[a-d]`` passed for the
    whole class."""

    def test_bug_c_is_not_unsat(self):
        formula = conj([
            InRe(z, rn("[a-d]{3}")), Eq(w, concat(z, z)),
            InRe(w, rn("(?:dcb){2}")),
        ])
        assert Solver().solve(formula).status != UNSAT

    def test_its_three_letter_twin_stays_sat(self):
        formula = conj([
            InRe(z, rn("[a-c]{3}")), Eq(w, concat(z, z)),
            InRe(w, rn("(?:cba){2}")),
        ])
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[z] == "cba"

    @pytest.mark.parametrize("lazy", [False, True], ids=["dfa", "lazy"])
    @pytest.mark.parametrize(
        "source, complete",
        [
            ("[a-c]{2}", True),   # every label fully sampled
            ("[a-d]{2}", False),  # a label wider than the sample
            ("a{60}", False),     # no word within the length cap
            ("a*", False),        # cut at the length cap
            ("(?:ab|c)?", True),
        ],
    )
    def test_a_list_is_complete_only_when_nothing_was_cut(
        self, source, complete, lazy
    ):
        automaton = dfa_for(rn(source))
        if lazy:
            automaton = lazy_intersect_all([automaton, dfa_for(rn(".*"))])
        words, whole = word_list(automaton, 1000, 48)
        assert whole is complete
        if complete:
            assert words  # the whole finite language
            assert all(automaton.accepts_word(word) for word in words)

    def test_the_frontier_cap_truncates(self):
        stream = dfa_for(rn("[a-c]{4}")).words(frontier_cap=5)
        words = []
        while True:
            try:
                words.append(next(stream))
            except StopIteration as stop:
                assert stop.value is False
                break
        assert len(words) < 3 ** 4
