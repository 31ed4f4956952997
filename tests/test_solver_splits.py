"""Focused tests for the solver's split-constraint machinery.

Split constraints are how several partitions of the same word coexist —
the backbone of multi-regex path conditions and CEGAR word-pinning.
"""

import pytest

from repro.constraints import (
    Eq,
    InRe,
    Not,
    StrConst,
    StrVar,
    concat,
    conj,
)
from repro.regex import parse_regex
from repro.solver import SAT, Solver, UNKNOWN, UNSAT

a, b, c, d, w, x, y, z = (StrVar(n) for n in "abcdwxyz")


def rn(source):
    return parse_regex(source).body


class TestDoublePartition:
    def test_two_partitions_of_same_word(self):
        formula = conj(
            [
                Eq(w, concat(a, b)),
                InRe(a, rn("x+")),
                InRe(b, rn("y+")),
                Eq(w, concat(c, d)),
                InRe(c, rn("x")),
                InRe(d, rn(".+")),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        model = result.model
        assert model[w] == model[a] + model[b] == model[c] + model[d]
        assert model[c] == "x"

    def test_partitions_with_conflicting_structure(self):
        formula = conj(
            [
                Eq(w, concat(a, b)),
                InRe(a, rn("x{2}")),
                InRe(b, rn("y{2}")),
                Eq(w, concat(c, d)),
                InRe(c, rn("x{3}")),
                InRe(d, rn("y+")),
            ]
        )
        # w = xxyy cannot start with xxx.
        assert Solver().solve(formula).status in (UNSAT, UNKNOWN)

    def test_constant_target_split(self):
        formula = conj(
            [
                Eq(w, StrConst("key=value")),
                Eq(w, concat(x, StrConst("="), y)),
                InRe(x, rn(r"\w+")),
                InRe(y, rn(r"\w+")),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[x] == "key" and result.model[y] == "value"

    def test_ambiguous_split_backtracks_through_checks(self):
        # "aaa" split as x ++ y with x nonempty and y = "a": x = "aa".
        formula = conj(
            [
                Eq(w, StrConst("aaa")),
                Eq(w, concat(x, y)),
                InRe(x, rn("a+")),
                Eq(y, StrConst("a")),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT and result.model[x] == "aa"


class TestConcatEqConcat:
    def test_bridged_word_equation(self):
        # concat ~ concat with shared variables on both sides.
        formula = conj(
            [
                Eq(concat(x, StrConst("b")), concat(StrConst("a"), y)),
                InRe(x, rn("a")),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[x] == "a" and result.model[y] == "b"

    def test_doubling_equation(self):
        # t = s ++ s and t = "abab" forces s = "ab".
        formula = conj(
            [
                Eq(concat(x, x), StrConst("abab")),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[x] == "ab"

    def test_doubling_odd_length_unsat(self):
        formula = conj([Eq(concat(x, x), StrConst("aba"))])
        assert Solver().solve(formula).status in (UNSAT, UNKNOWN)

    def test_repeated_variable_consistency_in_split(self):
        # w = x ++ y ++ x with w = "abcab": x must be "ab", y = "c".
        formula = conj(
            [
                Eq(w, StrConst("abcab")),
                Eq(w, concat(x, y, x)),
                Not(Eq(x, StrConst(""))),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[x] == "ab" and result.model[y] == "c"


class TestSplitWithDefinitionsChained:
    def test_split_part_with_own_definition(self):
        # w is defined; its split part y is itself a concatenation.
        formula = conj(
            [
                Eq(w, StrConst("xy-z")),
                Eq(w, concat(x, z)),
                Eq(x, concat(a, b)),
                InRe(a, rn("x")),
                InRe(b, rn("y")),
                Eq(z, StrConst("-z")),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[a] == "x" and result.model[b] == "y"

    def test_deferred_classes_not_enumerated(self):
        # A split part with a huge language must not be brute-forced:
        # the split pins it directly.
        formula = conj(
            [
                Eq(w, StrConst("kilimanjaro")),
                Eq(w, concat(x, y)),
                InRe(x, rn("[a-z]{4}")),
                InRe(y, rn("[a-z]+")),
            ]
        )
        result = Solver(combo_budget=500).solve(formula)
        assert result.status == SAT
        assert result.model[x] == "kili"

    def test_exclusions_respected_in_splits(self):
        formula = conj(
            [
                Eq(w, StrConst("ab")),
                Eq(w, concat(x, y)),
                Not(Eq(x, StrConst(""))),
                Not(Eq(x, StrConst("a"))),
            ]
        )
        result = Solver().solve(formula)
        assert result.status == SAT
        assert result.model[x] == "ab" and result.model[y] == ""

    def test_undetermined_split_target_is_never_unsat(self):
        # x = y0 ++ y2 ++ 'b' and x = y2 ++ y2 ++ y0: the split's parts
        # are not enumerated and its target is defined from them, so
        # settling can only guess defaults.  A failed guess proves
        # nothing (y0 = '', y2 = 'b' is a model).
        formula = conj(
            [
                Eq(x, concat(a, c, StrConst("b"))),
                Eq(y, x),
                Eq(y, concat(c, c, a)),
            ]
        )
        assert Solver(round_limits=(12,)).solve(formula).status != UNSAT


class TestSplitDeadline:
    """Splitting a word honours the query deadline: a split search that
    cannot succeed ends UNKNOWN at the timeout instead of running on."""

    def _dead_split(self):
        # 'a'*60 = y0 ++ ... ++ y4 ++ 'b': about 8M placements of the
        # cut points, none of which ends on 'b'.
        parts = [StrVar(f"y{i}") for i in range(5)]
        return conj(
            [Eq(x, StrConst("a" * 60)), Eq(x, concat(*parts, StrConst("b")))]
            + [InRe(part, rn("a*")) for part in parts]
        )

    def test_split_search_stops_at_the_deadline(self, monkeypatch):
        import time

        from repro.automata import lazy

        monkeypatch.setattr(lazy, "CONCAT_BUDGET", 0)
        started = time.monotonic()
        result = Solver(timeout=0.1).solve(self._dead_split())
        assert result.status == UNKNOWN
        assert time.monotonic() - started < 5.0

    def test_upward_propagation_decides_it(self):
        result = Solver(timeout=0.1).solve(self._dead_split())
        assert result.status == UNSAT
        assert result.concat_refuted == 1
