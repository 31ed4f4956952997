"""Unit tests for the symbolic RegExp API (Algorithm 2, §6.1)."""

import pytest

from repro.constraints import Eq, StrConst, StrVar, conj
from repro.model.api import (
    SymbolicRegExp,
    _strip_edge_anchors,
    find_matching_input,
)
from repro.model.cegar import CegarSolver
from repro.model.translate import ModelConfig
from repro.regex import RegExp, parse_regex
from repro.regex.ast import Anchor, Concat
from repro.solver import SAT, Solver


class TestAnchorStripping:
    def test_both_anchors(self):
        body = parse_regex("^abc$").body
        stripped, start, end = _strip_edge_anchors(body, multiline=False)
        assert start and end
        assert not any(
            isinstance(n, Anchor)
            for n in __import__("repro.regex.ast", fromlist=["walk"]).walk(
                stripped
            )
        )

    def test_leading_only(self):
        body = parse_regex("^abc").body
        stripped, start, end = _strip_edge_anchors(body, multiline=False)
        assert start and not end

    def test_no_anchors_untouched(self):
        body = parse_regex("abc").body
        stripped, start, end = _strip_edge_anchors(body, multiline=False)
        assert stripped is body and not start and not end

    def test_multiline_disables_stripping(self):
        body = parse_regex("^abc$").body
        stripped, start, end = _strip_edge_anchors(body, multiline=True)
        assert not start and not end

    def test_inner_anchor_not_stripped(self):
        body = parse_regex("a|^b").body
        stripped, start, end = _strip_edge_anchors(body, multiline=False)
        assert not start and not end


class TestExecModel:
    def test_captures_cover_all_groups(self):
        regexp = SymbolicRegExp(r"(a)(b(c))")
        model = regexp.exec_model(StrVar("s"))
        assert sorted(model.captures) == [0, 1, 2, 3]

    def test_fresh_variables_per_call(self):
        regexp = SymbolicRegExp(r"(a)")
        first = regexp.exec_model(StrVar("s"))
        second = regexp.exec_model(StrVar("s"))
        assert first.captures[1] != second.captures[1]

    def test_constraint_metadata(self):
        regexp = SymbolicRegExp(r"(x)", "gi")
        model = regexp.exec_model(StrVar("s"))
        assert model.constraint.source == "(x)"
        assert model.constraint.flags == "gi"
        assert model.constraint.positive
        assert not model.negative_constraint.positive

    def test_whole_match_property(self):
        regexp = SymbolicRegExp(r"ab")
        model = regexp.exec_model(StrVar("s"))
        assert model.whole_match == model.captures[0]

    def test_shared_config_is_not_mutated(self):
        # A multiline pattern must not turn on multiline anchors for a
        # later pattern built from the same config.
        config = ModelConfig()
        assert SymbolicRegExp("^a", "m", config).config.multiline
        plain = SymbolicRegExp("^a", "", config)
        assert not config.multiline and not plain.config.multiline
        inp = StrVar("s")
        model = plain.exec_model(inp)
        problem = conj([model.match_formula, Eq(inp, StrConst("x\na"))])
        assert CegarSolver().solve(problem, [model.constraint]).status != SAT

    def test_meta_characters_never_in_solutions(self):
        regexp = SymbolicRegExp(r"a.*b")
        inp = StrVar("s")
        model = regexp.exec_model(inp)
        result = Solver().solve(model.match_formula)
        assert result.status == SAT
        word = result.model.eval_term(inp)
        assert "〈" not in word and "〉" not in word


class TestConcreteTwin:
    def test_exec_delegates(self):
        regexp = SymbolicRegExp(r"(o+)")
        assert list(regexp.exec("good")) == ["oo", "oo"]

    def test_test_delegates(self):
        assert SymbolicRegExp("a").test("cat")
        assert not SymbolicRegExp("z").test("cat")

    def test_global_state_shared(self):
        regexp = SymbolicRegExp(r"\d", "g")
        assert regexp.exec("1a2")[0] == "1"
        assert regexp.exec("1a2")[0] == "2"
        assert regexp.last_index == 3


class TestWholeMatchSemantics:
    def test_c0_matches_concrete_whole_match(self):
        word, captures = find_matching_input(r"o+d")
        concrete = RegExp(r"o+d").exec(word)
        assert captures[0] == concrete[0]

    def test_unanchored_word_can_have_context(self):
        # The wrapper wildcards allow material around the match.
        regexp = SymbolicRegExp(r"core")
        inp = StrVar("s")
        model = regexp.exec_model(inp)
        problem = conj(
            [model.match_formula, Eq(inp, StrConst("xxcoreyy"))]
        )
        result = CegarSolver().solve(problem, [model.constraint])
        assert result.status == SAT
        assert result.model[model.captures[0]] == "core"

    def test_sticky_model_requires_match_at_start(self):
        regexp = SymbolicRegExp(r"ab", "y")
        inp = StrVar("s")
        model = regexp.exec_model(inp)
        # "xab" matches unanchored but NOT at lastIndex=0 under sticky.
        problem = conj([model.match_formula, Eq(inp, StrConst("xab"))])
        result = CegarSolver().solve(problem, [model.constraint])
        assert result.status != SAT
        # "abx" does match at position 0.
        problem = conj([model.match_formula, Eq(inp, StrConst("abx"))])
        result = CegarSolver().solve(problem, [model.constraint])
        assert result.status == SAT


class TestIgnoreCaseModel:
    def test_case_folded_generation(self):
        regexp = SymbolicRegExp("abc", "i")
        inp = StrVar("s")
        model = regexp.exec_model(inp)
        result = CegarSolver().solve(model.match_formula, [model.constraint])
        assert result.status == SAT
        word = result.model.eval_term(inp)
        assert RegExp("abc", "i").test(word)


class TestMultilineModel:
    def test_multiline_anchor_allows_mid_string(self):
        regexp = SymbolicRegExp("^b$", "m")
        inp = StrVar("s")
        model = regexp.exec_model(inp)
        problem = conj([model.match_formula, Eq(inp, StrConst("a\nb"))])
        result = CegarSolver().solve(problem, [model.constraint])
        assert result.status == SAT
