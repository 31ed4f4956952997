"""Tests for the capturing-language model (§4, Tables 2–3).

Ground truth throughout is the concrete ES6 matcher (via
:mod:`repro.model.capturing`): the model + CEGAR pipeline must produce
words the matcher accepts with exactly the matcher's capture values, and
non-membership models must produce words the matcher rejects.
"""

import pytest

from repro.constraints import Eq, StrConst, StrVar, conj
from repro.model import (
    CegarSolver,
    ModelConfig,
    MutableBackrefPolicy,
    SymbolicRegExp,
    find_matching_input,
    find_non_matching_input,
)
from repro.model.capturing import capturing_tuples, is_member
from repro.regex import RegExp
from repro.solver import SAT, Solver, UNSAT


def assert_generates_valid_match(source, flags=""):
    result = find_matching_input(source, flags)
    assert result is not None, f"no input found for /{source}/{flags}"
    word, captures = result
    concrete = RegExp(source, flags).exec(word)
    assert concrete is not None, f"/{source}/{flags}: {word!r} does not match"
    for index, value in captures.items():
        assert value == concrete[index], (
            f"/{source}/{flags} capture {index}: "
            f"model={value!r} concrete={concrete[index]!r}"
        )
    return word, captures


def assert_generates_non_match(source, flags=""):
    word = find_non_matching_input(source, flags)
    assert word is not None, f"no non-matching input for /{source}/{flags}"
    assert not RegExp(source, flags).test(word), (
        f"/{source}/{flags}: {word!r} unexpectedly matches"
    )
    return word


class TestRegularFragment:
    @pytest.mark.parametrize(
        "source",
        ["abc", "a|b", "a*", "a+b+", "[0-9]{3}", r"\w+\s\w+", "x(?:yz)*"],
    )
    def test_membership(self, source):
        assert_generates_valid_match(source)

    @pytest.mark.parametrize("source", ["abc", "a+", r"\d{2,4}"])
    def test_non_membership(self, source):
        assert_generates_non_match(source)


class TestCaptureGroups:
    def test_single_group(self):
        word, caps = assert_generates_valid_match(r"(a+)b")
        assert caps[1] is not None

    def test_nested_groups(self):
        assert_generates_valid_match(r"((a)(b))")

    def test_alternation_undefined_side(self):
        # Table 2: the non-matching side's captures are ⊥.
        word, caps = assert_generates_valid_match(r"(x)|(y)")
        assert (caps[1] is None) != (caps[2] is None)

    def test_quantified_group_last_iteration(self):
        assert_generates_valid_match(r"(?:(a)|b)+")

    def test_optional_group_undefined_vs_empty(self):
        # Force the ε outcome: the input "b" leaves (a) undefined.
        regexp = SymbolicRegExp(r"^(a)?b$")
        inp = StrVar("inp")
        model = regexp.exec_model(inp)
        problem = conj([model.match_formula, Eq(inp, StrConst("b"))])
        result = CegarSolver().solve(problem, [model.constraint])
        assert result.status == SAT
        assert result.model[model.captures[1]] is None


class TestMatchingPrecedence:
    """§3.4 — the raw model is precedence-blind; CEGAR repairs it."""

    def test_greedy_star_starves_optional(self):
        word, caps = assert_generates_valid_match(r"^a*(a)?$")
        # Whatever word was chosen, C1 must equal the concrete matcher's
        # answer, which for /^a*(a)?$/ is always ⊥ (a* eats everything).
        assert caps[1] is None

    def test_lazy_quantifier_model(self):
        assert_generates_valid_match(r"^a*?(a)?$")

    def test_greedy_with_suffix(self):
        assert_generates_valid_match(r"(a*)(a)?$")

    def test_raw_model_admits_spurious_tuple(self):
        # Without refinement the §3.4 spurious assignment is reachable:
        # pin w="aa", C1="a" — the raw model accepts, the oracle refutes.
        regexp = SymbolicRegExp(r"^a*(a)?$")
        inp = StrVar("inp")
        model = regexp.exec_model(inp)
        spurious = conj(
            [
                model.match_formula,
                Eq(inp, StrConst("aa")),
                Eq(model.captures[1], StrConst("a")),
            ]
        )
        raw = Solver().solve(spurious)
        assert raw.status == SAT  # the overapproximation (paper §3.4)
        refined = CegarSolver().solve(spurious, [model.constraint])
        assert refined.status != SAT  # CEGAR eliminates it


class TestBackreferences:
    def test_immutable_backref(self):
        word, caps = assert_generates_valid_match(r"(a|b)\1")
        assert word is not None

    def test_xml_tag_listing1(self):
        word, caps = assert_generates_valid_match(r"<(\w+)>([0-9]*)<\/\1>")
        assert caps[1] is not None

    def test_undefined_backref_matches_empty(self):
        assert_generates_valid_match(r"(?:a|(b))\1x")

    def test_empty_forward_reference(self):
        assert_generates_valid_match(r"\1(a)")

    def test_quantified_backref(self):
        word, caps = assert_generates_valid_match(r"^(a|b)\1+$")
        assert word[0] == word[1]

    def test_backref_non_membership(self):
        word = assert_generates_non_match(r"(a)\1")
        assert word is not None

    def test_mutable_policy_immutable_accepts_uniform(self):
        # Table 3 last row: under IMMUTABLE all iterations agree, so
        # "aaaaa" (= aa + aa + a… shape) is reachable for ((a|b)\2)-like
        # patterns while mixed iterations are not generated.
        word, caps = assert_generates_valid_match(r"^((a|b)\2)+\1\2$")
        assert set(word) in ({"a"}, {"b"})

    def test_exact_policy_also_validates(self):
        config = ModelConfig(policy=MutableBackrefPolicy.EXACT)
        result = find_matching_input(r"^((a|b)\2)+\1\2$", config=config)
        assert result is not None
        word, _ = result
        assert RegExp(r"^((a|b)\2)+\1\2$").test(word)


class TestAssertions:
    def test_anchors(self):
        word, _ = assert_generates_valid_match(r"^ab$")
        assert word == "ab"

    def test_anchor_only_start(self):
        word, _ = assert_generates_valid_match(r"^ab")
        assert word.startswith("ab")

    def test_multiline_anchor(self):
        assert_generates_valid_match(r"^b$", "m")

    def test_word_boundary(self):
        word, _ = assert_generates_valid_match(r"\bcat\b")
        assert RegExp(r"\bcat\b").test(word)

    def test_non_word_boundary(self):
        word, _ = assert_generates_valid_match(r"a\Bb")
        assert "ab" in word

    def test_positive_lookahead(self):
        assert_generates_valid_match(r"a(?=b)b")

    def test_negative_lookahead(self):
        assert_generates_valid_match(r"a(?!x)b")

    def test_lookahead_with_capture(self):
        word, caps = assert_generates_valid_match(r"(?=(a+))a")
        assert caps[1] is not None

    def test_lookahead_intersection_unsat(self):
        # (?=b)a is unsatisfiable: the next char cannot be both a and b.
        regexp = SymbolicRegExp(r"^(?=b)a$")
        inp = StrVar("inp")
        model = regexp.exec_model(inp)
        result = CegarSolver().solve(model.match_formula, [model.constraint])
        assert result.status != SAT


class TestFlags:
    def test_ignore_case(self):
        word, _ = assert_generates_valid_match("AbC", "i")

    def test_multiline(self):
        assert_generates_valid_match("^x", "m")


class TestAgainstEnumeratedLanguage:
    """Cross-validate model output against Definition 1 enumeration."""

    @pytest.mark.parametrize(
        "source",
        [r"(a|b)*c", r"(a)(b)?", r"a(bc)+", r"(?:a|(b))\1"],
    )
    def test_generated_tuple_is_in_language(self, source):
        word, caps = assert_generates_valid_match(f"^{source}$")
        expected = is_member(f"^{source}$", word)
        assert expected is not None
        assert tuple(caps[i] for i in sorted(caps)) == expected

    def test_language_slice_nonempty_iff_model_sat(self):
        for source in [r"(a)b", r"a{3}", r"(a)\1"]:
            slice_ = list(capturing_tuples(f"^{source}$", max_length=4))
            generated = find_matching_input(f"^{source}$")
            assert (generated is not None) == bool(slice_)


class TestWithExtraConstraints:
    """The DSE shape: Lc membership mixed with other string constraints."""

    def test_capture_pinned_to_constant(self):
        # §3.2: C1 = "timeout" after matching the Listing 1 regex.
        regexp = SymbolicRegExp(r"<(\w+)>([0-9]*)<\/\1>")
        inp = StrVar("arg")
        model = regexp.exec_model(inp)
        problem = conj(
            [
                model.match_formula,
                Eq(model.captures[1], StrConst("timeout")),
            ]
        )
        result = CegarSolver().solve(problem, [model.constraint])
        assert result.status == SAT
        word = result.model.eval_term(inp)
        concrete = RegExp(r"<(\w+)>([0-9]*)<\/\1>").exec(word)
        assert concrete is not None and concrete[1] == "timeout"

    def test_two_regexes_same_input(self):
        r1 = SymbolicRegExp(r"(a+)b")
        r2 = SymbolicRegExp(r"a(b+)")
        inp = StrVar("s")
        m1 = r1.exec_model(inp)
        m2 = r2.exec_model(inp)
        problem = conj([m1.match_formula, m2.match_formula])
        result = CegarSolver().solve(
            problem, [m1.constraint, m2.constraint]
        )
        assert result.status == SAT
        word = result.model.eval_term(inp)
        assert RegExp(r"(a+)b").test(word) and RegExp(r"a(b+)").test(word)

    def test_membership_and_non_membership(self):
        r1 = SymbolicRegExp(r"[0-9]+")
        r2 = SymbolicRegExp(r"^[0-9]+$")
        inp = StrVar("s")
        m1 = r1.exec_model(inp)
        m2 = r2.exec_model(inp)
        problem = conj([m1.match_formula, m2.no_match_formula])
        result = CegarSolver().solve(
            problem, [m1.constraint, m2.negative_constraint]
        )
        assert result.status == SAT
        word = result.model.eval_term(inp)
        assert RegExp(r"[0-9]+").test(word)
        assert not RegExp(r"^[0-9]+$").test(word)


class TestSubtreeFacts:
    """The translator's one-pass facts match a plain walk of each node."""

    @pytest.mark.parametrize("seed", [1909, 7])
    def test_facts_match_a_walk(self, seed):
        from repro.conformance import generate_pairs
        from repro.model import Translator
        from repro.regex import ast

        unrolled = (
            ast.Backreference, ast.Lookahead, ast.WordBoundary, ast.Anchor
        )
        nodes = 0
        for pair in generate_pairs(200, seed):
            body = RegExp(pair.pattern, pair.flags).pattern.body
            translator = Translator(body, {})
            for node in ast.walk(translator.body):
                nodes += 1
                assert translator.facts(node) == (
                    ast.groups_in(node),
                    ast.is_purely_regular(node),
                    any(isinstance(sub, unrolled) for sub in ast.walk(node)),
                ), (pair.pattern, node)
        assert nodes > 1000
