"""Unit tests for the ES6-compliant concrete matcher.

These tests pin down exactly the semantics the paper relies on: matching
precedence (greedy/lazy), capture-group recording/clearing, backreferences
with undefined captures, lookaheads, boundaries, anchors and flags.  The
matcher is the CEGAR oracle, so its fidelity is what makes refinement
(Algorithm 1) converge to spec-correct capture assignments.
"""

import pytest

from repro.regex import RegExp
from repro.regex.errors import RegexSyntaxError


def groups(regex, subject, flags=""):
    m = RegExp(regex, flags).exec(subject)
    return None if m is None else list(m)


class TestBasicMatching:
    def test_implicit_wildcard(self):
        assert RegExp("goo+d").test("this is goood stuff")

    def test_no_match(self):
        assert not RegExp("goo+d").test("god")

    def test_empty_pattern_matches_everything(self):
        assert RegExp("").test("")
        assert RegExp("").test("anything")

    def test_exec_index_and_input(self):
        m = RegExp("o+").exec("good")
        assert m.index == 1 and m.input == "good" and m[0] == "oo"

    def test_first_match_wins(self):
        assert RegExp("a|ab").exec("ab")[0] == "a"  # ordered alternation


class TestMatchingPrecedence:
    """Greediness cases — the semantics the model alone cannot see (§3.4)."""

    def test_greedy_star_starves_optional_group(self):
        assert groups(r"^a*(a)?$", "aa") == ["aa", None]

    def test_lazy_star_yields_to_optional_group(self):
        assert groups(r"^a*?(a)?", "aa") == ["a", "a"]

    def test_greedy_consumes_maximum(self):
        assert groups(r"(a+)(a*)", "aaaa") == ["aaaa", "aaaa", ""]

    def test_lazy_consumes_minimum(self):
        assert groups(r"(a+?)(a*)", "aaaa") == ["aaaa", "a", "aaa"]

    def test_lazy_optional(self):
        assert groups(r"(a??)a", "aa") == ["a", ""]

    def test_backtracking_for_suffix(self):
        assert groups(r"(a*)ab", "aaab") == ["aaab", "aa"]

    def test_nested_quantifier_precedence(self):
        assert groups(r"((a*)b)*", "aabb") == ["aabb", "b", ""]


class TestCaptureGroups:
    def test_paper_example_numbering(self):
        # §2.2: "bbbbcbcd".match(/a|((b)*c)*d/) === ["bbbbcbcd", "bc", "b"]
        assert groups(r"a|((b)*c)*d", "bbbbcbcd") == ["bbbbcbcd", "bc", "b"]

    def test_unmatched_group_is_undefined(self):
        assert groups(r"(a)|(b)", "b") == ["b", None, "b"]

    def test_captures_cleared_on_quantifier_reentry(self):
        # The final iteration matches 'b', so (a) must be reset to undefined.
        assert groups(r"^(?:(a)|b)*$", "ab") == ["ab", None]

    def test_last_iteration_capture_wins(self):
        assert groups(r"(?:(\w)x)+", "axbx") == ["axbx", "b"]

    def test_empty_capture_differs_from_undefined(self):
        assert groups(r"(a*)b", "b") == ["b", ""]
        assert groups(r"(a)?b", "b") == ["b", None]

    def test_nested_captures(self):
        assert groups(r"((a)(b(c)))", "abc") == ["abc", "abc", "a", "bc", "c"]


class TestBackreferences:
    def test_simple_backref(self):
        assert RegExp(r"(\w+)\s\1").test("hello hello")
        assert not RegExp(r"^(\w+) \1$").test("hello world")

    def test_xml_tag_pair(self):
        m = RegExp(r"<(\w+)>([0-9]*)<\/\1>").exec("<timeout>500</timeout>")
        assert list(m) == ["<timeout>500</timeout>", "timeout", "500"]

    def test_undefined_backref_matches_empty(self):
        assert groups(r"(?:a|(b))\1x", "ax") == ["ax", None]

    def test_backref_to_later_group_is_empty(self):
        # \1 read before (a) has matched: matches ε.
        assert RegExp(r"^\1(a)$").test("a")

    def test_spec_language_of_mutable_backref_regex(self):
        # Under spec semantics /((a|b)\2)+\1\2/ accepts (aa|bb)*(aaaaa|bbbbb).
        # Note: the paper's §4.3 prose claims "aabbaabbb" matches; the spec
        # algorithm (and Perl semantics) disagree: \1\2 repeats the last
        # iteration's "xx" and then "x", so a match ends in five equal
        # letters.
        r = RegExp(r"^((a|b)\2)+\1\2$")
        assert r.test("aaaaa")
        assert r.test("aabbbbb")
        assert r.test("bbaaaaa")
        assert not r.test("aabbaabbb")
        assert not r.test("aabaaabaa")

    def test_backref_inside_quantifier(self):
        assert RegExp(r"^(a|b)\1+$").test("aaa")
        assert not RegExp(r"^(a|b)\1+$").test("aba")

    def test_case_insensitive_backref(self):
        assert RegExp(r"(abc)\1", "i").test("abcABC")


class TestLookaheads:
    def test_positive(self):
        assert RegExp(r"a(?=b)").test("ab")
        assert not RegExp(r"^a(?=b)$").test("ac")

    def test_negative(self):
        assert RegExp(r"^a(?!b)").test("ac")
        assert not RegExp(r"^a(?!b)").test("ab")

    def test_zero_width(self):
        m = RegExp(r"a(?=bc)bc").exec("abc")
        assert m[0] == "abc"

    def test_captures_persist_from_positive_lookahead(self):
        assert groups(r"(?=(a+))a", "aaa") == ["a", "aaa"]

    def test_captures_discarded_from_negative_lookahead(self):
        assert groups(r"(?!(x))a", "a") == ["a", None]

    def test_lookahead_intersection(self):
        # Word that is both 3 chars and starts with 'ab'.
        r = RegExp(r"^(?=ab).{3}$")
        assert r.test("abc") and not r.test("xbc") and not r.test("abcd")


class TestAnchorsAndBoundaries:
    def test_anchored_match(self):
        assert RegExp("^abc$").test("abc")
        assert not RegExp("^abc$").test("xabc")

    def test_multiline_anchors(self):
        assert RegExp("^b$", "m").test("a\nb")
        assert RegExp("^b", "m").test("a\nbc")
        assert not RegExp("^b$").test("a\nb")

    def test_word_boundary(self):
        assert RegExp(r"\bcat\b").test("the cat sat")
        assert not RegExp(r"\bcat\b").test("concatenate")

    def test_non_word_boundary(self):
        assert RegExp(r"\Bcat\B").test("concatenation")
        assert not RegExp(r"^\Bcat").test("cat alone")

    def test_boundary_at_string_edges(self):
        assert RegExp(r"\bword\b").test("word")


class TestFlags:
    def test_ignore_case(self):
        assert RegExp("abc", "i").test("AbC")
        assert RegExp("[a-z]+", "i").test("XYZ")

    def test_sticky_statefulness_paper_example(self):
        r = RegExp("goo+d", "y")
        assert r.test("goood") is True
        assert r.last_index == 5
        assert r.test("goood") is False
        assert r.last_index == 0

    def test_sticky_requires_match_at_last_index(self):
        r = RegExp("b", "y")
        assert not r.test("ab")
        r.last_index = 1
        assert r.test("ab")

    def test_global_exec_iterates(self):
        r = RegExp(r"\d+", "g")
        assert list(r.exec("a12b345")) == ["12"]
        assert list(r.exec("a12b345")) == ["345"]
        assert r.exec("a12b345") is None
        assert r.last_index == 0

    def test_non_global_exec_is_stateless(self):
        r = RegExp(r"\d+")
        assert list(r.exec("a12b345")) == ["12"]
        assert list(r.exec("a12b345")) == ["12"]

    def test_invalid_flags(self):
        with pytest.raises(RegexSyntaxError):
            RegExp("a", "gg")
        with pytest.raises(RegexSyntaxError):
            RegExp("a", "x")


class TestQuantifierEdgeCases:
    def test_empty_match_guard_terminates(self):
        # The empty iteration of (a?) is rejected by the RepeatMatcher
        # guard, so zero iterations run and group 1 stays undefined.
        assert groups(r"(a?)*b", "b") == ["b", None]
        assert RegExp(r"(?:a*)*b").test("b")

    def test_bounded_repetition(self):
        assert RegExp(r"^a{2,3}$").test("aa")
        assert RegExp(r"^a{2,3}$").test("aaa")
        assert not RegExp(r"^a{2,3}$").test("a")
        assert not RegExp(r"^a{2,3}$").test("aaaa")

    def test_exact_repetition(self):
        assert RegExp(r"^(ab){2}$").test("abab")
        assert not RegExp(r"^(ab){2}$").test("ab")

    def test_repetition_of_group_keeps_last(self):
        assert groups(r"^(a|b){3}$", "aba") == ["aba", "a"]

    def test_zero_repetition(self):
        assert groups(r"^(a){0}$", "") == ["", None]


class TestUnicodeInputs:
    def test_bmp_literal(self):
        assert RegExp("é").test("café")

    def test_astral_literal_via_escape(self):
        assert RegExp(r"\u{1F600}", "u").test("smile 😀")

    def test_dot_excludes_newline_only(self):
        assert RegExp("^.$").test("é")
        assert not RegExp("^.$").test("\n")
