"""Spec-corner tests for the concrete matcher.

Expected values follow the ECMA-262 matching semantics (checked against
the spec's RepeatMatcher/BackreferenceMatcher pseudocode); several are
classic engine-conformance traps.  The oracle must get these right for
CEGAR to terminate with spec-correct captures.
"""

import pytest

from repro.regex import RegExp


def exec_list(source, subject, flags=""):
    result = RegExp(source, flags).exec(subject)
    return None if result is None else list(result)


class TestQuantifierCaptureInteraction:
    def test_capture_keeps_last_iteration(self):
        assert exec_list(r"(?:(a)|(b))*", "ab") == ["ab", None, "b"]

    def test_optional_iteration_resets_inner(self):
        # Spec: entering a quantifier iteration clears enclosed captures.
        assert exec_list(r"(?:(a)?b)+", "ab b".replace(" ", "")) == \
            ["abb", None]

    def test_nested_stars_with_captures(self):
        assert exec_list(r"((a)|b)*", "ba") == ["ba", "a", "a"]

    def test_empty_iteration_rejected(self):
        # (a?)* cannot loop on the empty match.
        assert exec_list(r"(a?)*b", "ab") == ["ab", "a"]

    def test_mandatory_empty_iteration_allowed(self):
        # {2} forces two iterations even when the second is empty.
        assert exec_list(r"(?:a?){2}", "a") == ["a"]

    def test_quantified_group_with_min(self):
        assert exec_list(r"(a){2,3}", "aaaa") == ["aaa", "a"]


class TestAlternationOrder:
    def test_leftmost_option_wins(self):
        assert exec_list("a|ab", "ab") == ["a"]

    def test_backtracks_into_alternation(self):
        assert exec_list("(?:a|ab)c", "abc") == ["abc"]

    def test_empty_option_matches(self):
        assert exec_list("(?:x|)y", "y") == ["y"]


class TestBackreferenceCorners:
    def test_backref_empty_capture_vs_undefined(self):
        # Group matched "" → backref matches "".
        assert exec_list(r"(a*)b\1c", "bc") == ["bc", ""]

    def test_backref_undefined_matches_empty(self):
        assert exec_list(r"(?:(x))?y\1z", "yz") == ["yz", None]

    def test_backref_inside_alternation(self):
        assert exec_list(r"(a)(?:\1|b)", "aa") == ["aa", "a"]
        assert exec_list(r"(a)(?:\1|b)", "ab") == ["ab", "a"]

    def test_backref_with_quantifier(self):
        assert exec_list(r"(ab)\1*", "ababab") == ["ababab", "ab"]

    def test_case_insensitive_backref(self):
        assert exec_list(r"(ab)\1", "abAB", "i") == ["abAB", "ab"]

    def test_octal_vs_backref_boundary(self):
        # With one group, \1 is a backref, \2 is octal (matches "\x02").
        assert RegExp(r"(a)\1").test("aa")
        assert RegExp(r"(a)\2").test("a\x02")


class TestLookaheadCorners:
    def test_lookahead_does_not_consume(self):
        assert exec_list(r"(?=a)a", "a") == ["a"]

    def test_quantified_lookahead_is_annex_b(self):
        # Annex B allows (?=a)* — it matches trivially.
        assert RegExp(r"(?=a)*b").test("b")

    def test_lookahead_capture_survives(self):
        assert exec_list(r"(?=(ab))a", "ab") == ["a", "ab"]

    def test_negative_lookahead_resets_captures(self):
        assert exec_list(r"(?!(x))y", "y") == ["y", None]

    def test_lookahead_with_backref_outside(self):
        assert exec_list(r"(?=(a+))\1b", "aab") == ["aab", "aa"]

    def test_nested_lookaheads(self):
        assert RegExp(r"(?=a(?=b))ab").test("ab")
        assert not RegExp(r"^(?=a(?=c))ab").test("ab")


class TestAnchorsAndBoundariesCorners:
    def test_dollar_before_newline_multiline(self):
        assert exec_list("a$", "a\nb", "m") == ["a"]

    def test_caret_after_cr(self):
        assert RegExp("^b", "m").test("a\rb")

    def test_boundary_with_underscores(self):
        assert not RegExp(r"\bword\b").test("_word_")
        assert RegExp(r"\bword\b").test("-word-")

    def test_consecutive_boundaries(self):
        assert RegExp(r"\b\ba\b\b").test("a")

    def test_empty_string_boundaries(self):
        assert not RegExp(r"\b").test("")
        assert RegExp(r"\B").test("")


class TestGreedyBacktracking:
    def test_classic_html_tag(self):
        assert exec_list(r"<(.*)>", "<a><b>") == ["<a><b>", "a><b"]

    def test_lazy_html_tag(self):
        assert exec_list(r"<(.*?)>", "<a><b>") == ["<a>", "a"]

    def test_backtrack_across_groups(self):
        assert exec_list(r"(\w+)(\d)", "abc12") == ["abc12", "abc1", "2"]

    def test_multiple_star_interaction(self):
        assert exec_list(r"(a*)(a*)(a*)", "aa") == ["aa", "aa", "", ""]


class TestGlobalAndStickyCorners:
    def test_global_zero_width_progress(self):
        regexp = RegExp("a*", "g")
        first = regexp.exec("baa")
        assert first[0] == "" and regexp.last_index == 0
        # JavaScript relies on the caller advancing lastIndex for
        # zero-length matches; String.prototype.match does this.
        from repro.regex.methods import match

        assert match(RegExp("a*", "g"), "baa") == ["", "aa", ""]

    def test_sticky_anchored_behaviour(self):
        regexp = RegExp("a", "y")
        assert not regexp.test("ba")
        regexp.last_index = 1
        assert regexp.test("ba")

    def test_lastindex_beyond_length(self):
        regexp = RegExp("a", "g")
        regexp.last_index = 99
        assert regexp.exec("aaa") is None
        assert regexp.last_index == 0


class TestEcmaRegExpNotes:
    """The worked examples of ECMA-262's RegExp pattern semantics notes
    (§22.2.2), with ``undefined`` as ``None``."""

    @pytest.mark.parametrize(
        "source, subject, expected",
        [
            (r"((a)|b)+", "ab", ["ab", "b", None]),
            (
                r"(z)((a+)?(b+)?(c))*",
                "zaacbbbcac",
                ["zaacbbbcac", "z", "ac", "a", None, "c"],
            ),
            (r"(a*)*", "b", ["", None]),
            (r"(a*)b\1+", "baaaac", ["b", ""]),
            (r"(?=(a+))", "baaabac", ["", "aaa"]),
            (r"(?=(a+))a*b\1", "baaabac", ["aba", "a"]),
            (
                r"(.*?)a(?!(a+)b\2c)\2(.*)",
                "baaabaac",
                ["baaabaac", "ba", None, "abaac"],
            ),
        ],
    )
    def test_spec_note_example(self, source, subject, expected):
        assert exec_list(source, subject) == expected
