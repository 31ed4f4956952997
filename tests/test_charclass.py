"""Unit tests for interval-based character sets."""

import pytest

from repro.regex.charclass import (
    CLASS_ESCAPES,
    CharSet,
    DIGIT,
    DOT,
    LINE_TERMINATORS,
    MAX_CODEPOINT,
    NOT_WORD,
    SPACE,
    WORD,
    is_word_char,
    partition,
)


class TestConstruction:
    def test_of_chars_merges_adjacent(self):
        assert CharSet.of("abc").intervals == ((97, 99),)

    def test_of_range_accepts_str_and_int(self):
        assert CharSet.of_range("a", "c") == CharSet.of_range(97, 99)

    def test_of_intervals_normalises_overlap(self):
        cs = CharSet.of_intervals([(5, 10), (8, 20), (30, 30)])
        assert cs.intervals == ((5, 20), (30, 30))

    def test_empty_interval_dropped(self):
        assert CharSet.of_intervals([(10, 5)]).is_empty()

    def test_clamped_to_universe(self):
        cs = CharSet.of_intervals([(-5, MAX_CODEPOINT + 100)])
        assert cs == CharSet.any()


class TestMembership:
    def test_contains_char_and_codepoint(self):
        cs = CharSet.of("xyz")
        assert "x" in cs and ord("y") in cs
        assert "w" not in cs

    def test_empty_contains_nothing(self):
        assert "a" not in CharSet.empty()

    def test_size(self):
        assert CharSet.of_range("0", "9").size() == 10
        assert CharSet.any().size() == MAX_CODEPOINT + 1

    def test_min_codepoint(self):
        assert CharSet.of("zxa").min_codepoint() == ord("a")
        with pytest.raises(ValueError):
            CharSet.empty().min_codepoint()


class TestAlgebra:
    def test_union(self):
        assert CharSet.of("ab").union(CharSet.of("cd")) == CharSet.of("abcd")

    def test_complement_involution(self):
        cs = CharSet.of("qrs").union(DIGIT)
        assert cs.complement().complement() == cs

    def test_complement_of_any_is_empty(self):
        assert CharSet.any().complement().is_empty()

    def test_intersect(self):
        assert WORD.intersect(DIGIT) == DIGIT
        assert DIGIT.intersect(CharSet.of("abc")).is_empty()

    def test_difference(self):
        letters = WORD.difference(DIGIT).difference(CharSet.of("_"))
        assert "a" in letters and "0" not in letters and "_" not in letters

    def test_overlaps(self):
        assert WORD.overlaps(DIGIT)
        assert not DIGIT.overlaps(CharSet.of("xyz"))

    def test_de_morgan(self):
        a, b = WORD, SPACE
        lhs = a.union(b).complement()
        rhs = a.complement().intersect(b.complement())
        assert lhs == rhs


class TestPredefined:
    def test_dot_excludes_line_terminators(self):
        assert "\n" not in DOT and "\r" not in DOT
        assert " " not in DOT and "a" in DOT
        assert DOT.complement() == LINE_TERMINATORS

    def test_word_is_ascii_word(self):
        for ch in "azAZ09_":
            assert ch in WORD
        for ch in "-é ":
            assert ch not in WORD
        assert NOT_WORD == WORD.complement()

    def test_space_contains_common_whitespace(self):
        for ch in " \t\n\r\v\f ﻿":
            assert ch in SPACE

    def test_class_escape_table_is_consistent(self):
        assert CLASS_ESCAPES["d"].complement() == CLASS_ESCAPES["D"]
        assert CLASS_ESCAPES["w"].complement() == CLASS_ESCAPES["W"]
        assert CLASS_ESCAPES["s"].complement() == CLASS_ESCAPES["S"]

    def test_is_word_char(self):
        assert is_word_char("a") and is_word_char("_")
        assert not is_word_char("-")


class TestCaseClosure:
    def test_ascii_letter(self):
        assert CharSet.of("a").case_closure() == CharSet.of("aA")

    def test_already_closed(self):
        cs = CharSet.of("aA")
        assert cs.case_closure() == cs

    def test_digits_unchanged(self):
        assert DIGIT.case_closure() == DIGIT

    def test_range_closure_covers_both_cases(self):
        closed = CharSet.of_range("a", "z").case_closure()
        assert "Q" in closed and "q" in closed


def _scanned_closure(cs):
    """The closure by a fresh scan, as ``case_closure`` computed it
    before it was memoized: each interval is scanned up to 4,096 code
    points from its low end."""
    extra = []
    for lo, hi in cs.intervals:
        for cp in range(lo, min(hi, lo + 4095) + 1):
            ch = chr(cp)
            for variant in (ch.upper(), ch.lower()):
                if len(variant) == 1 and variant != ch:
                    extra.append((ord(variant), ord(variant)))
    return CharSet.of_intervals(cs.intervals + tuple(extra)) if extra else cs


class TestMemoizedCaseClosure:
    SETS = [
        CharSet.of("a"),
        CharSet.of("aA"),
        CharSet.of_range("a", "z"),
        CharSet.of("é_1"),
        DIGIT,
        WORD,
        # Negated classes: one interval far wider than the scan cap.
        CharSet.of("a").complement(),
        CharSet.of_range("a", "z").complement(),
        NOT_WORD,
        CLASS_ESCAPES["S"],
        DOT,
        # Wider than the cap, with letters only past it: not folded.
        CharSet.of_range(0x0100, 0x0100 + 4095).union(
            CharSet.of_range(0x2C00, 0x2C5F)
        ),
        CharSet.of_range(0x2000 - 4096, 0x2C5F),
        CharSet.empty(),
    ]

    @pytest.mark.parametrize("cs", SETS, ids=repr)
    def test_equals_the_scan(self, cs):
        assert cs.case_closure() == _scanned_closure(cs)
        # The second call is answered by the memo, with the same result.
        assert cs.case_closure() is cs.case_closure()

    def test_the_cap_is_kept(self):
        # Only the first 4,096 code points of an interval are scanned:
        # the Glagolitic capitals past the cap keep no small letters.
        wide = CharSet.of_range(0x2C00 - 4096, 0x2C2F)
        assert "ⰰ" not in wide.case_closure()
        assert "ⰰ" in CharSet.of_range(0x2C00, 0x2C2F).case_closure()

    def test_memo_is_bounded(self):
        from repro.regex.charclass import _case_closure

        assert _case_closure.cache_info().maxsize is not None


class TestPartition:
    def test_partition_is_disjoint_cover(self):
        sets = [WORD, DIGIT, CharSet.of("x-")]
        classes = partition(sets)
        total = CharSet.empty()
        for i, cls in enumerate(classes):
            total = total.union(cls)
            for other in classes[i + 1:]:
                assert not cls.overlaps(other)
        assert total == CharSet.any()

    def test_each_class_homogeneous(self):
        sets = [WORD, DIGIT, SPACE]
        for cls in partition(sets):
            lo = cls.intervals[0][0]
            for target in sets:
                assert (lo in target) == cls.intersect(target).overlaps(cls) or \
                    cls.intersect(target).is_empty() or cls.intersect(target) == cls

    def test_sampling_prefers_readable(self):
        assert CharSet.any().sample_chars(3)[0] == "a"
        assert CharSet.of_range("0", "9").sample_chars(2) == ["0", "1"]
