"""Unit tests for §4.1 preprocessing (Table 1 rewritings)."""

from repro.regex import RegExp, parse_regex
from repro.regex.ast import (
    Alternation,
    CharMatch,
    Concat,
    Empty,
    Group,
    Quantifier,
    walk,
)
from repro.regex.unparse import unparse
from repro.model.preprocess import (
    INPUT_CHAR,
    META_END,
    META_START,
    expand_repetition,
    preprocess,
    rewrite_for_model,
    rewrite_lazy_to_greedy,
    wildcard,
    wrap_for_exec,
)


def parse(src):
    return parse_regex(src).body


class TestLazyRewriting:
    def test_lazy_star_becomes_greedy(self):
        node = rewrite_lazy_to_greedy(parse("a*?"))
        assert isinstance(node, Quantifier) and not node.lazy

    def test_nested_lazy(self):
        node = rewrite_lazy_to_greedy(parse("(?:a+?b??)*?"))
        assert all(
            not n.lazy for n in walk(node) if isinstance(n, Quantifier)
        )

    def test_language_preserved(self):
        # Greedy/lazy have identical languages (only precedence differs).
        src = "a*?(?:bc)+?d??"
        rewritten = unparse(rewrite_lazy_to_greedy(parse(src)))
        for word in ("d", "abcd", "aabcbc", ""):
            assert RegExp(f"^(?:{src})$").test(word) == RegExp(
                f"^(?:{rewritten})$"
            ).test(word)


class TestRewriteForModel:
    def test_character_sets_exclude_the_meta_characters(self):
        node = rewrite_for_model(parse(r"(?:.|[^a]|\W)+?b"))
        sets = [n.charset for n in walk(node) if isinstance(n, CharMatch)]
        assert len(sets) == 4
        for charset in sets:
            assert META_START not in charset and META_END not in charset
        assert all("-" in charset for charset in sets[:3])
        assert all(
            not n.lazy for n in walk(node) if isinstance(n, Quantifier)
        )

    def test_sets_without_meta_characters_are_kept(self):
        body = parse("[a-c]")
        assert rewrite_for_model(body) is body


class TestRepetitionExpansion:
    def test_plus_becomes_star_concat(self):
        node = expand_repetition(parse("a+"))
        assert isinstance(node, Concat)
        assert isinstance(node.parts[0], Quantifier)
        assert node.parts[0].max is None

    def test_optional_becomes_alternation(self):
        node = expand_repetition(parse("a?"))
        assert isinstance(node, Alternation)
        assert isinstance(node.options[1], Empty)

    def test_bounded_repetition_expands_to_alternation(self):
        node = expand_repetition(parse("a{1,3}"))
        assert isinstance(node, Alternation)
        assert len(node.options) == 3

    def test_expansion_language_equivalence(self):
        for src in ("a{2,4}", "(?:ab){1,2}", "a{0,2}b", "a{3}"):
            expanded = unparse(expand_repetition(parse(src)))
            for word in ("", "a", "aa", "aaa", "aaaa", "ab", "abab", "b"):
                assert RegExp(f"^(?:{src})$").test(word) == RegExp(
                    f"^(?:{expanded})$"
                ).test(word), (src, expanded, word)

    def test_capture_correspondence_last_copy_wins(self):
        # §4.1: after expansion only the final copy of a duplicated body
        # carries the capture group, realising Ci = Ci,2.
        node = expand_repetition(parse("(a|b)+"))
        groups = [n for n in walk(node) if isinstance(n, Group)]
        assert len(groups) == 1

    def test_huge_bounds_left_intact(self):
        node = expand_repetition(parse("a{2,100}"))
        assert isinstance(node, Quantifier)

    def test_full_preprocess(self):
        node = preprocess(parse("(x)+?y{1,2}"))
        assert all(
            not n.lazy for n in walk(node) if isinstance(n, Quantifier)
        )


class TestWrapping:
    def test_wrap_adds_group_zero(self):
        wrapped = wrap_for_exec(parse("ab"))
        groups = [n for n in walk(wrapped) if isinstance(n, Group)]
        assert any(g.index == 0 for g in groups)

    def test_wrapper_wildcards_exclude_meta(self):
        assert META_START not in INPUT_CHAR.charset
        assert META_END not in INPUT_CHAR.charset
        assert "a" in INPUT_CHAR.charset and "\n" in INPUT_CHAR.charset

    def test_wildcard_is_lazy_star(self):
        w = wildcard()
        assert isinstance(w, Quantifier) and w.min == 0 and w.max is None
