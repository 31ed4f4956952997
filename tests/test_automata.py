"""Unit and property tests for the automata substrate."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import (
    Dfa,
    NotRegularError,
    dfa_for,
    dfa_for_pattern,
    erase_captures,
    intersect_all,
    membership_witness,
    nfa_for,
    to_nfa,
)
from repro.automata.dfa import word_list
from repro.regex import parse_regex
from repro.regex.charclass import CharSet
from repro.regex.matcher import RegExp


def dfa(src):
    return dfa_for_pattern(src)


class TestBasics:
    def test_literal(self):
        d = dfa("abc")
        assert d.accepts_word("abc")
        assert not d.accepts_word("ab")
        assert not d.accepts_word("abcd")

    def test_alternation(self):
        d = dfa("cat|dog")
        assert d.accepts_word("cat") and d.accepts_word("dog")
        assert not d.accepts_word("cog")

    def test_kleene_star(self):
        d = dfa("(?:ab)*")
        for word in ("", "ab", "abab", "ababab"):
            assert d.accepts_word(word)
        assert not d.accepts_word("aba")

    def test_plus_and_optional(self):
        assert dfa("a+").accepts_word("aaa")
        assert not dfa("a+").accepts_word("")
        assert dfa("a?").accepts_word("") and dfa("a?").accepts_word("a")

    def test_bounded_repetition(self):
        d = dfa("a{2,4}")
        assert not d.accepts_word("a")
        for n in (2, 3, 4):
            assert d.accepts_word("a" * n)
        assert not d.accepts_word("aaaaa")

    def test_classes_and_dot(self):
        assert dfa(r"\d+").accepts_word("0451")
        assert not dfa(r"\d+").accepts_word("x")
        assert dfa(".").accepts_word("é")
        assert not dfa(".").accepts_word("\n")

    def test_empty_pattern(self):
        d = dfa("")
        assert d.accepts_word("")
        assert not d.accepts_word("a")

    def test_capture_groups_erased(self):
        d = dfa("(ab)+")
        assert d.accepts_word("abab")

    def test_non_regular_rejected(self):
        with pytest.raises(NotRegularError):
            to_nfa(parse_regex(r"(a)\1").body)
        with pytest.raises(NotRegularError):
            to_nfa(parse_regex(r"(?=a)b").body)
        with pytest.raises(NotRegularError):
            to_nfa(parse_regex(r"^a").body)


class TestStepMemo:
    """``Dfa.step`` answers from a per-state ``{char: target}`` row in
    front of the bisect index."""

    def test_memo_agrees_with_the_index(self):
        automaton = dfa(r"(?:[a-f]\d|x[^a]*)+y?")
        for state in range(automaton.n_states):
            for ch in "a1fxyz0\u00e9\U0001f600" * 2:
                assert automaton.step(state, ch) == automaton._lookup(state, ch)
        assert automaton._rows

    @given(st.text(alphabet="abcxy019", max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_accepts_word_agrees_with_stepping(self, word):
        automaton = dfa(r"(?:ab|c+)*x?[0-9]")
        state = automaton.start
        for ch in word:
            state = automaton._lookup(state, ch)
        assert automaton.accepts_word(word) == (state in automaton.accepts)

    def test_views_share_the_rows(self):
        total = dfa("a+b")
        assert total.complement()._rows is total._rows
        assert total.quotient_left("a")._rows is total._rows
        assert total.quotient_right("b")._rows is total._rows
        assert total.quotient_left("a").accepts_word("ab")
        assert "b" in total._rows[total.step(total.start, "a")]


class TestEraseCaptures:
    def test_erase_is_deep(self):
        node = parse_regex(r"((a)|b)*(c)").body
        from repro.regex import ast

        assert not any(
            isinstance(n, ast.Group) for n in ast.walk(erase_captures(node))
        )

    def test_language_unchanged(self):
        src = r"(a|(bc))+d"
        d = dfa_for(parse_regex(src).body)
        for word in ("ad", "bcd", "abcad", ""):
            assert d.accepts_word(word) == bool(
                RegExp(f"^(?:{src})$").test(word)
            )


class TestBooleanAlgebra:
    def test_complement(self):
        d = dfa("a+").complement()
        assert d.accepts_word("") and d.accepts_word("b")
        assert not d.accepts_word("aa")

    def test_double_complement(self):
        d = dfa("ab|ba")
        dd = d.complement().complement()
        for word in ("ab", "ba", "aa", ""):
            assert d.accepts_word(word) == dd.accepts_word(word)

    def test_intersection(self):
        d = dfa("a*b*").intersect(dfa(".{3}"))
        assert d.accepts_word("aab") and d.accepts_word("abb")
        assert not d.accepts_word("ab")
        assert not d.accepts_word("aba")

    def test_empty_intersection(self):
        assert dfa("a+").intersect(dfa("b+")).is_empty()

    def test_union(self):
        d = dfa("a").union(dfa("b"))
        assert d.accepts_word("a") and d.accepts_word("b")
        assert not d.accepts_word("c")

    def test_difference(self):
        d = dfa("a*").difference(dfa("aa"))
        assert d.accepts_word("a") and d.accepts_word("aaa")
        assert not d.accepts_word("aa")

    def test_equivalence(self):
        assert dfa("(?:ab)*a?").equivalent(dfa("a(?:ba)*b?|"))
        assert not dfa("a*").equivalent(dfa("a+"))

    def test_intersect_all(self):
        combined = intersect_all(
            [dfa(r"\w+"), dfa(".{2,3}"), dfa("a.*")]
        )
        assert combined.accepts_word("ab")
        assert not combined.accepts_word("b")
        assert intersect_all([]) is None

    def test_intersect_all_short_circuits_on_empty(self):
        # a+ ∩ b+ is already empty; the huge third component must never
        # be multiplied in (its states cannot appear in the result).
        wide = dfa("[a-z]{1,8}")
        combined = intersect_all([dfa("a+"), dfa("b+"), wide])
        assert combined.is_empty()
        assert combined.n_states < wide.n_states


class TestPartialDfa:
    """Hand-built partial automata (no construction path makes these,
    but deserialization or tests can) must not break the algebra."""

    def partial(self):
        # One state, only 'a' has a transition; accepts a*.
        return Dfa(
            n_states=1,
            start=0,
            accepts=frozenset({0}),
            transitions={0: [(CharSet.of("a"), 0)]},
        )

    def test_is_total(self):
        assert not self.partial().is_total()
        assert dfa("a*").is_total()

    def test_completed_preserves_language(self):
        total = self.partial().completed()
        assert total.is_total()
        for word, expected in (("", True), ("aa", True), ("b", False)):
            assert total.accepts_word(word) == expected

    def test_complement_of_partial_dfa_is_sound(self):
        # Flipping accepting states of a *partial* DFA would classify
        # "b" (which falls off the missing transition) as rejected by
        # both the automaton and its complement.
        comp = self.partial().complement()
        assert comp.is_total()
        assert comp.accepts_word("b")
        assert comp.accepts_word("ab")
        assert not comp.accepts_word("")
        assert not comp.accepts_word("aa")

    def test_complement_of_total_dfa_stays_a_view(self):
        total = dfa("a+")
        comp = total.complement()
        assert comp.transitions is total.transitions


class TestEmptinessAndWitness:
    def test_emptiness(self):
        assert dfa("a").intersect(dfa("b")).is_empty()
        assert not dfa("a|b").is_empty()

    def test_witness_is_shortest(self):
        assert membership_witness(parse_regex("aaa|a|aa").body) == "a"
        assert membership_witness(parse_regex("a*").body) == ""

    def test_witness_of_empty_language(self):
        pattern = parse_regex("a").body
        assert dfa_for(pattern).intersect(dfa("b")).shortest_word() is None

    def test_live_states_memoized_per_instance(self):
        """Regression: repeated emptiness checks must not recompute the
        backward reachability sweep — the result is interned on the
        instance (identity, not just equality, on the second call)."""
        d = dfa("a*b|c+")
        first = d.live_states()
        assert d.live_states() is first
        d.is_empty()
        d.is_empty()
        assert d.live_states() is first

    def test_live_states_memo_not_shared_with_complement(self):
        # Complement changes the accepting set, so its liveness differs;
        # the memo must start fresh on the derived view.
        d = dfa("a+").intersect(dfa("b+"))  # empty language
        assert d.is_empty()
        c = d.complement()
        assert not c.is_empty()
        assert c.live_states() is not d.live_states()

    def test_left_quotient_shares_the_memo(self):
        d = dfa("ab*")
        alive = d.live_states()
        assert d.quotient_left("a").live_states() is alive


class TestEnumeration:
    def test_words_in_length_order(self):
        words = list(dfa("a*").words(max_count=5))
        assert words == ["", "a", "aa", "aaa", "aaaa"]

    def test_words_all_accepted(self):
        d = dfa(r"[ab]{1,3}c")
        for word in d.words(max_count=30):
            assert d.accepts_word(word)

    def test_words_variety(self):
        words = set(dfa("[a-z]").words(max_count=3))
        assert len(words) == 3

    def test_words_empty_language(self):
        assert list(dfa("a").intersect(dfa("b")).words(max_count=5)) == []

    def test_max_length_respected(self):
        words = list(dfa("a*").words(max_length=3))
        assert words == ["", "a", "aa", "aaa"]

    def test_enumeration_order_is_pinned(self):
        # The tuple-prefix frontier must preserve the historical order
        # exactly: breadth-first by length, edges in transition order,
        # characters in sample order.  The solver's iterative deepening
        # and refinement exclusions key off this order being stable.
        words = list(dfa("[ab]c?").words(max_count=6))
        assert words == ["a", "b", "ac", "bc"]
        words = list(dfa("(?:a|bb)*").words(max_count=6))
        assert words == ["", "a", "aa", "bb", "aaa", "abb"]

    def test_each_label_sampled_once_per_enumeration(self, monkeypatch):
        # A looping DFA revisits its states at every length, so its
        # labels recur across frontier entries; sampling is pure, so
        # one enumeration samples each distinct label once.
        d = dfa("(?:[a-c]|xy)*z")
        expected = word_list(d, max_count=500, max_length=6)
        calls = Counter()
        sample_chars = CharSet.sample_chars

        def counting(label, limit=8):
            calls[label] += 1
            return sample_chars(label, limit)

        monkeypatch.setattr(CharSet, "sample_chars", counting)
        assert word_list(d, max_count=500, max_length=6) == expected
        labels = {
            label for edges in d.transitions.values() for label, _ in edges
        }
        assert calls and set(calls) <= labels
        assert set(calls.values()) == {1}


class TestMinimization:
    def test_minimize_preserves_language(self):
        d = dfa("(?:a|b)*abb")
        m = d.minimize()
        assert m.n_states <= d.n_states
        for word in ("abb", "aabb", "babb", "ab", "", "abba"):
            assert d.accepts_word(word) == m.accepts_word(word)

    def test_minimize_collapses(self):
        # a|b compiles to several NFA branches but needs only 3 DFA states.
        assert dfa("a|b").minimize().n_states <= 3


# ---------------------------------------------------------------------------
# Property tests: the DFA pipeline agrees with (a) direct NFA simulation and
# (b) the backtracking matcher, on a generated classical-regex fragment.
# ---------------------------------------------------------------------------

_LITERALS = st.sampled_from(["a", "b", "c", "0", "1"])


def _regex_trees(depth):
    if depth == 0:
        return _LITERALS
    sub = _regex_trees(depth - 1)
    return st.one_of(
        _LITERALS,
        st.tuples(sub, sub).map(lambda t: f"(?:{t[0]}{t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"(?:{t[0]}|{t[1]})"),
        sub.map(lambda s: f"(?:{s})*"),
        sub.map(lambda s: f"(?:{s})?"),
    )


@st.composite
def classical_regex(draw):
    return draw(_regex_trees(3))


@given(src=classical_regex(), word=st.text(alphabet="abc01", max_size=6))
@settings(max_examples=150, deadline=None)
def test_dfa_agrees_with_nfa_simulation(src, word):
    node = parse_regex(src).body
    assert nfa_for(node).accepts_word(word) == dfa_for(node).accepts_word(word)


@given(src=classical_regex(), word=st.text(alphabet="abc01", max_size=6))
@settings(max_examples=150, deadline=None)
def test_dfa_agrees_with_backtracking_matcher(src, word):
    node = parse_regex(src).body
    anchored = RegExp(f"^(?:{src})$")
    assert dfa_for(node).accepts_word(word) == anchored.test(word)


@given(src=classical_regex())
@settings(max_examples=60, deadline=None)
def test_enumerated_words_are_members(src):
    d = dfa_for(parse_regex(src).body)
    for word in d.words(max_count=10, max_length=8):
        assert d.accepts_word(word)


@given(src=classical_regex(), word=st.text(alphabet="abc01", max_size=5))
@settings(max_examples=100, deadline=None)
def test_complement_is_exact(src, word):
    d = dfa_for(parse_regex(src).body)
    assert d.complement().accepts_word(word) == (not d.accepts_word(word))
