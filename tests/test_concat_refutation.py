"""Upward language propagation: refuting cores whose concatenations have
an empty language (``_Core._refute_concatenations``).

The rule prunes DSE paths, so every refutation it makes must be sound:
besides the harvested core shapes it was built for, a seeded property
check cross-examines it against bounded exhaustive enumeration with an
independent matcher (Python's ``re``).
"""

import functools
import itertools
import random
import re
import sys
import threading

import pytest

from repro.automata import clear_caches, dfa_for
from repro.automata import lazy
from repro.constraints import (
    Eq, InRe, Not, Or, StrConst, StrVar, concat, conj,
)
from repro.regex import parse_regex
from repro.solver import SAT, Solver, UNKNOWN, UNSAT
from repro.solver.stats import SolverStats


def re_node(src):
    return parse_regex(src).body


def member(var, src, positive=True):
    atom = InRe(var, re_node(src))
    return atom if positive else Not(atom)


def solve(formula, **options):
    stats = SolverStats()
    result = Solver(stats=stats, **options).solve(formula)
    return result, stats.queries[-1]


inp = StrVar("in$input")
seg = [StrVar(f"seg!{i}") for i in range(8)]


def markup_core():
    """``in ∈ L([a-z]+)`` while ``in = s0 ++ s1 ++ s2`` and
    ``s1 = '<'-segment ++ \\w+ ++ '>'-segment``: ``in`` would contain
    ``<``."""
    return conj([
        member(inp, "[a-z]+"),
        member(inp, "[^〈〉]*"),
        Eq(inp, concat(seg[0], seg[1], seg[2])),
        Eq(seg[1], concat(seg[3], seg[4], seg[5])),
        member(seg[0], "[^〈〉]*"),
        member(seg[2], "[^〈〉]*"),
        member(seg[3], "<"),
        member(seg[4], r"\w+"),
        member(seg[5], ">"),
    ])


def complement_prefix_core():
    """A prefix outside ``[^〈〉]*`` of an input inside it."""
    return conj([
        member(inp, "[^〈〉]*"),
        Eq(inp, concat(seg[0], seg[1])),
        member(seg[0], "[^〈〉]*", positive=False),
        member(seg[1], "[a-z]*"),
    ])


class TestHarvestedShapes:
    def test_markup_segment_under_lowercase_input(self):
        result, record = solve(markup_core())
        assert result.status == UNSAT
        assert record.candidates_tried == 0
        assert record.concat_refuted == 1
        assert result.concat_refuted == 1

    def test_negated_membership_prefix(self):
        result, record = solve(complement_prefix_core())
        assert result.status == UNSAT
        assert record.candidates_tried == 0
        assert record.concat_refuted == 1

    def test_search_alone_does_not_decide_it(self, monkeypatch):
        # Without the rule the same core costs a candidate search that
        # cannot prove UNSAT: the shape really needs the rule.
        monkeypatch.setattr(lazy, "CONCAT_BUDGET", 0)
        result, record = solve(complement_prefix_core(), round_limits=(12,))
        assert result.status != UNSAT
        assert record.candidates_tried > 0
        assert record.concat_refuted == 0

    def test_satisfiable_neighbour_is_untouched(self):
        # Lowercase segments around a lowercase core: a model exists.
        formula = conj([
            member(inp, "[a-z]+"),
            Eq(inp, concat(seg[0], seg[1], seg[2])),
            member(seg[0], "[a-z]*"),
            member(seg[1], "x+"),
            member(seg[2], "[a-z]*"),
        ])
        result, record = solve(formula)
        assert result.status == SAT
        assert record.concat_refuted == 0
        assert re.fullmatch("[a-z]+", result.model[inp])

    def test_split_against_a_second_decomposition(self):
        # Two decompositions of one input (a definition and a split):
        # one starts with '#', the other with '-'.
        rest = StrVar("rest")
        formula = conj([
            Eq(inp, concat(seg[0], rest)),
            Eq(inp, concat(seg[1], seg[2])),
            member(seg[0], r"\s*#"),
            member(seg[1], r"\s*-\s"),
        ])
        result, record = solve(formula)
        assert result.status == UNSAT
        assert record.candidates_tried == 0
        assert record.concat_refuted == 1

    def test_constant_target_split(self):
        # A constant input split across constrained parts.
        formula = conj([
            Eq(inp, StrConst("ab1")),
            Eq(inp, concat(seg[0], seg[1])),
            member(seg[0], "[a-z]+"),
            member(seg[1], "[a-z]+"),
        ])
        result, record = solve(formula)
        assert result.status == UNSAT
        assert record.concat_refuted == 1

    def test_refuted_core_counts_once_across_rounds(self):
        # The second core (|x ++ x| odd) stays UNKNOWN, so every
        # deepening round re-solves the refuted first core too.
        x, y = StrVar("x"), StrVar("y")
        odd = conj([
            member(x, "a*"),
            Eq(y, concat(x, x)),
            member(y, "a(aa)*"),
        ])
        result, record = solve(Or([markup_core(), odd]))
        assert result.status == UNKNOWN
        assert record.cores_tried > 2
        assert record.concat_refuted == 1
        assert result.concat_refuted == 1


def test_dse_attributes_refutations_to_the_job():
    # The flip into the second branch asks for a lowercase input that
    # contains '<' \w+ '>': refuted by the rule, and counted per job.
    from repro.service import AnalyzeJob, BatchRunner

    source = """
    var s = symbol("input", "abc");
    if (/^[a-z]+$/.test(s)) {
      if (/<(\\w+)>/.exec(s)) {
        assert(false, "unreachable");
      }
    }
    """
    report = BatchRunner(workers=0).run(
        [AnalyzeJob(job_id="markup", source=source, max_tests=6)]
    )
    payload = report.results[0].payload
    assert payload["concat_refuted"] >= 1
    assert payload["failures"] == []


class TestBudgetAndMemo:
    def setup_method(self):
        clear_caches()

    def _expression(self):
        return ("and", (
            dfa_for(re_node("[a-z]+")),
            ("cat", (None, "<", dfa_for(re_node(r"\w+")), ">", None)),
        ))

    def test_exhausted_budget_gives_no_verdict(self, monkeypatch):
        expression = self._expression()
        monkeypatch.setattr(lazy, "CONCAT_BUDGET", 2)
        assert lazy.expression_is_empty("k", lambda: expression) is None
        monkeypatch.undo()
        lazy.clear_verdicts()
        assert lazy.expression_is_empty("k", lambda: expression) is True

    def test_zero_budget_disables_the_check(self, monkeypatch):
        monkeypatch.setattr(lazy, "CONCAT_BUDGET", 0)
        empty = ("and", ("a", "b"))
        assert lazy.expression_is_empty("k", lambda: empty) is None
        assert not lazy._VERDICTS

    def test_exhausted_budget_never_refutes_a_core(self, monkeypatch):
        monkeypatch.setattr(lazy, "CONCAT_BUDGET", 2)
        result, record = solve(
            markup_core(), round_limits=(12,), timeout=1.0
        )
        assert record.concat_refuted == 0
        assert result.concat_refuted == 0

    def test_verdicts_are_memoized_by_key(self):
        builds = []

        def build():
            builds.append(1)
            return self._expression()

        assert lazy.expression_is_empty("k", build) is True
        assert lazy.expression_is_empty("k", build) is True
        assert len(builds) == 1

    def test_memo_is_bounded(self):
        for i in range(lazy.VERDICT_MEMO_SIZE + 5):
            lazy.expression_is_empty(("word", i), lambda: "a")
        assert len(lazy._VERDICTS) == lazy.VERDICT_MEMO_SIZE

    def test_memo_survives_concurrent_solvers(self, monkeypatch):
        # More threads than cores hammer a tiny memo with a short
        # switch interval: lookups, inserts and evictions interleave.
        monkeypatch.setattr(lazy, "VERDICT_MEMO_SIZE", 4)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(1000):
                    n = rng.randrange(16)
                    word = "a" * n
                    assert lazy.expression_is_empty(n, lambda: word) is False
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(lazy._VERDICTS) <= 4

    def test_clear_caches_empties_the_memo(self):
        solve(markup_core())
        assert lazy._VERDICTS
        clear_caches()
        assert not lazy._VERDICTS


class TestExpressionEmptiness:
    def setup_method(self):
        clear_caches()

    @pytest.mark.parametrize(
        "expression, empty",
        [
            (None, False),
            ("", False),
            (("cat", ()), False),
            (("cat", ("a", None, "b")), False),
            (("and", ("ab", ("cat", ("a", None)))), False),
            (("and", ("ab", ("cat", ("b", None)))), True),
            (("and", ("ab", ("cat", (None, "b")))), False),
            (("and", ("ab", ("cat", (None, "a")))), True),
            (("and", ("", ("cat", ("", "")))), False),
        ],
    )
    def test_words_and_wildcards(self, expression, empty):
        key = repr(expression)
        assert lazy.expression_is_empty(key, lambda: expression) is empty

    def test_complement_inside_a_concatenation(self):
        outside = dfa_for(re_node("[^〈〉]*")).complement()
        inside = dfa_for(re_node("[^〈〉]*"))
        refuted = ("and", (inside, ("cat", (outside, None))))
        assert lazy.expression_is_empty("c1", lambda: refuted) is True
        fine = ("and", (outside, ("cat", (outside, None))))
        assert lazy.expression_is_empty("c2", lambda: fine) is False

    def test_nested_intersections(self):
        digits = dfa_for(re_node("[0-9]+"))
        even = dfa_for(re_node("(?:[0-9][0-9])+"))
        nested = ("and", (even, ("cat", (("and", (digits, "1")), digits))))
        assert lazy.expression_is_empty("n1", lambda: nested) is False
        odd = ("and", (even, ("cat", ("1", ("and", (even, None))))))
        assert lazy.expression_is_empty("n2", lambda: odd) is True


# -- soundness cross-check ----------------------------------------------------

#: Regexes over {a, b} that Python's ``re`` reads the same way.
REGEXES = [
    "a", "b", "a*", "b*", "a+", "b+", "ab", "ba", "(?:ab)*", "a|b",
    "[ab]", "[ab]*", "a*b*", "b*a", "(?:a|bb)+", "aa?", "[ab]{2}", "",
]
BASES = [StrVar(f"y{i}") for i in range(3)]
DEFINED = [StrVar(f"x{i}") for i in range(2)]
WORDS = ["".join(w) for n in range(4) for w in itertools.product("ab", repeat=n)]


def _random_parts(rng, pool):
    parts = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            parts.append(StrConst(rng.choice(["a", "b", "ab", ""])))
        else:
            parts.append(rng.choice(pool))
    return parts


def random_core(rng):
    """A conjunction over base variables ``y*`` and defined ``x*``:
    definitions (x1 may nest x0), splits of any variable, and positive
    or negative memberships.  Returns ``(formula, definitions, literals)``
    where ``literals`` are ``(kind, ...)`` tuples an independent
    evaluator understands."""
    definitions = {}
    literals = []
    for i, var in enumerate(DEFINED):
        parts = _random_parts(rng, BASES + DEFINED[:i])
        if i and rng.random() < 0.5:
            parts.insert(rng.randint(0, len(parts)), DEFINED[i - 1])
        definitions[var] = parts
        literals.append(("eq", var, parts))
    for _ in range(rng.randint(0, 2)):
        target = rng.choice(BASES + DEFINED)
        literals.append(("eq", target, _random_parts(rng, BASES)))
    for _ in range(rng.randint(2, 5)):
        literals.append(
            ("in", rng.choice(BASES + DEFINED), rng.choice(REGEXES),
             rng.random() < 0.7)
        )
    formula = []
    for literal in literals:
        if literal[0] == "eq":
            _, var, parts = literal
            formula.append(Eq(var, concat(*parts)))
        else:
            _, var, src, positive = literal
            formula.append(member(var, src, positive))
    return conj(formula), definitions, literals


def _value(part, values):
    return part.value if isinstance(part, StrConst) else values[part]


def bounded_model(definitions, literals):
    """Some assignment of words of length ≤ 3 to the base variables
    satisfying every literal (defined variables computed from their
    definitions), or ``None``."""
    for words in itertools.product(WORDS, repeat=len(BASES)):
        values = dict(zip(BASES, words))
        for var in DEFINED:
            values[var] = "".join(_value(p, values) for p in definitions[var])
        if all(_satisfied(literal, values) for literal in literals):
            return values
    return None


def _satisfied(literal, values):
    if literal[0] == "eq":
        _, var, parts = literal
        return values[var] == "".join(_value(p, values) for p in parts)
    _, var, src, positive = literal
    return (_fullmatch(src)(values[var]) is not None) == positive


@functools.lru_cache(maxsize=None)
def _fullmatch(src):
    return re.compile(src).fullmatch


def test_refutations_have_no_bounded_model():
    rng = random.Random(20190622)
    refuted = 0
    for _ in range(300):
        formula, definitions, literals = random_core(rng)
        result = Solver(timeout=2.0, round_limits=(12,)).solve(formula)
        if result.concat_refuted:
            refuted += 1
            model = bounded_model(definitions, literals)
            assert model is None, (formula, model)
    # The generator exercises the rule, not just the search.
    assert refuted >= 60
