"""DPLL-style core enumeration: a refuted partial conjunction prunes every
core that extends it (``repro.solver.core._enumerate_cores``).

Pruning turns a search that ran into its timeout into an UNSAT, so it
must be sound.  Besides the harvested shapes it was built for, the
tests pin the deadline rule (past the deadline the enumerator keeps
yielding, so the query ends UNKNOWN, never UNSAT) and cross-check the
pruned enumeration on seeded formulas against a reference enumerator of
the full DNF product, a bounded enumeration with Python's ``re`` and
the concrete ES6 matcher.
"""

import itertools
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.constraints import (
    And, Eq, Not, Or, StrConst, StrVar, UNDEF, Undef, concat, conj,
)
from repro.constraints.formulas import BoolLit, to_nnf
from repro.conformance import generate_pairs
from repro.model.api import SymbolicRegExp
from repro.regex.matcher import RegExp
from repro.solver import SAT, Solver, UNSAT
from repro.solver import core as solver_core
from repro.solver.stats import SolverStats

from test_concat_refutation import (
    BASES,
    DEFINED,
    REGEXES,
    WORDS,
    _fullmatch,
    _random_parts,
    member,
)


def pinned(pattern, flags, word):
    """The differential oracle's query: the exec model of ``pattern``
    with its input pinned to ``word`` (SAT iff the model says the word
    matches)."""
    var = StrVar("input")
    model = SymbolicRegExp(pattern, flags).exec_model(var)
    return conj([model.match_formula, Eq(var, StrConst(word))])


def pinned_words(pattern, flags, words):
    """:func:`pinned` for several words, sharing one model as the oracle
    does: the formulas differ only in their last literal."""
    var = StrVar("input")
    model = to_nnf(SymbolicRegExp(pattern, flags).exec_model(var).match_formula)
    return [to_nnf(conj([model, Eq(var, StrConst(word))])) for word in words]


def full_dnf(nnf):
    """Reference enumerator: every branch of the DNF product, in order
    (the enumeration before pruning)."""
    if isinstance(nnf, And):
        def product(operands):
            if not operands:
                yield []
                return
            for head in full_dnf(operands[0]):
                for tail in product(operands[1:]):
                    yield head + tail

        yield from product(nnf.operands)
    elif isinstance(nnf, Or):
        for option in nnf.operands:
            yield from full_dnf(option)
    elif isinstance(nnf, BoolLit):
        if nnf.value:
            yield []
    else:
        yield [nnf]


def reference_solve(monkeypatch, formula, **options):
    """Solve with the full DNF product instead of pruned enumeration."""
    with monkeypatch.context() as patched:
        patched.setattr(
            solver_core, "_enumerate_cores",
            lambda nnf, refuted: full_dnf(nnf),
        )
        return Solver(**options).solve(formula)


# -- harvested fuzz shapes -----------------------------------------------------

#: Pinned oracle queries that ran into the 0.1 s fuzz timeout while
#: their cores were refuted one at a time.
HARVESTED = [
    # >100,000 cores; the top-level literals alone are refuted.
    (r"ca{2}(?!(?<g0>\1+?|q{0,2}a).|c{1,3}){1,3}", "y", "1-0a"),
    # Every '^' option needs a line start the pinned word lacks.
    (r"1b(?<g0>^[a-c]*?)+", "im", " a11b"),
]


@pytest.mark.parametrize("pattern, flags, word", HARVESTED)
def test_harvested_shapes_are_refuted_within_the_fuzz_timeout(
    pattern, flags, word
):
    assert RegExp(pattern, flags).exec(word) is None
    stats = SolverStats()
    result = Solver(timeout=0.1, stats=stats).solve(
        pinned(pattern, flags, word)
    )
    assert result.status == UNSAT
    assert result.prefixes_refuted > 0
    record = stats.queries[-1]
    assert record.prefixes_refuted == result.prefixes_refuted
    assert record.cores_tried == result.cores_tried


def test_top_level_refutation_solves_no_core():
    pattern, flags, word = HARVESTED[0]
    result = Solver(timeout=0.1).solve(pinned(pattern, flags, word))
    assert result.cores_tried == 0
    assert result.prefixes_refuted == 1


# -- the deadline --------------------------------------------------------------

#: The concrete matcher matches the word, so UNSAT would be a real
#: disagreement.  Its first SAT core comes after refuted prefixes.
DEADLINE_CASE = (
    r"(?=\sq1?|\b)1|((c){0,2}|b?(?:q|[^a]*))*?(?<g0>c*(?:\2)*)",
    "giu",
    "g.2.0x ",
)


def test_deadline_case_is_satisfiable():
    pattern, flags, word = DEADLINE_CASE
    assert RegExp(pattern, flags).exec(word) is not None
    result = Solver(timeout=20.0).solve(pinned(pattern, flags, word))
    assert result.status == SAT
    assert result.prefixes_refuted > 0


@pytest.mark.parametrize("jump_after", [1, 2, 5, 20, 60, 150, 400])
def test_passing_the_deadline_mid_enumeration_is_never_unsat(
    monkeypatch, jump_after
):
    # The clock jumps an hour ahead after ``jump_after`` reads: the
    # deadline passes at a different point of the enumeration each
    # time (in a prefix check, between cores, inside a core's search).
    formula = pinned(*DEADLINE_CASE)
    real = time.monotonic
    reads = itertools.count()

    def clock():
        return real() + (3600.0 if next(reads) >= jump_after else 0.0)

    monkeypatch.setattr(time, "monotonic", clock)
    result = Solver(timeout=20.0).solve(formula)
    assert result.status != UNSAT


# -- the enumeration itself ----------------------------------------------------

def _cores(formula, refuted):
    return list(solver_core._enumerate_cores(to_nnf(formula), refuted))


def test_without_refutations_cores_match_the_full_product():
    for pattern, flags, word in HARVESTED[1:] + [DEADLINE_CASE]:
        formula = pinned(pattern, flags, word)
        assert _cores(formula, lambda *_: False) == list(
            full_dnf(to_nnf(formula))
        )


def test_refuted_prefix_prunes_exactly_its_extensions():
    x = StrVar("x")
    lit = {name: member(x, name) for name in ("a", "b", "c", "d")}
    formula = conj([
        Or([lit["a"], lit["b"]]),
        Or([lit["c"], lit["d"]]),
    ])
    judged = []

    def refuted(choices, literals):
        judged.append(literals)
        return literals == [lit["a"]]

    assert _cores(formula, refuted) == [
        [lit["b"], lit["c"]],
        [lit["b"], lit["d"]],
    ]
    # Only partial conjunctions with disjunctions left are judged.
    assert judged == [[lit["a"]], [lit["b"]]]


def test_false_option_and_true_formula():
    x = StrVar("x")
    a = member(x, "a")
    assert _cores(conj([a, Or([BoolLit(False), a])]), lambda *_: False) == [
        [a, a]
    ]
    assert _cores(BoolLit(True), lambda *_: True) == [[]]
    assert _cores(BoolLit(False), lambda *_: False) == []


# -- ⊥ inside a negated membership -----------------------------------------------

x, y = StrVar("x"), StrVar("y")


def outside_everything(*parts):
    """``p1 ++ … ++ pn ∉ L([^]*)``: true only when a part is ⊥."""
    return member(concat(*parts), "[^]*", positive=False)


def test_negated_membership_with_an_undef_part_is_satisfiable():
    formula = conj([Eq(y, Undef()), outside_everything(x, y)])
    result = Solver(timeout=2.0).solve(formula)
    assert result.status == SAT
    assert result.model[y] is UNDEF


def test_prefix_without_the_undef_binding_is_not_refuted():
    # After choosing ``x ∈ L(a)`` the prefix has no ``y = ⊥`` yet: ``y``
    # may still be ⊥, so the prefix must survive.
    formula = conj([
        outside_everything(x, y),
        Or((member(x, "a"), member(x, "b"))),
        Or((Eq(y, Undef()), member(y, "a"))),
    ])
    result = Solver(timeout=2.0).solve(formula)
    assert result.status == SAT
    assert result.prefixes_refuted == 0


def test_negated_membership_of_string_parts_is_refuted():
    # ``y ∈ L(a)`` makes ``y`` a string, so nothing escapes ``[^]*``.
    formula = conj([
        outside_everything(x, y),
        member(x, "a"),
        member(y, "a"),
    ])
    assert Solver(timeout=2.0).solve(formula).status == UNSAT


def test_a_free_variable_outside_every_language_is_undef():
    # Nothing makes ``y`` a string, and ⊥ is in no language.
    for formula in (
        outside_everything(y),
        conj([member(y, "[^]+", positive=False), Not(Eq(y, StrConst("")))]),
    ):
        result = Solver(timeout=2.0).solve(formula)
        assert result.status == SAT, formula
        assert result.model[y] is UNDEF


def test_a_variable_in_a_concatenation_is_never_undef():
    formula = conj([
        outside_everything(y), Eq(x, concat(y, StrConst("a"))),
    ])
    assert Solver(timeout=2.0).solve(formula).status == UNSAT


# -- what concat_refuted counts ----------------------------------------------------

def test_concat_refuted_counts_cores_and_prefixes():
    outside = [outside_everything(x, y), member(x, "a"), member(y, "a")]
    leaf = Solver(timeout=2.0).solve(conj(outside))
    assert (leaf.cores_tried, leaf.prefixes_refuted) == (1, 0)
    assert leaf.concat_refuted == 1
    # The same literals ahead of two disjunctions: the top-level prefix
    # is refuted by concatenation, and no core is solved.
    choice = Or((member(x, "a"), member(x, "aa")))
    prefix = Solver(timeout=2.0).solve(conj(outside + [choice, choice]))
    assert (prefix.cores_tried, prefix.prefixes_refuted) == (0, 1)
    assert prefix.concat_refuted == 1


# -- seeded cross-check ----------------------------------------------------------

#: A regex whose complement is empty: ``p1 ++ … ++ pn ∉`` it holds
#: only when a part is ⊥.
SIGMA_STAR = r"[\s\S]*"


def _random_literal(rng):
    """A split ``("eq", var, parts)``, a ⊥ binding ``("undef", var)`` or
    a membership ``("in", parts, regex, positive)`` of a variable or a
    concatenation."""
    if rng.random() < 0.1:
        return ("undef", rng.choice(BASES))
    if rng.random() < 0.3:
        return ("eq", rng.choice(BASES + DEFINED), _random_parts(rng, BASES))
    if rng.random() < 0.3:
        parts = _random_parts(rng, BASES + DEFINED)
    else:
        parts = [rng.choice(BASES + DEFINED)]
    positive = rng.random() < 0.7
    if not positive and len(parts) > 1 and rng.random() < 0.5:
        return ("in", parts, SIGMA_STAR, positive)
    return ("in", parts, rng.choice(REGEXES + [SIGMA_STAR]), positive)


def _random_conjuncts(rng, depth):
    """Conjuncts of a random formula: literals, and disjunctions whose
    options are conjunctions (nested once)."""
    conjuncts = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.random() < 0.6:
            conjuncts.append(("or", [
                ("and", _random_conjuncts(rng, depth + 1))
                for _ in range(rng.randint(2, 3))
            ]))
        else:
            conjuncts.append(_random_literal(rng))
    return conjuncts


def random_formula(rng, definitions_last=False):
    """``(formula, definitions, tree)``: definitions of ``x*`` over the
    base variables (as in ``test_concat_refutation``) conjoined with a
    random and/or tree of splits, ⊥ bindings and memberships.  With
    ``definitions_last`` the definitions follow the tree, so a core
    ingests them after the memberships its choices took."""
    definitions = {}
    units = []
    for i, var in enumerate(DEFINED):
        # The last base variable stays out of every definition, so it
        # may be ⊥.
        parts = _random_parts(rng, BASES[:-1] + DEFINED[:i])
        definitions[var] = parts
        units.append(("eq", var, parts))
    conjuncts = _random_conjuncts(rng, 0)
    if definitions_last:
        tree = ("and", conjuncts + units)
    else:
        tree = ("and", units + conjuncts)
    return _to_formula(tree), definitions, tree


def _to_formula(node):
    if node[0] in ("and", "or"):
        children = [_to_formula(child) for child in node[1]]
        return conj(children) if node[0] == "and" else Or(tuple(children))
    if node[0] == "eq":
        return Eq(node[1], concat(*node[2]))
    if node[0] == "undef":
        return Eq(node[1], Undef())
    _, parts, src, positive = node
    return member(concat(*parts), src, positive)


def _holds(node, values):
    kind = node[0]
    if kind == "and":
        return all(_holds(child, values) for child in node[1])
    if kind == "or":
        return any(_holds(child, values) for child in node[1])
    if kind == "eq":
        word = _word(node[2], values)
        return word is not None and values[node[1]] == word
    if kind == "undef":
        return values[node[1]] is UNDEF
    _, parts, src, positive = node
    word = _word(parts, values)
    # A membership of ⊥, or of a concatenation with a ⊥ part, is false.
    member = word is not None and _fullmatch(src)(word) is not None
    return member == positive


def _word(parts, values):
    """The value of ``parts`` (a single part may be ⊥), or ``None`` when
    a ⊥ part leaves their concatenation undefined."""
    pieces = [
        p.value if isinstance(p, StrConst) else values[p] for p in parts
    ]
    if len(pieces) == 1:
        return pieces[0]
    if UNDEF in pieces:
        return None
    return "".join(pieces)


def bounded_model(definitions, tree):
    """Words of length ≤ 3 or ⊥ for the base variables satisfying
    ``tree`` (defined variables computed from their definitions), or
    ``None``."""
    for words in itertools.product(WORDS + [UNDEF], repeat=len(BASES)):
        values = dict(zip(BASES, words))
        for var in DEFINED:
            values[var] = _word(definitions[var], values)
        if _holds(tree, values):
            return values
    return None


def _cross_check(monkeypatch, formula, **options):
    """Pruned vs full enumeration on ``formula``: never contradictory,
    and every SAT model really satisfies the formula."""
    pruned = Solver(**options).solve(formula)
    reference = reference_solve(monkeypatch, formula, **options)
    assert {pruned.status, reference.status} != {SAT, UNSAT}, formula
    for result in (pruned, reference):
        if result.status == SAT:
            assert solver_core._holds(to_nnf(formula), result.model)
    return pruned


def test_pruning_agrees_with_full_enumeration_and_bounded_models(
    monkeypatch,
):
    rng = random.Random(20190622)
    pruning = 0
    for _ in range(300):
        formula, definitions, tree = random_formula(rng)
        result = _cross_check(
            monkeypatch, formula, timeout=2.0, round_limits=(12,)
        )
        pruning += result.prefixes_refuted > 0
        if result.status == UNSAT:
            model = bounded_model(definitions, tree)
            assert model is None, (formula, model)
    # The generator exercises pruning, not just leaf refutation.
    assert pruning >= 30


def test_pruning_agrees_on_pinned_fuzz_formulas(monkeypatch):
    checked = pruning = 0
    for pair in generate_pairs(12, 1909):
        try:
            RegExp(pair.pattern, pair.flags)
            formulas = [
                (word, pinned(pair.pattern, pair.flags, word))
                for word in pair.inputs
            ]
        except Exception:
            continue  # outside the modelled fragment
        for word, formula in formulas:
            result = _cross_check(monkeypatch, formula, timeout=0.2)
            checked += 1
            pruning += result.prefixes_refuted > 0
            if result.status == UNSAT:
                # The pinned formula over-approximates matching.
                assert RegExp(pair.pattern, pair.flags).exec(word) is None
    assert checked >= 30
    assert pruning >= 1


# -- observability ---------------------------------------------------------------

@pytest.mark.parametrize("level", ["CAPTURES", "REFINED"])
def test_dse_query_records_carry_the_work_counters(level):
    # The raw solve (lower levels) and the CEGAR loop (REFINED) both sum
    # the solver's counters into the query records the engine keeps.
    from repro.dse import DseEngine, EngineConfig
    from repro.dse.interpreter import RegexSupportLevel

    source = """
    var s = symbol("input", "abc");
    var m = /^(\\w+)-(\\d+)$/.exec(s);
    if (m) {
      if (m[2] == "42") {
        assert(false, "reached");
      }
    }
    """
    config = EngineConfig(
        level=RegexSupportLevel[level], max_tests=6, solver_timeout=2.0
    )
    records = DseEngine(source, config).run().stats.queries
    assert records
    assert sum(record.cores_tried for record in records) > 0
    assert sum(record.candidates_tried for record in records) > 0


# -- the incremental core ----------------------------------------------------------

def core_state(core):
    """Everything a core's verdicts and searches read, as text: the
    union-find, the classes in order (merged ones too), the checks,
    splits and disequalities, and the ingested literals.  Bridge
    variables get fresh names from a global counter, so they are
    renamed by first appearance."""
    def class_state(cls):
        return (
            cls.rep, cls.merged, cls.members, cls.const, cls.undef,
            [id(regex) for regex in cls.pos_regexes],
            [id(regex) for regex in cls.neg_regexes],
            cls.definition, sorted(cls.excluded), sorted(cls.hints),
            [id(dfa) for dfa in cls.extra_dfas],
            [user.rep for user in cls.users],
        )

    text = repr((
        list(core.parent.items()),
        [(rep, class_state(cls)) for rep, cls in core.classes.items()],
        core.checks, core.neqs, core.splits,
        [id(literal) for literal in core.literals], core._conflict,
    ))
    names = {}
    return re.sub(
        r"\beq!\d+",
        lambda match: names.setdefault(match.group(), f"eq#{len(names)}"),
        text,
    )


def fresh_state(solver, literals):
    core = solver_core._Core(solver)
    core._load(literals)
    return core_state(core)


def cross_checked_cores(monkeypatch):
    """Make every core judge each conjunction twice, incrementally and
    on a new core, and compare its state after every backtrack, and
    after every verdict, with a new core's intake of the same literals.
    Returns the tally of the comparisons made."""
    real_refuted = solver_core._Core.refuted
    real_solve = solver_core._Core.solve
    real_backtrack = solver_core._Core._backtrack
    tally = {"prefixes": 0, "leaves": 0, "backtracks": 0}

    def fresh_verdict(solver, literals):
        core = solver_core._Core(solver)
        return real_refuted(core, literals), core.concat_refuted

    def refuted(self, literals):
        verdict = real_refuted(self, literals)
        assert (verdict, self.concat_refuted) == fresh_verdict(
            self.solver, literals
        ), literals
        assert core_state(self) == fresh_state(self.solver, self.literals)
        tally["prefixes"] += 1
        return verdict

    def solve(self, literals, deadline, limit):
        result = real_solve(self, literals, deadline, limit)
        assert (
            self.structurally_refuted, self.concat_refuted
        ) == fresh_verdict(self.solver, literals), literals
        assert core_state(self) == fresh_state(self.solver, self.literals)
        tally["leaves"] += 1
        return result

    def backtrack(self, keep):
        real_backtrack(self, keep)
        assert core_state(self) == fresh_state(self.solver, self.literals)
        tally["backtracks"] += 1

    monkeypatch.setattr(solver_core._Core, "refuted", refuted)
    monkeypatch.setattr(solver_core._Core, "solve", solve)
    monkeypatch.setattr(solver_core._Core, "_backtrack", backtrack)
    return tally


def test_incremental_verdicts_equal_fresh_cores_on_the_seeded_corpus(
    monkeypatch,
):
    tally = cross_checked_cores(monkeypatch)
    rng = random.Random(20190622)
    solver = Solver(timeout=2.0, round_limits=(12,))
    for _ in range(300):
        formula, _, _ = random_formula(rng)
        solver.solve(formula)
    assert tally["prefixes"] >= 300
    assert tally["leaves"] >= 300
    assert tally["backtracks"] >= 300


def test_a_definition_after_a_choice_sees_the_chosen_membership(
    monkeypatch,
):
    # ``c = x ++ y`` is ingested after the choice for ``x``, so what is
    # known of ``c`` differs between the options: under ``x ∈ L(a)``
    # the membership of ``c ++ z`` is refuted, under ``x ∈ L(b)`` it is
    # not.
    tally = cross_checked_cores(monkeypatch)
    c, z = StrVar("c"), StrVar("z")
    head = [member(concat(c, z), "b"), Or((member(x, "a"), member(x, "b")))]
    definition = Eq(c, concat(x, y))
    one_choice = conj(head + [definition])
    two_choices = conj(head + [Or((member(z, "a"), member(z, ""))), definition])
    solver = Solver(timeout=2.0)
    for formula in (one_choice, two_choices):
        result = solver.solve(formula)
        assert result.status == SAT
        assert (result.model[x], result.model[y]) == ("b", "")
    assert tally["leaves"] >= 4


def test_incremental_verdicts_equal_fresh_cores_when_definitions_follow_choices(
    monkeypatch,
):
    tally = cross_checked_cores(monkeypatch)
    rng = random.Random(1909)
    solver = Solver(timeout=2.0, round_limits=(12,))
    for _ in range(300):
        formula, definitions, tree = random_formula(rng, definitions_last=True)
        if solver.solve(formula).status == UNSAT:
            model = bounded_model(definitions, tree)
            assert model is None, (formula, model)
    assert tally["prefixes"] >= 300
    assert tally["leaves"] >= 300
    assert tally["backtracks"] >= 300


def test_incremental_verdicts_equal_fresh_cores_on_pinned_fuzz_formulas(
    monkeypatch,
):
    tally = cross_checked_cores(monkeypatch)
    # One solver for every query, as in the oracle: the words of a
    # pattern start from the previous word's state.
    solver = Solver(timeout=0.5)  # leaves the deepening rounds a budget
    for pair in generate_pairs(12, 1909):
        try:
            RegExp(pair.pattern, pair.flags)
            formulas = pinned_words(pair.pattern, pair.flags, pair.inputs)
        except Exception:
            continue  # outside the modelled fragment
        for formula in formulas:
            solver.solve(formula)
    assert tally["prefixes"] >= 100
    assert tally["leaves"] >= 30
    assert tally["backtracks"] >= 100


def test_queries_sharing_literals_share_their_intake():
    pattern, flags = r"(a|b)+c(?!\d)", ""
    words = ["abc", "ab", "bbc", "abc1"]
    shared = Solver(timeout=5.0)
    statuses, ingested = [], []
    for formula in pinned_words(pattern, flags, words):
        fresh = Solver(timeout=5.0).solve(formula)
        reused = shared.solve(formula)
        assert (reused.status, reused.prefixes_refuted) == (
            fresh.status, fresh.prefixes_refuted
        )
        statuses.append(reused.status)
        ingested.append((reused.literals_ingested, fresh.literals_ingested))
    assert statuses == [SAT, UNSAT, SAT, UNSAT]
    assert ingested[0][0] == ingested[0][1]
    # From the second word on, the shared literals stay ingested.
    assert all(reused < fresh for reused, fresh in ingested[1:])
    # A formula sharing no literal starts over with empty memo tables.
    shared.solve(conj([member(x, "a"), member(x, "b")]))
    assert shared._cores[-1].memo_size() < 10


def test_concurrent_queries_on_one_solver_do_not_share_a_core():
    formulas = pinned_words(r"(a|b)+c(?!\d)", "", ["abc", "ab", "bbc", "abc1"])
    expected = [Solver(timeout=5.0).solve(f).status for f in formulas]
    shared = Solver(timeout=5.0)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the queries' bytecodes
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            statuses = list(pool.map(
                lambda formula: shared.solve(formula).status, formulas * 5
            ))
    finally:
        sys.setswitchinterval(switch)
    assert statuses == expected * 5


def test_leaves_refuted_structurally_are_not_solved_again():
    # The leaf of ``outside`` is refuted by concatenation in round 0.
    # The satisfiable leaf next to it needs a deeper round, which skips
    # the refuted one; its literals are still ingested, so it re-ingests
    # none.
    solves = []
    real_solve = solver_core._Core.solve

    def counting(self, literals, deadline, limit):
        solves.append(limit)
        return real_solve(self, literals, deadline, limit)

    z = StrVar("z")
    outside = conj([outside_everything(x, y), member(x, "a"), member(y, "a")])
    deep = conj([member(z, "[a-c]{3}"), member(concat(z, z), "(cba){2}")])
    stats = SolverStats()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(solver_core._Core, "solve", counting)
        result = Solver(timeout=5.0, round_limits=(1, 80), stats=stats).solve(
            Or((outside, deep))
        )
    assert result.status == SAT
    assert solves == [1, 1, 80]
    assert result.cores_tried == 4  # the skipped leaf still counts
    assert result.literals_ingested == 5
    assert stats.queries[-1].literals_ingested == 5
