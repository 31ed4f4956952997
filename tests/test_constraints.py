"""Unit tests for the constraint language: terms, formulas, NNF, printer."""

import pytest

from repro.constraints import (
    And,
    Concat,
    Eq,
    FALSE,
    Implies,
    InRe,
    Not,
    Or,
    StrConst,
    StrVar,
    TRUE,
    Undef,
    concat,
    conj,
    disj,
    eq_str,
    formula_size,
    fresh_var,
    implies,
    is_defined,
    is_undef,
    neg,
    to_nnf,
    variables_of,
)
from repro.constraints.printer import canonical_fingerprint, to_smtlib
from repro.regex import parse_regex

x, y, z = StrVar("x"), StrVar("y"), StrVar("z")


class TestTerms:
    def test_concat_flattens(self):
        term = concat(x, concat(y, z))
        assert isinstance(term, Concat) and len(term.parts) == 3

    def test_concat_folds_constants(self):
        term = concat(StrConst("a"), StrConst("b"), x)
        assert term.parts[0] == StrConst("ab")

    def test_concat_drops_empty(self):
        assert concat(StrConst(""), x) == x
        assert concat(StrConst(""), StrConst("")) == StrConst("")

    def test_plus_operator(self):
        assert (x + y) == concat(x, y)

    def test_variables_of(self):
        assert variables_of(concat(x, StrConst("k"), y)) == {x, y}
        assert variables_of(StrConst("k")) == frozenset()

    def test_fresh_vars_are_distinct(self):
        assert fresh_var("t") != fresh_var("t")


class TestSmartConstructors:
    def test_conj_flattening_and_units(self):
        assert conj([TRUE, Eq(x, y)]) == Eq(x, y)
        assert conj([FALSE, Eq(x, y)]) == FALSE
        inner = And((Eq(x, y), Eq(y, z)))
        assert len(conj([inner, Eq(x, z)]).operands) == 3

    def test_disj_flattening_and_units(self):
        assert disj([FALSE, Eq(x, y)]) == Eq(x, y)
        assert disj([TRUE, Eq(x, y)]) == TRUE

    def test_neg_involution(self):
        phi = Eq(x, y)
        assert neg(neg(phi)) == phi
        assert neg(TRUE) == FALSE

    def test_implies_shortcuts(self):
        assert implies(TRUE, Eq(x, y)) == Eq(x, y)
        assert implies(FALSE, Eq(x, y)) == TRUE

    def test_undef_helpers(self):
        assert is_undef(x) == Eq(x, Undef())
        assert is_defined(x) == Not(Eq(x, Undef()))
        assert eq_str(x, "v") == Eq(x, StrConst("v"))


class TestNNF:
    def test_pushes_negation_through_and(self):
        phi = Not(And((Eq(x, y), Eq(y, z))))
        nnf = to_nnf(phi)
        assert isinstance(nnf, Or)
        assert all(isinstance(op, Not) for op in nnf.operands)

    def test_pushes_negation_through_or(self):
        phi = Not(Or((Eq(x, y), Eq(y, z))))
        nnf = to_nnf(phi)
        assert isinstance(nnf, And)

    def test_implication_eliminated(self):
        phi = Implies(Eq(x, y), Eq(y, z))
        nnf = to_nnf(phi)
        assert isinstance(nnf, Or)

    def test_double_negation_removed(self):
        phi = Not(Not(Eq(x, y)))
        assert to_nnf(phi) == Eq(x, y)

    def test_atoms_keep_polarity(self):
        node = parse_regex("a+").body
        phi = Not(InRe(x, node))
        assert to_nnf(phi) == Not(InRe(x, node))

    def test_formula_size(self):
        assert formula_size(Eq(x, y)) == 1
        assert formula_size(And((Eq(x, y), Eq(y, z)))) == 3


def _rebuilt(formula):
    """A structurally equal copy whose ``And``/``Or`` nodes are new."""
    if isinstance(formula, And):
        return And(tuple(map(_rebuilt, formula.operands)))
    if isinstance(formula, Or):
        return Or(tuple(map(_rebuilt, formula.operands)))
    if isinstance(formula, Not):
        return Not(_rebuilt(formula.operand))
    return formula


class TestNNFMark:
    """``to_nnf`` marks what it returns and passes marked formulas through."""

    phi = And(
        (
            Implies(Eq(x, y), Or((Eq(y, z), Not(And((Eq(x, z), TRUE)))))),
            Not(Or((InRe(x, parse_regex("a+").body), Eq(z, Undef())))),
            Eq(x, StrConst("k")),
        )
    )

    def test_idempotent_by_identity(self):
        nnf = to_nnf(self.phi)
        assert nnf._nnf and nnf == to_nnf(_rebuilt(nnf))
        assert to_nnf(nnf) is nnf

    def test_marked_subtree_is_not_rewalked(self):
        nnf = to_nnf(self.phi)
        pinned = to_nnf(conj([nnf, Eq(y, StrConst("w"))]))
        assert pinned == to_nnf(conj([self.phi, Eq(y, StrConst("w"))]))
        shared = [
            (a, b)
            for a, b in zip(pinned.operands, nnf.operands)
            if isinstance(b, (And, Or))
        ]
        assert shared and all(a is b for a, b in shared)

    def test_negating_a_marked_formula(self):
        nnf = to_nnf(self.phi)
        assert to_nnf(nnf, negate=True) == to_nnf(Not(self.phi))

    def test_mark_is_invisible(self):
        marked = to_nnf(self.phi)
        plain = _rebuilt(marked)
        assert not plain._nnf
        assert marked == plain and hash(marked) == hash(plain)
        assert repr(marked) == repr(plain)
        assert to_smtlib(marked) == to_smtlib(plain)
        assert canonical_fingerprint(marked)[0] == (
            canonical_fingerprint(plain)[0]
        )

    def test_pickle_round_trip(self):
        import pickle

        marked = to_nnf(self.phi)
        for formula in (marked, _rebuilt(marked)):
            copy = pickle.loads(pickle.dumps(formula))
            assert copy == formula and hash(copy) == hash(formula)
            assert copy._nnf == formula._nnf


class TestSmtlibPrinter:
    def test_simple_equality(self):
        script = to_smtlib(Eq(x, StrConst("ab")))
        assert '(assert (= x "ab"))' in script
        assert "(declare-const x String)" in script
        assert "(check-sat)" in script

    def test_concat(self):
        body = to_smtlib(Eq(z, concat(x, y)), declare=False)
        assert body == "(= z (str.++ x y))"

    def test_membership(self):
        node = parse_regex("ab*").body
        body = to_smtlib(InRe(x, node), declare=False)
        assert "str.in_re" in body and "re.*" in body

    def test_character_class(self):
        node = parse_regex("[a-c]").body
        body = to_smtlib(InRe(x, node), declare=False)
        assert 're.range "a" "c"' in body

    def test_undef_equality(self):
        body = to_smtlib(Eq(x, Undef()), declare=False)
        assert body == "(not x.def)"

    def test_var_var_equality_carries_definedness(self):
        body = to_smtlib(Eq(x, y), declare=False)
        assert "x.def" in body and "y.def" in body

    def test_boolean_structure(self):
        phi = implies(Eq(x, StrConst("a")), disj([Eq(y, z), FALSE]))
        body = to_smtlib(phi, declare=False)
        assert body.startswith("(=>")

    def test_string_escaping(self):
        body = to_smtlib(Eq(x, StrConst('say "hi"\n')), declare=False)
        assert '""hi""' in body and "\\u{a}" in body

    def test_quantifier_loops(self):
        node = parse_regex("a{2,4}").body
        body = to_smtlib(InRe(x, node), declare=False)
        assert "re.loop 2 4" in body

    def test_symbol_quoting(self):
        weird = StrVar("C0!7")
        body = to_smtlib(Eq(weird, StrConst("v")), declare=False)
        assert "|C0!7|" in body


class TestStrVarHash:
    """``StrVar`` caches its hash; it must stay the dataclass hash and
    never travel in a pickle."""

    def test_hash_is_the_dataclass_hash(self):
        assert hash(StrVar("x")) == hash(("x",))
        assert {StrVar("x"): 1}[StrVar("x")] == 1

    def test_pickle_from_another_hash_seed(self):
        import os
        import pickle
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        dumped = subprocess.run(
            [sys.executable, "-c",
             "import pickle, sys; from repro.constraints import StrVar; "
             "sys.stdout.buffer.write(pickle.dumps([StrVar('seg!1')]))"],
            env=dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=src),
            capture_output=True, check=True,
        ).stdout
        [var] = pickle.loads(dumped)
        assert var == StrVar("seg!1")
        assert hash(var) == hash(("seg!1",))
        assert {StrVar("seg!1"): True}[var]
