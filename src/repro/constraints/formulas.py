"""Boolean formulas over string atoms.

Atoms are (dis)equalities between terms and (non-)membership of a term in
a classical regular language (given as a purely regular regex AST node,
compiled to automata on demand).  Structure is And/Or/Not/Implies.

The paper's models (Tables 2–3) and the CEGAR refinements (Algorithm 1)
are all expressible in this language, which corresponds to the fragment
of SMT string theories the paper sends to Z3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.regex import ast as regex_ast
from repro.constraints.terms import StrConst, Term, Undef


class Formula:
    """Base class for formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolLit(Formula):
    value: bool

    def __repr__(self) -> str:
        return "⊤" if self.value else "⊥b"


TRUE = BoolLit(True)
FALSE = BoolLit(False)


@dataclass(frozen=True)
class Eq(Formula):
    """``left = right`` — equal values, with ⊥ = ⊥ being true."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"({self.left!r} = {self.right!r})"


@dataclass(frozen=True)
class InRe(Formula):
    """``term ∈ L(regex)`` for a purely regular ``regex`` AST node."""

    term: Term
    regex: regex_ast.Node

    def __repr__(self) -> str:
        from repro.regex.unparse import unparse

        return f"({self.term!r} ∈ L({unparse(self.regex)}))"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __repr__(self) -> str:
        return f"¬{self.operand!r}"


@dataclass(frozen=True)
class And(Formula):
    operands: Tuple[Formula, ...]
    #: Set on the ``And``/``Or`` nodes :func:`to_nnf` returns.  Not a
    #: field: ``==``, ``hash``, ``repr`` and the printers ignore it.
    _nnf = False

    def __repr__(self) -> str:
        return "(" + " ∧ ".join(map(repr, self.operands)) + ")"


@dataclass(frozen=True)
class Or(Formula):
    operands: Tuple[Formula, ...]
    _nnf = False  # see And._nnf

    def __repr__(self) -> str:
        return "(" + " ∨ ".join(map(repr, self.operands)) + ")"


@dataclass(frozen=True)
class Implies(Formula):
    antecedent: Formula
    consequent: Formula

    def __repr__(self) -> str:
        return f"({self.antecedent!r} ⟹ {self.consequent!r})"


# -- smart constructors ------------------------------------------------------


# The constructors test literals by type: ``op == TRUE`` would dispatch
# to a dataclass ``__eq__`` (twice, for a non-literal) per operand.


def conj(operands: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, And):
            flat.extend(op.operands)
        elif isinstance(op, BoolLit):
            if not op.value:
                return FALSE
        else:
            flat.append(op)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(operands: Iterable[Formula]) -> Formula:
    flat: list[Formula] = []
    for op in operands:
        if isinstance(op, Or):
            flat.extend(op.operands)
        elif isinstance(op, BoolLit):
            if op.value:
                return TRUE
        else:
            flat.append(op)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(operand: Formula) -> Formula:
    if isinstance(operand, BoolLit):
        return BoolLit(not operand.value)
    if isinstance(operand, Not):
        return operand.operand
    return Not(operand)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    if antecedent == TRUE:
        return consequent
    if antecedent == FALSE or consequent == TRUE:
        return TRUE
    return Implies(antecedent, consequent)


def is_undef(term: Term) -> Formula:
    return Eq(term, Undef())


def is_defined(term: Term) -> Formula:
    return Not(Eq(term, Undef()))


def eq_str(term: Term, value: str) -> Formula:
    return Eq(term, StrConst(value))


def to_nnf(formula: Formula, negate: bool = False) -> Formula:
    """Negation normal form; negations end up only on atoms.

    Every ``And``/``Or`` of the result is marked as normalised, and a
    marked formula comes back unchanged unless it is negated.  A formula
    built around an earlier result, such as a shared match formula
    conjoined with one more atom, therefore normalises in time
    proportional to its new operands, not to the whole tree.
    """
    if isinstance(formula, BoolLit):
        return BoolLit(formula.value != negate)
    if isinstance(formula, (Eq, InRe)):
        return Not(formula) if negate else formula
    if isinstance(formula, Not):
        return to_nnf(formula.operand, not negate)
    if isinstance(formula, And):
        if formula._nnf and not negate:
            return formula
        parts = tuple(to_nnf(op, negate) for op in formula.operands)
        return _mark_nnf(disj(parts) if negate else conj(parts))
    if isinstance(formula, Or):
        if formula._nnf and not negate:
            return formula
        parts = tuple(to_nnf(op, negate) for op in formula.operands)
        return _mark_nnf(conj(parts) if negate else disj(parts))
    if isinstance(formula, Implies):
        # a ⟹ b  ≡  ¬a ∨ b
        return to_nnf(
            disj((neg(formula.antecedent), formula.consequent)), negate
        )
    raise TypeError(f"unknown formula {formula!r}")


def _mark_nnf(formula: Formula) -> Formula:
    if isinstance(formula, (And, Or)):
        object.__setattr__(formula, "_nnf", True)
    return formula


def formula_size(formula: Formula) -> int:
    """Node count — used for solver budgeting and stats."""
    if isinstance(formula, (BoolLit, Eq, InRe)):
        return 1
    if isinstance(formula, Not):
        return 1 + formula_size(formula.operand)
    if isinstance(formula, (And, Or)):
        return 1 + sum(formula_size(op) for op in formula.operands)
    if isinstance(formula, Implies):
        return 1 + formula_size(formula.antecedent) + formula_size(
            formula.consequent
        )
    raise TypeError(f"unknown formula {formula!r}")
