"""Satisfying assignments produced by the string solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.constraints.terms import (
    Concat,
    StrConst,
    StrVar,
    Term,
    UNDEF,
    Undef,
    Value,
)


class EvalError(Exception):
    """Raised when a term cannot be evaluated (⊥ inside a concatenation)."""


@dataclass
class Model:
    """A map from variables to values (strings or ⊥/``None``).

    Mirrors the SMT model object of the paper's Algorithm 1 (``M``); the
    CEGAR loop reads words out of it with ``M[w_j]``.
    """

    assignment: Dict[StrVar, Value] = field(default_factory=dict)

    def __getitem__(self, var: StrVar) -> Value:
        return self.assignment.get(var, "")

    def __contains__(self, var: StrVar) -> bool:
        return var in self.assignment

    def set(self, var: StrVar, value: Value) -> None:
        self.assignment[var] = value

    def eval_term(self, term: Term) -> Value:
        """Evaluate a term; ⊥ propagates out of variables, but a ⊥ inside
        a concatenation is an evaluation error (concat is defined only on
        strings)."""
        if isinstance(term, StrConst):
            return term.value
        if isinstance(term, Undef):
            return UNDEF
        if isinstance(term, StrVar):
            return self.assignment.get(term, "")
        if isinstance(term, Concat):
            pieces = []
            for part in term.parts:
                if isinstance(part, StrVar):
                    value = self.assignment.get(part, "")
                else:
                    value = self.eval_term(part)
                if value is UNDEF:
                    raise EvalError(f"⊥ inside concatenation: {part!r}")
                pieces.append(value)
            return "".join(pieces)
        raise TypeError(f"unknown term {term!r}")

    def copy(self) -> "Model":
        return Model(dict(self.assignment))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(
            f"{var.name}={'⊥' if val is UNDEF else val!r}"
            for var, val in sorted(
                self.assignment.items(), key=lambda kv: kv[0].name
            )
        )
        return f"Model({items})"
