"""String terms for the constraint language.

The capturing-language model (§4) speaks about words and capture values.
Words are ordinary strings; capture variables additionally admit the
*undefined* value ⊥ (``UNDEF``), which the paper distinguishes from the
empty string ε.  Terms are:

- :class:`StrVar` — a string variable (possibly ⊥-valued for captures);
- :class:`StrConst` — a literal string;
- :class:`Undef` — the ⊥ constant;
- :class:`Concat` — concatenation ``t1 ++ t2 ++ ...``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple, Union

#: The runtime representation of ⊥ in models and evaluation.
UNDEF = None

Value = Union[str, type(UNDEF)]


class Term:
    """Base class for string terms."""

    __slots__ = ()

    def __add__(self, other: "Term") -> "Term":
        return concat(self, other)


@dataclass(frozen=True)
class StrVar(Term):
    """A string variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        # Variables key every union-find and model dict of the solver;
        # the hash is the dataclass's own, computed once.
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from the name, so a pickled variable gets the hash of
        # the process that loads it.
        return (StrVar, (self.name,))

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StrConst(Term):
    """A string literal."""

    value: str

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Undef(Term):
    """The undefined capture value ⊥ (distinct from the empty string)."""

    def __repr__(self) -> str:
        return "⊥"


@dataclass(frozen=True)
class Concat(Term):
    """Concatenation of two or more terms."""

    parts: Tuple[Term, ...]

    def __post_init__(self) -> None:
        assert len(self.parts) >= 2

    def __repr__(self) -> str:
        return " ++ ".join(map(repr, self.parts))


_var_counter = itertools.count()


def fresh_var(prefix: str = "s") -> StrVar:
    """A globally fresh string variable (used for model segment vars)."""
    return StrVar(f"{prefix}!{next(_var_counter)}")


def concat(*terms: Term) -> Term:
    """Smart constructor: flatten nested concats, fold adjacent constants."""
    flat: list[Term] = []
    for term in terms:
        if isinstance(term, Concat):
            flat.extend(term.parts)
        else:
            flat.append(term)
    folded: list[Term] = []
    for term in flat:
        if isinstance(term, StrConst) and term.value == "":
            continue
        if (
            folded
            and isinstance(term, StrConst)
            and isinstance(folded[-1], StrConst)
        ):
            folded[-1] = StrConst(folded[-1].value + term.value)
        else:
            folded.append(term)
    if not folded:
        return StrConst("")
    if len(folded) == 1:
        return folded[0]
    return Concat(tuple(folded))


def variables_of(term: Term) -> frozenset[StrVar]:
    if isinstance(term, StrVar):
        return frozenset((term,))
    if isinstance(term, Concat):
        out: set[StrVar] = set()
        for part in term.parts:
            out |= variables_of(part)
        return frozenset(out)
    return frozenset()


def flatten(term: Term) -> Tuple[Term, ...]:
    """The concat-atoms of a term: vars and consts in order."""
    if isinstance(term, Concat):
        return term.parts
    return (term,)
