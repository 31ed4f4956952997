"""SMT-LIB 2.6-style rendering of constraint formulas.

The paper's pipeline hands Z3 problems in the SMT-LIB string theory;
this printer renders our formulas in that concrete syntax (``str.++``,
``str.in_re``, ``re.union``...) so users can inspect queries, diff them
against other solvers, or export them.  ⊥-valued capture variables are
encoded with the standard option pattern: a Boolean ``|v.def|`` guard
plus a String ``v``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Set, Tuple

from repro.regex import ast as regex_ast
from repro.constraints.formulas import (
    And,
    BoolLit,
    Eq,
    Formula,
    Implies,
    InRe,
    Not,
    Or,
)
from repro.constraints.terms import Concat, StrConst, StrVar, Term, Undef


def to_smtlib(
    formula: Formula,
    declare: bool = True,
    *,
    guarded: bool = False,
    get_values: bool = False,
) -> str:
    """Render ``formula`` as an SMT-LIB script (declarations + assert).

    With ``guarded=True`` the rendering is *exact* with respect to our
    ⊥-semantics: every atom whose native truth requires its variables to
    be defined (memberships, equalities against constants/concatenations)
    carries the corresponding ``|v.def|`` guards, so each native model
    maps to an SMT model and a backend's ``unsat`` answer stays sound.
    (The unguarded form is more readable and matches the historical
    ``smtlib`` CLI output; it is only safe for inspection, not for
    trusting ``unsat``.)

    ``get_values=True`` appends ``(get-value ...)`` over every declared
    symbol so a subprocess backend can parse a model back.
    """
    body = _formula(formula, guarded)
    if not declare:
        return body
    variables = sorted(_variables(formula), key=lambda v: v.name)
    lines: List[str] = []
    if get_values:
        lines.append("(set-option :produce-models true)")
    lines.append("(set-logic QF_S)")
    symbols: List[str] = []
    for var in variables:
        symbols.append(_symbol(var.name))
        symbols.append(_symbol(var.name + ".def"))
        lines.append(f"(declare-const {_symbol(var.name)} String)")
        lines.append(f"(declare-const {_symbol(var.name + '.def')} Bool)")
    lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    if get_values and symbols:
        lines.append("(get-value (" + " ".join(symbols) + "))")
    return "\n".join(lines)


def _formula(formula: Formula, guarded: bool = False) -> str:
    if isinstance(formula, BoolLit):
        return "true" if formula.value else "false"
    if isinstance(formula, Not):
        return f"(not {_formula(formula.operand, guarded)})"
    if isinstance(formula, And):
        return "(and " + " ".join(
            _formula(op, guarded) for op in formula.operands
        ) + ")"
    if isinstance(formula, Or):
        return "(or " + " ".join(
            _formula(op, guarded) for op in formula.operands
        ) + ")"
    if isinstance(formula, Implies):
        return (
            f"(=> {_formula(formula.antecedent, guarded)} "
            f"{_formula(formula.consequent, guarded)})"
        )
    if isinstance(formula, Eq):
        return _equality(formula.left, formula.right, guarded)
    if isinstance(formula, InRe):
        atom = f"(str.in_re {_term(formula.term)} {_regex(formula.regex)})"
        if guarded:
            # t ∈ L(R) is false when any variable of t is ⊥.
            return _with_def_guards(atom, _term_variables(formula.term))
        return atom
    raise TypeError(f"cannot print {formula!r}")


def _equality(left: Term, right: Term, guarded: bool = False) -> str:
    # ⊥-aware equality: x = ⊥ becomes (not |x.def|); x = y over possibly-⊥
    # variables compares both the definedness guards and the payloads.
    if isinstance(right, Undef):
        left, right = right, left
    if isinstance(left, Undef):
        if isinstance(right, StrVar):
            return f"(not {_symbol(right.name + '.def')})"
        if isinstance(right, Undef):
            return "true"
        return "false"  # a constant/concat is never ⊥
    if isinstance(left, StrVar) and isinstance(right, StrVar):
        ldef = _symbol(left.name + ".def")
        rdef = _symbol(right.name + ".def")
        return (
            f"(and (= {ldef} {rdef}) (= {_term(left)} {_term(right)}))"
        )
    atom = f"(= {_term(left)} {_term(right)})"
    if guarded:
        # Against a constant or concatenation, equality natively holds
        # only when every participating variable is a defined string.
        return _with_def_guards(
            atom, _term_variables(left) + _term_variables(right)
        )
    return atom


def _with_def_guards(atom: str, variables: List[StrVar]) -> str:
    guards: List[str] = []
    seen: Set[str] = set()
    for var in variables:
        symbol = _symbol(var.name + ".def")
        if symbol not in seen:
            seen.add(symbol)
            guards.append(symbol)
    if not guards:
        return atom
    return "(and " + " ".join(guards) + f" {atom})"


def _term_variables(term: Term) -> List[StrVar]:
    if isinstance(term, StrVar):
        return [term]
    if isinstance(term, Concat):
        out: List[StrVar] = []
        for part in term.parts:
            out.extend(_term_variables(part))
        return out
    return []


def _term(term: Term) -> str:
    if isinstance(term, StrVar):
        return _symbol(term.name)
    if isinstance(term, StrConst):
        return _string_literal(term.value)
    if isinstance(term, Concat):
        return "(str.++ " + " ".join(_term(p) for p in term.parts) + ")"
    if isinstance(term, Undef):
        raise TypeError("⊥ can only appear in equalities")
    raise TypeError(f"cannot print term {term!r}")


def _regex(node: regex_ast.Node) -> str:
    if isinstance(node, regex_ast.Empty):
        return '(str.to_re "")'
    if isinstance(node, regex_ast.CharMatch):
        return _charset_regex(node)
    if isinstance(node, regex_ast.Concat):
        return "(re.++ " + " ".join(_regex(p) for p in node.parts) + ")"
    if isinstance(node, regex_ast.Alternation):
        return "(re.union " + " ".join(_regex(o) for o in node.options) + ")"
    if isinstance(node, regex_ast.Quantifier):
        inner = _regex(node.child)
        low, high = node.min, node.max
        if (low, high) == (0, None):
            return f"(re.* {inner})"
        if (low, high) == (1, None):
            return f"(re.+ {inner})"
        if (low, high) == (0, 1):
            return f"(re.opt {inner})"
        if high is None:
            return f"(re.++ ((_ re.loop {low} {low}) {inner}) (re.* {inner}))"
        return f"((_ re.loop {low} {high}) {inner})"
    if isinstance(node, (regex_ast.Group, regex_ast.NonCapGroup)):
        return _regex(node.child)
    raise TypeError(
        f"{type(node).__name__} has no classical SMT-LIB regex form"
    )


def _charset_regex(node: regex_ast.CharMatch) -> str:
    intervals = node.charset.intervals
    if not intervals:
        return "re.none"
    if len(intervals) == 1 and intervals[0] == (0, 0x10FFFF):
        return "re.allchar"
    parts = []
    for lo, hi in intervals:
        if lo == hi:
            parts.append(f"(str.to_re {_string_literal(chr(lo))})")
        else:
            parts.append(
                f"(re.range {_string_literal(chr(lo))} "
                f"{_string_literal(chr(hi))})"
            )
    if len(parts) == 1:
        return parts[0]
    return "(re.union " + " ".join(parts) + ")"


def _string_literal(value: str) -> str:
    # SMT-LIB 2.6 string literals: `""` is the only quote escape, and
    # `\u{...}` / `\uXXXX` are the character escapes of the strings
    # theory.  A raw backslash would make a following `u` ambiguous, so
    # backslashes are themselves `\u{5c}`-escaped, as are control and
    # non-ASCII characters.
    out = ['"']
    for ch in value:
        if ch == '"':
            out.append('""')
        elif ch == "\\":
            out.append("\\u{5c}")
        elif 0x20 <= ord(ch) < 0x7F:
            out.append(ch)
        else:
            out.append(f"\\u{{{ord(ch):x}}}")
    out.append('"')
    return "".join(out)


def _symbol(name: str) -> str:
    if all(c.isalnum() or c in "_.$" for c in name):
        return name
    return "|" + name.replace("|", "_") + "|"


# -- canonical fingerprinting -------------------------------------------------
#
# The batch service's solver query cache keys entries on a *canonical*
# rendering of the formula: variables are α-renamed to ?0, ?1, ... in
# first-occurrence order (model translation draws fresh names from a
# global counter, so two structurally identical queries never share
# variable names), and regexes are printed from their character-set
# intervals rather than their surface syntax.  Two formulas with equal
# fingerprints are identical up to a variable bijection, so they have the
# same satisfiability and their models transfer through the renaming.


def canonical_fingerprint(
    formula: Formula,
) -> Tuple[str, Dict[StrVar, str]]:
    """Render ``formula`` canonically; return ``(text, renaming)``.

    ``renaming`` maps every variable of the formula to its canonical
    name.  The rendering is injective on formulas-modulo-renaming: only
    language-preserving regex normalisations are applied (non-capturing
    groups are transparent, greedy/lazy is erased — neither changes
    ``L(R)``; see :func:`canonical_regex`).
    """
    names: Dict[StrVar, str] = {}
    out: List[str] = []
    _canon_formula(formula, names, out)
    return "".join(out), names


def _canon_formula(
    formula: Formula, names: Dict[StrVar, str], out: List[str]
) -> None:
    if isinstance(formula, BoolLit):
        out.append("T" if formula.value else "F")
    elif isinstance(formula, Not):
        out.append("(!")
        _canon_formula(formula.operand, names, out)
        out.append(")")
    elif isinstance(formula, And):
        out.append("(&")
        for op in formula.operands:
            _canon_formula(op, names, out)
        out.append(")")
    elif isinstance(formula, Or):
        out.append("(|")
        for op in formula.operands:
            _canon_formula(op, names, out)
        out.append(")")
    elif isinstance(formula, Implies):
        out.append("(>")
        _canon_formula(formula.antecedent, names, out)
        _canon_formula(formula.consequent, names, out)
        out.append(")")
    elif isinstance(formula, Eq):
        out.append("(=")
        _canon_term(formula.left, names, out)
        _canon_term(formula.right, names, out)
        out.append(")")
    elif isinstance(formula, InRe):
        out.append("(∈")
        _canon_term(formula.term, names, out)
        out.append(canonical_regex(formula.regex))
        out.append(")")
    else:
        raise TypeError(f"cannot fingerprint {formula!r}")


def _canon_term(
    term: Term, names: Dict[StrVar, str], out: List[str]
) -> None:
    if isinstance(term, StrVar):
        name = names.get(term)
        if name is None:
            name = f"?{len(names)}"
            names[term] = name
        out.append(name)
    elif isinstance(term, StrConst):
        out.append(repr(term.value))
    elif isinstance(term, Undef):
        out.append("⊥")
    elif isinstance(term, Concat):
        out.append("(++")
        for part in term.parts:
            _canon_term(part, names, out)
        out.append(")")
    else:
        raise TypeError(f"cannot fingerprint term {term!r}")


@lru_cache(maxsize=4096)
def canonical_regex(node: regex_ast.Node) -> str:
    """Canonical text of a regex AST under language equivalence.

    Character matchers print their interval sets (so ``\\d`` and
    ``[0-9]`` coincide); non-capturing groups are transparent and
    laziness is erased because neither changes the denoted language —
    which is all the membership atoms consume.  Capture groups keep
    their index: a backreference's meaning depends on the group
    structure, so erasing it would conflate regexes with different
    languages (e.g. ``((a)b)\\2`` vs ``(a)(b)\\2``).
    """
    if isinstance(node, regex_ast.Empty):
        return "ε"
    if isinstance(node, regex_ast.CharMatch):
        ranges = ",".join(
            f"{lo:x}" if lo == hi else f"{lo:x}-{hi:x}"
            for lo, hi in node.charset.intervals
        )
        return f"[{ranges}]"
    if isinstance(node, regex_ast.Concat):
        return "(." + "".join(canonical_regex(p) for p in node.parts) + ")"
    if isinstance(node, regex_ast.Alternation):
        return "(|" + "".join(canonical_regex(o) for o in node.options) + ")"
    if isinstance(node, regex_ast.Quantifier):
        high = "∞" if node.max is None else str(node.max)
        return f"(q{node.min},{high}{canonical_regex(node.child)})"
    if isinstance(node, regex_ast.Group):
        return f"(g{node.index}{canonical_regex(node.child)})"
    if isinstance(node, regex_ast.NonCapGroup):
        return canonical_regex(node.child)
    if isinstance(node, regex_ast.Lookahead):
        tag = "la!" if node.negative else "la"
        return f"({tag}{canonical_regex(node.child)})"
    if isinstance(node, regex_ast.Backreference):
        return f"(\\{node.index})"
    if isinstance(node, regex_ast.Anchor):
        return f"(^{node.kind})"
    if isinstance(node, regex_ast.WordBoundary):
        return "(b!)" if node.negated else "(b)"
    raise TypeError(f"cannot fingerprint regex node {node!r}")


def _variables(formula: Formula) -> Set[StrVar]:
    out: Set[StrVar] = set()

    def visit_term(term: Term) -> None:
        if isinstance(term, StrVar):
            out.add(term)
        elif isinstance(term, Concat):
            for part in term.parts:
                visit_term(part)

    def visit(f: Formula) -> None:
        if isinstance(f, Not):
            visit(f.operand)
        elif isinstance(f, (And, Or)):
            for op in f.operands:
                visit(op)
        elif isinstance(f, Implies):
            visit(f.antecedent)
            visit(f.consequent)
        elif isinstance(f, Eq):
            visit_term(f.left)
            visit_term(f.right)
        elif isinstance(f, InRe):
            visit_term(f.term)

    visit(formula)
    return out
