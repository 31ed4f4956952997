"""Symbolic models of the ES6 RegExp API — Algorithm 2 (§6.1).

:class:`SymbolicRegExp` pairs a concrete :class:`~repro.regex.matcher.RegExp`
with the capturing-language model of its pattern.  ``exec_model`` builds
the symbolic description of one ``exec`` call: the membership formula for
the match branch, the non-membership formula for the failure branch, the
capture variables, and the :class:`CapturingConstraint` the CEGAR loop
validates against the concrete matcher.

Flag handling follows Algorithm 2:

- ``i`` — the parser folds every character class (``rewriteForIgnoreCase``);
- ``m`` — anchors accept line terminators via the model config;
- ``y``/``g`` — matching starts at ``lastIndex``; the sticky wrapper omits
  the leading wildcard so the match must begin exactly there;
- ``⟨``/``⟩`` — input meta-characters appear only as *context terms*
  around the translated pattern, never inside the modelled word, so the
  input variable stays directly solvable.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.automata.build import erase_captures
from repro.regex import ast
from repro.regex.flags import Flags
from repro.regex.matcher import ExecResult, RegExp
from repro.constraints import (
    Formula,
    InRe,
    Not,
    StrConst,
    StrVar,
    Term,
    concat,
    conj,
)
from repro.model.cegar import CapturingConstraint, CegarResult, CegarSolver
from repro.model.preprocess import (
    INPUT_LANG,
    META_END,
    META_START,
    wildcard,
)
from repro.model.translate import ModelConfig, Translator
from repro.solver import Model, SAT

_exec_ids = itertools.count()


def _strip_edge_anchors(
    body: ast.Node, multiline: bool
) -> Tuple[ast.Node, bool, bool]:
    """Strip a leading ``^`` / trailing ``$`` from the pattern top level.

    Only valid without the multiline flag (where anchors also match at
    line breaks) and only at the top-level concatenation — anchors inside
    alternations/groups keep their context-based translation.
    Returns ``(stripped_body, anchored_start, anchored_end)``.
    """
    if multiline:
        return body, False, False
    anchored_start = anchored_end = False
    parts = list(body.parts) if isinstance(body, ast.Concat) else [body]
    if parts and parts[0] == ast.Anchor("start"):
        anchored_start = True
        parts = parts[1:]
    if parts and parts[-1] == ast.Anchor("end"):
        anchored_end = True
        parts = parts[:-1]
    if not anchored_start and not anchored_end:
        return body, False, False
    return ast.concat(parts), anchored_start, anchored_end


class ExecModel:
    """Symbolic description of one ``RegExp.exec(input)`` call.

    The two sides, ``match_formula`` and ``no_match_formula`` (§4.4),
    are translated on first read and then kept: most readers need one
    side (the differential oracle reads the match side, a solve job the
    side it asks for), and DSE reads a side of a regex branch only when
    a flip of that branch or of a later one needs it.  Both sides come
    from one :class:`Translator`, so the pattern is preprocessed once
    per call.
    Reading the match side first and then the no-match side gives the
    formulas an eager build would, fresh variable for fresh variable.
    """

    def __init__(
        self,
        input_term: Term,
        pieces: List[ast.Node],
        captures: Dict[int, StrVar],
        config: ModelConfig,
        constraint: CapturingConstraint,
        negative_constraint: CapturingConstraint,
    ):
        self.input_term = input_term
        self.captures = captures
        self.constraint = constraint
        self.negative_constraint = negative_constraint
        self._pieces = pieces
        self._config = config

    @property
    def whole_match(self) -> StrVar:
        return self.captures[0]

    def side(
        self, matched: bool
    ) -> Tuple[Formula, Tuple[CapturingConstraint, ...]]:
        """The formula and capturing constraints of the branch where the
        exec call does (``matched``) or does not match."""
        if matched:
            return self.match_formula, (self.constraint,)
        return self.no_match_formula, (self.negative_constraint,)

    @cached_property
    def _translator(self) -> Translator:
        return Translator(
            ast.concat(self._pieces), self.captures, self._config
        )

    @cached_property
    def match_formula(self) -> Formula:
        return self._sane(self._membership(positive=True))

    @cached_property
    def no_match_formula(self) -> Formula:
        # §4.4 fast path: when the capture-erased pattern is classical,
        # the non-membership constraint is *exactly* the complement
        # automaton — no capture variables are involved in a failed
        # match.
        neg_target = ast.concat(
            [
                erase_captures(
                    p if not isinstance(p, ast.Group) else p.child
                )
                for p in self._pieces
            ]
        )
        if ast.is_purely_regular(neg_target):
            return self._sane(Not(InRe(self.input_term, neg_target)))
        return self._sane(self._membership(positive=False))

    def _sane(self, formula: Formula) -> Formula:
        # Inputs never contain the reserved meta-characters (§6.1); the
        # sanity conjunct keeps the solver from inventing them.
        return conj([formula, InRe(self.input_term, INPUT_LANG)])

    def _membership(self, positive: bool) -> Formula:
        return self._translator.membership(
            self.input_term,
            positive=positive,
            lctx=StrConst(META_START),
            rctx=StrConst(META_END),
        )


class SymbolicRegExp:
    """A RegExp with both concrete and symbolic semantics.

    >>> r = SymbolicRegExp(r"<(\\w+)>([0-9]*)</\\1>")
    >>> model = r.exec_model(StrVar("arg"))
    >>> # model.match_formula constrains arg to contain a tag pair, with
    >>> # model.captures[1]/[2] bound to the tag name and the number.
    """

    def __init__(
        self,
        source: str,
        flags: str = "",
        config: Optional[ModelConfig] = None,
    ):
        self.source = source
        self.flags = Flags.parse(flags) if isinstance(flags, str) else flags
        self.concrete = RegExp(source, self.flags)
        # A copy: the caller's config may be shared by other patterns,
        # whose anchors must not start matching at line breaks.
        base = config or ModelConfig()
        self.config = replace(
            base, multiline=base.multiline or self.flags.multiline
        )
        self.last_index = 0

    @property
    def group_count(self) -> int:
        return self.concrete.group_count

    # -- symbolic models -------------------------------------------------------

    def exec_model(
        self,
        input_term: Term,
        last_index: int = 0,
    ) -> ExecModel:
        """Algorithm 2, symbolically: model both outcomes of one exec call.

        ``last_index`` is the concrete ``lastIndex`` in effect (sticky and
        global matching); the model then applies to the suffix of the
        input from that offset, which the caller encodes in ``input_term``.
        """
        uid = next(_exec_ids)
        captures = {
            i: StrVar(f"C{i}!{uid}")
            for i in range(self.group_count + 1)
        }
        body = self.concrete.pattern.body
        sticky = self.flags.sticky
        # Pattern-edge anchors absorb the adjacent wildcard entirely (a
        # statically-resolved instance of Table 2's anchor rules); interior
        # anchors are handled by the context terms during translation.
        stripped, anchored_start, anchored_end = _strip_edge_anchors(
            body, multiline=self.config.multiline
        )
        pieces = []
        if not sticky and not anchored_start:
            pieces.append(wildcard())
        pieces.append(ast.Group(stripped, 0))
        if not anchored_end:
            pieces.append(wildcard())

        flag_string = str(self.flags)
        constraint = CapturingConstraint(
            source=self.source,
            flags=flag_string,
            word=input_term,
            captures=captures,
            positive=True,
            last_index=last_index,
            sticky=sticky,
        )
        negative_constraint = CapturingConstraint(
            source=self.source,
            flags=flag_string,
            word=input_term,
            captures={},
            positive=False,
            last_index=last_index,
            sticky=sticky,
        )
        return ExecModel(
            input_term,
            pieces,
            captures,
            self.config,
            constraint,
            negative_constraint,
        )

    def test_model(self, input_term: Term, last_index: int = 0) -> ExecModel:
        """``test`` is ``exec(s) !== undefined`` (§6.1)."""
        return self.exec_model(input_term, last_index)

    # -- concrete twin -----------------------------------------------------------

    def exec(self, subject: str) -> Optional[ExecResult]:
        self.concrete.last_index = self.last_index
        result = self.concrete.exec(subject)
        self.last_index = self.concrete.last_index
        return result

    def test(self, subject: str) -> bool:
        return self.exec(subject) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolicRegExp(/{self.source}/{self.flags})"


def solve_input(
    source: str,
    flags: str = "",
    extra: Tuple[Formula, ...] = (),
    config: Optional[ModelConfig] = None,
    cegar: Optional[CegarSolver] = None,
    backend: Optional[str] = None,
    negate: bool = False,
) -> Tuple[CegarResult, Optional[str], Dict[int, Optional[str]]]:
    """Solve for an input the regex matches (or, with ``negate``, does
    not match), CEGAR-validated.

    Returns the loop's :class:`CegarResult`, which tells UNSAT from
    UNKNOWN and names the cause of an UNKNOWN, with the input and the
    match's captures ``{i: capture_i}`` when it is SAT (``None`` and
    ``{}`` otherwise; a non-match has no captures).  ``backend`` is a
    solver backend spec (ignored when an explicit ``cegar`` is
    supplied)."""
    regexp = SymbolicRegExp(source, flags, config)
    input_var = StrVar("input!gen")
    model = regexp.exec_model(input_var)
    if negate:
        formula, constraint = model.no_match_formula, model.negative_constraint
    else:
        formula, constraint = model.match_formula, model.constraint
    solver = cegar or CegarSolver(backend=backend)
    result = solver.solve(conj([formula, *extra]), [constraint])
    if result.status != SAT:
        return result, None, {}
    captures = {} if negate else {
        i: result.model[var] for i, var in sorted(model.captures.items())
    }
    return result, result.model.eval_term(input_var), captures


def find_matching_input(
    source: str,
    flags: str = "",
    extra: Tuple[Formula, ...] = (),
    config: Optional[ModelConfig] = None,
    cegar: Optional[CegarSolver] = None,
    backend: Optional[str] = None,
) -> Optional[Tuple[str, Dict[int, Optional[str]]]]:
    """Solve for an input that the regex matches (CEGAR-validated).

    Returns ``(input, {i: capture_i})``, or ``None`` when the solver
    found none (UNSAT or UNKNOWN: :func:`solve_input` tells them
    apart).  The workhorse of the quickstart example and of tests: a
    one-call version of the paper's pipeline (model → solve → refine)."""
    result, word, captures = solve_input(
        source, flags, extra, config, cegar, backend
    )
    return None if result.status != SAT else (word, captures)


def find_non_matching_input(
    source: str,
    flags: str = "",
    extra: Tuple[Formula, ...] = (),
    config: Optional[ModelConfig] = None,
    cegar: Optional[CegarSolver] = None,
    backend: Optional[str] = None,
) -> Optional[str]:
    """Solve for an input the regex does *not* match (CEGAR-validated)."""
    return solve_input(
        source, flags, extra, config, cegar, backend, negate=True
    )[1]
