"""Matching-precedence refinement — Algorithm 1 (§5).

The models of §4 ignore greediness, so a satisfying assignment may give
capture groups values no real ES6 engine would produce (§3.4's
``("aa", "aa", "a") ∈ Lc(/^a*(a)?$/)`` example).  Algorithm 1 repairs
this with counterexample-guided abstraction refinement:

1. solve the constraint problem ``P``;
2. for every capturing-language constraint, run the *concrete matcher*
   on the word from the model;
3. if the concrete capture assignment disagrees (or the word's
   (non-)membership itself disagrees), add a refinement constraint and
   re-solve;
4. stop when the model validates, the problem becomes unsatisfiable, or
   the refinement limit is hit (→ ``unknown``, §5.3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.constraints import (
    Eq,
    Formula,
    StrConst,
    StrVar,
    Term,
    Undef,
    conj,
    implies,
    neg,
)
from repro.regex.matcher import RegExp
from repro.solver import Model, SAT, Solver, SolverStats, UNKNOWN, UNSAT
from repro.solver.stats import WORK_COUNTERS, QueryRecord

#: The cause of an UNKNOWN whose models kept failing validation past
#: the refinement limit.
REFINEMENT_LIMIT = "refinement_limit"


@dataclass
class CapturingConstraint:
    """One ``(w_j, C_0,j .. C_n,j) ⊡_j Lc(R_j)`` from the path condition.

    Stores what Algorithm 1 needs to validate a model against the
    concrete matcher: the regex source/flags, the input term, the capture
    variables of the model, the polarity, and the concrete ``lastIndex``
    in effect when the call was made (sticky/global matching)."""

    source: str
    flags: str
    word: Term
    captures: Dict[int, StrVar]
    positive: bool = True
    last_index: int = 0
    sticky: bool = False

    def concrete_match(self, subject: str):
        """``ConcreteMatch`` of Algorithm 1 — an ES6-compliant exec."""
        regexp = RegExp(self.source, self.flags)
        regexp.last_index = self.last_index
        return regexp.exec(subject)


@dataclass
class CegarResult:
    """Outcome of the refinement loop (Algorithm 1's return value)."""

    status: str  # sat / unsat / unknown
    model: Optional[Model] = None
    refinements: int = 0
    hit_limit: bool = False
    #: Why an UNKNOWN is one: the last solve's cause, or
    #: ``refinement_limit``.
    unknown_cause: Optional[str] = None

    def __bool__(self) -> bool:
        return self.status == SAT


@dataclass
class CegarSolver:
    """Algorithm 1: a satisfiability checker for problems containing
    capturing-language constraints, built on the base string solver and
    the concrete matcher."""

    solver: Solver = field(default_factory=Solver)
    refinement_limit: int = 20
    stats: Optional[SolverStats] = None
    #: Optional hook: a zero-argument callable returning the solver to
    #: use (e.g. a ``repro.solver.backends.cached.CachedSolver`` sharing
    #: a query cache across many CEGAR instances).  Overrides ``solver``.
    solver_factory: Optional[Callable[[], Solver]] = None
    #: Solver backend spec (see :func:`repro.solver.backends.make_backend`),
    #: e.g. ``"portfolio:native+smtlib"``.  Overrides ``solver`` but not
    #: ``solver_factory``; per-backend tallies land in ``stats``.
    backend: Optional[str] = None
    #: Optional :class:`repro.solver.backends.QueryCache` memoizing the
    #: refinement stream: every query of the loop — the initial one
    #: *and* each refined one — is keyed on its canonical fingerprint,
    #: so refinement prefixes repeated across flips replay from
    #: memory/disk instead of re-entering the solver.  Ignored when the
    #: solver chain already carries its own cache decorator (a
    #: ``cached:`` level keys the refined stream the same way).
    query_cache: Optional[object] = None

    def __post_init__(self) -> None:
        if self.solver_factory is not None:
            self.solver = self.solver_factory()
        elif self.backend is not None:
            from repro.solver.backends import make_backend

            self.solver = make_backend(self.backend, stats=self.stats)
        if self.query_cache is not None:
            from repro.solver.backends import CachedBackend
            from repro.solver.backends.cached import CachedSolver

            if not isinstance(self.solver, CachedSolver):
                self.solver = CachedBackend(
                    self.solver,
                    cache=self.query_cache,
                    tally_stats=self.stats,
                    stats=self.stats,
                )

    def _solve_query(self, problem: Formula, refinements: int):
        """One ``Solve(P)`` of Algorithm 1, fast-path aware.

        The initial query goes through the ordinary ``solve``; from the
        first refinement on, the query is dispatched through the solver
        chain's ``solve_refined`` when it has one — the cache decorator
        keys each refined query's own canonical fingerprint, and the
        router re-classifies the refined formula (refinements are
        always classical, so the stream migrates to the incremental
        session mid-loop even when the initial query routed native).
        """
        if refinements > 0:
            refined = getattr(self.solver, "solve_refined", None)
            if callable(refined):
                return refined(problem)
        return self.solver.solve(problem)

    def solve(
        self,
        problem: Formula,
        constraints: Sequence[CapturingConstraint] = (),
    ) -> CegarResult:
        start = time.perf_counter()
        refinements = 0
        work = dict.fromkeys(WORK_COUNTERS, 0)
        had_captures = any(len(c.captures) > 1 for c in constraints)
        result = CegarResult(UNKNOWN)

        solve_attrs = {}
        if obs.enabled():
            from repro.constraints.printer import canonical_fingerprint

            solve_attrs["fingerprint"] = canonical_fingerprint(problem)[0]
            solve_attrs["backend"] = getattr(
                self.solver, "name", None
            ) or type(self.solver).__name__
        with obs.span("cegar:solve", **solve_attrs) as solve_span:
            while True:
                with obs.span(
                    "cegar:iter", iteration=refinements
                ) as iter_span:
                    solved = self._solve_query(problem, refinements)
                    iter_span.set(status=solved.status)
                for name in WORK_COUNTERS:
                    work[name] += getattr(solved, name)
                # A router annotates the innermost open span with its
                # decision; hoist it so the slow-query log (which keeps
                # only ``cegar:solve``-family spans) sees the route.
                for key in ("route", "target", "cache"):
                    if key in iter_span.attrs:
                        solve_span.set(**{key: iter_span.attrs[key]})
                if solved.status != SAT:
                    result = CegarResult(
                        solved.status, None, refinements, False,
                        solved.unknown_cause,
                    )
                    break

                model = solved.model
                failed = False
                for constraint in constraints:
                    refinement = self._validate(constraint, model)
                    if refinement is not None:
                        # Prepend: refinements must branch *before* the
                        # model's own disjunctions so the pinned-word
                        # branch is explored against every model core
                        # first.
                        problem = conj([refinement, problem])
                        failed = True
                if not failed:
                    result = CegarResult(SAT, model, refinements, False)
                    break
                refinements += 1
                if refinements > self.refinement_limit:
                    result = CegarResult(
                        UNKNOWN, None, refinements, True, REFINEMENT_LIMIT
                    )
                    break
            solve_span.set(
                status=result.status,
                refinements=refinements,
                hit_limit=result.hit_limit,
            )

        if self.stats is not None:
            self.stats.record(
                QueryRecord(
                    seconds=time.perf_counter() - start,
                    status=result.status,
                    had_regex=bool(constraints),
                    had_captures=had_captures,
                    refinements=refinements,
                    hit_refinement_limit=result.hit_limit,
                    unknown_cause=result.unknown_cause,
                    **work,
                )
            )
        return result

    def _validate(
        self, constraint: CapturingConstraint, model: Model
    ) -> Optional[Formula]:
        """Lines 8–22 of Algorithm 1: check one constraint against the
        concrete matcher; return a refinement formula or None if OK."""
        word_value = model.eval_term(constraint.word)
        if word_value is None:
            return None  # an undefined word cannot be validated
        concrete = constraint.concrete_match(word_value)

        if concrete is not None:
            if not constraint.positive:
                # Modeled as a non-member but matches concretely: forbid
                # this word (line 18).
                return neg(Eq(constraint.word, StrConst(word_value)))
            # Compare capture assignments (lines 12–15).
            pins: List[Formula] = []
            mismatch = False
            for index, var in sorted(constraint.captures.items()):
                concrete_value = (
                    concrete[index] if index < len(concrete) else None
                )
                model_value = model[var]
                target = (
                    Undef()
                    if concrete_value is None
                    else StrConst(concrete_value)
                )
                pins.append(Eq(var, target))
                if model_value != concrete_value:
                    mismatch = True
            if not mismatch:
                return None
            # Line 15's refinement  w = M[w] ⟹ ∧ Ci = Ci♮ , phrased with
            # the pinned-word branch first so the solver prefers *fixing
            # the captures for this word* over wandering to a new word —
            # this is what makes refinement converge in a few iterations
            # (§7.4 reports a mean of 2.9).
            from repro.constraints import disj

            return disj(
                [
                    conj([Eq(constraint.word, StrConst(word_value))] + pins),
                    neg(Eq(constraint.word, StrConst(word_value))),
                ]
            )

        if constraint.positive:
            # Modeled as a member but does not match concretely: forbid
            # this word (line 22).
            return neg(Eq(constraint.word, StrConst(word_value)))
        return None


def refinement_stream_fingerprint(
    problem: Formula, constraints: Sequence[CapturingConstraint]
) -> Optional[str]:
    """Canonical identity of the whole CEGAR query *stream*.

    The initial formula's canonical fingerprint identifies only
    ``Solve(P)`` of iteration 0; the refinements that follow are driven
    by the concrete matcher, i.e. by the :class:`CapturingConstraint`\\ s
    (regex source/flags, polarity, ``lastIndex``, sticky mode, capture
    variables).  Two problems with equal initial fingerprints but
    different constraint sets can diverge from the first refinement on —
    e.g. language-equal regexes with different group structure — so
    anything keyed on the refined stream (scheduler dedup of solve
    jobs) must include both.

    Returns ``None`` when no constraint carries real capture groups
    (beyond the whole-match ``C0``): the refinements of a
    membership-only run pin words drawn from the canonical model, so
    the initial fingerprint already identifies the stream, and callers
    fall back to it — language-equal spelling variants (laziness,
    class spelling, non-capturing groups) keep coalescing.  Capture
    pins are different: two language-equal patterns can assign ``C1``
    differently (``(a+)b`` vs ``(a+?)b``), so their streams diverge
    from the first refinement and must not share a key.
    """
    if not any(len(c.captures) > 1 for c in constraints):
        return None
    from repro.constraints.printer import canonical_fingerprint

    fingerprint, renaming = canonical_fingerprint(problem)

    def term_text(term: Term) -> str:
        if isinstance(term, StrVar):
            return renaming.get(term, f"!{term.name}")
        if isinstance(term, StrConst):
            return repr(term.value)
        parts = getattr(term, "parts", None)
        if parts is not None:
            return "(++" + ",".join(term_text(p) for p in parts) + ")"
        return repr(term)

    parts: List[str] = [fingerprint]
    for c in constraints:
        captures = ",".join(
            f"{index}={renaming.get(var, '!' + var.name)}"
            for index, var in sorted(c.captures.items())
        )
        parts.append(
            "\x00".join(
                [
                    c.source,
                    c.flags,
                    str(int(c.positive)),
                    str(c.last_index),
                    str(int(c.sticky)),
                    term_text(c.word),
                    captures,
                ]
            )
        )
    return "\x01".join(parts)
