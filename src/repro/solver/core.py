"""A string-constraint solver for the model's fragment (the Z3 stand-in).

The capturing-language translation (§4) and the CEGAR refinements
(Algorithm 1) emit formulas built from: (dis)equalities over
string/⊥-valued terms, concatenation equations, and classical regular
membership/non-membership.  This solver decides that fragment *bounded-ly*:

1. NNF + lazy DNF enumeration of conjunctive cores (the DPLL part);
2. per core: congruence closure of equalities (union-find with constants
   and ⊥), concatenation equations as a definition DAG, and per-class
   automata obtained by intersecting all positive memberships with the
   complements of negative ones;
3. per core, propagation: constants are inverted through definitions,
   memberships are pushed *down* into single-unknown definitions as
   quotients, constant classes with a definition become splits, and
   regular languages are pushed *up*: every class gets a sound
   over-approximation of its language (a constant, its automaton, Σ*,
   or for ``x = p1 ++ … ++ pn`` its automaton ∩ L(p1)·…·L(pn)), and the
   core is refuted when a defined class, or a split target intersected
   with the concatenation of the split's parts, has the empty language
   (a budgeted reachability check, see
   :func:`repro.automata.lazy.expression_is_empty`);
4. candidate generation for *free* classes by length-ordered word
   enumeration from their automata, with iterative deepening, followed by
   settling defined classes and splits (under the query deadline) and
   full re-checking of every literal.

Like any string solver on an undecidable theory (§5.3 cites Bjørner et
al.), the search is bounded: ``UNKNOWN`` is a possible answer.  ``UNSAT``
is reported only when every core is refuted *definitively* — structurally
(conflicting constants, empty automata, ⊥-conflicts) or by a provably
complete enumeration (every candidate list finite and fully covered).
Budget exhaustion alone always yields ``UNKNOWN``, which keeps DSE's use
of unsatisfiability sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.automata import (
    complement_dfa_for,
    dfa_for,
    lazy_intersect_all,
    lazy_union_all,
)
from repro.automata.build import erase_captures
from repro.automata.dfa import Dfa
from repro.automata.lazy import expression_is_empty
from repro.constraints.printer import canonical_regex
from repro.regex import ast as regex_ast
from repro.constraints.formulas import (
    And,
    BoolLit,
    Eq,
    FALSE,
    Formula,
    InRe,
    Not,
    Or,
    TRUE,
    to_nnf,
)
from repro.constraints.terms import (
    Concat,
    StrConst,
    StrVar,
    Term,
    UNDEF,
    Undef,
    Value,
    flatten,
    fresh_var,
)
from repro.solver.model import EvalError, Model
from repro.solver.stats import QueryRecord, SolverStats

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


@dataclass
class SolverResult:
    status: str
    model: Optional[Model] = None
    #: Cores the query refuted by upward language propagation.
    concat_refuted: int = 0

    def __bool__(self) -> bool:
        return self.status == SAT


class _UnsatCore(Exception):
    """Internal: the current conjunctive core is structurally unsatisfiable."""


@dataclass
class _Class:
    """One union-find equivalence class of string variables."""

    rep: StrVar
    members: List[StrVar] = field(default_factory=list)
    const: Optional[str] = None
    undef: bool = False
    pos_regexes: List[object] = field(default_factory=list)
    neg_regexes: List[object] = field(default_factory=list)
    definition: Optional[Tuple[Term, ...]] = None
    excluded: set = field(default_factory=set)
    hints: set = field(default_factory=set)
    #: Automata transferred from memberships on classes this one defines
    #: (quotient propagation); intersected into generation.
    extra_dfas: List[Dfa] = field(default_factory=list)


class _Core:
    """Solves one conjunction of literals."""

    def __init__(self, literals: Sequence[Formula], solver: "Solver"):
        self.literals = literals
        self.solver = solver
        self.parent: Dict[StrVar, StrVar] = {}
        self.classes: Dict[StrVar, _Class] = {}
        self.checks: List[Formula] = []
        self.neqs: List[Tuple[Term, Term]] = []
        #: Extra partitions of already-determined words: (target, parts).
        #: A second ``x = s1 ++ s2`` on a defined/constant ``x`` cannot be a
        #: definition; it is solved by *splitting* the value of ``x`` across
        #: the parts (this is how several Lc constraints over the same input
        #: coexist, and how CEGAR's word-pinning refinements propagate).
        self.splits: List[Tuple[StrVar, Tuple[Term, ...]]] = []
        #: Class rep → lazy/eager constraint automaton (or ``None``).
        self._split_dfa_cache: Dict[StrVar, Optional[object]] = {}
        #: Set when upward propagation refuted the core.
        self.concat_refuted = False

    # -- union-find ----------------------------------------------------------

    def _find(self, var: StrVar) -> StrVar:
        root = var
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[var] != root:  # path compression
            self.parent[var], var = root, self.parent[var]
        return root

    def _class(self, var: StrVar) -> _Class:
        root = self._find(var)
        cls = self.classes.get(root)
        if cls is None:
            cls = _Class(rep=root, members=[root])
            self.classes[root] = cls
        return cls

    def _union(self, a: StrVar, b: StrVar) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        ca, cb = self._class(ra), self._class(rb)
        self.parent[rb] = ra
        ca.members.extend(cb.members)
        ca.pos_regexes.extend(cb.pos_regexes)
        ca.neg_regexes.extend(cb.neg_regexes)
        ca.excluded |= cb.excluded
        ca.hints |= cb.hints
        ca.extra_dfas.extend(cb.extra_dfas)
        if cb.const is not None:
            self._set_const(ca, cb.const)
        if cb.undef:
            self._set_undef(ca)
        if cb.definition is not None and ca.definition is None:
            ca.definition = cb.definition
        elif cb.definition is not None:
            self.checks.append(Eq(ca.rep, _to_term(cb.definition)))
        del self.classes[rb]

    def _set_const(self, cls: _Class, value: str) -> None:
        if cls.undef:
            raise _UnsatCore()
        if cls.const is not None and cls.const != value:
            raise _UnsatCore()
        cls.const = value

    def _set_undef(self, cls: _Class) -> None:
        if cls.const is not None:
            raise _UnsatCore()
        cls.undef = True

    # -- literal intake ------------------------------------------------------

    def _ingest(self) -> None:
        for literal in self.literals:
            positive, atom = _polarity(literal)
            if isinstance(atom, BoolLit):
                if atom.value != positive:
                    raise _UnsatCore()
                continue
            if isinstance(atom, Eq):
                if positive:
                    self._ingest_eq(atom.left, atom.right)
                else:
                    self._ingest_neq(atom.left, atom.right)
            elif isinstance(atom, InRe):
                self._ingest_membership(atom.term, atom.regex, positive)
            else:
                raise TypeError(f"unexpected literal {literal!r}")

    def _ingest_eq(self, left: Term, right: Term) -> None:
        lhs, rhs = flatten(left), flatten(right)
        if len(lhs) == 1 and len(rhs) == 1:
            self._ingest_simple_eq(lhs[0], rhs[0])
        elif len(lhs) == 1 and isinstance(lhs[0], StrVar):
            self._ingest_definition(lhs[0], rhs)
        elif len(rhs) == 1 and isinstance(rhs[0], StrVar):
            self._ingest_definition(rhs[0], lhs)
        else:
            # Word equation between two concatenations: bridge with a
            # fresh variable so one side *defines* it and the other side
            # becomes a split of its value (instead of blind enumeration).
            bridge = fresh_var("eq")
            self._ingest_definition(bridge, lhs)
            self.splits.append((bridge, rhs))

    def _ingest_simple_eq(self, a: Term, b: Term) -> None:
        if isinstance(a, StrVar) and isinstance(b, StrVar):
            self._union(a, b)
        elif isinstance(a, StrVar):
            self._bind(a, b)
        elif isinstance(b, StrVar):
            self._bind(b, a)
        else:
            if _const_value(a) != _const_value(b):
                raise _UnsatCore()

    def _bind(self, var: StrVar, value_term: Term) -> None:
        cls = self._class(var)
        if isinstance(value_term, StrConst):
            self._set_const(cls, value_term.value)
        elif isinstance(value_term, Undef):
            self._set_undef(cls)
        else:
            raise TypeError(f"cannot bind to {value_term!r}")

    def _ingest_definition(self, var: StrVar, parts: Tuple[Term, ...]) -> None:
        cls = self._class(var)
        for part in parts:
            if isinstance(part, StrVar):
                self._class(part)
            elif isinstance(part, Undef):
                raise _UnsatCore()  # ⊥ cannot appear inside a concatenation
        if cls.definition is None:
            cls.definition = parts
        else:
            self.splits.append((var, parts))

    def _ingest_neq(self, left: Term, right: Term) -> None:
        # var ≠ "const" prunes candidate enumeration directly; everything
        # else is verified after assignment.
        lhs, rhs = flatten(left), flatten(right)
        if len(lhs) == 1 and len(rhs) == 1:
            a, b = lhs[0], rhs[0]
            if isinstance(a, StrVar) and isinstance(b, StrConst):
                self._class(a).excluded.add(b.value)
            elif isinstance(b, StrVar) and isinstance(a, StrConst):
                self._class(b).excluded.add(a.value)
        self.neqs.append((left, right))

    def _ingest_membership(self, term: Term, regex, positive: bool) -> None:
        atoms = flatten(term)
        if len(atoms) == 1 and isinstance(atoms[0], StrVar):
            cls = self._class(atoms[0])
            (cls.pos_regexes if positive else cls.neg_regexes).append(regex)
        elif len(atoms) == 1 and isinstance(atoms[0], StrConst):
            accepted = dfa_for(regex).accepts_word(atoms[0].value)
            if accepted != positive:
                raise _UnsatCore()
        else:
            check = InRe(term, regex)
            self.checks.append(check if positive else Not(check))

    # -- consistency + classification -----------------------------------------

    def _classify(self) -> Tuple[List[_Class], List[_Class]]:
        """Validate each class; split into (free, defined) in dependency order."""
        for var in list(self.parent):
            self._class(var)

        defined: List[_Class] = []
        free: List[_Class] = []
        for cls in list(self.classes.values()):
            if cls.undef:
                if cls.pos_regexes or cls.definition is not None:
                    raise _UnsatCore()
                continue
            if cls.const is not None:
                for regex in cls.pos_regexes:
                    if not dfa_for(regex).accepts_word(cls.const):
                        raise _UnsatCore()
                for regex in cls.neg_regexes:
                    if dfa_for(regex).accepts_word(cls.const):
                        raise _UnsatCore()
                if cls.const in cls.excluded:
                    raise _UnsatCore()
                if cls.definition is not None:
                    # A constant class with a concatenation definition still
                    # constrains the definition's variables — re-check later.
                    self.checks.append(Eq(cls.rep, _to_term(cls.definition)))
                continue
            if cls.definition is not None:
                defined.append(cls)
            else:
                free.append(cls)

        defined = self._order_definitions(defined)
        return free, defined

    def _order_definitions(self, defined: List[_Class]) -> List[_Class]:
        """Topologically order definition classes; demote cyclic ones to
        checks (their class becomes free)."""
        index = {cls.rep: cls for cls in defined}
        ordered: List[_Class] = []
        state: Dict[StrVar, int] = {}  # 0=visiting, 1=done

        def visit(cls: _Class) -> None:
            state[cls.rep] = 0
            for part in cls.definition or ():
                if isinstance(part, StrVar):
                    dep_rep = self._find(part)
                    dep = index.get(dep_rep)
                    if dep is None or state.get(dep_rep) == 1:
                        continue
                    if state.get(dep_rep) == 0:
                        # Cycle: demote this definition to a post-check.
                        self.checks.append(
                            Eq(cls.rep, _to_term(cls.definition))
                        )
                        cls.definition = None
                        state[cls.rep] = 1
                        return
                    visit(dep)
                    if cls.definition is None:
                        state[cls.rep] = 1
                        return
            state[cls.rep] = 1
            ordered.append(cls)

        for cls in defined:
            if cls.rep not in state:
                visit(cls)
        return ordered

    # -- constant propagation ---------------------------------------------------

    def _propagate_constants(self) -> None:
        """Invert concatenation definitions against known constants.

        When a class has both a constant value and a definition
        ``x1 ++ ... ++ xn``, known parts are stripped and a single unknown
        part is solved exactly (the shape CEGAR refinements and DSE path
        constraints like ``C1 = "timeout"`` produce).  With several
        unknowns, every substring of the constant becomes a *generation
        hint* for those classes, so the DFS can discover the split.
        """
        changed = True
        while changed:
            changed = False
            for cls in list(self.classes.values()):
                if cls.const is None or cls.definition is None:
                    continue
                elements: List[Tuple[str, object]] = []
                for part in cls.definition:
                    if isinstance(part, StrConst):
                        elements.append(("known", part.value))
                    else:
                        part_cls = self._class(part)
                        if part_cls.undef:
                            raise _UnsatCore()
                        if part_cls.const is not None:
                            elements.append(("known", part_cls.const))
                        else:
                            elements.append(("unknown", part_cls))
                unknowns = [e for e in elements if e[0] == "unknown"]
                if not unknowns:
                    if "".join(v for _, v in elements) != cls.const:
                        raise _UnsatCore()
                    cls.definition = None  # fully discharged
                    changed = True
                elif len(unknowns) == 1 and len(
                    {id(e[1]) for e in unknowns}
                ) == 1:
                    value = cls.const
                    index = elements.index(unknowns[0])
                    prefix = "".join(v for _, v in elements[:index])
                    suffix = "".join(v for _, v in elements[index + 1:])
                    if not (
                        value.startswith(prefix)
                        and value.endswith(suffix)
                        and len(value) >= len(prefix) + len(suffix)
                    ):
                        raise _UnsatCore()
                    middle = value[len(prefix):len(value) - len(suffix)]
                    self._set_const(unknowns[0][1], middle)
                    cls.definition = None
                    changed = True
                else:
                    # Multiple unknowns: seed generation with substrings.
                    for _, part_cls in unknowns:
                        part_cls.hints.update(
                            _substrings(cls.const, cap=512)
                        )

    # -- search ----------------------------------------------------------------

    def solve(self, deadline: float, limit: int) -> Tuple[str, Optional[Model]]:
        """Solve this core with one per-class candidate ``limit``.

        Iterative deepening lives in :meth:`Solver.solve` (outer loop over
        limits, inner loop over cores) so a single expensive core cannot
        starve the others."""
        try:
            self._ingest()
            free, defined = self._classify()
            self._propagate_constants()
            self._propagate_quotients()
            # Constant classes with an unresolved (multi-unknown) definition
            # become split constraints over their constant value.
            for cls in list(self.classes.values()):
                if cls.const is not None and cls.definition is not None:
                    self.splits.append((cls.rep, cls.definition))
                    cls.definition = None
            # Propagation and cycle-demotion change class roles; refresh.
            free = [
                cls
                for cls in list(self.classes.values())
                if not cls.undef
                and cls.const is None
                and cls.definition is None
            ]
            defined = [cls for cls in defined if cls.definition is not None]
            for cls in list(self.classes.values()):
                if cls.const is not None:
                    self._check_const_class(cls)
            self._refute_concatenations()
        except _UnsatCore:
            return UNSAT, None

        # Harvest constants from the core: substrings of literal strings are
        # prime candidates for free variables (e.g. a capture that must
        # concatenate into a constant word elsewhere).
        harvested: set = set()
        for literal in self.literals:
            _harvest_consts(literal, harvested)
        if harvested:
            hint_pool = set()
            for value in harvested:
                hint_pool |= _substrings(value, cap=128)
                if len(hint_pool) > 1024:
                    break
            for cls in free:
                cls.hints |= hint_pool

        # Classes that appear as parts of a split constraint are *deferred*:
        # the split solver assigns them from the target word, so the DFS
        # must not enumerate them independently.  Deferral is transitive
        # through definitions: if a deferred class has a definition, its
        # parts will be assigned by splitting the class's value.
        deferred: set = set()
        work: List[Term] = [
            part for _, parts in self.splits for part in parts
        ]
        while work:
            part = work.pop()
            if not isinstance(part, StrVar):
                continue
            rep = self._find(part)
            if rep in deferred:
                continue
            deferred.add(rep)
            part_cls = self._class(rep)
            if part_cls.definition is not None:
                work.extend(part_cls.definition)
        free_enumerated = [cls for cls in free if cls.rep not in deferred]

        automata: Dict[StrVar, Optional[object]] = {}
        for cls in free:
            dfa = self._automaton_for(cls)
            if dfa is not None and dfa.is_empty():
                return UNSAT, None
            automata[cls.rep] = dfa
        free = free_enumerated

        # Most-constrained-first: classes with an automaton and exclusions
        # are likelier to fail fast.
        free.sort(
            key=lambda cls: (
                automata[cls.rep] is None,
                -len(cls.excluded),
            )
        )

        status, model, exhaustive = self._search(
            free, defined, automata, limit, deadline
        )
        if status == SAT:
            return SAT, model
        if exhaustive:
            # Every candidate list was a complete enumeration and the
            # DFS covered the whole product: definitive UNSAT.
            return UNSAT, None
        return UNKNOWN, None

    def _check_const_class(self, cls: _Class) -> None:
        for regex in cls.pos_regexes:
            if not dfa_for(regex).accepts_word(cls.const):
                raise _UnsatCore()
        for regex in cls.neg_regexes:
            if dfa_for(regex).accepts_word(cls.const):
                raise _UnsatCore()
        if cls.const in cls.excluded:
            raise _UnsatCore()

    def _automaton_for(self, cls: _Class):
        """The class's constraint automaton — a *lazy* intersection.

        Returns ``None`` (unconstrained), a plain :class:`Dfa`, or a
        :class:`~repro.automata.lazy.LazyProduct`; all downstream uses
        (emptiness, word enumeration, membership of hints and split
        candidates) go through the query surface the product mirrors,
        so the full product automaton is never materialized.

        Alternation-heavy memberships stay lazy too: a positive
        ``x ∈ L(r1|...|rn)`` with at least
        ``Solver.lazy_union_min_options`` options becomes a
        :class:`~repro.automata.lazy.LazyUnion` of the per-option DFAs
        (nested into the product) instead of determinizing the union
        eagerly, and a *negative* one is rewritten by de Morgan into the
        per-option complements ``∩ ¬L(ri)`` — so neither polarity ever
        pays the subset-construction blowup of a wide alternation.
        """
        return lazy_intersect_all(
            self._membership_automata(cls) + cls.extra_dfas
        )

    def _membership_automata(self, cls: _Class) -> List[object]:
        """One automaton per membership literal on the class (a wide
        negated alternation contributes one per option)."""
        threshold = self.solver.lazy_union_min_options
        automata: List[object] = []
        for regex in cls.pos_regexes:
            options = _union_options(regex, threshold)
            if options is None:
                automata.append(dfa_for(regex))
            else:
                automata.append(
                    lazy_union_all([dfa_for(opt) for opt in options])
                )
        for regex in cls.neg_regexes:
            options = _union_options(regex, threshold)
            if options is None:
                automata.append(complement_dfa_for(regex))
            else:
                automata.extend(
                    complement_dfa_for(opt) for opt in options
                )
        return automata

    # -- upward propagation: refuting concatenations ---------------------------

    def _refute_concatenations(self) -> None:
        """Refute the core when a concatenation has an empty language.

        Each class gets a sound over-approximation of its language (see
        :meth:`_language`).  A defined class with memberships of its own
        is refuted when its approximation is empty; a split
        ``(t, parts)`` whose target is constrained is refuted when
        ``L(t) ∩ L(p1)·…·L(pn)`` is empty.  A check that runs out of
        its state budget (:data:`repro.automata.lazy.CONCAT_BUDGET`)
        proves nothing.
        """
        checks: List[Tuple[Term, Optional[Tuple[Term, ...]]]] = [
            (cls.rep, None)
            for cls in self.classes.values()
            if cls.definition is not None
            and (cls.pos_regexes or cls.neg_regexes)
        ]
        checks.extend(self.splits)
        for target, parts in checks:
            target_key = self._language(target, _membership_key)
            if parts is None:
                key = target_key
            elif target_key is None:
                continue  # Σ* target: the parts are checked on their own
            else:
                key = self._split_language(target_key, parts, _membership_key)

            def build(target=target, parts=parts):
                leaf = self._membership_automaton
                language = self._language(target, leaf)
                if parts is None:
                    return language
                return self._split_language(language, parts, leaf)

            if expression_is_empty(key, build):
                self.concat_refuted = True
                raise _UnsatCore()

    def _split_language(self, target, parts: Tuple[Term, ...], leaf):
        return ("and", (target, ("cat", tuple(
            self._language(part, leaf) for part in parts
        ))))

    def _language(self, term: Term, leaf, stack: Tuple[StrVar, ...] = ()):
        """An over-approximation of the values ``term`` can take, as an
        expression of :func:`repro.automata.lazy.expression_is_empty`:
        a constant's word, ``leaf(cls)`` for a free class, Σ* (``None``)
        for an unconstrained, ⊥ or cyclic class, and
        ``leaf(cls) ∩ L(p1)·…·L(pn)`` for ``x = p1 ++ … ++ pn``.

        With ``leaf`` = :meth:`_membership_automaton` this is the
        language; with :func:`_membership_key` it is its structural
        fingerprint (canonical regexes, constants, definition shape).
        """
        if isinstance(term, StrConst):
            return term.value
        if not isinstance(term, StrVar):
            return None
        rep = self._find(term)
        cls = self._class(rep)
        if cls.const is not None:
            return cls.const
        if cls.undef or rep in stack:
            return None
        own = leaf(cls)
        if cls.definition is None:
            return own
        stack += (rep,)
        return ("and", (own, ("cat", tuple(
            self._language(part, leaf, stack) for part in cls.definition
        ))))

    def _membership_automaton(self, cls: _Class):
        return lazy_intersect_all(self._membership_automata(cls))

    def _propagate_quotients(self) -> None:
        """Transfer memberships through single-unknown definitions.

        When ``x`` is defined as ``prefix ++ y ++ suffix`` with constant
        affixes and carries ``x ∈ L(A)``, then ``y`` must lie in the
        quotient ``prefix⁻¹ · A · suffix⁻¹`` — an exact automaton that
        guides ``y``'s generation (e.g. a trailing lookahead constrains
        the wildcard segment that follows the match)."""
        for cls in list(self.classes.values()):
            if cls.definition is None or not cls.pos_regexes:
                continue
            unknown: Optional[StrVar] = None
            prefix_parts: List[str] = []
            suffix_parts: List[str] = []
            feasible = True
            for part in cls.definition:
                if isinstance(part, StrConst):
                    value = part.value
                elif isinstance(part, StrVar):
                    part_cls = self._class(part)
                    if part_cls.const is not None:
                        value = part_cls.const
                    elif unknown is None and part_cls is not cls:
                        unknown = self._find(part)
                        continue
                    else:
                        feasible = False
                        break
                else:
                    feasible = False
                    break
                (suffix_parts if unknown is not None else prefix_parts).append(
                    value
                )
            if not feasible or unknown is None:
                continue
            prefix, suffix = "".join(prefix_parts), "".join(suffix_parts)
            target = self._class(unknown)
            for regex in cls.pos_regexes:
                quotient = (
                    dfa_for(regex)
                    .quotient_left(prefix)
                    .quotient_right(suffix)
                )
                target.extra_dfas.append(quotient)

    def _search(
        self,
        free: List[_Class],
        defined: List[_Class],
        automata: Dict[StrVar, Optional[object]],
        limit: int,
        deadline: float,
    ) -> Tuple[str, Optional[Model], bool]:
        candidate_lists: List[List[str]] = []
        exhaustive = True
        for cls in free:
            dfa = automata[cls.rep]
            if dfa is None:
                words = self.solver.default_words(limit)
                complete = False
            else:
                words = list(
                    dfa.words(
                        max_count=limit + 1,
                        max_length=self.solver.max_word_length,
                    )
                )
                complete = len(words) <= limit and not any(
                    len(word) >= self.solver.max_word_length for word in words
                )
                words = words[:limit]
            if cls.hints:
                # Hints follow the length-ordered candidates: they widen
                # the pool (e.g. constants a concatenation must hit) but
                # must not displace fresh short words, or refinement
                # exclusions would ladder through ever-longer hints.
                hinted = [
                    hint
                    for hint in sorted(cls.hints, key=lambda h: (len(h), h))
                    if hint not in words
                    and (dfa is None or dfa.accepts_word(hint))
                ]
                words = words + hinted
            words = [word for word in words if word not in cls.excluded]
            exhaustive = exhaustive and complete
            if not words:
                if complete:
                    return UNSAT, None, True  # finite language fully excluded
                return UNKNOWN, None, False
            candidate_lists.append(words)

        budget = self.solver.combo_budget
        tried = 0
        order = free

        # Early pruning: a check whose variables are all decided by DFS
        # level i can be evaluated right after that level instead of at
        # the leaf — this collapses infeasible subtrees immediately.
        checks_by_level = self._schedule_checks(order)

        def assign(index: int, model: Model) -> Optional[Model]:
            nonlocal tried
            if time.monotonic() > deadline:
                return None
            if index == len(order):
                return self._settle(model, defined, deadline)
            for word in candidate_lists[index]:
                tried += 1
                if tried > budget:
                    return None
                trial = model.copy()
                for member in order[index].members:
                    trial.set(member, word)
                if all(
                    _holds(check, trial)
                    for check in checks_by_level.get(index, ())
                ):
                    result = assign(index + 1, trial)
                    if result is not None:
                        return result
            return None

        base = Model()
        for cls in list(self.classes.values()):
            if cls.const is not None:
                for member in cls.members:
                    base.set(member, cls.const)
            elif cls.undef:
                for member in cls.members:
                    base.set(member, UNDEF)

        found = assign(0, base)
        self.solver._candidates_tried += tried
        if found is not None:
            return SAT, found, False
        if tried > budget or time.monotonic() > deadline:
            return UNKNOWN, None, False
        # The DFS covered the whole candidate product; the round is only
        # *definitive* if every candidate list was a complete enumeration.
        return (UNSAT, None, True) if exhaustive else (UNKNOWN, None, False)

    def _schedule_checks(
        self, order: List[_Class]
    ) -> Dict[int, List[Formula]]:
        """Map DFS level → checks fully determined once that level assigns.

        Checks touching defined/deferred classes stay at the leaf (handled
        by :meth:`_settle`); checks over free/constant classes run as soon
        as their last free class is assigned."""
        level_of: Dict[StrVar, int] = {}
        for i, cls in enumerate(order):
            level_of[cls.rep] = i
        scheduled: Dict[int, List[Formula]] = {}
        for check in self.checks:
            level = -1
            early = True
            for var in _formula_vars(check):
                rep = self._find(var)
                cls = self._class(rep)
                if cls.const is not None or cls.undef:
                    continue
                if rep in level_of:
                    level = max(level, level_of[rep])
                else:
                    early = False  # defined or deferred: leaf-time only
                    break
            if early:
                # Constant-only checks (level -1) run at the first level.
                scheduled.setdefault(max(level, 0), []).append(check)
        return scheduled

    # -- settling: defined classes + split constraints -------------------------

    def _settle(
        self, model: Model, defined: List[_Class], deadline: float
    ) -> Optional[Model]:
        """Complete a partial assignment: compute defined classes, solve
        split constraints (with backtracking over splits), then verify
        every literal.  ``None`` once ``deadline`` has passed: the
        search then reports UNKNOWN, never UNSAT."""
        return self._settle_rec(
            model, list(defined), list(self.splits), 0, deadline
        )

    def _settle_rec(
        self,
        model: Model,
        pending_defined: List[_Class],
        pending_splits: List[Tuple[StrVar, Tuple[Term, ...]]],
        depth: int,
        deadline: float,
    ) -> Optional[Model]:
        if depth > 16:  # backtracking safety valve
            return None
        if time.monotonic() > deadline:
            return None
        # Fixpoint: compute defined classes whose parts are all known.
        # A defined class whose *own* value arrived first (via an outer
        # split) flips direction: its definition becomes a further split
        # of that value.
        progress = True
        pending_defined = list(pending_defined)
        pending_splits = list(pending_splits)
        while progress:
            progress = False
            for cls in list(pending_defined):
                if cls.rep in model:
                    pending_defined.remove(cls)
                    pending_splits.append((cls.rep, cls.definition))
                    progress = True
                    continue
                term = _to_term(cls.definition)
                if not self._evaluable(term, model):
                    continue
                if not self._apply_class_value(cls, term, model):
                    return None
                pending_defined.remove(cls)
                progress = True

        if not pending_splits:
            for cls in pending_defined:
                # Unresolvable dependencies: fall back to defaults ("").
                if not self._apply_class_value(
                    cls, _to_term(cls.definition), model
                ):
                    return None
            return self._verify(model)

        # Solve the first split whose target word is already determined.
        for i, (target, parts) in enumerate(pending_splits):
            if not self._evaluable(target, model) and target not in model:
                continue
            target_cls = self._class(target)
            if target_cls.const is not None:
                value = target_cls.const
            elif target in model:
                value = model[target]
            else:
                continue
            if value is UNDEF:
                return None
            remaining = pending_splits[:i] + pending_splits[i + 1:]
            emitted = 0
            for assignment in self._enumerate_splits(
                value, parts, model, deadline
            ):
                emitted += 1
                if emitted > self.solver.split_cap:
                    break
                trial = model.copy()
                for rep, word in assignment.items():
                    for member in self._class(rep).members:
                        trial.set(member, word)
                result = self._settle_rec(
                    trial, pending_defined, remaining, depth + 1, deadline
                )
                if result is not None:
                    return result
            return None

        # No split target is determined (cyclic structure): give leftover
        # parts their defaults and verify.
        return self._verify(model)

    def _evaluable(self, term: Term, model: Model) -> bool:
        if isinstance(term, StrVar):
            cls = self._class(term)
            return term in model or cls.const is not None or cls.undef
        if isinstance(term, Concat):
            return all(self._evaluable(p, model) for p in term.parts)
        return True

    def _apply_class_value(
        self, cls: _Class, term: Term, model: Model
    ) -> bool:
        try:
            value = model.eval_term(term)
        except EvalError:
            return False
        if value in cls.excluded:
            return False
        for regex in cls.pos_regexes:
            if not dfa_for(regex).accepts_word(value):
                return False
        for regex in cls.neg_regexes:
            if dfa_for(regex).accepts_word(value):
                return False
        for member in cls.members:
            model.set(member, value)
        return True

    def _enumerate_splits(
        self,
        value: str,
        parts: Tuple[Term, ...],
        model: Model,
        deadline: float,
    ) -> Iterator[Dict[StrVar, str]]:
        """All ways to write ``value`` as the concatenation of ``parts``,
        respecting constants, prior assignments, per-class automata and
        exclusions.  Yields {class-rep: substring} assignments, and
        stops early once ``deadline`` has passed."""

        def part_dfa(rep: StrVar) -> Optional[object]:
            if rep not in self._split_dfa_cache:
                self._split_dfa_cache[rep] = self._automaton_for(
                    self._class(rep)
                )
            return self._split_dfa_cache[rep]

        def rec(
            pos: int, idx: int, chosen: Dict[StrVar, str]
        ) -> Iterator[Dict[StrVar, str]]:
            if idx == len(parts):
                if pos == len(value):
                    yield dict(chosen)
                return
            part = parts[idx]
            if isinstance(part, StrConst):
                if value.startswith(part.value, pos):
                    yield from rec(pos + len(part.value), idx + 1, chosen)
                return
            if isinstance(part, Undef):
                return
            rep = self._find(part)
            cls = self._class(rep)
            fixed: Optional[str] = None
            if rep in chosen:
                fixed = chosen[rep]
            elif cls.const is not None:
                fixed = cls.const
            elif rep in model:
                fixed = model[rep]
            if fixed is not None:
                if fixed is not UNDEF and value.startswith(fixed, pos):
                    yield from rec(pos + len(fixed), idx + 1, chosen)
                return
            dfa = part_dfa(rep)
            for end in range(pos, len(value) + 1):
                if time.monotonic() > deadline:
                    return
                sub = value[pos:end]
                if sub in cls.excluded:
                    continue
                if dfa is not None and not dfa.accepts_word(sub):
                    continue
                chosen[rep] = sub
                yield from rec(end, idx + 1, chosen)
                del chosen[rep]

        yield from rec(0, 0, {})

    def _verify(self, model: Model) -> Optional[Model]:
        for literal in self.literals:
            if not _holds(literal, model):
                return None
        for check in self.checks:
            if not _holds(check, model):
                return None
        return model


def _membership_key(cls: _Class):
    """The fingerprint of a class's membership automaton (``None`` for
    Σ*): its positive and negative regexes, canonically printed."""
    if not (cls.pos_regexes or cls.neg_regexes):
        return None
    return (
        "re",
        tuple(sorted(canonical_regex(r) for r in cls.pos_regexes)),
        tuple(sorted(canonical_regex(r) for r in cls.neg_regexes)),
    )


def _union_options(regex, threshold: int):
    """The options of a wide top-level alternation, or ``None``.

    ``None`` means "compile eagerly": the (capture-erased, with group
    wrappers peeled — ``(?:a|b|...)`` is how wide alternations are
    usually written) node is not an alternation, or it has fewer than
    ``threshold`` options — narrow unions determinize cheaply and a
    single minimized DFA answers membership faster than a lazy tuple
    walk.
    """
    if threshold <= 0:
        return None
    erased = erase_captures(regex)
    while isinstance(erased, regex_ast.NonCapGroup):
        erased = erased.child
    if (
        isinstance(erased, regex_ast.Alternation)
        and len(erased.options) >= threshold
    ):
        return list(erased.options)
    return None


def _formula_vars(formula: Formula) -> Iterator[StrVar]:
    """All string variables occurring in a formula."""
    if isinstance(formula, Not):
        yield from _formula_vars(formula.operand)
    elif isinstance(formula, (And, Or)):
        for op in formula.operands:
            yield from _formula_vars(op)
    elif isinstance(formula, Eq):
        yield from _term_vars(formula.left)
        yield from _term_vars(formula.right)
    elif isinstance(formula, InRe):
        yield from _term_vars(formula.term)


def _term_vars(term: Term) -> Iterator[StrVar]:
    if isinstance(term, StrVar):
        yield term
    elif isinstance(term, Concat):
        for part in term.parts:
            yield from _term_vars(part)


def _harvest_consts(formula: Formula, out: set) -> None:
    """Collect string literals occurring anywhere in a formula."""
    if isinstance(formula, Not):
        _harvest_consts(formula.operand, out)
    elif isinstance(formula, (And, Or)):
        for op in formula.operands:
            _harvest_consts(op, out)
    elif isinstance(formula, Eq):
        for term in (formula.left, formula.right):
            _harvest_term_consts(term, out)
    elif isinstance(formula, InRe):
        _harvest_term_consts(formula.term, out)


def _harvest_term_consts(term: Term, out: set) -> None:
    if isinstance(term, StrConst) and term.value:
        out.add(term.value)
    elif isinstance(term, Concat):
        for part in term.parts:
            _harvest_term_consts(part, out)


def _substrings(value: str, cap: int = 512) -> set:
    """All substrings of ``value`` (bounded) — split-generation hints."""
    out = {""}
    for start in range(len(value)):
        for end in range(start + 1, len(value) + 1):
            out.add(value[start:end])
            if len(out) >= cap:
                return out
    return out


def _polarity(literal: Formula) -> Tuple[bool, Formula]:
    if isinstance(literal, Not):
        return False, literal.operand
    return True, literal


def _const_value(term: Term) -> Value:
    if isinstance(term, StrConst):
        return term.value
    if isinstance(term, Undef):
        return UNDEF
    raise TypeError(f"not a constant: {term!r}")


def _to_term(parts: Iterable[Term]) -> Term:
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return Concat(parts)


def _holds(formula: Formula, model: Model) -> bool:
    """Evaluate a (NNF) formula under a total assignment."""
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Not):
        return not _holds(formula.operand, model)
    if isinstance(formula, And):
        return all(_holds(op, model) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_holds(op, model) for op in formula.operands)
    if isinstance(formula, Eq):
        try:
            return model.eval_term(formula.left) == model.eval_term(
                formula.right
            )
        except EvalError:
            return False
    if isinstance(formula, InRe):
        try:
            value = model.eval_term(formula.term)
        except EvalError:
            return False
        if value is UNDEF:
            return False
        return dfa_for(formula.regex).accepts_word(value)
    raise TypeError(f"cannot evaluate {formula!r}")


class Solver:
    """The public solver object (drop-in for the paper's use of Z3).

    Parameters bound the search: ``round_limits`` are per-class candidate
    counts for iterative deepening, ``combo_budget`` caps assignments per
    core, and ``timeout`` caps wall-clock time per query.
    """

    def __init__(
        self,
        round_limits: Sequence[int] = (12, 80, 600),
        combo_budget: int = 60_000,
        max_cores: int = 4_000,
        max_word_length: int = 48,
        split_cap: int = 512,
        timeout: float = 20.0,
        lazy_union_min_options: int = 4,
        stats: Optional[SolverStats] = None,
    ):
        self.round_limits = list(round_limits)
        self.combo_budget = combo_budget
        self.max_cores = max_cores
        self.max_word_length = max_word_length
        self.split_cap = split_cap
        self.timeout = timeout
        #: Alternations with at least this many options enter per-class
        #: automata as lazy unions (0 disables the lazy-union path).
        self.lazy_union_min_options = lazy_union_min_options
        self.stats = stats
        self._candidates_tried = 0

    def default_words(self, limit: int) -> List[str]:
        """Candidates for wholly unconstrained variables."""
        alphabet = ["", "a", "b", "0", "1", " ", "x", "ab", "a0", "-"]
        words = alphabet + ["a" * length for length in range(2, 6)]
        return words[:limit] if limit < len(words) else words

    def solve(self, formula: Formula) -> SolverResult:
        """Decide ``formula``; returns SAT with a model, UNSAT, or UNKNOWN.

        Iterative deepening over candidate limits is the *outer* loop: at
        each limit every conjunctive core gets a (cheap) chance before any
        core receives a bigger budget — a single hard core cannot starve
        the others."""
        start = time.perf_counter()
        deadline = time.monotonic() + self.timeout
        self._candidates_tried = 0
        concat_refuted = 0
        nnf = to_nnf(formula)
        cores_tried = 0
        saw_unknown = False
        status = UNSAT
        model = None
        for round_index, limit in enumerate(self.round_limits):
            saw_unknown = False
            round_cores = 0
            for literals in _enumerate_cores(nnf):
                round_cores += 1
                cores_tried += 1
                if round_cores > self.max_cores:
                    saw_unknown = True
                    break
                core = _Core(literals, self)
                core_status, core_model = core.solve(deadline, limit)
                # Later rounds re-solve the same cores: count each once.
                if core.concat_refuted and round_index == 0:
                    concat_refuted += 1
                if core_status == SAT:
                    status, model = SAT, core_model
                    break
                if core_status == UNKNOWN:
                    saw_unknown = True
                if time.monotonic() > deadline:
                    saw_unknown = True
                    break
            if status == SAT:
                break
            if not saw_unknown:
                status = UNSAT  # every core definitively refuted
                break
            if time.monotonic() > deadline:
                break
        if status != SAT and saw_unknown:
            status = UNKNOWN
        if self.stats is not None:
            self.stats.record(
                QueryRecord(
                    seconds=time.perf_counter() - start,
                    status=status,
                    cores_tried=cores_tried,
                    candidates_tried=self._candidates_tried,
                    concat_refuted=concat_refuted,
                )
            )
        return SolverResult(status, model, concat_refuted)


def _enumerate_cores(nnf: Formula) -> Iterator[List[Formula]]:
    """Lazily enumerate conjunctive cores (DNF branches) of an NNF formula."""
    if isinstance(nnf, And):
        def product(operands: Tuple[Formula, ...]) -> Iterator[List[Formula]]:
            if not operands:
                yield []
                return
            for head in _enumerate_cores(operands[0]):
                for tail in product(operands[1:]):
                    yield head + tail

        yield from product(nnf.operands)
    elif isinstance(nnf, Or):
        for option in nnf.operands:
            yield from _enumerate_cores(option)
    elif isinstance(nnf, BoolLit):
        if nnf.value:
            yield []
    else:
        yield [nnf]
