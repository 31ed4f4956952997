"""A string-constraint solver for the model's fragment (the Z3 stand-in).

The capturing-language translation (§4) and the CEGAR refinements
(Algorithm 1) emit formulas built from: (dis)equalities over
string/⊥-valued terms, concatenation equations, and classical regular
membership/non-membership.  This solver decides that fragment *bounded-ly*:

1. NNF + lazy DNF enumeration of conjunctive cores, pruned the way a
   DPLL(T) core abandons a partial assignment that theory reasoning
   refutes: a conjunction's literals come first, its disjunctions are
   expanded one option at a time, and each partial conjunction that
   still has disjunctions ahead runs the structural phase of steps 2–3
   (:meth:`_Core.refuted`).  A refuted one is skipped with every core
   that extends it.  This is sound because conjunction is monotone: a
   set of literals without a common model has none once more literals
   join it.  Once the query's :class:`Budget` is exhausted the
   enumeration stops pruning but never ends early, so running out reads
   UNKNOWN, not "every core refuted".  On the ``fuzz`` benchmark
   (2-core box) the pruning took the undecided checks from 58 to about
   10 per pass and ``wall_s`` from ~7.8 s to ~3.2 s.
   The structural phase is incremental along this depth-first
   expansion.  One :class:`_Core` carries the ingested state (union-find,
   constants, ⊥, definitions, splits, memberships, exclusions, checks)
   from a partial conjunction to its extensions: a conjunction undoes
   the literals after the longest prefix it shares with the previous
   one, from a trail of every mutation, and ingests the rest; the
   derived steps (classification, propagation, refutation) run on top
   and are undone in turn, so a verdict is exactly that of a new core
   on the same literals.  Facts about a class are memoized by a stamp
   that names its content and everything its definition reaches: the
   constant checks, acyclicity, and the language key of each
   concatenation check, so an unchanged check costs a few lookups.
   Leaves the structural phase refuted are not solved again in deeper
   rounds, and a solver keeps its core for the next query, whose first
   conjunction shares the intake when it shares the literals (the
   oracle's words of one pattern).  On ``fuzz``, over the checks decided
   with and without it, this cut the literals ingested per pass from
   ~18,800 to ~7,900 and the structural time ~1.9×; ``wall_s`` went
   from ~2.58 s to ~2.28 s;
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
   core is refuted when a defined class, a split target intersected
   with the concatenation of the split's parts, or a membership of a
   concatenation term intersected with it, has the empty language
   (a budgeted reachability check, see
   :func:`repro.automata.lazy.expression_is_empty`).  A negated
   membership counts only when every part is known to be a string: a ⊥
   part leaves the concatenation undefined and the literal true;
4. candidate generation for *free* classes by length-ordered word
   enumeration from their automata (then ⊥, for a class no literal
   forces to be a string), with iterative deepening, followed by
   settling defined classes and splits and full re-checking of every
   literal.  The whole query spends from one :class:`Budget` of work
   units, ``timeout × UNITS_PER_SECOND``; ``timeout`` itself stays as a
   wall-clock backstop.  A query that runs out of units stops at the
   same point on every run, whatever the load of the machine.

Like any string solver on an undecidable theory (§5.3 cites Bjørner et
al.), the search is bounded: ``UNKNOWN`` is a possible answer.  ``UNSAT``
is reported only when every core is refuted *definitively* — structurally
(conflicting constants, empty automata, ⊥-conflicts) or by a provably
complete enumeration (every candidate list finite and fully covered, and
no class left to a default value).
Budget exhaustion alone always yields ``UNKNOWN``, which keeps DSE's use
of unsatisfiability sound.  Every ``UNKNOWN`` names its cause
(:attr:`SolverResult.unknown_cause`): only ``timeout``, the backstop,
depends on the wall clock; the others are a function of the formula and
the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.automata import (
    complement_dfa_for,
    dfa_for,
    lazy_intersect_all,
    lazy_union_all,
)
from repro.automata.build import erase_captures
from repro.automata.dfa import Dfa, word_list
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

#: A solver keeps its incremental core for the next query while the
#: core's memo tables hold at most this many entries.
CORE_MEMO_CAP = 1 << 16

#: Work units a query may spend per second of its ``timeout`` (see
#: :class:`Budget`).  On the ``table7``, ``fuzz`` and ``serve``
#: benchmarks (2-core box) every decided query spent at most ~14,500
#: units, under 0.6 of the smallest budget (25,000 at a 0.1 s timeout);
#: the undecided ``table7`` queries reach ~400,000 units within their
#: 0.5 s and the two undecided ``serve`` literals ~45,000 within 0.1 s,
#: so they run out of units well before the wall-clock backstop.
UNITS_PER_SECOND = 250_000

#: Why a query answered UNKNOWN (:attr:`SolverResult.unknown_cause`):
#: its work budget ran out; the wall-clock backstop fired first; a
#: core's candidate product passed ``combo_budget``; a split
#: enumeration passed ``split_cap``; settling backtracked past its
#: depth; a round enumerated more than ``max_cores`` cores; or a
#: candidate list or a settled class was a guess, not an enumeration
#: (``default_guess``).  ``refinement_limit`` is the CEGAR loop's.
BUDGET = "budget"
TIMEOUT = "timeout"
CANDIDATES = "candidates"
SPLIT_CAP = "split_cap"
SETTLE_DEPTH = "settle_depth"
MAX_CORES = "max_cores"
DEFAULT_GUESS = "default_guess"


@dataclass
class SolverResult:
    status: str
    model: Optional[Model] = None
    #: Cores and partial conjunctions the query refuted by upward
    #: language propagation.
    concat_refuted: int = 0
    #: Cores enumerated over all deepening rounds (a leaf the structural
    #: phase refuted counts in every round but is solved once) and
    #: candidate words tried.
    cores_tried: int = 0
    candidates_tried: int = 0
    #: Partial conjunctions refuted during core enumeration; every core
    #: extending one of them was skipped.
    prefixes_refuted: int = 0
    #: Literals taken into the query's incremental state: each one a
    #: conjunction shares with the previously judged one is not counted.
    literals_ingested: int = 0
    #: Work units spent from the query's :class:`Budget`.
    units: int = 0
    #: Why the answer is UNKNOWN (one of the cause names above);
    #: ``None`` for SAT and UNSAT, and for a backend that names none.
    unknown_cause: Optional[str] = None

    def __bool__(self) -> bool:
        return self.status == SAT


class Budget:
    """One query's allowance of work units, with wall time as a backstop.

    The solver charges a unit per core or prefix judged, literal
    ingested, eight trail entries undone, restamp
    (:meth:`_Core._touch`), DFS assignment, settle step and split step,
    and one per character of each membership test on a candidate word.  :meth:`exhausted` is
    asked wherever the search may stop.  Units are a function of the
    work done, so a query that runs out of them stops at the same point
    on every run; only when ``timeout`` seconds pass first does the
    cause read ``timeout``, which depends on the machine's load.
    """

    __slots__ = ("allowance", "spent", "deadline", "cause")

    def __init__(self, timeout: float):
        self.allowance = int(timeout * UNITS_PER_SECOND)
        self.spent = 0
        self.deadline = time.monotonic() + timeout
        #: :data:`BUDGET` or :data:`TIMEOUT` once :meth:`exhausted` has
        #: said so; it then says so for the rest of the query.
        self.cause: Optional[str] = None

    def exhausted(self) -> bool:
        if self.cause is None:
            if self.spent > self.allowance:
                self.cause = BUDGET
            elif time.monotonic() > self.deadline:
                self.cause = TIMEOUT
        return self.cause is not None


class _UnsatCore(Exception):
    """Internal: the current conjunctive core is structurally unsatisfiable."""


@dataclass(eq=False)
class _Class:
    """One union-find equivalence class of string variables (compared
    by identity: ``users`` links classes into cycles)."""

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
    #: Set once the class is merged into another one.  A merged class
    #: stays in ``_Core.classes`` so that the live ones keep their order
    #: when a merge is undone.
    merged: bool = False
    #: Names the content of the class and of every class its definition
    #: reaches (see :meth:`_Core._touch`), so facts derived from a class
    #: can be memoized by its stamp.
    stamp: int = 0
    #: Classes whose definition (now or earlier) has a part in this one.
    users: List["_Class"] = field(default_factory=list)


#: Kinds of trail records, each undoing one mutation of a core's state:
#: ``(_ASSIGN, obj, name, old)``, ``(_TRUNCATE, list, length)``,
#: ``(_DISCARD, set, added)``, ``(_FORGET, dict, key)`` and
#: ``(_RELABEL, merged_class)``.
_ASSIGN, _TRUNCATE, _DISCARD, _FORGET, _RELABEL = range(5)
_PENDING = object()


class _Core:
    """Decides conjunctions of literals on one incremental state.

    The state is that of the literals in :attr:`literals`, ingested in
    order.  Every mutation is pushed on a trail, so the state of any
    prefix of them can be restored.  A conjunction is judged
    (:meth:`refuted`) or solved (:meth:`solve`) after undoing the
    ingested literals back to the longest prefix it shares with them and
    ingesting the rest; the structural phase and the search run on top
    and are undone when they return.  The state a conjunction is judged
    on is therefore the one a new core would build from its literals.
    """

    def __init__(self, solver: "Solver"):
        self.solver = solver
        #: Union-find as a map from each known variable to its class's
        #: representative (a merge relabels the absorbed members).
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
        #: The ingested literals, the trail length before each one, and
        #: the index of the one whose intake refuted them (or ``None``).
        self.literals: List[Formula] = []
        self._marks: List[int] = []
        self._conflict: Optional[int] = None
        self._trail: List[tuple] = []
        #: Literals ingested over the core's lifetime.
        self.literals_ingested = 0
        #: Set by :meth:`start_query` until the query's first intake.
        self._starting = False
        #: The memo tables, kept across conjunctions and across queries
        #: that share literals (see :meth:`_touch`): the stamp table
        #: ((old stamp, change) → new stamp); the stamps of constant
        #: classes whose checks pass and of defined classes no
        #: definition cycle reaches; the language node of each stamp,
        #: the numbering of nodes and each number's structural key (see
        #: :meth:`_node`).  None depends on a budget: emptiness verdicts
        #: live in :func:`expression_is_empty`'s memo.
        self._stamps: Dict[tuple, int] = {}
        self._consts_ok: set = set()
        self._acyclic: set = set()
        self._nodes: Dict[int, object] = {}
        self._numbers: Dict[tuple, int] = {}
        self._keys: Dict[int, object] = {}
        #: Every regex the core has seen, by ``id``: stamps and memos
        #: name regexes by ``id``, so none may be freed while they live.
        self._regexes: Dict[int, object] = {}
        #: Class rep → lazy/eager constraint automaton (or ``None``).
        self._split_dfa_cache: Dict[StrVar, Optional[object]] = {}
        #: The budget the current query spends from (the core is popped
        #: per query, so no two threads share one).
        self.budget = Budget(solver.timeout)
        #: Set when upward propagation refuted the last conjunction.
        self.concat_refuted = False
        #: The cause, once settling guessed: it gave undetermined
        #: classes their default, capped a split enumeration or stopped
        #: backtracking.  A search that found nothing then proves nothing.
        self.settle_guess: Optional[str] = None
        #: Why the last :meth:`solve` answered UNKNOWN.
        self.unknown_cause: Optional[str] = None
        #: Set when the last :meth:`solve` was answered by the
        #: structural phase.
        self.structurally_refuted = False

    # -- the trail -------------------------------------------------------------

    def _assign(self, obj, name: str, value) -> None:
        self._trail.append((_ASSIGN, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def _stamp(self, key: tuple) -> int:
        stamp = self._stamps.get(key)
        if stamp is None:
            stamp = self._stamps[key] = len(self._stamps) + 1
        return stamp

    def _touch(self, cls: _Class, change) -> _Class:
        """Restamp ``cls``, about to undergo ``change``, and every class
        whose definition reaches it.

        A new stamp is a function of the old one and the change (for a
        user: of the new stamp of the class it reaches), and a class's
        first stamp of its representative.  So a stamp determines the
        content of the class and of everything its definition reaches,
        and replaying the same literals, or the same propagation, gives
        the same stamps and hits the same memoized facts.  A ``change``
        no memo reads (hints, quotients) is a new ``object()``."""
        stamps, trail = self._stamps, self._trail
        self.budget.spent += 1
        touched = set()
        work = [(cls, change)]
        while work:
            changed, change = work.pop()
            if changed.users:
                if id(changed) in touched:
                    continue
                touched.add(id(changed))
            key = (changed.stamp, change)
            stamp = stamps.get(key) or self._stamp(key)
            trail.append((_ASSIGN, changed, "stamp", changed.stamp))
            changed.stamp = stamp
            for user in changed.users:
                work.append((user, stamp))
        return cls

    def _set(self, cls: _Class, name: str, value) -> None:
        change = (name, value)
        if name == "definition" and value is not None:
            # The definition reaches its parts as they are now; their
            # later changes reach it through ``users``.
            change += (tuple(
                self._class(part).stamp
                for part in value
                if isinstance(part, StrVar)
            ),)
        self._assign(self._touch(cls, change), name, value)
        if name == "definition" and value is not None:
            for part in value:
                if isinstance(part, StrVar):
                    self._append(self._class(part).users, cls)

    def _append(self, items: list, item) -> None:
        self._trail.append((_TRUNCATE, items, len(items)))
        items.append(item)

    def _extend(self, items: list, more: list) -> None:
        if more:
            self._trail.append((_TRUNCATE, items, len(items)))
            items.extend(more)

    def _add_all(self, values: set, more: Iterable) -> None:
        added = set(more).difference(values)
        if added:
            self._trail.append((_DISCARD, values, added))
            values |= added

    def _add_hints(self, cls: _Class, hints: set) -> None:
        if not hints <= cls.hints:
            self._add_all(self._touch(cls, object()).hints, hints)

    def _undo(self, mark: int) -> None:
        """Restore the state from when the trail had ``mark`` records."""
        trail = self._trail
        # An entry undone is a field write, far cheaper than the steps
        # a unit stands for elsewhere: eight of them make one unit.
        self.budget.spent += (len(trail) - mark + 7) // 8
        for record in reversed(trail[mark:]):
            kind = record[0]
            if kind == _ASSIGN:
                setattr(record[1], record[2], record[3])
            elif kind == _TRUNCATE:
                del record[1][record[2]:]
            elif kind == _DISCARD:
                record[1].difference_update(record[2])
            elif kind == _FORGET:
                del record[1][record[2]]
            else:
                merged = record[1]
                for member in merged.members:
                    self.parent[member] = merged.rep
        del trail[mark:]

    def _load(self, literals: Sequence[Formula]) -> bool:
        """Make ``literals`` the ingested conjunction, keeping the longest
        prefix it shares with the current one; ``False`` when their
        intake already refutes them."""
        ingested = self.literals
        common, shared = 0, min(len(ingested), len(literals))
        while common < shared and ingested[common] is literals[common]:
            common += 1
        if self._conflict is not None and self._conflict < common:
            return False
        if common < len(ingested):
            self._backtrack(common)
        if self._starting:
            self._starting = False
            if not common:
                self._forget()
        for literal in literals[common:]:
            self._marks.append(len(self._trail))
            ingested.append(literal)
            self.literals_ingested += 1
            self.budget.spent += 1
            try:
                self._ingest(literal)
            except _UnsatCore:
                self._conflict = len(ingested) - 1
                return False
        return True

    def start_query(self) -> None:
        """The next conjunction is a new query's first.  When it shares
        no literal with the ingested ones, the memo tables are dropped:
        they would serve the old query's formula only."""
        self._starting = True

    def _forget(self) -> None:
        for memo in (
            self._stamps, self._consts_ok, self._acyclic, self._nodes,
            self._numbers, self._keys, self._regexes,
        ):
            memo.clear()

    def memo_size(self) -> int:
        return len(self._stamps) + len(self._numbers)

    def _backtrack(self, keep: int) -> None:
        """Undo the intake of every ingested literal after the first
        ``keep``."""
        self._undo(self._marks[keep])
        del self.literals[keep:], self._marks[keep:]
        self._conflict = None

    # -- union-find ----------------------------------------------------------

    def _find(self, var: StrVar) -> StrVar:
        root = self.parent.get(var)
        if root is None:
            self.parent[var] = root = var
            self._trail.append((_FORGET, self.parent, var))
        return root

    def _class(self, var: StrVar) -> _Class:
        root = self._find(var)
        cls = self.classes.get(root)
        if cls is None:
            cls = self.classes[root] = _Class(
                rep=root, members=[root], stamp=self._stamp(("new", root))
            )
            self._trail.append((_FORGET, self.classes, root))
        return cls

    def _live(self) -> List[_Class]:
        return [cls for cls in self.classes.values() if not cls.merged]

    def _union(self, a: StrVar, b: StrVar) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        ca, cb = self._class(ra), self._class(rb)
        for member in cb.members:
            self.parent[member] = ra
        self._trail.append((_RELABEL, cb))
        self._touch(ca, ("merge", cb.stamp))
        self._assign(self._touch(cb, ("merged", ca.stamp)), "merged", True)
        self._extend(ca.users, cb.users)
        self._extend(ca.members, cb.members)
        self._extend(ca.pos_regexes, cb.pos_regexes)
        self._extend(ca.neg_regexes, cb.neg_regexes)
        self._add_all(ca.excluded, cb.excluded)
        self._add_all(ca.hints, cb.hints)
        self._extend(ca.extra_dfas, cb.extra_dfas)
        if cb.const is not None:
            self._set_const(ca, cb.const)
        if cb.undef:
            self._set_undef(ca)
        if cb.definition is not None and ca.definition is None:
            self._set(ca, "definition", cb.definition)
        elif cb.definition is not None:
            self._append(self.checks, Eq(ca.rep, _to_term(cb.definition)))

    def _set_const(self, cls: _Class, value: str) -> None:
        if cls.undef:
            raise _UnsatCore()
        if cls.const is not None and cls.const != value:
            raise _UnsatCore()
        if cls.const is None:
            self._set(cls, "const", value)

    def _set_undef(self, cls: _Class) -> None:
        if cls.const is not None:
            raise _UnsatCore()
        if not cls.undef:
            self._set(cls, "undef", True)

    # -- literal intake ------------------------------------------------------

    def _ingest(self, literal: Formula) -> None:
        positive, atom = _polarity(literal)
        if isinstance(atom, BoolLit):
            if atom.value != positive:
                raise _UnsatCore()
        elif isinstance(atom, Eq):
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
            self._append(self.splits, (bridge, rhs))

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
            self._set(cls, "definition", parts)
        else:
            self._append(self.splits, (var, parts))

    def _ingest_neq(self, left: Term, right: Term) -> None:
        # var ≠ "const" prunes candidate enumeration directly; everything
        # else is verified after assignment.
        lhs, rhs = flatten(left), flatten(right)
        if len(lhs) == 1 and len(rhs) == 1:
            a, b = lhs[0], rhs[0]
            if isinstance(a, StrVar) and isinstance(b, StrConst):
                self._exclude(self._class(a), b.value)
            elif isinstance(b, StrVar) and isinstance(a, StrConst):
                self._exclude(self._class(b), a.value)
        self._append(self.neqs, (left, right))

    def _exclude(self, cls: _Class, value: str) -> None:
        if value not in cls.excluded:
            self._add_all(self._touch(cls, ("excluded", value)).excluded, (value,))

    def _ingest_membership(self, term: Term, regex, positive: bool) -> None:
        self._regexes[id(regex)] = regex
        atoms = flatten(term)
        if len(atoms) == 1 and isinstance(atoms[0], StrVar):
            cls = self._touch(self._class(atoms[0]), (positive, id(regex)))
            self._append(cls.pos_regexes if positive else cls.neg_regexes, regex)
        elif len(atoms) == 1 and isinstance(atoms[0], StrConst):
            accepted = dfa_for(regex).accepts_word(atoms[0].value)
            if accepted != positive:
                raise _UnsatCore()
        else:
            check = InRe(term, regex)
            self._append(self.checks, check if positive else Not(check))

    # -- consistency + classification -----------------------------------------

    def _classify(self, search: bool) -> List[_Class]:
        """Validate each class; its defined ones, in dependency order for
        a ``search``.  A refutation only needs the demotions of
        :meth:`_order_definitions`, and there are none when every
        defined class's stamp was seen without a cycle."""
        defined: List[_Class] = []
        for cls in self._live():
            if cls.undef:
                if cls.pos_regexes or cls.definition is not None:
                    raise _UnsatCore()
                continue
            if cls.const is not None:
                self._check_const_class(cls)
                if cls.definition is not None:
                    # A constant class with a concatenation definition still
                    # constrains the definition's variables — re-check later.
                    self._append(
                        self.checks, Eq(cls.rep, _to_term(cls.definition))
                    )
                continue
            if cls.definition is not None:
                defined.append(cls)
        if not search and all(cls.stamp in self._acyclic for cls in defined):
            return defined
        ordered = self._order_definitions(defined)
        if len(ordered) == len(defined):
            self._acyclic.update(cls.stamp for cls in defined)
        return ordered

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
                        self._append(
                            self.checks, Eq(cls.rep, _to_term(cls.definition))
                        )
                        self._set(cls, "definition", None)
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

    def _propagate_constants(self, hints: bool) -> None:
        """Invert concatenation definitions against known constants.

        When a class has both a constant value and a definition
        ``x1 ++ ... ++ xn``, known parts are stripped and a single unknown
        part is solved exactly (the shape CEGAR refinements and DSE path
        constraints like ``C1 = "timeout"`` produce).  With several
        unknowns, every substring of the constant becomes a *generation
        hint* for those classes (when ``hints`` is set), so the DFS can
        discover the split.
        """
        changed = True
        while changed:
            changed = False
            for cls in self._live():
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
                    self._set(cls, "definition", None)  # fully discharged
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
                    self._set(cls, "definition", None)
                    changed = True
                elif hints:
                    # Multiple unknowns: seed generation with substrings.
                    for _, part_cls in unknowns:
                        self._add_hints(
                            part_cls, _substrings(cls.const, cap=512)
                        )

    # -- structural phase --------------------------------------------------------

    def refuted(self, literals: Sequence[Formula]) -> bool:
        """Run the structural phase on ``literals``; ``True`` when it
        refutes them.

        The phase needs no candidate search and no budget check, and its
        refutations are sound: a refuted conjunction has no model, and
        neither has any superset of its literals (the prefix pruning of
        :func:`_enumerate_cores`)."""
        self.concat_refuted = False
        if not self._load(literals):
            return True
        mark = len(self._trail)
        try:
            self._structure(search=False)
        except _UnsatCore:
            return True
        finally:
            self._undo(mark)
        return False

    def _structure(self, search: bool) -> Tuple[List[_Class], List[_Class]]:
        """Classify and propagate the ingested literals; ``(free,
        defined)`` classes.  Generation hints and quotient automata are
        only derived for a ``search``: no refutation reads them."""
        defined = self._classify(search)
        self._propagate_constants(hints=search)
        if search:
            self._propagate_quotients()
        # Constant classes with an unresolved (multi-unknown) definition
        # become split constraints over their constant value.
        for cls in self._live():
            if cls.const is not None and cls.definition is not None:
                self._append(self.splits, (cls.rep, cls.definition))
                self._set(cls, "definition", None)
        # Propagation and cycle-demotion change class roles; refresh.
        live = self._live()
        free = [
            cls
            for cls in live
            if not cls.undef
            and cls.const is None
            and cls.definition is None
        ]
        defined = [cls for cls in defined if cls.definition is not None]
        for cls in live:
            if cls.const is not None:
                self._check_const_class(cls)
        self._refute_concatenations()
        return free, defined

    # -- search ----------------------------------------------------------------

    def solve(
        self, literals: Sequence[Formula], budget: Budget, limit: int
    ) -> Tuple[str, Optional[Model]]:
        """Solve the core ``literals`` with one per-class candidate
        ``limit``, spending from the query's ``budget``.

        Iterative deepening lives in :meth:`Solver.solve` (outer loop over
        limits, inner loop over cores) so a single expensive core cannot
        starve the others.  :attr:`structurally_refuted` tells whether an
        UNSAT came from the structural phase, which no deeper round can
        change, and :attr:`unknown_cause` why an UNKNOWN is one."""
        self.budget = budget
        self.concat_refuted = False
        self.settle_guess = None
        self.unknown_cause = None
        self.structurally_refuted = True
        self._split_dfa_cache = {}
        if not self._load(literals):
            return UNSAT, None
        mark = len(self._trail)
        try:
            return self._solve(limit)
        finally:
            self._undo(mark)

    def _solve(self, limit: int) -> Tuple[str, Optional[Model]]:
        try:
            free, defined = self._structure(search=True)
        except _UnsatCore:
            return UNSAT, None
        self.structurally_refuted = False

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
                self._add_hints(cls, hint_pool)

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

        # A free class no literal forces to be a string may be ⊥: ⊥
        # satisfies its negated memberships and disequalities.
        concatenated = self._concatenated()
        undefinable = {
            cls.rep
            for cls in free
            if not cls.pos_regexes and cls.rep not in concatenated
        }
        automata: Dict[StrVar, Optional[object]] = {}
        for cls in free:
            dfa = self._automaton_for(cls)
            if (
                dfa is not None
                and dfa.is_empty()
                and cls.rep not in undefinable
            ):
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

        return self._search(free, defined, automata, undefinable, limit)

    def _check_const_class(self, cls: _Class) -> None:
        if cls.stamp in self._consts_ok:
            return
        for regex in cls.pos_regexes:
            if not dfa_for(regex).accepts_word(cls.const):
                raise _UnsatCore()
        for regex in cls.neg_regexes:
            if dfa_for(regex).accepts_word(cls.const):
                raise _UnsatCore()
        if cls.const in cls.excluded:
            raise _UnsatCore()
        self._consts_ok.add(cls.stamp)

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
        ``L(t) ∩ L(p1)·…·L(pn)`` is empty, and a membership
        ``p1 ++ … ++ pn ∈ L(r)`` (or ``∉``, when every part is a
        string, see :meth:`_strings_only`) when ``L(r)`` (or its
        complement) ``∩ L(p1)·…·L(pn)`` is.  A check that runs out of
        its state budget (:data:`repro.automata.lazy.CONCAT_BUDGET`)
        proves nothing.

        The key of each check is assembled from the structural keys of
        its parts' nodes (:meth:`_node`), so a check whose classes did
        not change since an earlier conjunction costs a lookup per part
        and one in :func:`expression_is_empty`'s memo.
        """
        checks: List[Tuple[object, Callable[[], object], Tuple[Term, ...]]] = []
        for cls in self._live():
            if cls.definition is not None and (
                cls.pos_regexes or cls.neg_regexes
            ):
                checks.append((
                    self._own_node(cls),
                    lambda cls=cls: self._membership_automaton(cls),
                    cls.definition,
                ))
        for target, parts in self.splits:
            target_node = self._node(target)
            if target_node is not None:  # a Σ* target proves nothing
                checks.append((
                    target_node,
                    lambda target=target: self._language(target),
                    parts,
                ))
        for check in self.checks:
            positive, atom = _polarity(check)
            if not isinstance(atom, InRe):
                continue
            # ``p1 ++ … ++ pn ∉ L(r)`` also holds when a part is ⊥ (the
            # concatenation is then undefined), which the string
            # languages below do not cover.
            if positive or self._strings_only(flatten(atom.term)):
                own = dfa_for if positive else complement_dfa_for
                checks.append((
                    ("re", canonical_regex(atom.regex), positive),
                    lambda own=own, regex=atom.regex: own(regex),
                    flatten(atom.term),
                ))
        keys = self._keys
        for own_node, own, parts in checks:
            key = ("and", (keys.get(own_node, own_node), ("cat", tuple(
                keys.get(node, node)
                for node in [self._node(part) for part in parts]
            ))))

            def build(own=own, parts=parts):
                return ("and", (own(), ("cat", tuple(
                    self._language(part) for part in parts
                ))))

            if expression_is_empty(key, build):
                self.concat_refuted = True
                raise _UnsatCore()

    def _strings_only(self, parts: Tuple[Term, ...]) -> bool:
        """Whether every part is a string in each model of the core.

        A part is when it is a constant, or a variable whose class has a
        constant, a definition or a positive membership, or occurs in a
        definition or split (a concatenation with a ⊥ part is undefined,
        so the equation would not hold).  Any other variable may be ⊥;
        more literals only add evidence, so the answer is monotone, as
        the prefix pruning of :func:`_enumerate_cores` requires."""
        concatenated = self._concatenated()
        for part in parts:
            if isinstance(part, StrConst):
                continue
            if not isinstance(part, StrVar) or part not in self.parent:
                return False
            cls = self._class(part)
            if not (
                cls.const is not None
                or cls.definition is not None
                or cls.pos_regexes
                or cls.rep in concatenated
            ):
                return False
        return True

    def _concatenated(self) -> set:
        """Representatives of the classes that are a part of a
        definition, or the target or a part of a split."""
        equations = [(target,) + rest for target, rest in self.splits]
        equations.extend(
            cls.definition for cls in self._live() if cls.definition is not None
        )
        return {
            self._find(var)
            for equation in equations
            for var in equation
            if isinstance(var, StrVar)
        }

    def _language(self, term: Term, stack: Tuple[StrVar, ...] = ()):
        """An over-approximation of the values ``term`` can take, as an
        expression of :func:`repro.automata.lazy.expression_is_empty`:
        a constant's word, the membership automaton of a free class, Σ*
        (``None``) for an unconstrained, ⊥ or cyclic class, and
        ``A ∩ L(p1)·…·L(pn)`` for ``x = p1 ++ … ++ pn`` with ``x``'s
        membership automaton ``A``."""
        if isinstance(term, StrConst):
            return term.value
        if not isinstance(term, StrVar) or term not in self.parent:
            return None  # ⊥, or a variable that only checks mention
        rep = self._find(term)
        cls = self._class(rep)
        if cls.const is not None:
            return cls.const
        if cls.undef or rep in stack:
            return None
        own = self._membership_automaton(cls)
        if cls.definition is None:
            return own
        stack += (rep,)
        return ("and", (own, ("cat", tuple(
            self._language(part, stack) for part in cls.definition
        ))))

    def _node(self, term: Term):
        """:meth:`_language` by number: a constant's word, ``None`` for
        Σ*, or a number interning a free class's memberships (their
        regexes) or a defined class's ``("d", own, parts)``.  A class's
        node is memoized by its stamp; :attr:`_keys` maps each number to
        the structural key :func:`expression_is_empty` memoizes under
        (:func:`_membership_key` at the leaves)."""
        if isinstance(term, StrConst):
            return term.value
        root = self.parent.get(term)
        if root is None:
            return None  # ⊥, or a variable that only checks mention
        cls = self.classes.get(root) or self._class(root)
        node = self._nodes.get(cls.stamp, _PENDING)
        if node is _PENDING:
            self._nodes[cls.stamp] = None  # a cycle is Σ*
            node = self._nodes[cls.stamp] = self._class_node(cls)
        return node

    def _class_node(self, cls: _Class):
        if cls.const is not None:
            return cls.const
        if cls.undef:
            return None
        own = self._own_node(cls)
        keys = self._keys
        if cls.definition is None:
            return own if keys[own] is not None else None
        parts = tuple([self._node(part) for part in cls.definition])
        node = ("d", own, parts)
        number = self._numbers.get(node)
        if number is None:
            number = self._numbers[node] = len(self._numbers)
            keys[number] = ("and", (keys[own], ("cat", tuple(
                [keys.get(part, part) for part in parts]
            ))))
        return number

    def _own_node(self, cls: _Class) -> int:
        node = (tuple(map(id, cls.pos_regexes)), tuple(map(id, cls.neg_regexes)))
        number = self._numbers.get(node)
        if number is None:
            number = self._numbers[node] = len(self._numbers)
            self._keys[number] = _membership_key(cls)
        return number

    def _membership_automaton(self, cls: _Class):
        return lazy_intersect_all(self._membership_automata(cls))

    def _propagate_quotients(self) -> None:
        """Transfer memberships through single-unknown definitions.

        When ``x`` is defined as ``prefix ++ y ++ suffix`` with constant
        affixes and carries ``x ∈ L(A)``, then ``y`` must lie in the
        quotient ``prefix⁻¹ · A · suffix⁻¹`` — an exact automaton that
        guides ``y``'s generation (e.g. a trailing lookahead constrains
        the wildcard segment that follows the match)."""
        for cls in self._live():
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
                self._append(self._touch(target, object()).extra_dfas, quotient)

    def _search(
        self,
        free: List[_Class],
        defined: List[_Class],
        automata: Dict[StrVar, Optional[object]],
        undefinable: set,
        limit: int,
    ) -> Tuple[str, Optional[Model]]:
        """DFS over the free classes' candidate lists, settling each
        leaf.  UNSAT only when every list was a complete enumeration and
        the DFS covered the whole product without guessing."""
        budget = self.budget
        candidate_lists: List[List[str]] = []
        exhaustive = True
        for cls in free:
            dfa = automata[cls.rep]
            if dfa is None:
                words = self.solver.default_words(limit)
                complete = False
            else:
                words, complete = word_list(
                    dfa, limit + 1, self.solver.max_word_length
                )
                complete = complete and len(words) <= limit
                words = words[:limit]
            if cls.hints:
                # Hints follow the length-ordered candidates: they widen
                # the pool (e.g. constants a concatenation must hit) but
                # must not displace fresh short words, or refinement
                # exclusions would ladder through ever-longer hints.
                hinted = []
                for hint in sorted(cls.hints, key=lambda h: (len(h), h)):
                    if hint in words:
                        continue
                    if dfa is not None:
                        budget.spent += len(hint)
                        if not dfa.accepts_word(hint):
                            continue
                    hinted.append(hint)
                words = words + hinted
            words = [word for word in words if word not in cls.excluded]
            if cls.rep in undefinable:
                words.append(UNDEF)
            exhaustive = exhaustive and complete
            if not words:
                if complete:
                    return UNSAT, None  # finite language fully excluded
                self.unknown_cause = DEFAULT_GUESS
                return UNKNOWN, None
            candidate_lists.append(words)

        # A variable that occurs only in checks (a disequality, a
        # membership of a concatenation) has no class: the search never
        # assigns it and the checks see its default "", so a failed
        # search proves nothing.
        if any(
            var not in self.parent
            for literal in self.literals
            for var in _formula_vars(literal)
        ):
            exhaustive = False
        combo_budget = self.solver.combo_budget
        tried = 0
        order = free

        # Early pruning: a check whose variables are all decided by DFS
        # level i can be evaluated right after that level instead of at
        # the leaf — this collapses infeasible subtrees immediately.
        checks_by_level = self._schedule_checks(order)

        def assign(index: int, model: Model) -> Optional[Model]:
            nonlocal tried
            if budget.exhausted():
                return None
            if index == len(order):
                return self._settle(model, defined)
            for word in candidate_lists[index]:
                tried += 1
                budget.spent += 1
                if tried > combo_budget:
                    return None
                trial = model.copy()
                for member in order[index].members:
                    trial.set(member, word)
                if all(
                    _holds(check, trial, budget)
                    for check in checks_by_level.get(index, ())
                ):
                    result = assign(index + 1, trial)
                    if result is not None:
                        return result
            return None

        base = Model()
        for cls in self._live():
            if cls.const is not None:
                for member in cls.members:
                    base.set(member, cls.const)
            elif cls.undef:
                for member in cls.members:
                    base.set(member, UNDEF)

        found = assign(0, base)
        self.solver._candidates_tried += tried
        if found is not None:
            return SAT, found
        if budget.exhausted():
            self.unknown_cause = budget.cause
        elif tried > combo_budget:
            self.unknown_cause = CANDIDATES
        elif self.settle_guess is not None:
            self.unknown_cause = self.settle_guess
        elif not exhaustive:
            self.unknown_cause = DEFAULT_GUESS
        else:
            # The DFS covered the whole candidate product and every
            # candidate list was a complete enumeration: definitive.
            return UNSAT, None
        return UNKNOWN, None

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

    def _settle(self, model: Model, defined: List[_Class]) -> Optional[Model]:
        """Complete a partial assignment: compute defined classes, solve
        split constraints (with backtracking over splits), then verify
        every literal.  ``None`` once the budget is exhausted: the
        search then reports UNKNOWN, never UNSAT."""
        return self._settle_rec(model, list(defined), list(self.splits), 0)

    def _guessed(self, cause: str) -> None:
        if self.settle_guess is None:
            self.settle_guess = cause

    def _settle_rec(
        self,
        model: Model,
        pending_defined: List[_Class],
        pending_splits: List[Tuple[StrVar, Tuple[Term, ...]]],
        depth: int,
    ) -> Optional[Model]:
        if depth > 16:  # backtracking safety valve
            self._guessed(SETTLE_DEPTH)
            return None
        self.budget.spent += 1
        if self.budget.exhausted():
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
            self.budget.spent += len(pending_defined)
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
            if pending_defined:
                self._guessed(DEFAULT_GUESS)
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
            for assignment in self._enumerate_splits(value, parts, model):
                emitted += 1
                if emitted > self.solver.split_cap:
                    self._guessed(SPLIT_CAP)
                    break
                trial = model.copy()
                for rep, word in assignment.items():
                    for member in self._class(rep).members:
                        trial.set(member, word)
                result = self._settle_rec(
                    trial, pending_defined, remaining, depth + 1
                )
                if result is not None:
                    return result
            return None

        # No split target is determined (cyclic structure): give leftover
        # parts their defaults and verify.
        self._guessed(DEFAULT_GUESS)
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
            self.budget.spent += len(value)
            if not dfa_for(regex).accepts_word(value):
                return False
        for regex in cls.neg_regexes:
            self.budget.spent += len(value)
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
    ) -> Iterator[Dict[StrVar, str]]:
        """All ways to write ``value`` as the concatenation of ``parts``,
        respecting constants, prior assignments, per-class automata and
        exclusions.  Yields {class-rep: substring} assignments, and
        stops early once the budget is exhausted."""
        budget = self.budget

        def part_dfa(rep: StrVar) -> Optional[object]:
            if rep not in self._split_dfa_cache:
                self._split_dfa_cache[rep] = self._automaton_for(
                    self._class(rep)
                )
            return self._split_dfa_cache[rep]

        def rec(
            pos: int, idx: int, chosen: Dict[StrVar, str]
        ) -> Iterator[Dict[StrVar, str]]:
            budget.spent += 1
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
                budget.spent += 1
                if budget.exhausted():
                    return
                sub = value[pos:end]
                if sub in cls.excluded:
                    continue
                if dfa is not None:
                    budget.spent += len(sub)
                    if not dfa.accepts_word(sub):
                        continue
                chosen[rep] = sub
                yield from rec(end, idx + 1, chosen)
                del chosen[rep]

        yield from rec(0, 0, {})

    def _verify(self, model: Model) -> Optional[Model]:
        for literal in self.literals:
            if not _holds(literal, model, self.budget):
                return None
        for check in self.checks:
            if not _holds(check, model, self.budget):
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


def _holds(
    formula: Formula, model: Model, budget: Optional[Budget] = None
) -> bool:
    """Evaluate a (NNF) formula under a total assignment, charging each
    membership test's characters to ``budget``."""
    if isinstance(formula, BoolLit):
        return formula.value
    if isinstance(formula, Not):
        return not _holds(formula.operand, model, budget)
    if isinstance(formula, And):
        return all(_holds(op, model, budget) for op in formula.operands)
    if isinstance(formula, Or):
        return any(_holds(op, model, budget) for op in formula.operands)
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
        if budget is not None:
            budget.spent += len(value)
        return dfa_for(formula.regex).accepts_word(value)
    raise TypeError(f"cannot evaluate {formula!r}")


class Solver:
    """The public solver object (drop-in for the paper's use of Z3).

    Parameters bound the search: ``round_limits`` are per-class candidate
    counts for iterative deepening, ``combo_budget`` caps assignments per
    core, and ``timeout`` sizes each query's :class:`Budget`
    (``timeout × UNITS_PER_SECOND`` work units) and caps its wall-clock
    time as a backstop.
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
        #: The incremental core the next query starts from.  A query
        #: pops it (atomically, so concurrent queries never share one).
        self._cores: List[_Core] = []

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
        the others.  Every conjunction is judged on one incremental
        :class:`_Core`, which re-ingests only the literals it does not
        share with the previous one (the previous query's, for the
        first).  Verdicts on partial conjunctions, and leaves the
        structural phase refuted, are kept across rounds, so each is
        judged (and counted) once.  Every step spends from one
        :class:`Budget`; an UNKNOWN names the cause it stopped on."""
        start = time.perf_counter()
        budget = Budget(self.timeout)
        self._candidates_tried = 0
        concat_refuted = 0
        prefix_verdicts: Dict[Tuple[int, ...], bool] = {}
        refuted_leaves: set = set()
        # The core carries over from the previous query, so formulas that
        # share literals (the oracle's words of one pattern) share their
        # intake and memoized facts.  A query that raises leaves no core
        # behind, since its state may be half-changed; a query on
        # another thread starts a core of its own.
        try:
            core = self._cores.pop()
        except IndexError:
            core = _Core(self)
        core.start_query()
        core.budget = budget
        ingested = core.literals_ingested

        def refuted(choices: Tuple[int, ...], literals: List[Formula]) -> bool:
            nonlocal concat_refuted
            verdict = prefix_verdicts.get(choices)
            if verdict is None:
                if budget.exhausted():
                    # Stop pruning, never stop enumerating: the next core
                    # reaches the budget check below, which answers
                    # UNKNOWN.  Ending the enumeration here would read as
                    # "every core refuted".
                    return False
                budget.spent += 1
                verdict = prefix_verdicts[choices] = core.refuted(literals)
                concat_refuted += core.concat_refuted
            return verdict

        nnf = to_nnf(formula)
        cores_tried = 0
        saw_unknown = False
        cause: Optional[str] = None
        status = UNSAT
        model = None
        for round_index, limit in enumerate(self.round_limits):
            saw_unknown = False
            cause = None
            round_cores = 0
            for literals in _enumerate_cores(nnf, refuted):
                round_cores += 1
                cores_tried += 1
                budget.spent += 1
                if round_cores > self.max_cores:
                    saw_unknown = True
                    cause = cause or MAX_CORES
                    break
                # The literals are nodes of ``nnf``, alive for the query.
                leaf = tuple(map(id, literals))
                if leaf in refuted_leaves:
                    core_status, core_model = UNSAT, None
                else:
                    core_status, core_model = core.solve(
                        literals, budget, limit
                    )
                    if core.structurally_refuted:
                        refuted_leaves.add(leaf)
                    # Later rounds re-solve the same cores: count each once.
                    if core.concat_refuted and round_index == 0:
                        concat_refuted += 1
                if core_status == SAT:
                    status, model = SAT, core_model
                    break
                if core_status == UNKNOWN:
                    saw_unknown = True
                    cause = cause or core.unknown_cause
                if budget.exhausted():
                    saw_unknown = True
                    break
            if status == SAT:
                break
            if not saw_unknown:
                status = UNSAT  # every core definitively refuted
                break
            if budget.exhausted():
                break
        unknown_cause = None
        if status != SAT and saw_unknown:
            status = UNKNOWN
            unknown_cause = budget.cause or cause
        result = SolverResult(
            status,
            model,
            concat_refuted=concat_refuted,
            cores_tried=cores_tried,
            candidates_tried=self._candidates_tried,
            prefixes_refuted=sum(prefix_verdicts.values()),
            literals_ingested=core.literals_ingested - ingested,
            units=budget.spent,
            unknown_cause=unknown_cause,
        )
        if core.memo_size() <= CORE_MEMO_CAP and not self._cores:
            self._cores.append(core)
        if self.stats is not None:
            self.stats.record(
                QueryRecord(
                    seconds=time.perf_counter() - start,
                    status=status,
                    cores_tried=cores_tried,
                    candidates_tried=self._candidates_tried,
                    concat_refuted=concat_refuted,
                    prefixes_refuted=result.prefixes_refuted,
                    literals_ingested=result.literals_ingested,
                    units=result.units,
                    unknown_cause=unknown_cause,
                )
            )
        return result


def _enumerate_cores(
    nnf: Formula,
    refuted: Callable[[Tuple[int, ...], List[Formula]], bool],
) -> Iterator[List[Formula]]:
    """Lazily enumerate the conjunctive cores (DNF branches) of an NNF
    formula, skipping every extension of a refuted partial conjunction.

    A conjunction's literals are taken first and its disjunctions are
    expanded one at a time, in formula order.  Once an option is chosen
    and disjunctions remain, ``refuted(choices, literals)`` judges the
    partial conjunction (``choices``, the option indices taken so far,
    identify it); when it holds, none of its extensions is enumerated.
    This is sound because conjunction is monotone: literals without a
    common model have none once more literals join them.  The cores
    that remain come in the order of the full DNF product, each with its
    literals in formula order.
    """

    def absorb(formula, path, literals, branches) -> bool:
        """Add ``formula``'s literals, keyed by their position in the
        formula, to ``literals`` and its disjunctions to ``branches``;
        ``False`` when a ``FALSE`` operand makes it unsatisfiable."""
        if isinstance(formula, And):
            return all(
                absorb(op, path + (i,), literals, branches)
                for i, op in enumerate(formula.operands)
            )
        if isinstance(formula, Or):
            branches.append((path, formula))
        elif isinstance(formula, BoolLit):
            return formula.value
        else:
            literals.append((path, formula))
        return True

    def ordered(literals) -> List[Formula]:
        return [literal for _, literal in sorted(literals, key=itemgetter(0))]

    def expand(literals, branches, choices):
        if not branches:
            yield ordered(literals)
            return
        (path, disjunction), rest = branches[0], branches[1:]
        for index, option in enumerate(disjunction.operands):
            extended, nested = list(literals), []
            if not absorb(option, path + (index,), extended, nested):
                continue
            remaining = nested + rest
            key = choices + (index,)
            if (
                remaining
                and len(extended) > len(literals)
                and refuted(key, ordered(extended))
            ):
                continue
            yield from expand(extended, remaining, key)

    literals: List[Tuple[Tuple[int, ...], Formula]] = []
    branches: List[Tuple[Tuple[int, ...], Or]] = []
    if not absorb(nnf, (), literals, branches):
        return
    if branches and literals and refuted((), ordered(literals)):
        return
    yield from expand(literals, branches, ())
