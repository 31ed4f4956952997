"""Lazy DFA algebra: product automata whose states materialize on demand.

The solver's per-class automata (§4.4, §5.3) are intersections of every
positive membership with the complements of the negative ones.  Building
that product eagerly multiplies state counts before the first query runs,
even though the queries themselves — emptiness, shortest witness, bounded
word enumeration — only ever touch the states a BFS actually reaches.

Two combinators share one state-space core (:class:`_LazySpace`):

- :class:`LazyProduct` — the *intersection* of its components: a state
  is accepting when every component accepts, hopeless as soon as any
  component can no longer reach an accepting state;
- :class:`LazyUnion` — the *union*: accepting when any component
  accepts, hopeless only when no component can still accept.  This is
  the subset construction the eager path pays for up front when it
  determinizes an alternation — alternation-heavy refinements never
  need most of that space.

Both represent a state as the tuple of component states and refine
transitions pairwise *per expanded state*; nothing global is ever
constructed, and :attr:`_LazySpace.states_visited` counts exactly the
product states the traversals discovered (benchmarks assert it never
exceeds what an eager construction would have materialized).  Per-state
transition rows — the dominant per-state memo, each holding a refined
``CharSet`` edge list — live in a bounded LRU (``max_cached_states``),
so a pattern set thrashing a traversal re-derives rows instead of
holding every row at once.  (The small boolean memos and the
visited-state set still grow with distinct states visited: the LRU
bounds the heavyweight cost per state, not the traversal itself —
traversals are separately bounded by their own budgets, e.g. the
enumeration frontier cap.)

Components may be :class:`~repro.automata.dfa.Dfa` instances *or other
lazy spaces*: a :class:`LazyUnion` can sit inside a
:class:`LazyProduct` (``(A ∪ B) ∩ C``), which is how the solver
intersects an alternation-heavy membership with the class's other
constraints without materializing the union.

Complement needs no lazy machinery of its own: :meth:`Dfa.complement`
is already a view — it shares the transition table (and the per-state
step index) of the completed automaton and only flips the accepting set —
so negative memberships enter a product as cheaply as positive ones.
(The solver additionally rewrites ``∉ L(r1|...|rn)`` into the
per-option complements ``∩ ¬L(ri)`` — de Morgan — so even negated
alternations never determinize the union.)

The classes mirror the :class:`~repro.automata.dfa.Dfa` query surface
the solver relies on (``accepts_word`` / ``is_empty`` /
``shortest_word`` / ``words``), so :func:`lazy_intersect_all` and
:func:`lazy_union_all` are drop-ins on that surface.

:func:`expression_is_empty` decides emptiness of intersections of
*concatenations* of such automata and words, by reachability in an
ε-NFA built on demand over the same components (see the section at the
end of this module).
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.obs import metrics as _metrics
from repro.regex.charclass import CharSet
from repro.automata.dfa import Dfa, _merge_labels

_State = Tuple[object, ...]

#: Default bound on memoized per-state transition rows (the dominant
#: per-state memo).  Far above what healthy traversals touch; a cap hit
#: means re-deriving rows, never wrong answers.
DEFAULT_STATE_CACHE = 65536


class _DfaPart:
    """Component adapter over a plain :class:`Dfa`."""

    __slots__ = ("dfa", "_live")

    def __init__(self, dfa: Dfa):
        self.dfa = dfa
        self._live: Optional[frozenset] = None

    @property
    def start(self):
        return self.dfa.start

    def edges(self, state) -> List[Tuple[CharSet, object]]:
        return self.dfa.transitions[state]

    def step(self, state, ch: str):
        return self.dfa.step(state, ch)

    def accepting(self, state) -> bool:
        return state in self.dfa.accepts

    def live(self, state) -> bool:
        if self._live is None:
            self._live = self.dfa.live_states()
        return state in self._live


class _SpacePart:
    """Component adapter over a nested lazy space (e.g. a union inside
    a product).  Liveness delegates to the space's own may-accept
    filter, which is sound for the composition."""

    __slots__ = ("space",)

    def __init__(self, space: "_LazySpace"):
        self.space = space

    @property
    def start(self):
        return self.space.start

    def edges(self, state) -> List[Tuple[CharSet, object]]:
        return self.space.edges_from(state)

    def step(self, state, ch: str):
        return self.space.step(state, ch)

    def accepting(self, state) -> bool:
        return self.space.is_accepting(state)

    def live(self, state) -> bool:
        return self.space.plausible(state)


def _part(component) -> object:
    if isinstance(component, _LazySpace):
        return _SpacePart(component)
    return _DfaPart(component)


class _LazySpace:
    """Shared on-demand state-space machinery (see module docstring).

    Subclasses define the boolean combination: :meth:`_combine` folds
    per-component acceptance, :meth:`_combine_live` folds per-component
    liveness into the sound may-accept filter :meth:`plausible`.
    """

    #: ``all`` for intersections, ``any`` for unions.
    _combine = staticmethod(all)
    _combine_live = staticmethod(all)
    #: Metrics label for exploration counters (see ``_record_exploration``).
    kind = "space"

    def __init__(
        self,
        components: Sequence,
        max_cached_states: Optional[int] = DEFAULT_STATE_CACHE,
    ):
        if not components:
            raise ValueError(
                f"{type(self).__name__} needs at least one component"
            )
        #: The raw components (Dfa or nested lazy spaces), as given.
        self.components: List = list(components)
        self._parts = [_part(c) for c in self.components]
        self.start: _State = tuple(p.start for p in self._parts)
        self.max_cached_states = max_cached_states
        #: Distinct product states discovered by structured traversals
        #: (BFS / enumeration / materialization) — the "materialized
        #: state" count the benchmarks compare against the eager space.
        self._seen: Set[_State] = set()
        self._empty: Optional[bool] = None
        #: Per-state memos: a BFS frontier revisits the same product
        #: state at many prefixes, so edges are refined (and liveness /
        #: acceptance decided) once per *state*, not once per visit.
        #: The edge rows — the heavy memo — are a bounded LRU.
        self._edges: "OrderedDict[_State, List[Tuple[CharSet, _State]]]" = (
            OrderedDict()
        )
        self._accepting: Dict[_State, bool] = {}
        self._plausible: Dict[_State, bool] = {}
        self._co_accessible: Dict[_State, bool] = {}
        #: Transition rows dropped by the LRU bound (instrumentation).
        self.states_evicted = 0

    # -- instrumentation -----------------------------------------------------

    @property
    def states_visited(self) -> int:
        return len(self._seen)

    def _record_exploration(self, seen_before: int) -> None:
        """Mirror a traversal's newly discovered states into metrics."""
        delta = len(self._seen) - seen_before
        if delta:
            _metrics.count(
                "lazy_states_visited_total", delta, kind=self.kind
            )

    # -- state-local queries -------------------------------------------------

    def is_accepting(self, state: _State) -> bool:
        cached = self._accepting.get(state)
        if cached is None:
            cached = self._combine(
                p.accepting(s) for p, s in zip(self._parts, state)
            )
            self._accepting[state] = cached
        return cached

    def plausible(self, state: _State) -> bool:
        """Sound may-accept filter over per-component liveness."""
        cached = self._plausible.get(state)
        if cached is None:
            cached = self._combine_live(
                p.live(s) for p, s in zip(self._parts, state)
            )
            self._plausible[state] = cached
        return cached

    def step(self, state: _State, ch: str) -> _State:
        return tuple(
            p.step(s, ch) for p, s in zip(self._parts, state)
        )

    def accepts_word(self, word: str) -> bool:
        state = self.start
        for ch in word:
            state = self.step(state, ch)
        return self.is_accepting(state)

    def edges_from(self, state: _State) -> List[Tuple[CharSet, _State]]:
        """Outgoing product edges; labels partition the universe.

        Labels are refined left to right against the running overlap, so
        a character class that already vanished against the first
        components never multiplies against the rest.  Edges to a common
        target are merged, and the result is memoized per state in the
        bounded LRU — this *is* the on-demand materialization: a state's
        transition row exists exactly while it is hot.
        """
        cached = self._edges.get(state)
        if cached is not None:
            self._edges.move_to_end(state)
            return cached
        parts: List[Tuple[CharSet, _State]] = [(CharSet.any(), ())]
        for part, s in zip(self._parts, state):
            refined: List[Tuple[CharSet, _State]] = []
            for label, targets in parts:
                for c_label, c_target in part.edges(s):
                    overlap = label.intersect(c_label)
                    if not overlap.is_empty():
                        refined.append((overlap, targets + (c_target,)))
            parts = refined
        by_target: Dict[_State, CharSet] = {}
        for label, target in parts:
            existing = by_target.get(target)
            by_target[target] = (
                label if existing is None else existing.union(label)
            )
        edges = [(label, target) for target, label in by_target.items()]
        if (
            self.max_cached_states is not None
            and len(self._edges) >= self.max_cached_states
        ):
            self._edges.popitem(last=False)
            self.states_evicted += 1
        self._edges[state] = edges
        return edges

    def co_accessible(self, state: _State) -> bool:
        """Exact may-accept: some accepting product state is reachable.

        The component-wise :meth:`plausible` filter is sound but not
        complete — e.g. every intersection component can be live while
        their *product* is dead (incompatible parities), and word
        enumeration pruned only component-wise would walk such dead
        regions, wasting the bounded frontier.  This check is exact and
        amortized: a refuted search marks its entire closure dead
        (nothing in a closed accept-free region reaches an accept), a
        successful one marks the discovery path live.
        """
        cached = self._co_accessible.get(state)
        if cached is not None:
            return cached
        if not self.plausible(state):
            self._co_accessible[state] = False
            return False
        parents: Dict[_State, _State] = {}
        visited: Set[_State] = {state}
        queue: deque = deque([state])
        found: Optional[_State] = None
        while queue and found is None:
            current = queue.popleft()
            if self.is_accepting(current) or self._co_accessible.get(
                current
            ):
                found = current
                break
            for _, target in self.edges_from(current):
                if target in visited:
                    continue
                if self._co_accessible.get(target) is False:
                    continue
                if not self.plausible(target):
                    continue
                visited.add(target)
                self._seen.add(target)
                parents[target] = current
                queue.append(target)
        if found is None:
            # The whole explored closure is accept-free and closed under
            # (plausible, not-known-dead) successors: all of it is dead.
            for dead in visited:
                self._co_accessible[dead] = False
            return False
        while found != state:
            self._co_accessible[found] = True
            found = parents[found]
        self._co_accessible[state] = True
        return True

    # -- language queries ----------------------------------------------------

    def shortest_word(self) -> Optional[str]:
        """A shortest accepted word, or ``None`` for the empty language.

        BFS over the product space with per-component liveness pruning;
        terminates on the first accepting state (or after exhausting the
        finitely many reachable product states), materializing only what
        it visits.
        """
        seen0 = len(self._seen)
        try:
            return self._shortest_word()
        finally:
            self._record_exploration(seen0)

    def _shortest_word(self) -> Optional[str]:
        if self._empty:
            return None
        start = self.start
        if not self.plausible(start):
            self._empty = True
            return None
        self._seen.add(start)
        if self.is_accepting(start):
            self._empty = False
            return ""
        parents: Dict[_State, Tuple[_State, str]] = {}
        queue: deque = deque([start])
        visited: Set[_State] = {start}
        while queue:
            state = queue.popleft()
            for label, target in self.edges_from(state):
                if target in visited or not self.plausible(target):
                    continue
                visited.add(target)
                self._seen.add(target)
                parents[target] = (state, chr(label.min_codepoint()))
                if self.is_accepting(target):
                    chars: List[str] = []
                    cursor = target
                    while cursor != start:
                        cursor, ch = parents[cursor]
                        chars.append(ch)
                    self._empty = False
                    return "".join(reversed(chars))
                queue.append(target)
        self._empty = True
        return None

    def is_empty(self) -> bool:
        if self._empty is None:
            self.shortest_word()
        return bool(self._empty)

    def words(
        self,
        max_count: Optional[int] = None,
        max_length: int = 64,
        samples_per_edge: int = 3,
        frontier_cap: int = 4096,
    ) -> Iterator[str]:
        """Accepted words in non-decreasing length order.

        Same contract (length order, per-edge character sampling,
        bounded frontier, ``True`` returned for a complete list) as
        :meth:`Dfa.words`, run over the lazy space.  The exact
        emptiness BFS runs first so a dead language never pays the
        bounded unrolling.
        """
        seen0 = len(self._seen)
        try:
            return (yield from self._words(
                max_count, max_length, samples_per_edge, frontier_cap
            ))
        finally:
            self._record_exploration(seen0)

    def _words(
        self,
        max_count: Optional[int],
        max_length: int,
        samples_per_edge: int,
        frontier_cap: int,
    ) -> Iterator[str]:
        if self.is_empty():
            return True
        emitted = 0
        complete = True
        frontier: List[Tuple[_State, Tuple[str, ...]]] = [(self.start, ())]
        self._seen.add(self.start)
        if self.is_accepting(self.start):
            yield ""
            emitted += 1
            if max_count is not None and emitted >= max_count:
                return False
        # Frontier entries revisit states (and hence labels) at many
        # prefixes within one enumeration; sample each label once.
        samples: Dict[CharSet, List[str]] = {}
        for _ in range(max_length):
            next_frontier: List[Tuple[_State, Tuple[str, ...]]] = []
            for state, prefix in frontier:
                for label, target in self.edges_from(state):
                    # Exact pruning (parity with Dfa.words' live-state
                    # filter): dead regions must not displace live
                    # states within the bounded frontier.
                    if not self.co_accessible(target):
                        continue
                    self._seen.add(target)
                    accepting = self.is_accepting(target)
                    chars = samples.get(label)
                    if chars is None:
                        chars = label.sample_chars(samples_per_edge)
                        samples[label] = chars
                    if complete and len(chars) < label.size():
                        complete = False
                    for ch in chars:
                        extended = prefix + (ch,)
                        if accepting:
                            yield "".join(extended)
                            emitted += 1
                            if max_count is not None and emitted >= max_count:
                                return False
                        if len(next_frontier) < frontier_cap:
                            next_frontier.append((target, extended))
                        else:
                            complete = False
            frontier = next_frontier
            if not frontier:
                return complete
        return False

    # -- escape hatch --------------------------------------------------------

    def materialize(self) -> Dfa:
        """The eager DFA (used by tests and visualization).

        Explores every reachable product state — after this call
        ``states_visited`` equals the eager construction's state count.
        """
        seen0 = len(self._seen)
        try:
            return self._materialize()
        finally:
            self._record_exploration(seen0)

    def _materialize(self) -> Dfa:
        index: Dict[_State, int] = {self.start: 0}
        order: List[_State] = [self.start]
        transitions: Dict[int, List[Tuple[CharSet, int]]] = {}
        self._seen.add(self.start)
        work: List[_State] = [self.start]
        while work:
            state = work.pop()
            edges: List[Tuple[CharSet, int]] = []
            for label, target in self.edges_from(state):
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
                    work.append(target)
                    self._seen.add(target)
                edges.append((label, index[target]))
            transitions[index[state]] = _merge_labels(edges)
        accepts = frozenset(
            index[state] for state in order if self.is_accepting(state)
        )
        return Dfa(
            n_states=len(order),
            start=0,
            accepts=accepts,
            transitions=transitions,
        )


class LazyProduct(_LazySpace):
    """The intersection of several automata, explored on the fly.

    A product state is the tuple of component states; it exists only
    while some traversal holds it.  Pruning uses per-component liveness
    (a product state is hopeless as soon as *any* component can no
    longer reach an accepting state), which is sound for intersections
    and avoids computing the product's exact live set.
    """

    _combine = staticmethod(all)
    _combine_live = staticmethod(all)
    kind = "product"


class LazyUnion(_LazySpace):
    """The union of several automata, explored on the fly.

    The lazy counterpart of determinizing an alternation: a union state
    tracks where every option is simultaneously (exactly the subset
    construction's bookkeeping), but states exist only while a traversal
    holds them, and the transition-row LRU bounds residency.  A state is
    accepting when *any* component accepts, and hopeless only when *no*
    component can still reach an accepting state.
    """

    _combine = staticmethod(any)
    _combine_live = staticmethod(any)
    kind = "union"


def lazy_intersect_all(components: Sequence):
    """Lazy intersection of a collection of automata.

    ``None`` for an empty input (no constraint), the single component
    itself for one element, a :class:`LazyProduct` otherwise.
    Components may be :class:`Dfa`\\ s or lazy spaces (e.g. a
    :class:`LazyUnion`); the result supports the query surface the
    solver needs (``accepts_word``, ``is_empty``, ``shortest_word``,
    ``words``) without ever building the eager product.
    """
    components = list(components)
    if not components:
        return None
    if len(components) == 1:
        return components[0]
    return LazyProduct(components)


def lazy_union_all(components: Sequence):
    """Lazy union of a collection of automata (``None`` for no input).

    The drop-in for determinizing an alternation eagerly: one component
    is returned unchanged, several become a :class:`LazyUnion`.
    """
    components = list(components)
    if not components:
        return None
    if len(components) == 1:
        return components[0]
    return LazyUnion(components)


# -- emptiness of intersected concatenations ---------------------------------
#
# The solver over-approximates the language of a concatenation-defined
# string (``x = p1 ++ ... ++ pn`` with memberships on ``x`` and on the
# parts) and refutes the core when that language is empty.  A language
# expression is one of
#
# - ``None`` — Σ*, an unconstrained string;
# - a ``str`` — exactly that word;
# - a :class:`Dfa` or lazy space — its language;
# - ``("cat", parts)`` — the concatenation of the parts' languages;
# - ``("and", parts)`` — the intersection of the parts' languages.
#
# Concatenation is nondeterministic, so the expression compiles to a
# small ε-NFA whose states are built on demand, and emptiness is plain
# reachability of an accepting state in it: nothing is determinized and
# nothing is kept once the search ends except the verdict.

#: Bound on the NFA states one emptiness check may discover, read when
#: the check runs (0 disables the checks).  Verdicts are memoized
#: without it: call :func:`clear_verdicts` after changing it.
CONCAT_BUDGET = 4096
#: Bound on memoized verdicts (an LRU).
VERDICT_MEMO_SIZE = 2048

_VERDICTS: "OrderedDict[object, Optional[bool]]" = OrderedDict()
#: Solvers run on several threads at once (portfolio members, the
#: serve daemon's inline jobs); the LRU's check-then-act needs a lock.
_VERDICTS_LOCK = threading.Lock()


class _WordNfa:
    """A single word: state ``i`` has read its first ``i`` characters."""

    __slots__ = ("labels",)
    start = 0

    def __init__(self, word: str):
        self.labels = [CharSet.of(ch) for ch in word]

    def eps(self, state: int):
        return ()

    def moves(self, state: int):
        if state < len(self.labels):
            return [(self.labels[state], state + 1)]
        return []

    def accepting(self, state: int) -> bool:
        return state == len(self.labels)


class _AnyNfa:
    """Σ*: one accepting state looping on every character."""

    start = 0
    _MOVES = [(CharSet.any(), 0)]

    def eps(self, state):
        return ()

    def moves(self, state):
        return self._MOVES

    def accepting(self, state) -> bool:
        return True


class _AutomatonNfa:
    """A DFA or lazy space; successors that cannot accept are pruned.
    Rows are memoized for the search, which meets each component state
    in many product states."""

    __slots__ = ("part", "start", "_rows")

    def __init__(self, automaton):
        self.part = _part(automaton)
        self.start = self.part.start
        self._rows: Dict[object, list] = {}

    def eps(self, state):
        return ()

    def moves(self, state):
        row = self._rows.get(state)
        if row is None:
            live = self.part.live
            row = [
                (label, target)
                for label, target in self.part.edges(state)
                if live(target)
            ]
            self._rows[state] = row
        return row

    def accepting(self, state) -> bool:
        return self.part.accepting(state)


class _ConcatNfa:
    """``L(p1)·…·L(pn)``: state ``(i, s)`` is state ``s`` of part ``i``,
    with an ε-move to the next part's start wherever part ``i`` accepts."""

    __slots__ = ("parts", "start")

    def __init__(self, parts: Sequence):
        self.parts = list(parts)
        self.start = (0, self.parts[0].start)

    def eps(self, state):
        index, inner = state
        part = self.parts[index]
        out = [(index, target) for target in part.eps(inner)]
        if index + 1 < len(self.parts) and part.accepting(inner):
            out.append((index + 1, self.parts[index + 1].start))
        return out

    def moves(self, state):
        index, inner = state
        return [
            (label, (index, target))
            for label, target in self.parts[index].moves(inner)
        ]

    def accepting(self, state) -> bool:
        index, inner = state
        return index == len(self.parts) - 1 and self.parts[index].accepting(
            inner
        )


class _MeetNfa:
    """Intersection of ε-NFAs: the parts take ε-moves one at a time and
    read characters together."""

    __slots__ = ("parts", "start")

    def __init__(self, parts: Sequence):
        self.parts = list(parts)
        self.start = tuple(part.start for part in self.parts)

    def eps(self, state):
        out = []
        for i, (part, inner) in enumerate(zip(self.parts, state)):
            for target in part.eps(inner):
                out.append(state[:i] + (target,) + state[i + 1:])
        return out

    def moves(self, state):
        combos: List[Tuple[CharSet, _State]] = [(CharSet.any(), ())]
        for part, inner in zip(self.parts, state):
            refined = []
            for label, targets in combos:
                for c_label, c_target in part.moves(inner):
                    overlap = label.intersect(c_label)
                    if not overlap.is_empty():
                        refined.append((overlap, targets + (c_target,)))
            combos = refined
            if not combos:
                break
        return combos

    def accepting(self, state) -> bool:
        return all(
            part.accepting(inner) for part, inner in zip(self.parts, state)
        )


_ANY_NFA = _AnyNfa()


def _compile_expression(expr):
    """The ε-NFA of a language expression, simplified on the way:
    empty words vanish from concatenations, adjacent words merge,
    Σ* runs collapse, and Σ* drops out of intersections."""
    if expr is None:
        return _ANY_NFA
    if isinstance(expr, str):
        return _WordNfa(expr)
    if not isinstance(expr, tuple):
        return _AutomatonNfa(expr)
    op, children = expr
    if op == "and":
        parts = [_compile_expression(c) for c in children if c is not None]
        if not parts:
            return _ANY_NFA
        return parts[0] if len(parts) == 1 else _MeetNfa(parts)
    flat: List[object] = []
    for child in children:
        if isinstance(child, str):
            if not child:
                continue
            if flat and isinstance(flat[-1], str):
                flat[-1] += child
                continue
        elif child is None and flat and flat[-1] is None:
            continue
        flat.append(child)
    parts = [_compile_expression(c) for c in flat] or [_WordNfa("")]
    return parts[0] if len(parts) == 1 else _ConcatNfa(parts)


def _search_empty(nfa, budget: int) -> Optional[bool]:
    """Depth-first reachability of an accepting state.  ``True`` when
    none is reachable, ``False`` when one is, ``None`` when more than
    ``budget`` states were discovered first."""
    seen = {nfa.start}
    stack = [nfa.start]
    while stack:
        state = stack.pop()
        if nfa.accepting(state):
            return False
        successors = list(nfa.eps(state))
        successors.extend(target for _, target in nfa.moves(state))
        for target in successors:
            if target not in seen:
                if len(seen) >= budget:
                    return None
                seen.add(target)
                stack.append(target)
    return True


def expression_is_empty(key, build) -> Optional[bool]:
    """Is the language of a (concatenation) expression empty?

    ``build()`` returns the expression (see above); it runs only when
    the verdict for ``key`` — a structural fingerprint the caller
    guarantees determines the language — is not memoized.  Returns
    ``True`` (empty), ``False`` (non-empty) or ``None`` (no verdict
    within :data:`CONCAT_BUDGET` states).  Verdicts live in a bounded
    LRU that :func:`repro.automata.ops.clear_caches` empties.
    """
    budget = CONCAT_BUDGET
    if budget <= 0:
        return None
    with _VERDICTS_LOCK:
        if key in _VERDICTS:
            _VERDICTS.move_to_end(key)
            return _VERDICTS[key]
    verdict = _search_empty(_compile_expression(build()), budget)
    with _VERDICTS_LOCK:
        _VERDICTS[key] = verdict
        if len(_VERDICTS) > VERDICT_MEMO_SIZE:
            _VERDICTS.popitem(last=False)
    return verdict


def clear_verdicts() -> None:
    """Drop every memoized emptiness verdict."""
    with _VERDICTS_LOCK:
        _VERDICTS.clear()
