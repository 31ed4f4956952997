"""Deterministic finite automata: subset construction and boolean algebra.

DFAs are *complete* — every state has outgoing transitions covering the
entire code-point universe (a dead state absorbs the remainder).  That
makes complement a matter of flipping accepting states, which is what the
model's non-membership constraints (§4.4) compile to.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.regex.charclass import CharSet, partition
from repro.automata.nfa import Nfa

#: Per-state step index: parallel sorted arrays (lows, highs, targets).
_StateIndex = Tuple[List[int], List[int], List[int]]


@dataclass
class Dfa:
    """A complete DFA over interval-labelled transitions.

    ``transitions[s]`` is a list of ``(label, target)`` whose labels
    partition the universe.  ``accepts`` is a frozenset of states.
    """

    n_states: int
    start: int
    accepts: FrozenSet[int]
    transitions: Dict[int, List[Tuple[CharSet, int]]]
    #: Lazily-built per-state sorted-range index for :meth:`step` (bisect
    #: over interval bounds instead of a linear label scan).  Views that
    #: share ``transitions`` (complement, quotients) share the index too.
    _step_index: Dict[int, _StateIndex] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Memoized :meth:`live_states` result.  Depends on ``accepts`` as
    #: well as ``transitions``, so views with different accepting sets
    #: (complement, right quotients) must NOT share it — they start
    #: fresh; left quotients keep both and may inherit the memo.
    _live_states: Optional[FrozenSet[int]] = field(
        default=None, repr=False, compare=False
    )

    # -- core queries --------------------------------------------------------

    def _state_index(self, state: int) -> _StateIndex:
        index = self._step_index.get(state)
        if index is None:
            flat = [
                (lo, hi, target)
                for label, target in self.transitions[state]
                for lo, hi in label.intervals
            ]
            flat.sort()
            index = (
                [lo for lo, _, _ in flat],
                [hi for _, hi, _ in flat],
                [target for _, _, target in flat],
            )
            self._step_index[state] = index
        return index

    def step(self, state: int, ch: str) -> int:
        lows, highs, targets = self._state_index(state)
        cp = ord(ch)
        i = bisect_right(lows, cp) - 1
        if i >= 0 and cp <= highs[i]:
            return targets[i]
        raise AssertionError("complete DFA is missing a transition")

    def accepts_word(self, word: str) -> bool:
        state = self.start
        for ch in word:
            state = self.step(state, ch)
        return state in self.accepts

    def live_states(self) -> FrozenSet[int]:
        """States from which some accepting state is reachable.

        Memoized per instance: emptiness checks, ``words`` enumerations,
        and repeated CEGAR candidate proposals all re-ask this of the
        same (immutable once built) automaton, and the backward
        reachability sweep is O(states + edges) each time.
        """
        if self._live_states is not None:
            return self._live_states
        reverse: Dict[int, set] = {s: set() for s in range(self.n_states)}
        for src, edges in self.transitions.items():
            for _, dst in edges:
                reverse[dst].add(src)
        alive = set(self.accepts)
        stack = list(self.accepts)
        while stack:
            state = stack.pop()
            for pred in reverse[state]:
                if pred not in alive:
                    alive.add(pred)
                    stack.append(pred)
        self._live_states = frozenset(alive)
        return self._live_states

    def is_empty(self) -> bool:
        return self.start not in self.live_states()

    def shortest_word(self) -> Optional[str]:
        """A shortest accepted word, or ``None`` for the empty language."""
        for word in self.words(max_count=1):
            return word
        return None

    # -- quotients -------------------------------------------------------------

    def quotient_left(self, prefix: str) -> "Dfa":
        """The language ``{ x : prefix ++ x ∈ L(self) }``."""
        state = self.start
        for ch in prefix:
            state = self.step(state, ch)
        return Dfa(
            n_states=self.n_states,
            start=state,
            accepts=self.accepts,
            transitions=self.transitions,
            _step_index=self._step_index,
            _live_states=self._live_states,
        )

    def quotient_right(self, suffix: str) -> "Dfa":
        """The language ``{ x : x ++ suffix ∈ L(self) }``."""
        accepts = frozenset(
            state
            for state in range(self.n_states)
            if self._runs_to_accept(state, suffix)
        )
        return Dfa(
            n_states=self.n_states,
            start=self.start,
            accepts=accepts,
            transitions=self.transitions,
            _step_index=self._step_index,
        )

    def _runs_to_accept(self, state: int, word: str) -> bool:
        for ch in word:
            state = self.step(state, ch)
        return state in self.accepts

    # -- totality ------------------------------------------------------------

    def is_total(self) -> bool:
        """True iff every state's outgoing labels cover the universe.

        All construction paths in this package produce total DFAs, but
        hand-built (or deserialized) automata may be partial — and
        complementing a partial DFA by flipping accepting states is
        unsound (words that "fall off" a missing transition are rejected
        by both the automaton and its naive complement).
        """
        for state in range(self.n_states):
            covered = CharSet.empty()
            for label, _ in self.transitions.get(state, ()):
                covered = covered.union(label)
            if not covered.complement().is_empty():
                return False
        return True

    def completed(self) -> "Dfa":
        """A total DFA for the same language (self when already total).

        Missing transitions are routed to a fresh absorbing dead state,
        which makes the boolean algebra (complement in particular) sound
        on partial automata.
        """
        gaps: Dict[int, CharSet] = {}
        for state in range(self.n_states):
            covered = CharSet.empty()
            for label, _ in self.transitions.get(state, ()):
                covered = covered.union(label)
            missing = covered.complement()
            if not missing.is_empty():
                gaps[state] = missing
        if not gaps:
            return self
        dead = self.n_states
        transitions = {
            state: list(self.transitions.get(state, ()))
            for state in range(self.n_states)
        }
        for state, missing in gaps.items():
            transitions[state].append((missing, dead))
        transitions[dead] = [(CharSet.any(), dead)]
        return Dfa(
            n_states=self.n_states + 1,
            start=self.start,
            accepts=self.accepts,
            transitions=transitions,
        )

    # -- boolean algebra -----------------------------------------------------

    def complement(self) -> "Dfa":
        base = self.completed()
        return Dfa(
            n_states=base.n_states,
            start=base.start,
            accepts=frozenset(range(base.n_states)) - base.accepts,
            transitions=base.transitions,
            _step_index=base._step_index,
        )

    def intersect(self, other: "Dfa") -> "Dfa":
        return _product(self, other, lambda a, b: a and b)

    def union(self, other: "Dfa") -> "Dfa":
        return _product(self, other, lambda a, b: a or b)

    def difference(self, other: "Dfa") -> "Dfa":
        return _product(self, other, lambda a, b: a and not b)

    def equivalent(self, other: "Dfa") -> bool:
        return (
            self.difference(other).is_empty()
            and other.difference(self).is_empty()
        )

    # -- enumeration ---------------------------------------------------------

    def words(
        self,
        max_count: Optional[int] = None,
        max_length: int = 64,
        samples_per_edge: int = 3,
        frontier_cap: int = 4096,
    ):
        """Yield accepted words in non-decreasing length order.

        Explores a bounded breadth-first unrolling; for each transition,
        up to ``samples_per_edge`` representative characters are tried so
        the stream has variety without enumerating astronomic alphabets.
        ``frontier_cap`` bounds memory on wide automata (the exploration
        then under-approximates, which the solver compensates for with
        iterative deepening).  Used by the string solver to propose
        candidate assignments.

        The generator returns ``True`` when the words it yielded are the
        whole language: no live transition had more characters than it
        sampled, the frontier never hit its cap, no live prefix was cut
        at ``max_length`` and ``max_count`` did not stop it (see
        :func:`word_list`).
        """
        emitted = 0
        complete = True
        alive = self.live_states()
        if self.start not in alive:
            return True
        # Frontier prefixes are tuples of characters, joined only when a
        # word is yielded — extending a string prefix per edge re-copies
        # the whole prefix for every sampled character (quadratic in the
        # word length across a BFS level).
        frontier: List[Tuple[int, Tuple[str, ...]]] = [(self.start, ())]
        if self.start in self.accepts:
            yield ""
            emitted += 1
            if max_count is not None and emitted >= max_count:
                return False
        for _ in range(max_length):
            next_frontier: List[Tuple[int, Tuple[str, ...]]] = []
            for state, prefix in frontier:
                for label, target in self.transitions[state]:
                    if target not in alive:
                        continue
                    chars = label.sample_chars(samples_per_edge)
                    if complete and len(chars) < label.size():
                        complete = False
                    for ch in chars:
                        extended = prefix + (ch,)
                        if target in self.accepts:
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

    # -- minimization --------------------------------------------------------

    def minimize(self) -> "Dfa":
        """Moore partition refinement (keeps labels as minterms)."""
        labels = _minterms_of(self)
        # Initial partition: accepting vs non-accepting.
        block_of = [1 if s in self.accepts else 0 for s in range(self.n_states)]
        n_blocks = 2 if self.accepts and len(self.accepts) < self.n_states else 1
        if n_blocks == 1:
            block_of = [0] * self.n_states
        changed = True
        while changed:
            changed = False
            signatures: Dict[tuple, int] = {}
            new_block_of = [0] * self.n_states
            for state in range(self.n_states):
                sig = (block_of[state],) + tuple(
                    block_of[_step_minterm(self, state, label)]
                    for label in labels
                )
                if sig not in signatures:
                    signatures[sig] = len(signatures)
                new_block_of[state] = signatures[sig]
            if new_block_of != block_of:
                block_of = new_block_of
                changed = True
        n_blocks = max(block_of) + 1
        transitions: Dict[int, List[Tuple[CharSet, int]]] = {}
        for state in range(self.n_states):
            block = block_of[state]
            if block in transitions:
                continue
            transitions[block] = _merge_labels(
                [
                    (label, block_of[_step_minterm(self, state, label)])
                    for label in labels
                ]
            )
        return Dfa(
            n_states=n_blocks,
            start=block_of[self.start],
            accepts=frozenset(
                block_of[s] for s in self.accepts
            ),
            transitions=transitions,
        )


def _step_minterm(dfa: Dfa, state: int, label: CharSet) -> int:
    ch = chr(label.min_codepoint())
    return dfa.step(state, ch)


def _minterms_of(dfa: Dfa) -> List[CharSet]:
    seen: list[CharSet] = []
    for edges in dfa.transitions.values():
        for label, _ in edges:
            if label not in seen:
                seen.append(label)
    return partition(seen)


def _merge_labels(
    edges: List[Tuple[CharSet, int]]
) -> List[Tuple[CharSet, int]]:
    """Merge edges to a common target into a single labelled edge."""
    by_target: Dict[int, CharSet] = {}
    for label, target in edges:
        by_target[target] = by_target.get(target, CharSet.empty()).union(label)
    return [(label, target) for target, label in sorted(by_target.items())]


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction over the NFA's minterm alphabet."""
    minterms = partition(nfa.alphabet_labels())
    start_set = nfa.epsilon_closure({nfa.start})
    index: Dict[FrozenSet[int], int] = {start_set: 0}
    order: List[FrozenSet[int]] = [start_set]
    transitions: Dict[int, List[Tuple[CharSet, int]]] = {}
    work = [start_set]
    while work:
        subset = work.pop()
        state = index[subset]
        edges: List[Tuple[CharSet, int]] = []
        for minterm in minterms:
            probe = minterm.min_codepoint()
            targets = {
                dst
                for src in subset
                for label, dst in nfa.moves.get(src, ())
                if probe in label
            }
            closure = nfa.epsilon_closure(targets) if targets else frozenset()
            if closure not in index:
                index[closure] = len(order)
                order.append(closure)
                work.append(closure)
            edges.append((minterm, index[closure]))
        transitions[state] = _merge_labels(edges)
    # Any never-expanded subsets (unreachable) are impossible by construction;
    # the empty subset acts as the (complete) dead state when it appears.
    for subset, state in index.items():
        if state not in transitions:
            transitions[state] = [(CharSet.any(), state)]
    accepts = frozenset(
        index[subset]
        for subset in order
        if subset & nfa.accepts
    )
    return Dfa(
        n_states=len(order),
        start=0,
        accepts=accepts,
        transitions=transitions,
    )


def _product(left: Dfa, right: Dfa, combine) -> Dfa:
    """Lazy product construction; labels refined pairwise on demand."""
    index: Dict[Tuple[int, int], int] = {(left.start, right.start): 0}
    order: List[Tuple[int, int]] = [(left.start, right.start)]
    transitions: Dict[int, List[Tuple[CharSet, int]]] = {}
    work = [(left.start, right.start)]
    while work:
        pair = work.pop()
        state = index[pair]
        lp, rp = pair
        edges: List[Tuple[CharSet, int]] = []
        for l_label, l_dst in left.transitions[lp]:
            for r_label, r_dst in right.transitions[rp]:
                overlap = l_label.intersect(r_label)
                if overlap.is_empty():
                    continue
                succ = (l_dst, r_dst)
                if succ not in index:
                    index[succ] = len(order)
                    order.append(succ)
                    work.append(succ)
                edges.append((overlap, index[succ]))
        transitions[state] = _merge_labels(edges)
    accepts = frozenset(
        index[(lp, rp)]
        for (lp, rp) in order
        if combine(lp in left.accepts, rp in right.accepts)
    )
    return Dfa(
        n_states=len(order),
        start=0,
        accepts=accepts,
        transitions=transitions,
    )


def word_list(
    automaton, max_count: int, max_length: int
) -> Tuple[List[str], bool]:
    """The first ``max_count`` words of ``automaton.words`` (a
    :class:`Dfa` or a lazy space) and whether they are its whole
    language.  Only a complete list lets a failed search prove
    anything."""
    stream = automaton.words(max_count=max_count, max_length=max_length)
    words: List[str] = []
    while True:
        try:
            words.append(next(stream))
        except StopIteration as stop:
            return words, stop.value is True
