"""High-level automata operations used by the model and the solver.

The central entry point is :func:`dfa_for`, which compiles a purely
regular AST node to a (cached, minimized) DFA.  Caching matters: DSE
re-solves path conditions containing the same regexes thousands of times.

Caching is layered (fastest first):

1. a node-keyed dict (structural hash of the AST object) — the hot path
   for repeated literals inside one solver run;
2. the fingerprint-keyed :class:`~repro.automata.cache.AutomataInterner`,
   canonical across group/laziness syntax and across AST identities;
3. an optional :class:`~repro.diskstore.DiskStore` of DFAs (attach
   with :func:`configure_automata_cache`) shared across processes and
   batch invocations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.regex import ast
from repro.regex.parser import parse_pattern
from repro.automata.build import NotRegularError, erase_captures, to_nfa
from repro.automata.cache import AutomataInterner, node_fingerprint
from repro.automata.dfa import Dfa, determinize
from repro.automata.lazy import LazyProduct, clear_verdicts, lazy_intersect_all
from repro.automata.nfa import Nfa

_INTERNER = AutomataInterner()
_DFA_CACHE: Dict[ast.Node, Dfa] = {}
_COMPLEMENT_CACHE: Dict[ast.Node, Dfa] = {}


def clear_caches() -> None:
    """Drop every memoized DFA and emptiness verdict and reset the interner.

    Also detaches any configured on-disk store (handle included), so
    benchmarks measuring cold compilation and tests get a pristine
    state; re-attach with :func:`configure_automata_cache` if disk
    persistence should survive the clear.
    """
    _DFA_CACHE.clear()
    _COMPLEMENT_CACHE.clear()
    clear_verdicts()
    _INTERNER.reset()


def configure_automata_cache(path: Optional[str]) -> None:
    """Attach (``path``) or detach (``None``) the on-disk automata store.

    Process-global: every subsequent compilation through
    :func:`dfa_for` reads from and writes to the store.  The CLI's
    ``--automata-cache`` and the service layer's ``automata_cache``
    knobs land here.
    """
    _INTERNER.attach_store(path)


def automata_cache_counters() -> dict:
    """Hit/miss/disk counters of the compilation cache (cumulative)."""
    return _INTERNER.counters()


def nfa_for(node: ast.Node) -> Nfa:
    """Thompson NFA for a purely regular node (captures erased first)."""
    return to_nfa(erase_captures(node))


def dfa_for(node: ast.Node, minimize: bool = True) -> Dfa:
    """Compile ``node`` (purely regular, captures allowed and erased) to a DFA."""
    cached = _DFA_CACHE.get(node)
    if cached is not None:
        _INTERNER.hits += 1
        return cached
    erased = erase_captures(node)
    fingerprint = node_fingerprint(erased)

    def compile_fn() -> Dfa:
        dfa = determinize(to_nfa(erased))
        if minimize and dfa.n_states <= 512:
            dfa = dfa.minimize()
        return dfa

    dfa = _INTERNER.dfa(fingerprint, compile_fn)
    _DFA_CACHE[node] = dfa
    return dfa


def complement_dfa_for(node: ast.Node) -> Dfa:
    """The complement automaton (drives ``∉ L(r)`` constraints of §4.4)."""
    cached = _COMPLEMENT_CACHE.get(node)
    if cached is not None:
        _INTERNER.hits += 1
        return cached
    fingerprint = node_fingerprint(erase_captures(node))
    dfa = _INTERNER.complement(
        fingerprint, lambda: dfa_for(node).complement()
    )
    _COMPLEMENT_CACHE[node] = dfa
    return dfa


def dfa_for_pattern(source: str, flags: str = "") -> Dfa:
    """Parse classical regex text and compile it — convenience for tests."""
    pattern = parse_pattern(source, flags if flags else "")
    return dfa_for(pattern.body)


def intersect_all(dfas: Iterable[Dfa]) -> Optional[Dfa]:
    """Eager intersection of a collection of DFAs (``None`` for empty input).

    Short-circuits as soon as an intermediate product is empty — no
    further component can revive an empty language, so the (possibly
    large) remaining products are never built.  For query-only use
    prefer :func:`repro.automata.lazy.lazy_intersect_all`, which never
    materializes the product at all.
    """
    result: Optional[Dfa] = None
    for dfa in dfas:
        result = dfa if result is None else result.intersect(dfa)
        if result.is_empty():
            return result
    return result


def membership_witness(node: ast.Node) -> Optional[str]:
    """A shortest word in ``L(node)``, or ``None`` if the language is empty."""
    return dfa_for(node).shortest_word()
