"""Classical regular-language engine (the paper's base-case substrate).

Purely regular regex fragments — the leaves the model translation of §4
bottoms out in — are compiled here to automata supporting membership,
complement (for §4.4 non-membership), intersection, emptiness and
length-ordered word enumeration (which powers the string solver's
candidate generation).
"""

from repro.automata.build import NotRegularError, erase_captures, to_nfa
from repro.automata.cache import AutomataInterner, node_fingerprint
from repro.automata.dfa import Dfa, determinize
from repro.automata.lazy import (
    LazyProduct,
    LazyUnion,
    lazy_intersect_all,
    lazy_union_all,
)
from repro.automata.nfa import Nfa
from repro.automata.ops import (
    automata_cache_counters,
    clear_caches,
    complement_dfa_for,
    configure_automata_cache,
    dfa_for,
    dfa_for_pattern,
    intersect_all,
    membership_witness,
    nfa_for,
)
from repro.automata.visualize import to_dot

__all__ = [
    "AutomataInterner",
    "Dfa",
    "LazyProduct",
    "LazyUnion",
    "Nfa",
    "NotRegularError",
    "automata_cache_counters",
    "clear_caches",
    "complement_dfa_for",
    "configure_automata_cache",
    "determinize",
    "dfa_for",
    "dfa_for_pattern",
    "erase_captures",
    "intersect_all",
    "lazy_intersect_all",
    "lazy_union_all",
    "membership_witness",
    "nfa_for",
    "node_fingerprint",
    "to_dot",
    "to_nfa",
]
