"""Interned automata compilation with optional on-disk persistence.

DSE re-solves path conditions containing the same regexes thousands of
times, and the batch runner multiplies that across worker processes:
every process used to recompile the same corpus patterns from scratch.
This module provides the two layers that stop that:

- :class:`AutomataInterner` — an in-process map from a *structural
  fingerprint* of the (capture-erased) regex AST to its compiled DFA.
  Fingerprints are canonical modulo language-preserving syntax: group
  transparency and greedy/lazy markers are erased, character classes are
  keyed by their normalized code-point intervals.  Two different AST
  objects (or the same pattern parsed in two processes) intern to one
  automaton.

- ``DFA_CODEC`` — the entry format of compiled DFAs in a
  :class:`~repro.diskstore.DiskStore` keyed by fingerprint, so separate
  batch invocations (and separate worker processes pointed at the same
  path) share compilation work.

:func:`repro.automata.ops.dfa_for` consults the interner (and through
it the store); ``--automata-cache PATH`` on the CLI and the service
layer's ``automata_cache`` knobs attach a store.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Callable, Dict, List, Optional

from repro.diskstore import Codec, DiskStore, attach
from repro.obs import metrics as _metrics
from repro.regex import ast
from repro.regex.charclass import CharSet
from repro.automata.build import NotRegularError
from repro.automata.dfa import Dfa

#: Bump when the fingerprint serialization changes meaning.
FINGERPRINT_VERSION = 1
#: Bump when the on-disk blob layout changes; old entries are ignored.
STORE_VERSION = 1
_MAGIC = "repro-automata"


# -- structural fingerprints --------------------------------------------------


def node_fingerprint(node: ast.Node) -> str:
    """A canonical structural fingerprint of a purely regular AST.

    Injective modulo language-preserving normalisations: capture and
    non-capturing groups are transparent, quantifier laziness is erased
    (neither changes ``L(R)``), and character matchers are keyed by
    their normalized interval sets rather than surface syntax — so
    ``[a-c]`` and ``[cba]`` intern to the same automaton.
    """
    out: List[str] = [f"v{FINGERPRINT_VERSION}:"]
    _serialize(node, out)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def _serialize(node: ast.Node, out: List[str]) -> None:
    if isinstance(node, ast.Empty):
        out.append("E")
    elif isinstance(node, ast.CharMatch):
        out.append("C[")
        out.append(
            ",".join(f"{lo}-{hi}" for lo, hi in node.charset.intervals)
        )
        out.append("]")
    elif isinstance(node, (ast.Group, ast.NonCapGroup)):
        _serialize(node.child, out)
    elif isinstance(node, ast.Concat):
        out.append("(.")
        for part in node.parts:
            _serialize(part, out)
        out.append(")")
    elif isinstance(node, ast.Alternation):
        out.append("(|")
        for option in node.options:
            _serialize(option, out)
        out.append(")")
    elif isinstance(node, ast.Quantifier):
        upper = "" if node.max is None else str(node.max)
        out.append(f"(q{node.min},{upper}:")
        _serialize(node.child, out)
        out.append(")")
    else:
        raise NotRegularError(
            f"{type(node).__name__} is not a classical regular construct"
        )


# -- DFA <-> primitive blobs --------------------------------------------------


def dfa_to_blob(dfa: Dfa) -> tuple:
    """A primitive-only, version-tagged form of ``dfa`` for serialization."""
    return (
        _MAGIC,
        STORE_VERSION,
        dfa.n_states,
        dfa.start,
        tuple(sorted(dfa.accepts)),
        tuple(
            (
                state,
                tuple(
                    (label.intervals, target)
                    for label, target in edges
                ),
            )
            for state, edges in sorted(dfa.transitions.items())
        ),
    )


def dfa_from_blob(blob: tuple) -> Dfa:
    """Rebuild a :class:`Dfa` from :func:`dfa_to_blob` output.

    Raises on any structural mismatch (wrong magic, version, or shape);
    callers treat that as a cache miss.
    """
    magic, version, n_states, start, accepts, transitions = blob
    if magic != _MAGIC or version != STORE_VERSION:
        raise ValueError(f"unsupported automata blob {magic!r} v{version!r}")
    rebuilt: Dict[int, List] = {}
    for state, edges in transitions:
        rebuilt[int(state)] = [
            (CharSet(tuple((int(lo), int(hi)) for lo, hi in intervals)),
             int(target))
            for intervals, target in edges
        ]
    return Dfa(
        n_states=int(n_states),
        start=int(start),
        accepts=frozenset(int(s) for s in accepts),
        transitions=rebuilt,
    )


#: Compiled DFAs on disk: ``<path>/v1/<fingerprint>.dfa``.  Unlike
#: the other kinds, a blob does not repeat its key (the format predates
#: the shared store), so a DFA filed under a foreign key is served.
DFA_CODEC = Codec(
    "dfa",
    STORE_VERSION,
    "dfa",
    lambda fingerprint, dfa: pickle.dumps(dfa_to_blob(dfa), protocol=4),
    lambda fingerprint, data: dfa_from_blob(pickle.loads(data)),
)


# -- the interner -------------------------------------------------------------


class AutomataInterner:
    """Fingerprint → compiled DFA, with an optional disk store behind it.

    ``hits`` counts every lookup satisfied from memory (including the
    callers' node-keyed fast paths in :mod:`repro.automata.ops`),
    ``disk_hits`` loads from the store, ``misses`` actual compilations.
    """

    def __init__(self):
        self._dfas: Dict[str, Dfa] = {}
        self._complements: Dict[str, Dfa] = {}
        self.store: Optional[DiskStore] = None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- configuration -------------------------------------------------------

    def attach_store(self, path: Optional[str]) -> None:
        """Attach (or with ``None`` detach) an on-disk store.

        Same rules as the query cache (:func:`repro.diskstore.attach`):
        re-attaching keeps the handle and its counters, an unusable path
        means memory-only interning, and a non-string ``path`` is a
        store-shaped object used directly.
        """
        self.store = attach(self.store, path, DFA_CODEC)

    def reset(self) -> None:
        """Forget everything: memory, counters, and the disk handle."""
        self._dfas.clear()
        self._complements.clear()
        self.store = None
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    # -- lookups -------------------------------------------------------------

    def dfa(self, fingerprint: str, compile_fn: Callable[[], Dfa]) -> Dfa:
        dfa = self._dfas.get(fingerprint)
        if dfa is not None:
            self.hits += 1
            _metrics.count("automata_interner_total", outcome="hit")
            return dfa
        if self.store is not None:
            dfa = self.store.get(fingerprint)
            if dfa is not None:
                self.disk_hits += 1
                _metrics.count(
                    "automata_interner_total", outcome="disk_hit"
                )
                self._dfas[fingerprint] = dfa
                return dfa
        self.misses += 1
        _metrics.count("automata_interner_total", outcome="miss")
        dfa = compile_fn()
        self._dfas[fingerprint] = dfa
        if self.store is not None:
            self.store.put(fingerprint, dfa)
        return dfa

    def complement(
        self, fingerprint: str, derive_fn: Callable[[], Dfa]
    ) -> Dfa:
        """Memoize the complement per fingerprint.

        Complements are *derived* (an O(1) view over the base DFA), so
        they are interned in memory only — persisting them would store
        the shared transition table twice.
        """
        dfa = self._complements.get(fingerprint)
        if dfa is not None:
            self.hits += 1
            return dfa
        dfa = derive_fn()
        self._complements[fingerprint] = dfa
        return dfa

    # -- reporting -----------------------------------------------------------

    def counters(self) -> dict:
        out = {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_stores": self.store.stores if self.store else 0,
            "disk_failures": self.store.failures if self.store else 0,
            "disk_corrupt_evictions": (
                self.store.corrupt_evictions if self.store else 0
            ),
            "memory_size": len(self._dfas),
        }
        return out


def counters_delta(before: dict, after: dict) -> dict:
    """The per-run share of two :meth:`AutomataInterner.counters` snapshots."""
    return {
        key: after.get(key, 0) - before.get(key, 0)
        for key in ("hits", "misses", "disk_hits", "disk_stores")
    }
