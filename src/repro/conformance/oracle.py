"""The differential oracle: N deciders, one word, one verdict each.

For a pair ``(pattern, flags)`` and a concrete word ``w`` the oracle
collects verdicts from deciders that are sound *by independent
construction*:

- the concrete backtracking matcher (``RegExp.exec`` — the paper's
  ground truth, §3);
- every configured solver backend, each deciding the *pinned* query
  ``match_formula ∧ input = w`` — the symbolic exec model of §6.1 with
  the input variable fixed to the word, so SAT means "the model says
  ``w`` matches" and UNSAT means it does not.

The pinned query is solved **raw**, never through CEGAR: Algorithm 1
uses the concrete matcher as its own validation oracle, so a
CEGAR-wrapped solve could only ever agree with the matcher and the
differential check would be vacuous.  ``UNKNOWN`` is tolerated (a
budget ran out, nothing is learned) and backend exceptions degrade to
an ``error`` verdict.

What counts as a :class:`Disagreement` is direction-aware, because the
raw formula is an *over-approximation* for patterns with lookarounds,
word boundaries or interior anchors (their context-term translation is
exactly what the CEGAR loop exists to validate — §6.2):

- two *backends* contradicting each other on the identical formula is
  always a disagreement (same query, same intended semantics);
- matcher says **match** but a backend proves **UNSAT** is always a
  disagreement (a true matching word must satisfy any sound
  over-approximation — this is the direction a lost match hides in);
- matcher says **nomatch** but a backend finds **SAT** is a
  disagreement only for patterns in the *exact* fragment (no
  lookarounds/boundaries/anchors); otherwise it is counted as a
  tolerated over-approximation, the solver model being precisely the
  kind of candidate CEGAR would refute.

``planted:`` — a deliberately unsound backend that flips SAT to UNSAT
whenever the pinned word contains a trigger character — is registered
here so the whole harness (oracle → shrink → artifact store → report)
can be exercised end-to-end against a known bug.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.constraints import Eq, StrConst, StrVar, conj
from repro.constraints.formulas import Formula, to_nnf
from repro.model.preprocess import META_END, META_START
from repro.regex.matcher import RegExp
from repro.solver.backends import make_backend
from repro.solver.backends.base import BackendError, SolverBackend
from repro.solver.backends.native import NativeBackend
from repro.solver.backends.registry import (
    _split_rest,
    register_backend,
    registered_backends,
)
from repro.solver.core import SAT, SolverResult, UNSAT
from repro.solver.stats import SolverStats

MATCH = "match"
NOMATCH = "nomatch"
UNDECIDED = "unknown"
ERROR = "error"

_MATCHER = "matcher"

_check_ids = itertools.count()


def _exact_fragment(body) -> bool:
    """Whether the raw (un-refined) match formula is exact for ``body``.

    Captures and backreferences translate to word equations whose
    *membership* projection is exact (refinement only pins down which
    captures the greedy matcher picks, not whether a match exists);
    lookarounds, word boundaries and anchors translate through context
    terms whose spurious models are CEGAR's job to refute, so a raw SAT
    there proves nothing against the matcher.
    """
    from repro.regex import ast

    return not any(
        isinstance(
            sub, (ast.Lookahead, ast.WordBoundary, ast.Anchor)
        )
        for sub in ast.walk(body)
    )


class _PatternEntry(NamedTuple):
    """What the oracle pays for once per pattern, not once per word."""

    #: The concrete matcher, parsed once (``SymbolicRegExp.concrete``).
    regexp: RegExp
    #: The input variable of the match formula.
    var: StrVar
    #: ``to_nnf(match_formula)``: pinning a word re-normalises only the
    #: top-level operands (see :func:`~repro.constraints.to_nnf`).
    nnf: Formula
    #: Whether the raw formula is exact (:func:`_exact_fragment`).
    exact: bool


@dataclass
class Disagreement:
    """Two deciders contradicted each other on one concrete word."""

    pattern: str
    flags: str
    word: str
    #: The contradicting pair, ``(who said match, who said nomatch)``.
    members: Tuple[str, str]
    verdicts: Dict[str, str] = field(default_factory=dict)
    seed: Optional[int] = None


@dataclass
class CheckOutcome:
    """All verdicts for one ``(pattern, flags, word)`` check."""

    pattern: str
    flags: str
    word: str
    verdicts: Dict[str, str]
    disagreement: Optional[Disagreement] = None


class DifferentialOracle:
    """Cross-checks the matcher against one or more solver backends."""

    def __init__(
        self,
        backends: Sequence[object] = ("native",),
        *,
        timeout: float = 2.0,
        stats: Optional[SolverStats] = None,
        model_cache_size: int = 64,
    ):
        register_planted_backend()
        self.stats = stats
        self.timeout = timeout
        self.members: List[Tuple[str, object]] = []
        for spec in backends:
            backend = make_backend(spec, timeout=timeout, stats=stats)
            name = getattr(backend, "name", str(spec))
            while any(name == existing for existing, _ in self.members):
                name += "'"  # two members of the same spec stay distinct
            self.members.append((name, backend))
        if not self.members:
            raise BackendError("differential oracle needs a backend")
        self.counters: Dict[str, int] = {
            "checks": 0,
            "skipped": 0,
            "disagreements": 0,
            "tolerated_overapprox": 0,
            MATCH: 0,
            NOMATCH: 0,
            UNDECIDED: 0,
            ERROR: 0,
        }
        #: (pattern, flags) → :class:`_PatternEntry`, or ``None`` when
        #: the pattern does not parse or translate.  A pair's words and
        #: the shrinker's re-checks share one entry, so a word costs one
        #: ``exec`` and the solve of its pinned formula.
        self._models: "OrderedDict[Tuple[str, str], Optional[_PatternEntry]]"
        self._models = OrderedDict()
        self._model_cache_size = model_cache_size

    # -- model plumbing ----------------------------------------------------

    def _entry(self, pattern: str, flags: str) -> Optional[_PatternEntry]:
        key = (pattern, flags)
        if key in self._models:
            self._models.move_to_end(key)
            return self._models[key]
        from repro.model.api import SymbolicRegExp

        try:
            symbolic = SymbolicRegExp(pattern, flags)
            var = StrVar(f"fuzz!{next(_check_ids)}")
            # Only the match side is read: a verdict is a match or not.
            match_formula = symbolic.exec_model(var).match_formula
        except Exception:
            entry = None  # unsupported: negative-cached
        else:
            entry = _PatternEntry(
                symbolic.concrete,
                var,
                to_nnf(match_formula),
                _exact_fragment(symbolic.concrete.pattern.body),
            )
        self._models[key] = entry
        if len(self._models) > self._model_cache_size:
            self._models.popitem(last=False)
        return entry

    # -- the check itself --------------------------------------------------

    def check(
        self,
        pattern: str,
        flags: str,
        word: str,
        seed: Optional[int] = None,
    ) -> Optional[CheckOutcome]:
        """Decide one word every way we know how; ``None`` = skipped."""
        if META_START in word or META_END in word:
            self.counters["skipped"] += 1
            return None
        entry = self._entry(pattern, flags)
        if entry is None:
            self.counters["skipped"] += 1
            return None
        # Each word is a fresh exec: a g/y match must not start at the
        # lastIndex the previous word left behind.
        entry.regexp.last_index = 0
        try:
            concrete = entry.regexp.exec(word) is not None
        except Exception:
            self.counters["skipped"] += 1
            return None
        formula = to_nnf(conj([entry.nnf, Eq(entry.var, StrConst(word))]))
        verdicts: Dict[str, str] = {
            _MATCHER: MATCH if concrete else NOMATCH
        }
        for name, backend in self.members:
            verdicts[name] = self._backend_verdict(backend, formula)
        self.counters["checks"] += 1
        for verdict in verdicts.values():
            if verdict in self.counters:
                self.counters[verdict] += 1
        disagreement = self._find_disagreement(
            pattern, flags, word, verdicts, entry.exact, seed
        )
        return CheckOutcome(pattern, flags, word, verdicts, disagreement)

    def _backend_verdict(self, backend, formula: Formula) -> str:
        try:
            result: SolverResult = backend.solve(formula)
        except Exception:
            return ERROR
        if result.status == SAT:
            return MATCH
        if result.status == UNSAT:
            return NOMATCH
        return UNDECIDED

    def _find_disagreement(
        self,
        pattern: str,
        flags: str,
        word: str,
        verdicts: Dict[str, str],
        exact: bool,
        seed: Optional[int],
    ) -> Optional[Disagreement]:
        matcher_verdict = verdicts[_MATCHER]
        backend_match = next(
            (
                n for n, v in verdicts.items()
                if v == MATCH and n != _MATCHER
            ),
            None,
        )
        backend_nomatch = next(
            (
                n for n, v in verdicts.items()
                if v == NOMATCH and n != _MATCHER
            ),
            None,
        )
        if backend_match is not None and backend_nomatch is not None:
            # Two backends contradict on the identical formula: always
            # a bug, no approximation argument applies.
            said_match, said_nomatch = backend_match, backend_nomatch
        elif matcher_verdict == MATCH and backend_nomatch is not None:
            # A real matching word refuted by a backend — unsound in
            # every fragment (the formula over-approximates matching).
            said_match, said_nomatch = _MATCHER, backend_nomatch
        elif matcher_verdict == NOMATCH and backend_match is not None:
            if not exact:
                # Lookaround/boundary/anchor patterns: a spurious SAT
                # is the documented over-approximation CEGAR refutes.
                self.counters["tolerated_overapprox"] += 1
                return None
            said_match, said_nomatch = backend_match, _MATCHER
        else:
            return None
        self.counters["disagreements"] += 1
        pair = f"{said_match}|{said_nomatch}"
        if self.stats is not None:
            self.stats.record_disagreement(pair)
        obs.event(
            "oracle:disagreement",
            members=pair,
            pattern=pattern,
            flags=flags,
            word=word,
        )
        return Disagreement(
            pattern=pattern,
            flags=flags,
            word=word,
            members=(said_match, said_nomatch),
            verdicts=dict(verdicts),
            seed=seed,
        )

    def check_pair(self, pair) -> List[CheckOutcome]:
        """Check every input of a :class:`~.gen.ConformancePair`."""
        outcomes = []
        for word in pair.inputs:
            outcome = self.check(
                pair.pattern, pair.flags, word, seed=pair.seed
            )
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def disagrees(self, pattern: str, flags: str, word: str) -> bool:
        """The shrinker's predicate: does this triple still disagree?"""
        outcome = self.check(pattern, flags, word)
        return outcome is not None and outcome.disagreement is not None


# -- the planted bug ---------------------------------------------------------


class PlantedBackend(SolverBackend):
    """``planted:?trigger=N`` — native, except deliberately unsound.

    Answers exactly like the native solver unless some string constant
    of the formula contains ``chr(N)`` (default ``q``), in which case a
    SAT answer is flipped to UNSAT — a one-directional soundness bug,
    so every disagreement it causes shrinks to the same minimal
    reproducer and the harness's "exactly one deduped artifact"
    property is decidable.  Exists only to test the harness; never a
    production spec.
    """

    def __init__(
        self,
        stats: Optional[SolverStats] = None,
        timeout: Optional[float] = None,
        trigger: int = 113,  # ord('q')
    ):
        super().__init__(stats)
        self.name = "planted"
        self.trigger = chr(int(trigger))
        options = {} if timeout is None else {"timeout": timeout}
        self._inner = NativeBackend(stats=None, **options)

    def solve(self, formula: Formula) -> SolverResult:
        started = perf_counter()
        result = self._inner.solve(formula)
        if result.status == SAT and self._triggered(formula):
            result = SolverResult(UNSAT)
        self._tally(result.status, perf_counter() - started)
        return result

    def _triggered(self, formula: Formula) -> bool:
        return any(
            self.trigger in value for value in _string_consts(formula)
        )


def _string_consts(obj) -> List[str]:
    """Every ``StrConst`` value inside a formula tree.

    Regex AST subtrees are *not* descended into: pattern literals live
    in character sets, and the planted bug must key on the pinned word
    (and capture constants), not on the pattern's spelling.
    """
    from repro.regex.ast import Node as _RegexNode

    out: List[str] = []
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, StrConst):
            out.append(item.value)
        elif isinstance(item, _RegexNode):
            continue
        elif hasattr(item, "__dataclass_fields__"):
            stack.extend(
                getattr(item, name)
                for name in item.__dataclass_fields__
            )
        elif isinstance(item, (tuple, list, frozenset, set)):
            stack.extend(item)
    return out


def _planted_factory(rest, *, timeout=None, stats=None, **_extras):
    body, options = _split_rest(rest)
    if body:
        raise BackendError(
            f"planted backend takes no argument (got {body!r})"
        )
    unknown = set(options) - {"trigger", "timeout"}
    if unknown:
        raise BackendError(
            f"planted backend does not accept option(s) {sorted(unknown)}"
        )
    if timeout is not None:
        options.setdefault("timeout", timeout)
    return PlantedBackend(stats=stats, **options)


def register_planted_backend() -> None:
    """Idempotently register the ``planted`` spec scheme."""
    if "planted" not in registered_backends():
        register_backend("planted", _planted_factory)
