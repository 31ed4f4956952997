"""Disagreement triage: shrink, fingerprint, dedupe, persist.

The shrinker is delta debugging specialised to this domain.  Soundness
of the shrink is *reproduction*, not equivalence: a candidate reduction
is kept iff the reduced triple still makes the oracle disagree — the
shrunk artifact is a different (smaller) witness of the same bug, and
semantic drift along the way is irrelevant as long as each accepted
step re-checks the oracle.  Three reduction axes interleave to a
fixpoint, cheapest first:

- **flags** — drop one flag at a time;
- **word** — remove one character at a time (inputs are ≤ ~12 chars,
  so char-wise ddmin is already minimal);
- **pattern** — greedy AST reductions (replace the body with ε, drop a
  concat part, commit to one alternative, unwrap quantifiers/groups/
  lookaheads), each validated by unparse → re-parse before the oracle
  sees it (a reduction can orphan a named backreference, which is a
  *syntax* error, not a smaller witness).

Shrinking something that does not disagree in the first place raises
:class:`NotADisagreement`: a shrinker that "minimizes" a healthy input
to ε would manufacture artifacts out of noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro import obs
from repro.regex import ast
from repro.regex.flags import Flags
from repro.regex.parser import parse_pattern
from repro.regex.unparse import unparse

from repro.conformance.artifacts import (
    DisagreementArtifact,
    artifact_fingerprint,
    record_artifact,
)
from repro.diskstore import DiskStore
from repro.conformance.oracle import Disagreement, DifferentialOracle

#: Hard cap on accepted reductions — the oracle solves one query per
#: *candidate*, so a pathological disagreement must terminate anyway.
_MAX_STEPS = 200


class NotADisagreement(ValueError):
    """Asked to shrink a triple the oracle does not disagree on."""


def _flag_candidates(flags: str) -> Iterator[str]:
    for i in range(len(flags)):
        yield flags[:i] + flags[i + 1:]


def _word_candidates(word: str) -> Iterator[str]:
    # Big bites first (halves), then single characters.
    if len(word) >= 4:
        half = len(word) // 2
        yield word[half:]
        yield word[:half]
    for i in range(len(word)):
        yield word[:i] + word[i + 1:]


def _node_reductions(node: ast.Node) -> Iterator[ast.Node]:
    """Smaller candidates for one subtree (not recursing — see below)."""
    if isinstance(node, ast.Concat):
        for i in range(len(node.parts)):
            yield ast.concat(node.parts[:i] + node.parts[i + 1:])
    elif isinstance(node, ast.Alternation):
        yield from node.options
    elif isinstance(node, ast.Quantifier):
        yield node.child
        yield ast.Empty()
    elif isinstance(node, (ast.Group, ast.NonCapGroup)):
        yield node.child
    elif isinstance(node, ast.Lookahead):
        yield ast.Empty()
        yield node.child
    elif not isinstance(node, ast.Empty):
        yield ast.Empty()


def _rewrites(node: ast.Node) -> Iterator[ast.Node]:
    """Every tree obtainable by reducing exactly one subtree of ``node``."""
    yield from _node_reductions(node)
    if isinstance(node, ast.Concat):
        for i, part in enumerate(node.parts):
            for reduced in _rewrites(part):
                yield ast.concat(
                    node.parts[:i] + (reduced,) + node.parts[i + 1:]
                )
    elif isinstance(node, ast.Alternation):
        for i, option in enumerate(node.options):
            for reduced in _rewrites(option):
                yield ast.alternation(
                    node.options[:i] + (reduced,) + node.options[i + 1:]
                )
    elif isinstance(node, ast.Quantifier):
        for reduced in _rewrites(node.child):
            yield ast.Quantifier(reduced, node.min, node.max, node.lazy)
    elif isinstance(node, ast.Group):
        for reduced in _rewrites(node.child):
            yield ast.Group(reduced, node.index, name=node.name)
    elif isinstance(node, ast.NonCapGroup):
        for reduced in _rewrites(node.child):
            yield ast.NonCapGroup(reduced)
    elif isinstance(node, ast.Lookahead):
        for reduced in _rewrites(node.child):
            yield ast.Lookahead(reduced, node.negative)


def _pattern_candidates(pattern: str, flags: str) -> Iterator[str]:
    """Strictly-shorter valid pattern sources, one reduction per step."""
    try:
        body = parse_pattern(pattern, Flags.parse(flags)).body
    except Exception:
        return
    seen = {pattern}
    for reduced in _rewrites(body):
        try:
            candidate = unparse(reduced)
        except Exception:
            continue
        if candidate in seen or len(candidate) >= len(pattern):
            continue
        seen.add(candidate)
        try:
            # Re-parse under the same flags: a reduction can orphan a
            # backreference or produce otherwise-invalid source.
            parse_pattern(candidate, Flags.parse(flags))
        except Exception:
            continue
        yield candidate


def shrink_disagreement(
    check: Callable[[str, str, str], bool],
    pattern: str,
    flags: str,
    word: str,
    max_steps: int = _MAX_STEPS,
) -> Tuple[str, str, str, int]:
    """Greedy fixpoint shrink of a disagreeing ``(pattern, flags, word)``.

    ``check(pattern, flags, word) -> bool`` is the oracle predicate
    ("does this still disagree"); raises :class:`NotADisagreement` when
    the starting triple fails it.  Returns the reduced triple plus the
    number of accepted reduction steps.
    """
    if not check(pattern, flags, word):
        raise NotADisagreement(
            f"/{pattern}/{flags} on {word!r} does not disagree; "
            "refusing to shrink it"
        )
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _flag_candidates(flags):
            if check(pattern, candidate, word):
                flags = candidate
                steps += 1
                improved = True
                break
        if improved:
            continue
        for candidate in _word_candidates(word):
            if check(pattern, flags, candidate):
                word = candidate
                steps += 1
                improved = True
                break
        if improved:
            continue
        for candidate in _pattern_candidates(pattern, flags):
            if check(candidate, flags, word):
                pattern = candidate
                steps += 1
                improved = True
                break
    return pattern, flags, word, steps


@dataclass
class TriageResult:
    """What became of one captured disagreement."""

    artifact: DisagreementArtifact
    status: str  # "new" | "dup" | "unstored"


class TriagePipeline:
    """capture → shrink → fingerprint → dedupe → persist.

    Wired to a :class:`DifferentialOracle` (the shrink predicate) and an
    optional :class:`~repro.diskstore.DiskStore` of artifacts; without a
    store the artifact is still built and returned (status
    ``"unstored"``) so collect-mode jobs always have something to
    report.
    """

    def __init__(
        self,
        oracle: DifferentialOracle,
        store: Optional[DiskStore] = None,
        *,
        shrink: bool = True,
    ):
        self.oracle = oracle
        self.store = store
        self.shrink = shrink
        self.handled = 0
        self.shrink_steps = 0

    def handle(self, disagreement: Disagreement) -> TriageResult:
        pattern = disagreement.pattern
        flags = disagreement.flags
        word = disagreement.word
        verdicts = dict(disagreement.verdicts)
        members = list(disagreement.members)
        steps = 0
        if self.shrink:
            try:
                pattern, flags, word, steps = shrink_disagreement(
                    self.oracle.disagrees, pattern, flags, word
                )
            except NotADisagreement:
                # Flaky (e.g. a timeout-shaped) disagreement: keep the
                # original triple rather than dropping the evidence.
                pass
            else:
                shrunk = self.oracle.check(pattern, flags, word)
                if shrunk is not None and shrunk.disagreement is not None:
                    verdicts = dict(shrunk.verdicts)
                    members = list(shrunk.disagreement.members)
        artifact = DisagreementArtifact(
            fingerprint=artifact_fingerprint(pattern, flags, word),
            pattern=pattern,
            flags=flags,
            word=word,
            verdicts=verdicts,
            members=members,
            seed=disagreement.seed,
            origin_pattern=disagreement.pattern,
            origin_word=disagreement.word,
            shrink_steps=steps,
        )
        status = (
            record_artifact(self.store, artifact)
            if self.store is not None
            else "unstored"
        )
        self.handled += 1
        self.shrink_steps += steps
        obs.event(
            "triage:artifact",
            status=status,
            fingerprint=artifact.fingerprint,
            pattern=pattern,
            flags=flags,
            word=word,
            shrink_steps=steps,
        )
        return TriageResult(artifact=artifact, status=status)
