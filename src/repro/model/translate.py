"""The capturing-language model: ES6 regex → string constraints (§4).

:class:`Translator` recursively turns ``(w, C0..Cn) ∈ Lc(R)`` into the
constraint language of :mod:`repro.constraints`, following Table 2 for
operators/captures, Table 3 for backreferences, and §4.4 for negation.

Key implementation choices (each mirrors the paper):

- **Purely regular subtrees** bottom out in a single ``InRe`` atom (the
  base case of Table 2), so automata do the heavy lifting.
- **Quantification** uses Table 2's rule generalised from ``*`` to
  ``{m,n}``: ``w = w1 ++ w2`` with ``w1 ∈ L(t̂{max(m-1,0),n-1})`` and the
  last iteration translated with captures (this is §4.1's capture
  correspondence folded into the rule).  Bodies containing
  backreferences or assertions fall back to **bounded unrolling**, which
  realises Table 3's quantified-backreference rows; the unroll bound
  makes that case under-approximate exactly as the paper's "∃m" does for
  a finite solver search.
- **Anchors and boundaries** constrain *context terms*: the translation
  threads the full left/right context of every position (concatenations
  of the surrounding segment variables plus the ``⟨``/``⟩``
  meta-characters added by Algorithm 2), which is the compositional
  reading of Table 2's ``L(.*⟨)``-style rules.  A context travels as a
  tuple of its parts and becomes a term only where an anchor, boundary
  or lookahead reads it.
- **Negation** (§4.4) keeps structural constraints (partitions, capture
  bindings) positive and negates the disjunction of semantic units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.regex import ast
from repro.regex.charclass import CharSet, LINE_TERMINATORS, WORD
from repro.automata.build import erase_captures
from repro.constraints import (
    Eq,
    Formula,
    InRe,
    StrConst,
    StrVar,
    Term,
    TRUE,
    Undef,
    concat,
    conj,
    disj,
    fresh_var,
    implies,
    neg,
)
from repro.model.backrefs import (
    BackrefType,
    classify_backrefs,
    Path,
)
from repro.model.preprocess import (
    ANY_CHAR,
    INPUT_CHAR,
    META_END,
    META_START,
    rewrite_for_model,
)


class MutableBackrefPolicy(Enum):
    """How quantified (mutable) backreferences are modelled (§4.3)."""

    #: Table 3's last row: treat the backreference as immutable across
    #: iterations.  Solvable but *under-approximate* — the paper's default,
    #: sound for DSE (§5.4).
    IMMUTABLE = "immutable"
    #: Table 3's fourth row: per-iteration capture variables (exact up to
    #: the unroll bound, but harder on the solver).
    EXACT = "exact"


@dataclass
class ModelConfig:
    multiline: bool = False
    policy: MutableBackrefPolicy = MutableBackrefPolicy.IMMUTABLE
    #: Bound for unrolling quantifiers whose bodies contain
    #: backreferences/assertions (the ``∃m`` of Table 3, made finite).
    unroll_limit: int = 4


# Regular fragments used by anchor/boundary rules (built once).
_ANY_STAR = ast.Quantifier(ANY_CHAR, 0, None)
_INPUT_STAR = ast.Quantifier(INPUT_CHAR, 0, None)
_META_START_CM = ast.CharMatch(CharSet.of(META_START), META_START)
_META_END_CM = ast.CharMatch(CharSet.of(META_END), META_END)
_WORD_CM = ast.CharMatch(WORD, "\\w")
_NONWORD_CM = ast.CharMatch(WORD.complement(), "\\W")
_LINETERM_CM = ast.CharMatch(LINE_TERMINATORS, "[\\n\\r\\u2028\\u2029]")

#: ``Σ*⟨`` / ``Σ*x`` style contexts.
_ENDS_META_START = ast.concat([_ANY_STAR, _META_START_CM])
_STARTS_META_END = ast.concat([_META_END_CM, _ANY_STAR])
_ENDS_WORD = ast.concat([_ANY_STAR, _WORD_CM])
_ENDS_NONWORD = ast.concat([_ANY_STAR, _NONWORD_CM])
_STARTS_WORD = ast.concat([_WORD_CM, _ANY_STAR])
_STARTS_NONWORD = ast.concat([_NONWORD_CM, _ANY_STAR])
_ENDS_NEWLINE = ast.concat([_ANY_STAR, _LINETERM_CM])
_STARTS_NEWLINE = ast.concat([_LINETERM_CM, _ANY_STAR])

_EPS = StrConst("")

#: A context: the terms whose concatenation is the subject on one side
#: of a position.  Concatenated only where a rule reads it.
Context = Tuple[Term, ...]

#: Nodes a quantifier body cannot contain and still take the star rule.
_UNROLLED = (ast.Backreference, ast.Lookahead, ast.WordBoundary, ast.Anchor)


class SubtreeFacts(NamedTuple):
    """What the translation asks about the subtree below one node."""

    #: Capture group indices in pre-order (:func:`ast.groups_in`).
    groups: Tuple[int, ...]
    #: No captures, backreferences or assertions
    #: (:func:`ast.is_purely_regular`).
    purely_regular: bool
    #: Backreferences, lookarounds, boundaries or anchors: a quantifier
    #: over this subtree is unrolled instead of taking the star rule.
    needs_unrolling: bool


def _subtree_facts(root: ast.Node) -> Dict[int, SubtreeFacts]:
    """:class:`SubtreeFacts` for every node under ``root``, by ``id``.

    One bottom-up pass; the ids stay valid while ``root`` is alive.
    """
    facts: Dict[int, SubtreeFacts] = {}

    def visit(node: ast.Node) -> SubtreeFacts:
        groups = (node.index,) if isinstance(node, ast.Group) else ()
        unrolling = isinstance(node, _UNROLLED)
        for child in ast.children(node):
            below = visit(child)
            groups += below.groups
            unrolling = unrolling or below.needs_unrolling
        found = facts[id(node)] = SubtreeFacts(
            groups, not groups and not unrolling, unrolling
        )
        return found

    visit(root)
    return facts


@dataclass
class Translation:
    """The result of translating one ``Lc`` membership.

    ``structural`` holds partitions and capture bindings (kept positive
    under negation, §4.4); ``semantic`` holds the negatable units.
    """

    structural: List[Formula] = field(default_factory=list)
    semantic: List[Formula] = field(default_factory=list)

    def positive(self) -> Formula:
        return conj(self.structural + self.semantic)

    def negative(self) -> Formula:
        """§4.4: keep structure, require *some* semantic unit to fail."""
        if not self.semantic:
            return conj(self.structural + [neg(TRUE)])
        return conj(
            self.structural + [disj([neg(unit) for unit in self.semantic])]
        )

    def merge(self, other: "Translation") -> None:
        self.structural.extend(other.structural)
        self.semantic.extend(other.semantic)


class Translator:
    """Translates one pattern's capturing-language memberships."""

    def __init__(
        self,
        body: ast.Node,
        captures: Dict[int, StrVar],
        config: Optional[ModelConfig] = None,
    ):
        self.body = rewrite_for_model(body)
        self.captures = captures
        self.config = config or ModelConfig()
        self._facts = _subtree_facts(self.body)
        group_count = max(self.facts(self.body).groups, default=0)
        self.backref_types = classify_backrefs(
            ast.Pattern(self.body, group_count)
        )

    # -- public API -----------------------------------------------------------

    def facts(self, node: ast.Node) -> SubtreeFacts:
        """The precomputed facts of ``node``, a node of ``self.body``."""
        return self._facts[id(node)]

    def membership(
        self,
        word: Term,
        positive: bool = True,
        lctx: Term = _EPS,
        rctx: Term = _EPS,
    ) -> Formula:
        """Model ``(word, C0..Cn) ⊡ Lc(body)`` (⊡ per ``positive``).

        ``lctx``/``rctx`` are the context terms to the left/right of the
        word within the overall subject — Algorithm 2 passes the ``⟨``/``⟩``
        meta-characters here so anchors and boundaries resolve exactly.
        """
        translation = self._visit(
            self.body,
            path=(),
            word=word,
            lctx=(lctx,),
            rctx=(rctx,),
            cap_map=dict(self.captures),
        )
        return translation.positive() if positive else translation.negative()

    # -- recursion -------------------------------------------------------------
    #
    # ``lctx``/``rctx`` are contexts: tuples of the terms whose
    # concatenation is the subject left/right of ``word``.

    def _visit(
        self,
        node: ast.Node,
        path: Path,
        word: Term,
        lctx: Context,
        rctx: Context,
        cap_map: Dict[int, StrVar],
    ) -> Translation:
        if self.facts(node).purely_regular:
            return Translation(semantic=[InRe(word, node)])
        handler = self._HANDLERS[type(node)]
        return handler(self, node, path, word, lctx, rctx, cap_map)

    def _visit_empty(self, node, path, word, lctx, rctx, cap_map):
        return Translation(semantic=[Eq(word, _EPS)])

    def _visit_concat(
        self, node: ast.Concat, path, word, lctx, rctx, cap_map
    ) -> Translation:
        segments = [fresh_var("seg") for _ in node.parts]
        result = Translation(
            structural=[Eq(word, concat(*segments))]
        )
        for i, part in enumerate(node.parts):
            part_lctx = lctx + tuple(segments[:i])
            part_rctx = tuple(segments[i + 1:]) + rctx
            child = self._visit(
                part, path + (i,), segments[i], part_lctx, part_rctx, cap_map
            )
            result.merge(child)
        return result

    def _visit_alternation(
        self, node: ast.Alternation, path, word, lctx, rctx, cap_map
    ) -> Translation:
        all_groups = set(self.facts(node).groups)
        branches: List[Formula] = []
        for i, option in enumerate(node.options):
            own_groups = set(self.facts(option).groups)
            others = all_groups - own_groups
            child = self._visit(
                option, path + (i,), word, lctx, rctx, cap_map
            )
            undef_caps = [
                Eq(cap_map[g], Undef()) for g in sorted(others) if g in cap_map
            ]
            branches.append(conj([child.positive()] + undef_caps))
        return Translation(semantic=[disj(branches)])

    def _visit_group(
        self, node: ast.Group, path, word, lctx, rctx, cap_map
    ) -> Translation:
        child = self._visit(
            node.child, path + (0,), word, lctx, rctx, cap_map
        )
        result = Translation()
        if node.index in cap_map:
            result.structural.append(Eq(cap_map[node.index], word))
        result.merge(child)
        return result

    def _visit_noncap(
        self, node: ast.NonCapGroup, path, word, lctx, rctx, cap_map
    ) -> Translation:
        return self._visit(node.child, path + (0,), word, lctx, rctx, cap_map)

    # -- quantification ---------------------------------------------------------

    def _visit_quantifier(
        self, node: ast.Quantifier, path, word, lctx, rctx, cap_map
    ) -> Translation:
        if self.facts(node.child).needs_unrolling:
            return self._unroll_quantifier(
                node, path, word, lctx, rctx, cap_map
            )
        return self._star_rule(node, path, word, lctx, rctx, cap_map)

    def _star_rule(
        self, node: ast.Quantifier, path, word, lctx, rctx, cap_map
    ) -> Translation:
        """Table 2's backreference-free quantification, generalised to
        ``{m,n}``: ``w = w1 ++ w2``, ``w1 ∈ L(t̂{max(m-1,0),n-1})``, with
        the final iteration carrying the captures."""
        low, high = node.min, node.max
        groups = [g for g in self.facts(node.child).groups if g in cap_map]
        undef_caps = [Eq(cap_map[g], Undef()) for g in sorted(set(groups))]

        if high == 0:
            return Translation(
                semantic=[Eq(word, _EPS)] + undef_caps
            )

        prefix = fresh_var("quant")
        last = fresh_var("quant")
        erased = erase_captures(node.child)
        prefix_regex = ast.Quantifier(
            erased, max(low - 1, 0), None if high is None else high - 1
        )
        result = Translation(
            structural=[Eq(word, concat(prefix, last))]
        )
        child = self._visit(
            node.child,
            path + (0,),
            last,
            lctx + (prefix,),
            rctx,
            cap_map,
        )
        result.semantic.append(InRe(prefix, prefix_regex))
        if low >= 1:
            result.merge(child)
            return result
        # t1|ε with the (w2 = ε ⇒ w1 = ε ∧ caps = ⊥) side condition.
        eps_branch = conj([Eq(last, _EPS), Eq(prefix, _EPS)] + undef_caps)
        result.semantic.append(disj([child.positive(), eps_branch]))
        result.semantic.append(
            implies(
                Eq(last, _EPS),
                conj([Eq(prefix, _EPS)] + undef_caps),
            )
        )
        return result

    def _unroll_quantifier(
        self, node: ast.Quantifier, path, word, lctx, rctx, cap_map
    ) -> Translation:
        """Bounded unrolling for bodies with backreferences/assertions —
        the finite realisation of Table 3's quantified rows."""
        low, high = node.min, node.max
        bound = low + self.config.unroll_limit
        if high is None or high > bound:
            high = bound
        groups = sorted(
            {g for g in self.facts(node.child).groups if g in cap_map}
        )
        branches: List[Formula] = []
        for count in range(low, high + 1):
            if count == 0:
                branches.append(
                    conj(
                        [Eq(word, _EPS)]
                        + [Eq(cap_map[g], Undef()) for g in groups]
                    )
                )
                continue
            copies = [fresh_var("iter") for _ in range(count)]
            parts: List[Formula] = [Eq(word, concat(*copies))]
            for i, copy_word in enumerate(copies):
                is_last = i == count - 1
                copy_caps = self._iteration_caps(cap_map, groups, is_last)
                copy_lctx = lctx + tuple(copies[:i])
                copy_rctx = tuple(copies[i + 1:]) + rctx
                child = self._visit(
                    node.child,
                    path + (0,),
                    copy_word,
                    copy_lctx,
                    copy_rctx,
                    copy_caps,
                )
                parts.append(child.positive())
            branches.append(conj(parts))
        return Translation(semantic=[disj(branches)])

    def _iteration_caps(
        self,
        cap_map: Dict[int, StrVar],
        groups: List[int],
        is_last: bool,
    ) -> Dict[int, StrVar]:
        """Capture variables for one unrolled iteration.

        The last copy binds the pattern's capture variables (the value the
        regex reports).  Earlier copies get fresh per-iteration variables
        under the EXACT policy (Table 3 row 4) and the shared variables
        under IMMUTABLE (row 5 — forcing all iterations to agree, which is
        the paper's deliberately unsound simplification)."""
        if is_last or self.config.policy is MutableBackrefPolicy.IMMUTABLE:
            return cap_map
        overlay = dict(cap_map)
        for g in groups:
            overlay[g] = fresh_var(f"C{g}_iter")
        return overlay

    # -- backreferences -----------------------------------------------------------

    def _visit_backref(
        self, node: ast.Backreference, path, word, lctx, rctx, cap_map
    ) -> Translation:
        info = self.backref_types.get(path)
        if (
            info is not None and info.type is BackrefType.EMPTY
        ) or node.index not in cap_map:
            # Table 3 row 1: empty backreferences match ε exactly.
            return Translation(semantic=[Eq(word, _EPS)])
        cap = cap_map[node.index]
        # Table 3 row 2: ⊥ ⇒ ε, otherwise the captured word.
        return Translation(
            semantic=[
                implies(Eq(cap, Undef()), Eq(word, _EPS)),
                implies(neg(Eq(cap, Undef())), Eq(word, cap)),
            ]
        )

    # -- assertions ---------------------------------------------------------------

    def _visit_lookahead(
        self, node: ast.Lookahead, path, word, lctx, rctx, cap_map
    ) -> Translation:
        # Table 2 treats ``(?=t1)t2`` as an intersection on the remaining
        # word: here the remaining word is the right context, split into a
        # prefix matching t1 and an arbitrary tail (the ``.*`` of the rule).
        child_facts = self.facts(node.child)
        rest_term = concat(*rctx)
        if not node.negative and child_facts.purely_regular:
            # Fast path mirroring Table 2 verbatim: the remaining word is
            # in L(t1 .*) — one membership on the right context.
            rest = fresh_var("look")
            target = ast.concat([node.child, _ANY_STAR])
            return Translation(
                structural=[Eq(word, _EPS), Eq(rest, rest_term)],
                semantic=[InRe(rest, target)],
            )
        la_word = fresh_var("look")
        la_tail = fresh_var("look")
        rest = fresh_var("look")
        result = Translation(
            structural=[
                Eq(word, _EPS),
                Eq(rest, rest_term),
                Eq(rest, concat(la_word, la_tail)),
            ]
        )
        if not node.negative:
            # Positive lookahead: captures within persist (ES6 semantics).
            child = self._visit(
                node.child, path + (0,), la_word, lctx, (la_tail,), cap_map
            )
            result.merge(child)
            return result
        # Negative lookahead: rest ∉ Lc(t1.*).  Inner captures come out
        # undefined in ES6; the negated body uses local variables.
        inner_groups = sorted(set(child_facts.groups))
        if child_facts.purely_regular:
            rest = fresh_var("look")
            result.structural = [Eq(word, _EPS), Eq(rest, rest_term)]
            target = ast.concat([erase_captures(node.child), _ANY_STAR])
            result.semantic.append(neg(InRe(rest, target)))
            # (the ``.*`` tail here may legitimately reach the ⟩ marker,
            # hence _ANY_STAR: rctx includes the right meta-character)
        else:
            overlay = dict(cap_map)
            for g in inner_groups:
                overlay[g] = fresh_var(f"C{g}_neg")
            child = self._visit(
                node.child, path + (0,), la_word, lctx, (la_tail,), overlay
            )
            result.semantic.append(child.negative())
        for g in inner_groups:
            if g in cap_map:
                result.structural.append(Eq(cap_map[g], Undef()))
        return result

    def _visit_anchor(
        self, node: ast.Anchor, path, word, lctx, rctx, cap_map
    ) -> Translation:
        result = Translation(structural=[Eq(word, _EPS)])
        if node.kind == "start":
            lctx = concat(*lctx)
            conditions = [InRe(lctx, _ENDS_META_START)]
            if not _never_empty(lctx):
                conditions.insert(0, Eq(lctx, _EPS))
            if self.config.multiline:
                conditions.append(InRe(lctx, _ENDS_NEWLINE))
        else:
            rctx = concat(*rctx)
            conditions = [InRe(rctx, _STARTS_META_END)]
            if not _never_empty(rctx):
                conditions.insert(0, Eq(rctx, _EPS))
            if self.config.multiline:
                conditions.append(InRe(rctx, _STARTS_NEWLINE))
        result.semantic.append(disj(conditions))
        return result

    def _visit_boundary(
        self, node: ast.WordBoundary, path, word, lctx, rctx, cap_map
    ) -> Translation:
        """Table 2's ``\\b``/``\\B`` rules over the threaded contexts."""
        lctx, rctx = concat(*lctx), concat(*rctx)
        ends_word = InRe(lctx, _ENDS_WORD)
        ends_nonword_opts = [InRe(lctx, _ENDS_NONWORD)]
        if not _never_empty(lctx):
            ends_nonword_opts.append(Eq(lctx, _EPS))
        ends_nonword = disj(ends_nonword_opts)
        starts_word = InRe(rctx, _STARTS_WORD)
        starts_nonword_opts = [InRe(rctx, _STARTS_NONWORD)]
        if not _never_empty(rctx):
            starts_nonword_opts.append(Eq(rctx, _EPS))
        starts_nonword = disj(starts_nonword_opts)
        at_boundary = disj(
            [
                conj([ends_word, starts_nonword]),
                conj([ends_nonword, starts_word]),
            ]
        )
        not_boundary = disj(
            [
                conj([ends_word, starts_word]),
                conj([ends_nonword, starts_nonword]),
            ]
        )
        condition = not_boundary if node.negated else at_boundary
        return Translation(
            structural=[Eq(word, _EPS)], semantic=[condition]
        )

    _HANDLERS = {
        ast.Empty: _visit_empty,
        ast.Concat: _visit_concat,
        ast.Alternation: _visit_alternation,
        ast.Group: _visit_group,
        ast.NonCapGroup: _visit_noncap,
        ast.Quantifier: _visit_quantifier,
        ast.Backreference: _visit_backref,
        ast.Lookahead: _visit_lookahead,
        ast.Anchor: _visit_anchor,
        ast.WordBoundary: _visit_boundary,
    }


def _never_empty(term: Term) -> bool:
    """Static check: can this context term possibly denote ε?

    Context terms built by Algorithm 2 start/end with the ``⟨``/``⟩``
    constants, so their emptiness disjuncts are statically false — pruning
    them keeps the solver from exploring impossible cores."""
    if isinstance(term, StrConst):
        return bool(term.value)
    from repro.constraints import Concat as _ConcatTerm

    if isinstance(term, _ConcatTerm):
        return any(_never_empty(p) for p in term.parts)
    return False


def model_membership(
    body: ast.Node,
    word: Term,
    captures: Dict[int, StrVar],
    positive: bool = True,
    config: Optional[ModelConfig] = None,
) -> Formula:
    """Convenience wrapper: model ``(word, C...) ⊡ Lc(body)``."""
    return Translator(body, captures, config).membership(word, positive)
