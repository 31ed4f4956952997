"""Preprocessing of ES6 regexes before modeling (§4.1, Table 1).

The paper rewrites every pattern into atomic terms joined by alternation,
concatenation and Kleene star, relating capture groups between the
original and rewritten expressions.  This module provides those
rewritings:

- :func:`rewrite_lazy_to_greedy` — models are agnostic to matching
  precedence (refinement handles it), so lazy quantifiers are dropped;
- :func:`rewrite_for_model` — the same walk also takes the
  ``⟨``/``⟩`` meta-characters, which only contexts contain, out of the
  pattern's character sets;
- :func:`expand_repetition` — ``r{m,n} → rⁿ|...|rᵐ`` and ``r+ → r*r``
  (Table 1), with the §4.1 capture-correspondence handled structurally:
  the *last* copy of each duplicated group carries the pattern's capture
  index, earlier copies are erased to non-capturing form (this is exactly
  the ``Ci = Ci,x,m+x−1`` correspondence, folded into the tree);
- :func:`wildcard` / :func:`wrap_for_exec` — the
  ``(?:.|\\n)*?(R)(?:.|\\n)*?`` wrapping of Algorithm 2, including the
  outer capture group ``C0`` and the ``⟨``/``⟩`` input meta-characters.

The translation itself (:mod:`repro.model.translate`) consumes general
:class:`~repro.regex.ast.Quantifier` nodes directly via a generalized
form of Table 2's quantification rule, so expansion is only *required*
for bodies containing backreferences (where bounded unrolling is the
model, Table 3); for everything else the rules coincide.
"""

from __future__ import annotations

from repro.regex import ast
from repro.regex.charclass import CharSet, MAX_CODEPOINT
from repro.automata.build import erase_captures

#: Start/end-of-input meta-characters (§6.1): reserved code points used by
#: Algorithm 2 to mark word boundaries of the subject inside the model.
META_START = "〈"  # ⟨
META_END = "〉"  # ⟩

#: Any character at all — used in *context* languages (``Σ*⟨`` etc.),
#: where the meta-characters legitimately appear.
ANY_CHAR = ast.CharMatch(CharSet(((0, MAX_CODEPOINT),)), "[^]")

_META_CHARS = CharSet.of(META_START + META_END)

#: Any character an *input* may contain: everything except the reserved
#: meta-characters.  The wrapper wildcard and lookahead tails absorb
#: portions of the input, so they must not invent ``⟨``/``⟩``.
INPUT_CHAR = ast.CharMatch(
    CharSet(((0, MAX_CODEPOINT),)).difference(_META_CHARS), "[^〈〉]"
)

#: ``[^〈〉]*`` — the language of well-formed inputs (sanity constraint
#: conjoined to every API model).
INPUT_LANG = ast.Quantifier(INPUT_CHAR, 0, None)


def wildcard() -> ast.Node:
    """``(?:.|\\n)*?`` — the implicit-wildcard padding around a match."""
    return ast.Quantifier(INPUT_CHAR, 0, None, lazy=True)


def wrap_for_exec(body: ast.Node) -> ast.Node:
    """Algorithm 2 line 5: ``(?:.|\\n)*?(`` body ``)(?:.|\\n)*?``.

    The inner group gets index 0 — the whole-match capture ``C0`` that
    JavaScript reports at index 0 of the exec array.
    """
    return ast.concat([wildcard(), ast.Group(body, 0), wildcard()])


def rewrite_lazy_to_greedy(node: ast.Node) -> ast.Node:
    """Drop laziness flags (§4.1): the model ignores matching precedence."""
    if isinstance(node, ast.Quantifier):
        return ast.Quantifier(
            rewrite_lazy_to_greedy(node.child), node.min, node.max, lazy=False
        )
    return _map_children(node, rewrite_lazy_to_greedy)


def rewrite_for_model(node: ast.Node) -> ast.Node:
    """:func:`rewrite_lazy_to_greedy`, intersecting every character set
    with :data:`INPUT_CHAR` in the same walk.

    A pattern only ever matches characters of the input, which never
    contains the meta-characters.  A class built by complement (``.``,
    ``[^…]``, ``\\W``) would otherwise match the ``⟩`` that ends every
    right context, and a negative lookahead such as ``(?!.)`` could not
    hold at the end of the input.  Context languages keep
    :data:`ANY_CHAR`.
    """
    if isinstance(node, ast.CharMatch):
        if node.charset.overlaps(_META_CHARS):
            return ast.CharMatch(
                node.charset.intersect(INPUT_CHAR.charset), node.source
            )
        return node
    if isinstance(node, ast.Quantifier):
        return ast.Quantifier(
            rewrite_for_model(node.child), node.min, node.max, lazy=False
        )
    return _map_children(node, rewrite_for_model)


def expand_repetition(node: ast.Node, star_threshold: int = 8) -> ast.Node:
    """Table 1: expand ``+``, ``?``, ``{m,n}`` into ``*``/alternation form.

    Capture correspondence (§4.1): when a body with capture groups is
    duplicated, only the copy matched *last* keeps the capture indices;
    leading mandatory copies are capture-erased.  This realises
    ``∀i: Ci = Ci,2`` (Kleene plus) and ``Ci = Ci,x,m+x−1`` (repetition)
    without index bookkeeping.  For capture-free bodies the erasure is a
    no-op.

    Repetitions with huge bounds are left as bounded quantifiers above
    ``star_threshold`` to avoid exponential blow-up; the translation
    handles them natively.
    """
    node = _map_children(node, lambda n: expand_repetition(n, star_threshold))
    if not isinstance(node, ast.Quantifier):
        return node
    body = node.child
    low, high = node.min, node.max
    if (low, high) == (0, None):
        return node
    if (low, high) == (1, None):
        # r+ → r̂* r  (last copy keeps captures)
        return ast.concat(
            [ast.Quantifier(erase_captures(body), 0, None), body]
        )
    if (low, high) == (0, 1):
        # r? → r|ε
        return ast.alternation([body, ast.Empty()])
    if high is None:
        # r{m,} → r̂^(m-1) … r̂* r
        copies = [erase_captures(body)] * max(low - 1, 0)
        return ast.concat(
            copies + [ast.Quantifier(erase_captures(body), 0, None), body]
        )
    if high > star_threshold:
        return node
    # r{m,n} → rⁿ | rⁿ⁻¹ | ... | rᵐ  (Table 1 lists them descending).
    options = []
    for count in range(high, low - 1, -1):
        if count == 0:
            options.append(ast.Empty())
        else:
            copies = [erase_captures(body)] * (count - 1) + [body]
            options.append(ast.concat(copies))
    return ast.alternation(options)


def preprocess(node: ast.Node) -> ast.Node:
    """The full §4.1 pipeline used before translation."""
    return expand_repetition(rewrite_lazy_to_greedy(node))


def _map_children(node: ast.Node, fn) -> ast.Node:
    if isinstance(node, ast.Concat):
        return ast.concat([fn(p) for p in node.parts])
    if isinstance(node, ast.Alternation):
        return ast.alternation([fn(o) for o in node.options])
    if isinstance(node, ast.Quantifier):
        return ast.Quantifier(fn(node.child), node.min, node.max, node.lazy)
    if isinstance(node, ast.Group):
        return ast.Group(fn(node.child), node.index)
    if isinstance(node, ast.NonCapGroup):
        return ast.NonCapGroup(fn(node.child))
    if isinstance(node, ast.Lookahead):
        return ast.Lookahead(fn(node.child), node.negative)
    return node
