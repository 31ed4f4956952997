"""AST for ES6 regular expression patterns.

The parser normalises every single-character matcher (literals, ``.``,
class escapes, bracket classes) to :class:`CharMatch` carrying a
:class:`~repro.regex.charclass.CharSet`, so downstream consumers (matcher,
automata, model translation) share one character semantics.

Nodes are immutable; rewriting (Table 1 of the paper) builds new trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Tuple

from repro.regex.charclass import CharSet


class Node:
    """Base class for regex AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Empty(Node):
    """The empty word ε (an empty alternative such as in ``(a|)``)."""


@dataclass(frozen=True)
class CharMatch(Node):
    """Matches exactly one character drawn from ``charset``.

    ``source`` preserves the surface syntax (e.g. ``\\d``, ``[a-z]``, ``x``)
    so trees can be unparsed back to equivalent pattern text.
    """

    charset: CharSet
    source: str


@dataclass(frozen=True)
class Concat(Node):
    """Concatenation of two or more terms (ES6 *Alternative*)."""

    parts: Tuple[Node, ...]

    def __post_init__(self) -> None:
        assert len(self.parts) >= 2, "Concat requires at least two parts"


@dataclass(frozen=True)
class Alternation(Node):
    """Ordered alternation ``t1|t2|...`` (ES6 *Disjunction*).

    Order matters for matching precedence: the concrete matcher tries
    options left to right.
    """

    options: Tuple[Node, ...]

    def __post_init__(self) -> None:
        assert len(self.options) >= 2, "Alternation requires at least two options"


@dataclass(frozen=True)
class Quantifier(Node):
    """``child{min,max}`` with greedy or lazy matching precedence.

    ``max is None`` encodes an unbounded upper limit (``*``, ``+``, ``{n,}``).
    """

    child: Node
    min: int
    max: Optional[int]
    lazy: bool = False

    def __post_init__(self) -> None:
        assert self.min >= 0
        assert self.max is None or self.max >= self.min


@dataclass(frozen=True)
class Group(Node):
    """A numbered capture group ``( ... )``; ``index`` counts from 1.

    ``name`` carries the ES2018 group name of ``(?<name> ... )`` groups;
    named groups are ordinary capture groups everywhere downstream (the
    matcher, the model translation and the automata all key on
    ``index``), the name only decorates results (``ExecResult.groups``)
    and the unparser.
    """

    child: Node
    index: int
    name: Optional[str] = None


@dataclass(frozen=True)
class NonCapGroup(Node):
    """A non-capturing group ``(?: ... )``."""

    child: Node


@dataclass(frozen=True)
class Lookahead(Node):
    """``(?= ... )`` or ``(?! ... )`` — a zero-length assertion."""

    child: Node
    negative: bool = False


@dataclass(frozen=True)
class Backreference(Node):
    """``\\k`` — matches the last string captured by group ``index``."""

    index: int


@dataclass(frozen=True)
class Anchor(Node):
    """``^`` (kind='start') or ``$`` (kind='end')."""

    kind: str

    def __post_init__(self) -> None:
        assert self.kind in ("start", "end")


@dataclass(frozen=True)
class WordBoundary(Node):
    """``\\b`` or (negated) ``\\B``."""

    negated: bool = False


@dataclass(frozen=True)
class Pattern:
    """A parsed pattern: the body plus its capture-group count."""

    body: Node
    group_count: int
    source: str = field(default="", compare=False)


# ---------------------------------------------------------------------------
# Tree utilities shared by the matcher, the model and the feature classifier.
# ---------------------------------------------------------------------------


def children(node: Node) -> Tuple[Node, ...]:
    """The direct subterms of ``node`` (empty for leaves)."""
    if isinstance(node, Concat):
        return node.parts
    if isinstance(node, Alternation):
        return node.options
    if isinstance(node, (Quantifier, Group, NonCapGroup, Lookahead)):
        return (node.child,)
    return ()


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the subtree rooted at ``node``."""
    yield node
    for child in children(node):
        yield from walk(child)


def groups_in(node: Node) -> Tuple[int, ...]:
    """Indices of all capture groups contained in (or equal to) ``node``.

    Used by the matcher to reset captures when a quantifier re-enters its
    body, and by the model to slice capture variables across subterms.
    """
    return tuple(
        sub.index for sub in walk(node) if isinstance(sub, Group)
    )


def named_groups(node: Node) -> dict:
    """``{name: index}`` for every named capture group under ``node``."""
    return {
        sub.name: sub.index
        for sub in walk(node)
        if isinstance(sub, Group) and sub.name is not None
    }


def backrefs_in(node: Node) -> Tuple[int, ...]:
    """Indices referenced by all backreferences within ``node``."""
    return tuple(
        sub.index for sub in walk(node) if isinstance(sub, Backreference)
    )


def contains_captures(node: Node) -> bool:
    return any(isinstance(sub, Group) for sub in walk(node))


def contains_backrefs(node: Node) -> bool:
    return any(isinstance(sub, Backreference) for sub in walk(node))


def is_purely_regular(node: Node) -> bool:
    """True iff ``node`` denotes a classical regular expression.

    Such subtrees translate directly to automata (the *base case* of
    Table 2): no captures, backreferences, lookarounds, boundaries or
    anchors anywhere below.
    """
    return not any(
        isinstance(
            sub, (Group, Backreference, Lookahead, WordBoundary, Anchor)
        )
        for sub in walk(node)
    )


def concat(parts: Tuple[Node, ...] | list) -> Node:
    """Smart constructor: flatten/normalise a concatenation."""
    flat: list[Node] = []
    for part in parts:
        if isinstance(part, Concat):
            flat.extend(part.parts)
        elif isinstance(part, Empty):
            continue
        else:
            flat.append(part)
    if not flat:
        return Empty()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alternation(options: Tuple[Node, ...] | list) -> Node:
    """Smart constructor for alternations (preserves order/duplicates)."""
    opts = tuple(options)
    if len(opts) == 1:
        return opts[0]
    return Alternation(opts)
