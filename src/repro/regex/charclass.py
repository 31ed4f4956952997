"""Character sets as sorted disjoint code-point intervals.

Every single-character matcher in the regex AST (literal characters, ``.``,
class escapes like ``\\d``, and bracketed classes) is normalised to a
:class:`CharSet`.  The same representation drives the concrete matcher and
the automata layer, so both agree exactly on character semantics.

Intervals are inclusive ``(lo, hi)`` pairs of code points over the universe
``0 .. MAX_CODEPOINT``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Tuple

MAX_CODEPOINT = 0x10FFFF

Interval = Tuple[int, int]


def _normalise(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, clamp and merge overlapping/adjacent intervals."""
    pruned = []
    for lo, hi in intervals:
        lo = max(0, lo)
        hi = min(MAX_CODEPOINT, hi)
        if lo <= hi:
            pruned.append((lo, hi))
    pruned.sort()
    merged: list[Interval] = []
    for lo, hi in pruned:
        if merged and lo <= merged[-1][1] + 1:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class CharSet:
    """An immutable set of Unicode code points stored as intervals."""

    intervals: Tuple[Interval, ...] = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "CharSet":
        return _EMPTY

    @staticmethod
    def any() -> "CharSet":
        return _ANY

    @staticmethod
    def of(chars: str) -> "CharSet":
        return CharSet(_normalise((ord(c), ord(c)) for c in chars))

    @staticmethod
    def of_range(lo: str | int, hi: str | int) -> "CharSet":
        lo_cp = lo if isinstance(lo, int) else ord(lo)
        hi_cp = hi if isinstance(hi, int) else ord(hi)
        return CharSet(_normalise([(lo_cp, hi_cp)]))

    @staticmethod
    def of_intervals(intervals: Iterable[Interval]) -> "CharSet":
        return CharSet(_normalise(intervals))

    # -- queries -----------------------------------------------------------

    def __contains__(self, ch: str | int) -> bool:
        cp = ch if isinstance(ch, int) else ord(ch)
        idx = bisect_right(self._los(), cp) - 1
        if idx < 0:
            return False
        lo, hi = self.intervals[idx]
        return lo <= cp <= hi

    @lru_cache(maxsize=None)
    def _los(self) -> Sequence[int]:
        return [lo for lo, _ in self.intervals]

    def is_empty(self) -> bool:
        return not self.intervals

    def size(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def min_codepoint(self) -> int:
        if not self.intervals:
            raise ValueError("empty CharSet has no minimum")
        return self.intervals[0][0]

    def codepoints(self, limit: int | None = None) -> Iterator[int]:
        """Yield member code points in increasing order (optionally capped)."""
        emitted = 0
        for lo, hi in self.intervals:
            for cp in range(lo, hi + 1):
                if limit is not None and emitted >= limit:
                    return
                yield cp
                emitted += 1

    def sample_chars(self, limit: int = 8) -> list[str]:
        """A small, deterministic, human-friendly sample of member chars.

        Prefers printable ASCII so that generated words (e.g. DSE inputs)
        are readable; falls back to whatever the set contains.
        """
        preferred: list[str] = []
        for candidates in ("abcxyz", "ABC", "019", " .-_", "\n"):
            for ch in candidates:
                if ch in self and ch not in preferred:
                    preferred.append(ch)
                if len(preferred) >= limit:
                    return preferred
        for cp in self.codepoints(limit=limit * 4):
            ch = chr(cp)
            if ch not in preferred:
                preferred.append(ch)
            if len(preferred) >= limit:
                break
        return preferred

    # -- algebra -----------------------------------------------------------

    def union(self, other: "CharSet") -> "CharSet":
        return CharSet(_normalise(self.intervals + other.intervals))

    def complement(self) -> "CharSet":
        result: list[Interval] = []
        prev = 0
        for lo, hi in self.intervals:
            if lo > prev:
                result.append((prev, lo - 1))
            prev = hi + 1
        if prev <= MAX_CODEPOINT:
            result.append((prev, MAX_CODEPOINT))
        return CharSet(tuple(result))

    def intersect(self, other: "CharSet") -> "CharSet":
        result: list[Interval] = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo <= hi:
                result.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return CharSet(tuple(result))

    def difference(self, other: "CharSet") -> "CharSet":
        return self.intersect(other.complement())

    def overlaps(self, other: "CharSet") -> bool:
        return not self.intersect(other).is_empty()

    # -- case folding ------------------------------------------------------

    def case_closure(self) -> "CharSet":
        """Close the set under simple upper/lower case pairing.

        This implements the effect of the ES6 ``i`` flag's Canonicalize()
        for the practically relevant (BMP, simple-folding) cases: every
        character whose ``str.upper()``/``str.lower()`` single-character
        variants exist gets those variants added.  Very large intervals are
        closed via the ASCII/Latin-1 letters they contain plus a scan of
        the interval capped at a few thousand code points (larger intervals
        already cover both cases of nearly everything they fold to).
        """
        return _case_closure(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        def show(cp: int) -> str:
            ch = chr(cp)
            return ch if ch.isprintable() and ch not in "[]-^\\" else f"\\u{cp:04x}"

        parts = [
            show(lo) if lo == hi else f"{show(lo)}-{show(hi)}"
            for lo, hi in self.intervals[:16]
        ]
        suffix = ", ..." if len(self.intervals) > 16 else ""
        return f"CharSet[{', '.join(parts)}{suffix}]"


@lru_cache(maxsize=1024)
def _case_closure(charset: CharSet) -> CharSet:
    """:meth:`CharSet.case_closure`, memoized: a program's case-insensitive
    patterns fold the same few classes over and over, and a scan calls
    ``upper``/``lower`` on up to 4,096 code points per interval."""
    extra: list[Interval] = []
    for lo, hi in charset.intervals:
        span = hi - lo + 1
        scan_hi = hi if span <= 4096 else lo + 4095
        for cp in range(lo, scan_hi + 1):
            ch = chr(cp)
            for variant in (ch.upper(), ch.lower()):
                if len(variant) == 1 and variant != ch:
                    vcp = ord(variant)
                    if vcp <= MAX_CODEPOINT:
                        extra.append((vcp, vcp))
    if not extra:
        return charset
    return CharSet(_normalise(charset.intervals + tuple(extra)))


def partition(sets: Sequence[CharSet]) -> list[CharSet]:
    """Partition the universe into minterms distinguishing the given sets.

    Returns the non-empty equivalence classes of "belongs to exactly this
    subset of ``sets``"; used by the subset construction so DFA transitions
    range over a small finite alphabet of intervals instead of 0x110000
    code points.  Only classes that intersect at least one input set are
    returned, plus one class for the leftover universe (if non-empty).
    """
    boundaries: set[int] = {0, MAX_CODEPOINT + 1}
    for cs in sets:
        for lo, hi in cs.intervals:
            boundaries.add(lo)
            boundaries.add(hi + 1)
    points = sorted(boundaries)
    classes: list[CharSet] = []
    for start, end in zip(points, points[1:]):
        classes.append(CharSet(((start, end - 1),)))
    return classes


# -- predefined sets -------------------------------------------------------

_EMPTY = CharSet(())
_ANY = CharSet(((0, MAX_CODEPOINT),))

#: ES6 LineTerminator: LF, CR, LS, PS.
LINE_TERMINATORS = CharSet.of_intervals(
    [(0x0A, 0x0A), (0x0D, 0x0D), (0x2028, 0x2029)]
)

#: ``.`` — everything except line terminators.
DOT = LINE_TERMINATORS.complement()

#: ``\d`` / ``\D``
DIGIT = CharSet.of_range("0", "9")
NOT_DIGIT = DIGIT.complement()

#: ``\w`` / ``\W`` — ASCII word characters, per the ES6 spec.
WORD = CharSet.of_intervals(
    [(ord("a"), ord("z")), (ord("A"), ord("Z")), (ord("0"), ord("9")),
     (ord("_"), ord("_"))]
)
NOT_WORD = WORD.complement()

#: ``\s`` / ``\S`` — WhiteSpace ∪ LineTerminator, per the ES6 spec.
SPACE = CharSet.of_intervals(
    [(0x09, 0x0D), (0x20, 0x20), (0xA0, 0xA0), (0x1680, 0x1680),
     (0x2000, 0x200A), (0x2028, 0x2029), (0x202F, 0x202F),
     (0x205F, 0x205F), (0x3000, 0x3000), (0xFEFF, 0xFEFF), (0x0B, 0x0C)]
)
NOT_SPACE = SPACE.complement()

CLASS_ESCAPES = {
    "d": DIGIT,
    "D": NOT_DIGIT,
    "w": WORD,
    "W": NOT_WORD,
    "s": SPACE,
    "S": NOT_SPACE,
}


def is_word_char(ch: str) -> bool:
    """ES6 IsWordChar — used by ``\\b`` and ``\\B``."""
    return ch in WORD
