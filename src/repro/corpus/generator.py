"""Synthetic NPM-like corpus generator.

The paper surveys 415,487 real NPM packages; offline we generate a
corpus whose *population shape* matches the survey's findings so the
pipeline (extraction → classification → aggregation) can be exercised
end-to-end and Tables 4/5 regenerate with the paper's qualitative
ordering.

Shape parameters calibrated to the paper:

- 91.9% of packages have source files (Table 4);
- 34.9% of all packages contain a regex, 20.5% a capture group, 3.8% a
  backreference, 0.1% a quantified backreference;
- regex literals are heavily duplicated across packages (9.5M total vs
  306k unique, Table 5), which the pool-based sampling reproduces;
- the per-feature mix of the template pool follows Table 5's unique-%
  column ordering (captures > classes > plus/star > ignore-case > ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: (pattern, flags, weight) — a pool of realistic regex literals drawn
#: from common JS idioms (validators, parsers, sanitizers).  Weights bias
#: sampling toward the common cases, mirroring Table 5's skew.
TEMPLATE_POOL: List[Tuple[str, str, int]] = [
    # plain literals — a large silent majority with no fancy features
    (r"\.js$", "", 22),
    (r"^#", "", 14),
    (r"\.", "g", 20),
    (r",", "g", 16),
    (r"^\/", "", 12),
    (r"_", "g", 10),
    (r"\r\n", "g", 10),
    (r"^$", "", 6),
    (r"\.json$", "", 8),
    (r"\.min\.js$", "", 6),
    ("\\u00a0", "g", 4),
    (r"^\.", "", 7),
    (r"@", "", 6),
    # classes / quantifiers
    (r"\s+", "g", 28),
    (r"^\s+|\s+$", "g", 16),
    (r"[^a-z0-9]+", "gi", 12),
    (r"\d+", "", 16),
    (r"[A-Za-z]+", "", 10),
    (r"^[a-z]+$", "i", 10),
    (r"[\r\n]+", "g", 8),
    (r"%[sdj%]", "g", 8),
    (r"[.*+?^${}()|[\]\\]", "g", 8),
    (r"\s*", "g", 8),
    (r"-*$", "", 4),
    (r"^\d{4}-\d{2}-\d{2}$", "", 6),
    (r"\.{2,}", "g", 4),
    (r"a{2,4}", "", 1),
    (r"^v?\d+\.\d+\.\d+$", "", 7),
    # capture groups — ~39% of unique regexes, ~25% of totals
    (r"^(\d+)px$", "", 16),
    (r"([A-Z])", "g", 16),
    (r"^(\w+)=(\w+)$", "", 13),
    (r"(\d+)\.(\d+)", "", 10),
    (r"^([^:]+):(\d+)$", "", 10),
    (r"<(\w+)>([0-9]*)<\/\1>", "", 3),
    (r"^(?:(\w+):)?(\/\/)?([^:/]+)", "", 7),
    (r"(['\"])(?:\\.|[^\\])*?\1", "g", 2),
    (r"function\s*(\w*)\s*\(([^)]*)\)", "", 5),
    (r"^(.*?)(\d+)$", "", 6),
    (r"([a-f0-9]{2})", "gi", 5),
    (r"(\w+)\s(\w+)", "y", 1),
    (r"^(\d{2}):(\d{2})(?::(\d{2}))?$", "", 4),
    (r"^(-?\d*)(\D*)$", "", 5),
    (r"([.+*?=^!:${}()[\]|/\\])", "g", 5),
    (r"#(\w)(\w)(\w)", "i", 4),
    (r"^([a-z]*)", "", 5),
    # non-capturing / lazy
    (r"(?:\r\n|\r|\n)", "g", 7),
    (r"<.*?>", "g", 5),
    (r"\/\*[\s\S]*?\*\/", "gm", 3),
    (r"(?:[a-z]+-)+[a-z]+", "", 2),
    # word boundaries / anchors / multiline
    (r"\bfunction\b", "", 5),
    (r"\bTODO\b|\bFIXME\b", "g", 3),
    (r"^\s*//", "m", 4),
    (r"^[ \t]+", "gm", 4),
    # lookaheads
    (r"(?=.*\d)(?=.*[a-z]).{8,}", "", 2),
    (r"\B(?=(\d{3})+(?!\d))", "g", 2),
    (r"[a-z]+(?![0-9])", "", 1),
    # backreferences
    (r"(\w)\1", "g", 2),
    (r"(['\"])([^'\"]*)\1", "", 2),
    (r"^(.+?)\1+$", "", 1),  # quantified backreference (rare)
    (r"\b(\w+)\s+\1\b", "gi", 1),
    # lazy repetition (very rare, Table 5's 0.07%)
    (r"^.{1,32}?:", "", 1),
    # unicode / sticky flags (rare)
    (r"\u{1F600}", "u", 1),
    (r"\d+", "y", 1),
]

_FILE_TEMPLATES = [
    "var re{i} = /{pattern}/{flags};\nmodule.exports.m{i} = "
    "function (s) {{ return re{i}.test(s); }};\n",
    "function f{i}(input) {{\n  var m = /{pattern}/{flags}.exec(input);\n"
    "  return m ? m[0] : null;\n}}\nmodule.exports.f{i} = f{i};\n",
    "module.exports.clean{i} = function (s) {{\n"
    "  return s.replace(/{pattern}/{flags}, '');\n}};\n",
]


@dataclass
class SyntheticPackage:
    """One generated package: a name plus JS source files."""

    name: str
    files: List[str] = field(default_factory=list)

    @property
    def has_source(self) -> bool:
        return bool(self.files)


@dataclass
class CorpusConfig:
    n_packages: int = 4000
    seed: int = 1909
    p_has_source: float = 0.919
    p_has_regex: float = 0.349 / 0.919  # conditional on having source
    max_regexes_per_package: int = 40


def generate_corpus(config: CorpusConfig = CorpusConfig()) -> List[SyntheticPackage]:
    """Generate the corpus deterministically from the seed."""
    rng = random.Random(config.seed)
    weights = [w for _, _, w in TEMPLATE_POOL]
    packages: List[SyntheticPackage] = []
    for index in range(config.n_packages):
        name = f"pkg-{index:06d}"
        if rng.random() >= config.p_has_source:
            packages.append(SyntheticPackage(name))
            continue
        files: List[str] = []
        if rng.random() < config.p_has_regex:
            count = _regex_count(rng, config.max_regexes_per_package)
            chunks = []
            for i in range(count):
                pattern, flags, _ = rng.choices(
                    TEMPLATE_POOL, weights=weights
                )[0]
                template = rng.choice(_FILE_TEMPLATES)
                chunks.append(
                    template.format(i=i, pattern=pattern, flags=flags)
                )
            files.append("".join(chunks))
        else:
            files.append(
                "module.exports = function (x) { return x + 1; };\n"
            )
        packages.append(SyntheticPackage(name, files))
    return packages


def _regex_count(rng: random.Random, cap: int) -> int:
    """Zipf-ish: most packages hold a few regexes, some hold dozens."""
    value = int(rng.paretovariate(1.3))
    return max(1, min(value, cap))
