"""The paper's core: capturing-language models, CEGAR, and the regex API.

- :mod:`repro.model.preprocess` — §4.1 rewritings (Table 1);
- :mod:`repro.model.backrefs` — Definition 2 backreference typing;
- :mod:`repro.model.translate` — Tables 2–3 translation + §4.4 negation;
- :mod:`repro.model.cegar` — Algorithm 1 (matching-precedence refinement);
- :mod:`repro.model.api` — Algorithm 2 (symbolic ``exec``/``test``);
- :mod:`repro.model.capturing` — Definition 1 reference enumeration.
"""

from repro.model.api import (
    ExecModel,
    SymbolicRegExp,
    find_matching_input,
    find_non_matching_input,
    solve_input,
)
from repro.model.backrefs import BackrefType, classify_backrefs
from repro.model.cegar import CapturingConstraint, CegarResult, CegarSolver
from repro.model.translate import (
    ModelConfig,
    MutableBackrefPolicy,
    Translator,
    model_membership,
)

__all__ = [
    "BackrefType",
    "CapturingConstraint",
    "CegarResult",
    "CegarSolver",
    "ExecModel",
    "ModelConfig",
    "MutableBackrefPolicy",
    "SymbolicRegExp",
    "Translator",
    "classify_backrefs",
    "find_matching_input",
    "find_non_matching_input",
    "model_membership",
    "solve_input",
]
