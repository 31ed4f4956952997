"""Conformance fuzzing at scale: soundness as a workload.

The paper's core claim is *soundness* — the symbolic semantics of §5/§6
agree with the concrete ES6 matcher on every word the solver pins down.
This package turns that claim into a continuously-checkable workload:

- :mod:`repro.conformance.gen` — a seeded, grammar-driven generator of
  regex/input pairs, weighted toward the features where soundness bugs
  hide (sticky/unicode flags, named groups, backreferences,
  lookaheads), plus mutation of corpus-harvested patterns;
- :mod:`repro.conformance.oracle` — the differential oracle: the
  concrete backtracking matcher vs the native solver vs any configured
  external backend, each deciding "does this regex match this exact
  word", with UNKNOWN tolerated and contradictions flagged;
- :mod:`repro.conformance.triage` — delta-debugging shrinker plus the
  capture → shrink → fingerprint → dedupe → persist pipeline;
- :mod:`repro.conformance.artifacts` — disagreement artifacts, their
  entry format in the shared :class:`~repro.diskstore.DiskStore`, and
  dedupe-on-record.

The ``fuzz`` job kind (:class:`repro.service.jobs.FuzzJob`) runs this
pipeline through every execution surface — batch runner, serve daemon,
cluster fleet — and ``planted:`` (a deliberately unsound stub backend)
exists so the harness itself is testable end-to-end.
"""

from repro.conformance.artifacts import (
    ARTIFACT_CODEC,
    ARTIFACT_STORE_VERSION,
    DisagreementArtifact,
    artifact_fingerprint,
    record_artifact,
)
from repro.conformance.gen import (
    ConformancePair,
    GenConfig,
    coverage_summary,
    generate_pairs,
)
from repro.conformance.oracle import (
    CheckOutcome,
    DifferentialOracle,
    Disagreement,
    PlantedBackend,
    register_planted_backend,
)
from repro.conformance.triage import (
    NotADisagreement,
    TriagePipeline,
    TriageResult,
    shrink_disagreement,
)

__all__ = [
    "ARTIFACT_CODEC",
    "ARTIFACT_STORE_VERSION",
    "CheckOutcome",
    "ConformancePair",
    "DifferentialOracle",
    "Disagreement",
    "DisagreementArtifact",
    "GenConfig",
    "NotADisagreement",
    "PlantedBackend",
    "TriagePipeline",
    "TriageResult",
    "artifact_fingerprint",
    "coverage_summary",
    "generate_pairs",
    "record_artifact",
    "register_planted_backend",
    "shrink_disagreement",
]
