"""Disagreement artifacts and their on-disk entry format.

A :class:`DisagreementArtifact` is the JSON-shaped, self-contained
record of one soundness find: the (shrunk) regex, flags and word, every
decider's verdict, the contradicting member pair, the generator seed
that reproduces it, and the canonical fingerprint it dedupes under.

Artifacts live in a :class:`~repro.diskstore.DiskStore` under
``ARTIFACT_CODEC`` (``<dir>/v<VERSION>/<fingerprint>.json``), with the
store's atomic writes, corrupt-entry eviction and age-based GC.  One
behaviour is artifact-specific, :func:`record_artifact`: recording an
already-known fingerprint bumps a ``hits`` counter inside the entry
instead of writing a sibling — a fuzzing campaign that trips the same
bug ten thousand times must leave one artifact with ``hits=10000``, not
ten thousand files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.diskstore import Codec, DiskStore

#: Bump when the artifact layout changes; old entries are ignored.
ARTIFACT_STORE_VERSION = 1
_MAGIC = "repro-disagreement"


def artifact_fingerprint(pattern: str, flags: str, word: str) -> str:
    """Canonical dedupe key of one reproducer triple.

    Flags are order-normalised; the triple is hashed (fingerprints name
    files, and patterns/words are arbitrary text).
    """
    canonical = "\x00".join(
        ["v%d" % ARTIFACT_STORE_VERSION, "".join(sorted(flags)),
         pattern, word]
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class DisagreementArtifact:
    """One minimized, reproducible soundness disagreement."""

    fingerprint: str
    pattern: str
    flags: str
    word: str
    verdicts: Dict[str, str] = field(default_factory=dict)
    members: List[str] = field(default_factory=list)
    seed: Optional[int] = None
    #: What the generator originally produced, pre-shrink — kept so a
    #: shrinker bug can never lose the original reproducer.
    origin_pattern: Optional[str] = None
    origin_word: Optional[str] = None
    shrink_steps: int = 0
    hits: int = 1

    def to_blob(self) -> dict:
        return {
            "magic": _MAGIC,
            "version": ARTIFACT_STORE_VERSION,
            **asdict(self),
        }

    @classmethod
    def from_blob(cls, blob: dict) -> "DisagreementArtifact":
        if (
            blob.get("magic") != _MAGIC
            or blob.get("version") != ARTIFACT_STORE_VERSION
        ):
            raise ValueError("mismatched disagreement-artifact entry")
        fields = {
            key: blob[key]
            for key in cls.__dataclass_fields__
            if key in blob
        }
        return cls(**fields)


def _dump_artifact(fingerprint: str, artifact: DisagreementArtifact):
    return json.dumps(
        artifact.to_blob(), ensure_ascii=False, sort_keys=True
    ).encode("utf-8")


def _load_artifact(fingerprint: str, data: bytes):
    artifact = DisagreementArtifact.from_blob(json.loads(data))
    if artifact.fingerprint != fingerprint:
        raise ValueError("mismatched artifact fingerprint")
    return artifact


#: Artifacts on disk: ``<dir>/v1/<fingerprint>.json``, the fingerprint
#: repeated inside and verified on load.  Cap the store (``max_entries``)
#: for a long campaign: a runaway one can flood with *distinct* bugs
#: too, and the artifact directory must never be what fills the disk.
ARTIFACT_CODEC = Codec(
    "artifact",
    ARTIFACT_STORE_VERSION,
    "json",
    _dump_artifact,
    _load_artifact,
)


def record_artifact(store: DiskStore, artifact: DisagreementArtifact) -> str:
    """Persist (or dedupe) one artifact; returns ``"new"``/``"dup"``.

    A known fingerprint bumps the stored entry's hit counter in place —
    the entry's mtime advances too, so hot disagreements also survive
    GC the longest.
    """
    existing = store.get(artifact.fingerprint)
    if existing is None:
        store.put(artifact.fingerprint, artifact)
        return "new"
    existing.hits += 1
    store.put(existing.fingerprint, existing)
    return "dup"
