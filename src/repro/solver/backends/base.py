"""The backend protocol and its error types.

A *backend* is anything with a ``name`` and a
``solve(formula) -> SolverResult`` method.  The abstract base class here
additionally provides the per-backend tally plumbing: a backend carries
an optional :class:`~repro.solver.stats.SolverStats` sink and records
one outcome/latency tally per query under its own name, so reports can
break solver traffic down by backend.

Consumers that build a backend *before* they know their stats collector
(the DSE engine creates its result object first) call
:meth:`SolverBackend.bind_stats` afterwards; binding is recursive
through composite backends (portfolio members, cached inners) and never
overwrites a sink that was set explicitly.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro import obs
from repro.constraints.formulas import Formula
from repro.solver.core import SolverResult
from repro.solver.stats import SolverStats


class BackendError(ValueError):
    """A backend spec could not be resolved (unknown scheme, bad option)."""


class BackendDisagreement(RuntimeError):
    """Two backends returned contradictory definitive answers.

    This is loud by design: SAT vs UNSAT on the same formula means one
    backend is unsound (or the encoding between them is broken), and
    silently picking either answer would poison everything downstream.

    The exception is structured so even a ``raise``-mode crash is
    actionable: ``members`` names both disagreeing backends,
    ``statuses`` their verdicts (aligned with ``members``), and
    ``fingerprint`` is the query's canonical fingerprint — the
    reproducible key the query cache and the conformance triage
    pipeline both dedupe on.
    """

    def __init__(
        self,
        message: str,
        *,
        members: Sequence[str] = (),
        statuses: Sequence[str] = (),
        fingerprint: Optional[str] = None,
    ):
        super().__init__(message)
        self.members = tuple(members)
        self.statuses = tuple(statuses)
        self.fingerprint = fingerprint

    def payload(self) -> dict:
        """JSON-shaped detail for artifacts / job payloads / events."""
        return {
            "members": list(self.members),
            "statuses": list(self.statuses),
            "fingerprint": self.fingerprint,
        }


class SolverBackend(abc.ABC):
    """Protocol base for solver backends.

    Subclasses set :attr:`name` (the spec-ish display name) and
    implement :meth:`solve`.  ``stats`` is the optional tally sink.
    """

    name: str = "?"

    def __init__(self, stats: Optional[SolverStats] = None):
        self.stats = stats

    @abc.abstractmethod
    def solve(self, formula: Formula) -> SolverResult:
        """Decide ``formula``: SAT (with model), UNSAT, or UNKNOWN."""

    def bind_stats(self, stats: SolverStats) -> None:
        """Attach a tally sink if none was set at construction."""
        if self.stats is None:
            self.stats = stats

    def _tally(self, status: str, seconds: float) -> None:
        if self.stats is not None:
            self.stats.record_backend(self.name, status, seconds)
        if obs.enabled():
            # Piggyback on the already-measured duration: the span is
            # reconstructed after the fact, so a disabled tracer costs
            # this one branch and no clock reads.
            obs.complete_span(
                "backend:" + self.name, seconds, status=status
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
