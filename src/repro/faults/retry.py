"""Bounded retry with deterministic backoff, and poison-job quarantine.

A :class:`RetryPolicy` decides what happens to a job result that the
runner could not trust: a *crash* (the worker process died mid-job —
error prefixed :data:`CRASH_PREFIX`) or a *timeout* (the backstop
fired).  Deterministic job errors — a parse failure, a bad spec — are
**never** retried: re-running them reproduces the error and wastes a
slot.

Backoff is exponential with *deterministic* jitter: the jitter
fraction is a hash of ``(token, attempt)`` (the token is usually the
job id), so a retry schedule is reproducible run-to-run — the same
property the fault plan has, and what lets the chaos suite assert
byte-identical reports modulo retry counters.

Quarantine is the crash-loop fuse: a job whose execution has killed
``quarantine_after`` workers is permanently failed with
``status="quarantined"`` instead of being fed to (and killing) a
fresh worker forever.  Timeouts never quarantine — they exhaust
``max_retries`` and surface as ordinary timeouts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # deferred: repro.service.runner imports this package
    from repro.service.jobs import JobResult

#: Error-message prefix marking a result synthesized for a job whose
#: worker process died (SIGKILL, OOM, hard crash) before delivering.
CRASH_PREFIX = "WorkerCrashed"


def crash_result(job_id: str, kind: str, detail: str = "") -> "JobResult":
    """The result the runner synthesizes for a dead worker's job."""
    from repro.service.jobs import JobResult

    note = f": {detail}" if detail else ""
    return JobResult(
        job_id=job_id,
        kind=kind,
        status="error",
        error=f"{CRASH_PREFIX}: worker died while running job "
        f"{job_id}{note}",
    )


def lease_lost_result(
    job_id: str, kind: str, worker_id: str, reason: str
) -> "JobResult":
    """The result the cluster coordinator synthesizes for a revoked lease.

    Carries :data:`CRASH_PREFIX` so :meth:`RetryPolicy.classify` treats
    a dead/partitioned *node* exactly like a dead pool worker — one
    recovery path, from SIGKILLed subprocess to unplugged machine.
    """
    return crash_result(
        job_id, kind, f"lease on node {worker_id} revoked ({reason})"
    )


@dataclass(frozen=True)
class RetryPolicy:
    """How the job scheduler re-drives failed jobs, for a batch and
    the serve daemon alike.

    ``max_retries`` bounds re-dispatches per job (0 = the pre-existing
    fail-fast behavior); ``quarantine_after`` is the crash-loop fuse —
    after that many worker deaths the job is quarantined (default:
    ``max_retries + 1``, i.e. a job is allowed to use all its retries
    on crashes before the fuse blows).
    """

    max_retries: int = 0
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.25
    quarantine_after: Optional[int] = None

    @property
    def crash_limit(self) -> int:
        if self.quarantine_after is not None:
            return max(1, self.quarantine_after)
        return self.max_retries + 1

    # -- classification ------------------------------------------------------

    @staticmethod
    def classify(result: "JobResult") -> Optional[str]:
        """``"crash"`` / ``"timeout"`` when retryable, else ``None``."""
        if result.status == "timeout":
            return "timeout"
        if result.status == "error" and str(result.error or "").startswith(
            CRASH_PREFIX
        ):
            return "crash"
        return None

    def should_retry(self, kind: Optional[str], attempt: int,
                     crashes: int) -> bool:
        """Whether attempt ``attempt`` (0-based) gets another go."""
        if kind is None or attempt >= self.max_retries:
            return False
        if kind == "crash" and crashes >= self.crash_limit:
            return False
        return True

    # -- scheduling ----------------------------------------------------------

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before re-dispatching retry ``attempt`` (1-based)."""
        base = min(
            self.backoff_s * self.backoff_factor ** max(0, attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter <= 0:
            return base
        digest = hashlib.blake2b(
            f"{token}:{attempt}".encode("utf-8"), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        return base * (1.0 + self.jitter * fraction)

    # -- terminal results ----------------------------------------------------

    def finalize(self, result: "JobResult", attempts: int,
                 crashes: int) -> "JobResult":
        """Stamp retry accounting on a job's terminal result.

        When the job has hit the crash-loop fuse, the terminal result
        is replaced by a ``status="quarantined"`` tombstone.
        """
        result.retries = attempts
        if crashes >= self.crash_limit and crashes > 0:
            result.status = "quarantined"
            result.error = (
                f"quarantined after killing {crashes} worker"
                f"{'s' if crashes != 1 else ''} "
                f"(last error: {result.error})"
            )
        return result
