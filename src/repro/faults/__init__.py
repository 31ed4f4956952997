"""Fault injection and retry/backoff.

Two small, composable pieces behind the service's fault-tolerance
story (see the README's "Fault tolerance" section):

- :mod:`repro.faults.plan` — deterministic, seeded fault *injection*
  at named sites, driven by a JSON :class:`FaultPlan` and never active
  by default (the chaos suite's lever);
- :mod:`repro.faults.retry` — :class:`RetryPolicy`: bounded retries
  with deterministic backoff for crashed-worker/timeout results, and
  poison-job quarantine (the *recovery* half).

The plan engine's module-level functions (``fire`` / ``crash_point`` /
``corrupt_file`` / ``install`` / ``snapshot`` / ``reset``) are
re-exported here; production call sites use
``from repro import faults`` and ``faults.fire("site", ...)``.
"""

from repro.faults.plan import (
    FAULT_PLAN_ENV,
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    corrupt_file,
    crash_point,
    enabled,
    fire,
    install,
    reset,
    snapshot,
)
from repro.faults.retry import (
    CRASH_PREFIX,
    RetryPolicy,
    crash_result,
    lease_lost_result,
)

__all__ = [
    "FAULT_PLAN_ENV",
    "CRASH_PREFIX",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "active_plan",
    "corrupt_file",
    "crash_point",
    "crash_result",
    "enabled",
    "fire",
    "install",
    "lease_lost_result",
    "reset",
    "snapshot",
]
