"""Deterministic fault injection for the analysis service.

Chaos testing needs faults that are *reproducible*: a test asserting
"the second job on this worker dies" must kill exactly that job on
every run, on every machine.  A :class:`FaultPlan` is a small, JSON-
shaped set of :class:`FaultRule`\\ s, each naming an injection *site*
(a string like ``worker:job`` or ``serve:frame``), an *action*
(``kill`` / ``wedge`` / ``error`` / ``corrupt`` / ``drop`` /
``delay``), and a deterministic trigger — the site's nth hit, every
kth hit, or a seeded pseudo-probability (a hash of ``(seed, site,
hit)``, never ``random``).

The plan is **never active by default**: production code calls
:func:`fire` at each site, and with no plan installed that is one
module-global ``is None`` check — the same strictly-disabled contract
as ``repro.obs`` (bounded in ``BENCH_faults.json``).  A plan is
installed explicitly (:func:`install`) or through the
``REPRO_FAULT_PLAN`` environment variable (inline JSON or a file
path), which is how pool worker processes pick it up: the runner
forwards the plan spec through the pool initializer, and the env var
covers processes the runner did not spawn.

Hit counters are **per process** (each worker counts its own sites) —
that is what makes ``kill`` rules deterministic across respawns: a
replacement worker starts counting from zero, so "kill on the 2nd
job" kills once, not on every retry.

Named sites threaded through the codebase:

==================  =========================================================
``worker:job``      start of a pool worker's job execution (``kill`` /
                    ``wedge`` / ``error``)
``query_store:get`` persistent query-store read (``corrupt`` garbles the
                    entry file first)
``dfa_store:get``   persistent automata-store read (same)
``artifact_store:get``  persistent artifact-store read (same)
``serve:frame``     daemon → client frame enqueue (``drop`` / ``delay``)
``cluster:heartbeat``  one worker-node heartbeat tick (``drop`` skips the
                    send, so the coordinator's missed-heartbeat detector
                    revokes the node's leases)
``cluster:partition``  consulted once per heartbeat tick on a worker
                    node; a fired rule silences the node — no heartbeats
                    out, inbound frames dropped — for ``delay_s``
                    (default 30s), simulating a network partition
``node:kill``       worker-node assignment receipt (``kill`` SIGKILLs
                    the whole node process mid-corpus; ``error`` fails
                    the one assignment)
==================  =========================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.obs import metrics as _metrics

#: Environment variable carrying a plan: inline JSON (starts with
#: ``{``) or the path of a JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_ACTIONS = ("kill", "wedge", "error", "corrupt", "drop", "delay")


class FaultInjected(RuntimeError):
    """Raised by an ``error``-action fault at a crash point."""

    def __init__(self, site: str, action: str = "error"):
        super().__init__(f"fault injected at {site} ({action})")
        self.site = site
        self.action = action


@dataclass
class FaultRule:
    """One deterministic trigger at one site.

    Trigger selectors (the first configured one applies; with none the
    rule fires on *every* hit up to ``count``):

    - ``nth``: fire on exactly the nth hit of the site (1-based,
      per process);
    - ``every``: fire on every ``every``-th hit;
    - ``p``: fire pseudo-randomly with probability ``p``, derived from
      a hash of ``(plan seed, site, hit)`` — deterministic for a seed.

    ``count`` caps total fires of this rule per process (default 1 for
    ``nth`` rules, unlimited otherwise); ``match`` restricts the rule
    to hits whose context values (e.g. ``job_id``) contain the
    substring; ``delay_s`` parameterizes ``wedge``/``delay`` actions.
    """

    site: str
    action: str
    nth: Optional[int] = None
    every: Optional[int] = None
    p: Optional[float] = None
    count: Optional[int] = None
    match: Optional[str] = None
    delay_s: float = 0.0

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {_ACTIONS})"
            )

    @property
    def fire_limit(self) -> Optional[int]:
        if self.count is not None:
            return self.count
        return 1 if self.nth is not None else None

    def to_spec(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v not in (None,)}

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultRule":
        return cls(**spec)


class FaultPlan:
    """A seeded set of rules plus per-process hit/fire accounting."""

    def __init__(self, rules: List[FaultRule], seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        self._lock = threading.Lock()
        #: site → how many times :func:`fire` was consulted there.
        self.hits: Dict[str, int] = {}
        #: ``"site:action"`` → how many faults actually fired.
        self.injected: Dict[str, int] = {}
        self._fired: List[int] = [0] * len(self.rules)

    # -- construction --------------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_spec() for rule in self.rules],
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultPlan":
        rules = [FaultRule.from_spec(r) for r in spec.get("rules", [])]
        return cls(rules, seed=spec.get("seed", 0))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_spec(json.loads(text))

    # -- triggering ----------------------------------------------------------

    def _chance(self, site: str, hit: int) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}:{site}:{hit}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def fire(self, site: str, **ctx) -> Optional[FaultRule]:
        """One hit of ``site``; returns the rule that fires, if any."""
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
            for index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                limit = rule.fire_limit
                if limit is not None and self._fired[index] >= limit:
                    continue
                if rule.match is not None and not any(
                    rule.match in str(value) for value in ctx.values()
                ):
                    continue
                if rule.nth is not None:
                    selected = hit == rule.nth
                elif rule.every is not None:
                    selected = hit % rule.every == 0
                elif rule.p is not None:
                    selected = self._chance(site, hit) < rule.p
                else:
                    selected = True
                if not selected:
                    continue
                self._fired[index] += 1
                key = f"{site}:{rule.action}"
                self.injected[key] = self.injected.get(key, 0) + 1
                fired = rule
                break
            else:
                return None
        _metrics.count(
            "faults_injected_total", site=site, action=fired.action
        )
        return fired

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": len(self.rules),
                "hits": dict(self.hits),
                "injected": dict(self.injected),
            }


# -- the process-global plan ---------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def install(plan=None) -> Optional[FaultPlan]:
    """Install the process's fault plan (or clear it).

    ``plan`` may be a :class:`FaultPlan`, a spec dict, JSON text, or
    ``None`` — in which case the ``REPRO_FAULT_PLAN`` environment
    variable is consulted (inline JSON or a file path) and, when that
    is unset too, any previously installed plan is *cleared*.  Called
    by every worker initializer, so worker state is deterministic no
    matter what a forked parent had installed.
    """
    global _ACTIVE
    if plan is None:
        raw = os.environ.get(FAULT_PLAN_ENV)
        if not raw:
            _ACTIVE = None
            return None
        if not raw.lstrip().startswith("{"):
            with open(raw) as handle:
                raw = handle.read()
        plan = FaultPlan.from_json(raw)
    elif isinstance(plan, str):
        plan = FaultPlan.from_json(plan)
    elif isinstance(plan, dict):
        plan = FaultPlan.from_spec(plan)
    _ACTIVE = plan
    return plan


def reset() -> None:
    """Clear the installed plan (tests)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


def fire(site: str, **ctx) -> Optional[FaultRule]:
    """One hit of ``site``; ``None`` (one global load + ``is None``
    comparison) when no plan is installed — the hot-path contract."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, **ctx)


def snapshot() -> dict:
    """JSON-shaped injection accounting (``{}`` with no plan)."""
    plan = _ACTIVE
    return plan.snapshot() if plan is not None else {}


# -- site helpers --------------------------------------------------------------


def crash_point(site: str, **ctx) -> None:
    """A site where the *current process* can be killed or delayed.

    ``kill`` SIGKILLs this process (the pool-worker death fault —
    uncatchable, exactly like an OOM kill); ``error`` raises
    :class:`FaultInjected`; ``wedge``/``delay`` sleep ``delay_s``
    (default: long enough to trip any reasonable backstop).
    """
    rule = fire(site, **ctx)
    if rule is None:
        return
    if rule.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif rule.action == "error":
        raise FaultInjected(site)
    elif rule.action in ("wedge", "delay"):
        time.sleep(rule.delay_s or 3600.0)


def corrupt_file(site: str, path: str, **ctx) -> bool:
    """A site guarding a disk-store entry read.

    When a ``corrupt`` rule fires, the entry at ``path`` is overwritten
    with garbage bytes (a missing file is left missing), so the store's
    defensive read path — evict and re-solve — is what gets exercised.
    Returns whether a fault fired.
    """
    rule = fire(site, path=path, **ctx)
    if rule is None or rule.action != "corrupt":
        return False
    try:
        with open(path, "r+b") as handle:
            handle.seek(0)
            handle.write(b"\x00repro-fault-garbage")
            handle.truncate()
    except OSError:
        pass
    return True
