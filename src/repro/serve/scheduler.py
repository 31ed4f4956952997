"""Admission control, per-client fairness, and cross-client single-flight.

The daemon-side job scheduler between the connection layer and the
persistent :class:`~repro.service.runner.BatchRunner` pool.  All of its
methods run on the daemon's event loop thread (runner completions are
marshalled back via ``loop.call_soon_threadsafe``), so the data
structures need no locks.

- **Admission control.**  At most ``max_queue`` jobs wait beyond the
  ``max_inflight`` dispatched into the pool; a submit past the bound
  raises :class:`Overloaded` and the connection layer answers with an
  explicit ``rejected`` frame — shedding load at the door instead of
  queueing unboundedly toward a timeout storm.
- **Per-client fairness.**  Queued jobs live in one FIFO per client;
  dispatch round-robins clients and takes each one's *oldest* job, so
  a client that dumped 1,000 jobs cannot starve one that submitted a
  single query — under overload everyone drains at the same rate.
- **Cross-client single-flight.**  Jobs with equal
  :meth:`~repro.service.jobs._JobBase.dedup_key` (canonical query /
  refinement-stream fingerprints) attach to the in-flight or queued
  representative instead of occupying a queue slot; when it lands, the
  one result fans out to every attached waiter as a
  :func:`~repro.service.runner.replay_result` copy.  This is the
  scheduler-level dedup of ``--dedup`` lifted from one batch to the
  whole daemon: duplicates coalesce *across* clients and arrival
  times, closing the ROADMAP's deferred in-flight-dedup item.  A
  finished flight whose result the job class calls
  :meth:`~repro.service.jobs._JobBase.replayable` (a settled solve
  verdict reached without a retry: a found word, already checked
  against the concrete matcher by CEGAR, an UNSAT, or an UNKNOWN that
  ran out of its work budget, which the dedup key's ``solver_timeout``
  fixes) stays in a bounded LRU of ``REPLAY_CAP`` keys, so a later
  duplicate is answered from it without a queue slot, a dispatch or a
  worker.  An UNKNOWN the solver's wall-clock backstop ended, and
  failed, timed-out, retried and quarantined results are never
  replayed, nor are analyze and fuzz jobs: the next duplicate executes
  again.
- **Cluster dispatch (optional).**  With a
  :class:`~repro.cluster.coordinator.ClusterCoordinator` attached, a
  dispatch first offers the job to a ready remote worker under an
  epoch-tagged lease; only when no worker has a free slot does it fall
  through to the *unchanged* local-runner path.  Degraded mode is that
  fall-through: zero healthy workers means every dispatch takes the
  same code today's single-machine daemon takes.  A revoked lease
  (missed heartbeats, dead connection) surfaces here as a synthesized
  crash result, so the existing retry policy re-dispatches it — on the
  next healthy worker or locally — with the same attempt-tagged
  exactly-once guarantee as a pool-worker death.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.service.jobs import JobResult, _JobBase
from repro.service.runner import BatchRunner, replay_result


class Overloaded(Exception):
    """Admission refused; ``reason`` is the wire ``rejected.error``."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


#: Delivery callback: ``(result, coalesced)`` on the event loop thread.
DeliverFn = Callable[[JobResult, bool], None]

#: Finished flights kept for replay, least recently used evicted first.
REPLAY_CAP = 1024


class _Waiter:
    """One submitter attached to a flight."""

    __slots__ = ("client_id", "job", "deliver")

    def __init__(self, client_id: str, job: _JobBase, deliver: DeliverFn):
        self.client_id = client_id
        self.job = job
        self.deliver = deliver


class _Flight:
    """One execution: a representative job plus its attached waiters."""

    __slots__ = (
        "job", "key", "owner", "waiters", "dispatched", "timer",
        "attempt", "crashes", "last_result", "lease",
    )

    def __init__(self, job: _JobBase, key: Optional[str], owner: str):
        self.job = job
        self.key = key
        self.owner = owner  # client whose fairness queue holds it
        self.waiters: List[_Waiter] = []
        self.dispatched = False
        self.timer: Optional[asyncio.TimerHandle] = None
        #: Lease token while dispatched on a remote worker; ``None``
        #: for local (degraded / single-machine) dispatches.
        self.lease: Optional[str] = None
        #: Retry bookkeeping (see :meth:`JobScheduler._maybe_retry`):
        #: redispatches so far, worker kills attributed to this job, and
        #: the last failure result (delivered if a drain cuts the retry
        #: short).  The flight object survives retries, so single-flight
        #: waiters stay attached across a worker death.
        self.attempt = 0
        self.crashes = 0
        self.last_result: Optional[JobResult] = None


class JobScheduler:
    """Fair, bounded, deduplicating dispatch onto a started runner."""

    def __init__(
        self,
        runner: BatchRunner,
        loop: asyncio.AbstractEventLoop,
        max_queue: int = 128,
        max_inflight: Optional[int] = None,
        single_flight: bool = True,
        job_timeout: Optional[float] = None,
        cluster=None,
    ):
        self.runner = runner
        self.loop = loop
        #: Optional :class:`~repro.cluster.coordinator.ClusterCoordinator`;
        #: ``None`` keeps every dispatch on the local runner.
        self.cluster = cluster
        self.max_queue = max(1, int(max_queue))
        if max_inflight is None:
            # Match the pool's real concurrency: process workers, or
            # the inline executor's threads when there is no pool.
            max_inflight = (
                runner.config.workers
                or runner.config.inline_concurrency
            )
        self.max_inflight = max(1, max_inflight)
        self.single_flight = single_flight
        self.job_timeout = (
            job_timeout
            if job_timeout is not None
            else runner.config.job_timeout
        )
        self.draining = False
        self._queues: Dict[str, Deque[_Flight]] = {}
        self._rotation: Deque[str] = deque()
        self._by_key: Dict[str, _Flight] = {}
        #: dedup key → (representative job, its replayable result).
        self._replay: "OrderedDict[str, Tuple[_JobBase, JobResult]]" = (
            OrderedDict()
        )
        self._inflight: Set[_Flight] = set()
        #: Flights occupying a *local* runner slot; remote leases do
        #: not count against ``max_inflight``, only against their
        #: worker's advertised capacity.
        self._local_inflight = 0
        #: Flights waiting out a retry backoff: not queued, not in
        #: flight, but still owed a delivery (drain waits on them too).
        self._retrying: Set[_Flight] = set()
        self._queued = 0
        self._idle_event = asyncio.Event()
        self._idle_event.set()
        #: EWMA of completed-job runtimes, seeding the overload
        #: ``retry-after`` hint before the first completion lands.
        self._ewma_seconds = 0.5
        # -- lifetime counters (the daemon's /stats gauges) ----------------
        self.submitted = 0
        self.executed = 0
        self.completed = 0
        self.coalesced = 0
        self.replayed = 0
        self.rejected = 0
        self.timeouts = 0
        self.results_dropped = 0
        self.retries = 0
        self.quarantined = 0
        self.remote_dispatched = 0
        self.local_dispatched = 0
        self.quarantine_blocked = 0

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        client_id: str,
        job: _JobBase,
        deliver: DeliverFn,
    ) -> bool:
        """Admit one job; returns ``True`` when it coalesced.

        Raises :class:`Overloaded` when draining or past ``max_queue``.
        A coalesced job consumes no queue slot — attaching to a flight,
        or replaying a finished one, is free, which is the point of
        single-flight under load.
        """
        if self.draining:
            raise Overloaded("draining")
        self.submitted += 1
        waiter = _Waiter(client_id, job, deliver)
        key = job.dedup_key() if self.single_flight else None
        fleet_key = key if key is not None else (
            job.dedup_key() if self.cluster is not None else None
        )
        if (
            self.cluster is not None
            and fleet_key is not None
            and self.cluster.is_quarantined(fleet_key)
        ):
            # Fleet-wide quarantine: a key that already burned through
            # its crash budget somewhere in the fleet is answered with
            # the tombstone immediately — no queue slot, no execution,
            # no fresh chance to kill a node.
            self.quarantine_blocked += 1
            self.quarantined += 1
            tombstone = JobResult(
                job_id=job.job_id,
                kind=job.KIND,
                status="quarantined",
                error="quarantined fleet-wide after repeated crashes",
            )
            self.loop.call_soon(deliver, tombstone, False)
            return False
        if key is not None:
            finished = self._replay.get(key)
            if finished is not None:
                # Scheduled, not called: the ``queued`` ack the caller
                # sends on return must precede the result frame.
                self._replay.move_to_end(key)
                self.coalesced += 1
                self.replayed += 1
                self.loop.call_soon(
                    deliver, replay_result(job, *finished), True
                )
                return True
            flight = self._by_key.get(key)
            if flight is not None:
                flight.waiters.append(waiter)
                self.coalesced += 1
                return True
        if self._queued >= self.max_queue:
            self.rejected += 1
            raise Overloaded("overloaded")
        flight = _Flight(job, key, client_id)
        flight.waiters.append(waiter)
        if key is not None:
            self._by_key[key] = flight
        self._enqueue(client_id, flight)
        self._idle_event.clear()
        self._pump()
        return False

    def _enqueue(
        self, client_id: str, flight: _Flight, oldest_first: bool = False
    ) -> None:
        queue = self._queues.get(client_id)
        if queue is None:
            queue = self._queues[client_id] = deque()
            self._rotation.append(client_id)
        if oldest_first:
            queue.appendleft(flight)
        else:
            queue.append(flight)
        self._queued += 1

    # -- dispatch ------------------------------------------------------------

    def _capacity_free(self) -> bool:
        if self._local_inflight < self.max_inflight:
            return True
        return self.cluster is not None and self.cluster.has_capacity()

    def _pump(self) -> None:
        while self._capacity_free() and self._rotation:
            client_id = self._rotation.popleft()
            queue = self._queues.get(client_id)
            if not queue:
                self._queues.pop(client_id, None)
                continue
            flight = queue.popleft()
            self._queued -= 1
            if queue:
                self._rotation.append(client_id)
            else:
                del self._queues[client_id]
            self._dispatch(flight)

    def _dispatch(self, flight: _Flight) -> None:
        flight.dispatched = True
        flight.lease = None
        self._inflight.add(flight)
        self.executed += 1
        if self.job_timeout:
            flight.timer = self.loop.call_later(
                self.job_timeout, self._on_timeout, flight
            )
        # Completions are attempt-tagged: a dead worker's job can be
        # redispatched while the runner's monitor is still settling the
        # old attempt, and the stale delivery must not be mistaken for
        # the new attempt's answer.  The same tag covers remote leases:
        # a lease revoked for missed heartbeats synthesizes a crash
        # under the *old* attempt, so the node's eventual real answer
        # (if it was merely partitioned) is dropped exactly once.
        attempt = flight.attempt
        if self.cluster is not None:
            # Remote-first: coordinator callbacks already run on the
            # event loop thread, no threadsafe marshalling needed.
            token = self.cluster.try_dispatch(
                flight.job,
                lambda result, attempt=attempt: self._on_complete(
                    flight, result, attempt
                ),
            )
            if token is not None:
                flight.lease = token
                self.remote_dispatched += 1
                return
        # Degraded / single-machine mode: the pre-cluster dispatch
        # path, verbatim.
        self._local_inflight += 1
        self.local_dispatched += 1
        self.runner.submit(
            flight.job,
            lambda result, attempt=attempt: self.loop.call_soon_threadsafe(
                self._on_complete, flight, result, attempt
            ),
        )

    def _on_complete(
        self,
        flight: _Flight,
        result: JobResult,
        attempt: Optional[int] = None,
    ) -> None:
        if flight not in self._inflight:
            return  # already timed out; late worker result dropped
        if attempt is not None and attempt != flight.attempt:
            return  # stale delivery from a superseded attempt
        self._inflight.discard(flight)
        self._release_slot(flight)
        if flight.timer is not None:
            flight.timer.cancel()
            flight.timer = None
        if self._maybe_retry(flight, result):
            return
        self._finalize(flight, result)

    def _release_slot(self, flight: _Flight) -> None:
        if flight.lease is None:
            self._local_inflight -= 1
        else:
            flight.lease = None

    def _on_timeout(self, flight: _Flight) -> None:
        if flight not in self._inflight:
            return
        self._inflight.discard(flight)
        if flight.lease is not None and self.cluster is not None:
            # Stop the lease before releasing the slot: a worker still
            # chewing on the timed-out job must not have its eventual
            # ``done`` mistaken for a live lease's answer.
            self.cluster.revoke(flight.lease, reason="scheduler timeout")
        self._release_slot(flight)
        flight.timer = None
        self.timeouts += 1
        result = JobResult(
            job_id=flight.job.job_id,
            kind=flight.job.KIND,
            status="timeout",
            seconds=self.job_timeout,
            error=(
                "job exceeded the scheduler's "
                f"{self.job_timeout}s backstop"
            ),
        )
        if self._maybe_retry(flight, result):
            return
        self._finalize(flight, result)

    # -- retry ---------------------------------------------------------------

    def _maybe_retry(self, flight: _Flight, result: JobResult) -> bool:
        """Re-queue a crashed/timed-out flight under the runner's retry
        policy.  The flight object (and so its coalesced waiters) is
        retained: it stays out of ``_inflight`` during the backoff but
        keeps its ``_by_key`` slot, so new submitters coalesce onto the
        retry instead of racing it."""
        policy = self.runner.retry
        kind = policy.classify(result)
        if kind == "crash":
            flight.crashes += 1
        if kind is None or self.draining:
            return False
        if not policy.should_retry(kind, flight.attempt, flight.crashes):
            return False
        flight.attempt += 1
        flight.last_result = result
        self.retries += 1
        self._retrying.add(flight)
        flight.timer = self.loop.call_later(
            policy.delay(flight.attempt, flight.job.job_id),
            self._redispatch,
            flight,
        )
        return True

    def _redispatch(self, flight: _Flight) -> None:
        self._retrying.discard(flight)
        flight.timer = None
        if self.draining:
            # The drain barrier is waiting on this flight: deliver the
            # failure it would have retried instead of racing the pool
            # teardown with a fresh dispatch.
            self._finalize(flight, flight.last_result)
            return
        self._dispatch(flight)

    def _finalize(self, flight: _Flight, result: JobResult) -> None:
        self.runner.retry.finalize(result, flight.attempt, flight.crashes)
        if result.status == "quarantined":
            self.quarantined += 1
            if self.cluster is not None:
                key = flight.key
                if key is None:
                    key = flight.job.dedup_key()
                if key is not None:
                    # Poison propagates fleet-wide: every node refuses
                    # the key, and future submits get the tombstone at
                    # the door (see :meth:`submit`).
                    self.cluster.broadcast_quarantine(key)
        self._finish(flight, result)

    def _finish(self, flight: _Flight, result: JobResult) -> None:
        if flight.key is not None:
            self._by_key.pop(flight.key, None)
            if flight.job.replayable(result):
                self._replay[flight.key] = (flight.job, result)
                if len(self._replay) > REPLAY_CAP:
                    self._replay.popitem(last=False)
        self.completed += 1
        if result.seconds > 0:
            # EWMA of job runtimes, feeding the overload retry-after
            # hint; alpha 0.2 smooths over the bimodal cold/warm split.
            self._ewma_seconds += 0.2 * (result.seconds - self._ewma_seconds)
        if not flight.waiters:
            # Every submitter disconnected mid-job: the work completed
            # (the slot is recycled either way), the result is dropped.
            self.results_dropped += 1
        for waiter in flight.waiters:
            if waiter.job is flight.job:
                waiter.deliver(result, False)
            else:
                waiter.deliver(
                    replay_result(waiter.job, flight.job, result), True
                )
        self._pump()
        self._check_idle()

    # -- disconnects ---------------------------------------------------------

    def forget_client(self, client_id: str) -> None:
        """Drop a disconnected client's stake in every flight.

        Its queued-and-unshared flights are cancelled outright; shared
        queued flights are re-owned by a surviving waiter's client (the
        oldest-first slot keeps their queue age); dispatched flights
        keep running — their results fan out to surviving waiters or,
        with none left, are dropped on completion.
        """
        queue = self._queues.pop(client_id, None)
        if client_id in self._rotation:
            self._rotation.remove(client_id)
        for flight in queue or ():
            self._queued -= 1
            flight.waiters = [
                w for w in flight.waiters if w.client_id != client_id
            ]
            survivor = flight.waiters[0] if flight.waiters else None
            if survivor is None:
                if flight.key is not None:
                    self._by_key.pop(flight.key, None)
                continue
            flight.owner = survivor.client_id
            self._enqueue(survivor.client_id, flight, oldest_first=True)
        for flights in (
            self._inflight,
            self._retrying,
            *map(tuple, self._queues.values()),
        ):
            for flight in flights:
                flight.waiters = [
                    w
                    for w in flight.waiters
                    if w.client_id != client_id
                ]
        self._pump()
        self._check_idle()

    # -- drain ---------------------------------------------------------------

    def _check_idle(self) -> None:
        if not self._inflight and not self._queued and not self._retrying:
            self._idle_event.set()

    async def wait_idle(self) -> None:
        """Block until no job is queued, in flight, or awaiting a retry
        backoff (drain barrier)."""
        while self._inflight or self._queued or self._retrying:
            self._idle_event.clear()
            await self._idle_event.wait()

    # -- stats ---------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    def retry_after_hint(self) -> float:
        """Seconds an overload-rejected client should wait before
        retrying: the backlog it would sit behind, paced by the EWMA
        job runtime spread over the pool's slots.  Clamped to
        ``[0.1, 60]`` so a cold estimate can't tell clients to hammer
        or to give up."""
        backlog = self._queued + len(self._inflight) + 1
        per_slot = self._ewma_seconds / max(1, self.max_inflight)
        return min(60.0, max(0.1, round(backlog * per_slot, 3)))

    def stats(self) -> dict:
        return {
            "queue_depth": self._queued,
            "in_flight": len(self._inflight),
            "max_queue": self.max_queue,
            "max_inflight": self.max_inflight,
            "single_flight": self.single_flight,
            "jobs_submitted": self.submitted,
            "jobs_executed": self.executed,
            "jobs_completed": self.completed,
            "singleflight_coalesced": self.coalesced,
            "singleflight_replayed": self.replayed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "results_dropped": self.results_dropped,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "remote_dispatched": self.remote_dispatched,
            "local_dispatched": self.local_dispatched,
            "quarantine_blocked": self.quarantine_blocked,
            "draining": self.draining,
        }
