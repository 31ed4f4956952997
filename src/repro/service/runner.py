"""The worker-pool batch runner.

Runs many jobs concurrently across ``multiprocessing`` workers, the way
the paper's evaluation fanned 1,131 packages across machines.  Design
points:

- **Process workers, persistent caches.**  Each worker process builds
  one :class:`~repro.service.cache.QueryCache` in its initializer and
  keeps it alive across every job it executes, so duplicated queries
  from different jobs hit.  With ``shared_cache=True`` a single
  manager-backed :class:`~repro.service.cache.SharedQueryCache` is
  shared by *all* workers instead.  With ``automata_cache=PATH`` every
  worker also attaches the persistent on-disk automata compilation
  store, so corpus regexes are compiled once per *path*, not once per
  process per invocation.
- **Scheduler-level dedup.**  With ``dedup=True`` jobs are coalesced
  *before* dispatch by their :meth:`~repro.service.jobs._JobBase.dedup_key`
  (for solve jobs: the canonical fingerprint of the query they pose) —
  N submitted jobs sharing a key become one single-flight execution
  whose result is fanned back out to every submitter.  This removes
  whole solves the query cache would otherwise still have to replay
  per job, and it works across workers without shared state.
- **Graceful failure capture.**  Jobs trap their own exceptions
  (``Job.run``) and come back as ``status="error"`` results; a lost or
  overdue worker task becomes ``status="timeout"``.  One bad program
  never takes down the batch.
- **Self-healing workers.**  Every pool dispatch is tracked (a worker
  announces job start/end on a side-channel queue), and a monitor
  thread watches for two failure shapes: a *dead* worker (its job is
  synthesized into a ``WorkerCrashed`` error the moment the process is
  gone — no waiting out the backstop) and a *wedged* worker (past
  ``job_timeout`` it is SIGKILLed so the pool respawns it and the slot
  is never permanently lost).  Either way the dispatch record is
  consumed exactly once: a late result from a healed slot is dropped,
  never double-delivered.
- **Bounded retries + quarantine.**  With ``retry_max > 0`` the
  :class:`~repro.faults.RetryPolicy` re-drives crashed/timed-out jobs
  with exponential backoff and deterministic jitter; a poison job that
  keeps killing workers is quarantined (``status="quarantined"``)
  instead of crash-looping the pool.
- **Deterministic ordering.**  Results are collected per-submission-slot
  and reported in submission order no matter which worker finished
  first.
- **Bounded jobs.**  Per-job wall budgets are enforced inside the job
  (engine time budgets, solver timeouts); ``job_timeout`` is the outer
  backstop while waiting on a worker.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults, obs
from repro.faults.retry import RetryPolicy, crash_result
from repro.obs import metrics as _metrics
from repro.obs.export import ObsRun
from repro.service.cache import QueryCache, SharedQueryCache
from repro.service.jobs import JobResult, _JobBase, job_from_spec
from repro.solver.backends import CachedBackend, make_backend

#: Per-worker-process state, installed by the pool initializer and
#: reused by every job the worker executes.
_WORKER_CACHE: Optional[object] = None
#: The runner's start/end side channel (a ``multiprocessing.Queue``)
#: the self-healing monitor reads; ``None`` outside a tracked pool.
_WORKER_EVENTS = None


def _worker_init(
    use_cache: bool,
    cache_size: int,
    shared_cache,
    automata_cache,
    query_cache=None,
    query_cache_max=None,
    obs_config=None,
    session_idle_s=None,
    fault_plan=None,
    events=None,
) -> None:
    global _WORKER_CACHE, _WORKER_EVENTS
    if shared_cache is not None:
        _WORKER_CACHE = shared_cache
    elif use_cache or query_cache:
        _WORKER_CACHE = QueryCache(maxsize=cache_size)
    else:
        _WORKER_CACHE = None
    if query_cache and _WORKER_CACHE is not None:
        _WORKER_CACHE.attach_store(query_cache, max_entries=query_cache_max)
    if automata_cache:
        from repro.automata import configure_automata_cache

        configure_automata_cache(automata_cache)
    if session_idle_s:
        from repro.solver.backends import get_session_pool

        get_session_pool().set_idle_timeout(session_idle_s)
    obs.configure_worker(obs_config)
    # With no plan given this *clears* any plan inherited via fork and
    # falls back to REPRO_FAULT_PLAN — worker fault state is always
    # deterministic, and a respawned worker restarts its hit counters.
    faults.install(fault_plan)
    _WORKER_EVENTS = events


def _make_solver_factory(cache) -> Callable[..., object]:
    """The factory handed to every job: backend spec in, solver out.

    The job's ``backend`` spec resolves through the registry
    (``native`` when unset); when the worker keeps a query cache, the
    resolved backend is decorated with a :class:`CachedBackend` sharing
    that cache across every job the worker executes.  A *job-level*
    ``query_cache`` directory stays job-private: the runner-wide cache
    is shared by unrelated jobs, so one job's persistence request must
    not silently leak answers to (or from) the rest — unless the runner
    itself was configured with the same directory, in which case the
    worker store already covers it.
    """

    def factory(
        timeout: float = 20.0,
        backend=None,
        stats=None,
        query_cache=None,
        query_cache_max=None,
    ):
        spec = backend
        if (
            cache is not None
            and isinstance(spec, str)
            and spec.startswith("cached:")
        ):
            # The worker's (shared) cache *is* the decoration an outer
            # ``cached:`` asks for — strip it instead of stacking a
            # second, job-private cache in front of it.
            spec = spec[len("cached:"):]
        base = make_backend(
            spec,
            timeout=timeout,
            stats=stats,
            query_cache=query_cache,
            query_cache_max=query_cache_max,
        )
        worker_store = getattr(cache, "store", None)
        if query_cache and (
            worker_store is None or worker_store.root != query_cache
        ):
            had_cached_spec = isinstance(backend, str) and backend.startswith(
                "cached:"
            )
            if cache is not None or not had_cached_spec:
                # A job-private persistent tier (under the worker
                # decoration, when there is one).  Skipped only when the
                # job's own ``cached:`` level already carries the store
                # (no worker cache stripped it away).
                base = CachedBackend(
                    base,
                    cache=QueryCache(
                        store_path=query_cache,
                        store_max_entries=query_cache_max,
                    ),
                    tally_stats=stats,
                )
        if cache is None:
            return base
        return CachedBackend(base, cache=cache, tally_stats=stats)

    return factory


def _run_spec(spec: dict) -> dict:
    """Worker-side job execution (module-level so it pickles)."""
    job = job_from_spec(spec)
    result = job.run(solver_factory=_make_solver_factory(_WORKER_CACHE))
    # Ship this worker's cumulative metrics through the spool at every
    # job boundary; the runner's merge keeps the latest per pid.
    obs.checkpoint()
    return result.to_spec()


def _run_spec_tracked(spec: dict, token: int) -> dict:
    """:func:`_run_spec` plus start/end events for the healing monitor.

    The ``start`` event binds the dispatch token to this worker's pid
    *before* anything can crash, so a SIGKILL mid-job (real or from the
    ``worker:job`` fault site) is attributable to exactly one job.  The
    ``end`` event clears the wedge/crash suspicion; a worker that dies
    after it delivers is nobody's fault.
    """
    events = _WORKER_EVENTS
    pid = os.getpid()
    if events is not None:
        try:
            events.put(("start", token, pid))
        except Exception:
            pass
    try:
        faults.crash_point("worker:job", job_id=spec.get("job_id", ""))
        return _run_spec(spec)
    finally:
        if events is not None:
            try:
                events.put(("end", token, pid))
            except Exception:
                pass


@dataclass
class _Dispatch:
    """One in-flight pool dispatch, consumed exactly once."""

    job_id: str
    kind: str
    deliver: Callable[[JobResult], None]
    submitted_at: float
    pid: Optional[int] = None
    started_at: Optional[float] = None
    ended: bool = False
    #: The pool's ``AsyncResult`` — kept so a monitor-settled job can be
    #: struck from the pool's pending-task cache (a task lost to a dead
    #: worker otherwise pins ``Pool.join`` forever).
    handle: Optional[object] = None


@dataclass
class RunnerConfig:
    """Knobs of the batch runner."""

    workers: int = 2  # 0 = run inline in this process (no pool)
    #: Thread count of the *persistent* inline executor
    #: (:meth:`BatchRunner.start` with ``workers == 0``) — lets an
    #: inline serve daemon overlap jobs without process workers.  The
    #: threads share one query cache (thread-safe); classic
    #: :meth:`BatchRunner.run` inline batches stay strictly serial.
    inline_concurrency: int = 1
    job_timeout: float = 300.0  # outer backstop per job, seconds
    use_cache: bool = True
    cache_size: int = 4096
    shared_cache: bool = False  # one manager-backed cache for all workers
    #: Directory of the persistent automata compilation store; attached
    #: in every worker (and inline) so batch invocations pointed at the
    #: same path share compiled DFAs across processes and runs.
    automata_cache: Optional[str] = None
    #: Directory of the persistent solver *query* store; attached to
    #: every worker's query cache (and the inline cache) so definitive
    #: answers survive across batch invocations pointed at the same
    #: path — the warm second batch replays solves from disk.
    query_cache: Optional[str] = None
    #: Entry cap of the persistent query store (age-based GC evicts the
    #: oldest-mtime entries past it); ``None`` leaves it unbounded.
    query_cache_max: Optional[int] = None
    #: Coalesce jobs with identical ``dedup_key()`` into single-flight
    #: executions before dispatch (scheduler-level query dedup).
    dedup: bool = False
    #: Close pooled incremental solver sessions idle for this many
    #: seconds (armed in every worker and inline; ``None`` keeps the
    #: PR 5 behaviour of pinning idle sessions until process exit).
    #: The serve daemon's ``--session-idle-s`` lands here so a quiet
    #: daemon does not hold solver processes forever.
    session_idle_s: Optional[float] = None
    #: Fault tolerance: bounded retries per job for crashed-worker and
    #: backstop-timeout results (0 = the pre-existing fail-fast
    #: behaviour), their base backoff, and the poison-job fuse — after
    #: ``quarantine_after`` worker kills a job is permanently failed as
    #: ``status="quarantined"`` (default ``retry_max + 1``).
    retry_max: int = 0
    retry_backoff_s: float = 0.25
    quarantine_after: Optional[int] = None
    #: Fault-injection plan spec (``FaultPlan.to_spec()`` shape),
    #: installed in every worker — chaos testing only, never set by
    #: default.  ``None`` leaves workers to the ``REPRO_FAULT_PLAN``
    #: environment variable (unset ⇒ no faults).
    fault_plan: Optional[dict] = None
    #: Cadence of the self-healing monitor that detects dead/wedged
    #: pool workers (pool mode only).
    heal_interval_s: float = 0.2
    #: Observability (all off by default — the strictly-disabled path):
    #: merged trace output file, its format (``jsonl`` | ``chrome``),
    #: batch-level metrics JSON, and the slow-query threshold in ms.
    trace: Optional[str] = None
    trace_format: str = "jsonl"
    metrics_json: Optional[str] = None
    slow_query_ms: Optional[float] = None

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            max_retries=self.retry_max,
            backoff_s=self.retry_backoff_s,
            quarantine_after=self.quarantine_after,
        )


class BatchRunner:
    """Run a batch of service jobs and collect ordered results.

    Two execution modes share the worker plumbing:

    - :meth:`run` — the classic batch call: a pool is created for the
      call, every job joins in submission order, one report comes back.
    - :meth:`start` / :meth:`submit` / :meth:`run_iter` / :meth:`close`
      — the as-completed seam the serve daemon multiplexes clients
      onto: one *persistent* pool outlives any single batch, jobs are
      submitted individually, and each result is delivered the moment
      it lands (a completion callback for ``submit``, an as-completed
      iterator for ``run_iter``) instead of joining per-slot.
    """

    def __init__(self, config: Optional[RunnerConfig] = None, **kwargs):
        self.config = config or RunnerConfig(**kwargs)
        if self.config.workers < 0:
            raise ValueError("workers must be >= 0")
        self.retry = self.config.retry_policy()
        self._obs_run: Optional[ObsRun] = None
        self._pool = None
        self._manager = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inline_factory: Optional[Callable[..., object]] = None
        self._started = False
        # -- self-healing state (pool mode) ---------------------------------
        self._events = None
        self._tokens = itertools.count(1)
        self._dispatches: Dict[int, _Dispatch] = {}
        self._dispatch_lock = threading.Lock()
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        # -- recovery accounting (cumulative over the runner's life) --------
        self.worker_crashes = 0
        self.heals = 0
        self.retries = 0
        self.quarantined = 0
        self.late_drops = 0

    def run(self, jobs: Sequence[_JobBase]) -> "BatchReport":
        from repro.service.report import BatchReport

        started = time.monotonic()
        jobs = list(jobs)
        if self.config.fault_plan is not None:
            faults.install(self.config.fault_plan)
        obs_run = ObsRun.start(
            trace=self.config.trace,
            trace_format=self.config.trace_format,
            metrics_json=self.config.metrics_json,
            slow_query_ms=self.config.slow_query_ms,
        )
        self._obs_run = obs_run
        try:
            with obs.span(
                "batch:run",
                jobs=len(jobs),
                workers=self.config.workers,
            ):
                if self.config.dedup:
                    unique_jobs, assignment = _coalesce(jobs)
                else:
                    unique_jobs, assignment = jobs, list(range(len(jobs)))
                if self.config.workers == 0:
                    executed = self._run_inline(unique_jobs)
                else:
                    executed = self._run_pool(unique_jobs)
            results = _fan_out(jobs, unique_jobs, executed, assignment)
        except BaseException:
            if obs_run is not None:
                obs_run.abort()
            raise
        finally:
            self._obs_run = None
        summary = obs_run.finish() if obs_run is not None else None
        report = BatchReport(
            results=results,
            wall_time=time.monotonic() - started,
            workers=self.config.workers,
            jobs_submitted=len(jobs),
            jobs_executed=len(unique_jobs),
        )
        if summary is not None:
            report.trace_path = summary.trace_path
            report.metrics_path = summary.metrics_path
            report.slow_queries = summary.slow_queries
            report.obs_pids = summary.pids
        return report

    # -- persistent pool lifecycle (the serve daemon's seam) -----------------

    @property
    def started(self) -> bool:
        return self._started

    def start(self, obs_run: Optional[ObsRun] = None) -> "BatchRunner":
        """Bring up a persistent worker pool for :meth:`submit`.

        With ``workers == 0`` jobs execute on one internal thread in
        this process (same inline cache semantics as :meth:`run`);
        otherwise a ``multiprocessing.Pool`` is created once and reused
        across every submitted job.  ``obs_run`` is the optional
        observability run whose worker config the pool initializer
        forwards.  Idempotent; pair with :meth:`close`.
        """
        if self._started:
            return self
        self._obs_run = obs_run or self._obs_run
        if self.config.fault_plan is not None:
            faults.install(self.config.fault_plan)
        if self.config.session_idle_s:
            from repro.solver.backends import get_session_pool

            get_session_pool().set_idle_timeout(self.config.session_idle_s)
        if self.config.workers == 0:
            self._inline_factory = self._build_inline_factory()
            self._executor = ThreadPoolExecutor(
                max_workers=max(1, self.config.inline_concurrency),
                thread_name_prefix="repro-inline-job",
            )
        else:
            shared = None
            if self.config.shared_cache and self.config.use_cache:
                self._manager = multiprocessing.Manager()
                shared = SharedQueryCache.create(
                    self._manager, maxsize=self.config.cache_size
                )
            # SimpleQueue, not Queue: its put() is a synchronous locked
            # pipe write, so a worker's "start" event survives the
            # worker being SIGKILLed immediately afterwards (Queue's
            # feeder thread would race the kill and lose the event —
            # and with it the monitor's ability to settle the job).
            self._events = multiprocessing.SimpleQueue()
            self._pool = multiprocessing.Pool(
                processes=self.config.workers,
                initializer=_worker_init,
                initargs=self._worker_initargs(shared),
            )
            self._monitor_stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-pool-monitor",
                daemon=True,
            )
            self._monitor.start()
        self._started = True
        return self

    def close(self, graceful: bool = True) -> None:
        """Tear the persistent pool down.

        ``graceful`` joins workers after their in-flight jobs finish
        (so worker ``atexit`` hooks close pooled solver sessions — no
        leaked ``Popen``); ``graceful=False`` terminates them.
        """
        if not self._started:
            return
        self._started = False
        pool, self._pool = self._pool, None
        executor, self._executor = self._executor, None
        manager, self._manager = self._manager, None
        events, self._events = self._events, None
        monitor, self._monitor = self._monitor, None
        self._inline_factory = None
        if monitor is not None:
            self._monitor_stop.set()
            monitor.join(timeout=5.0)
        if pool is not None:
            if graceful:
                pool.close()
            else:
                pool.terminate()
            pool.join()
        if executor is not None:
            executor.shutdown(wait=graceful)
        if manager is not None:
            manager.shutdown()
        if events is not None:
            events.close()
        with self._dispatch_lock:
            self._dispatches.clear()

    def __enter__(self) -> "BatchRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(
        self, job: _JobBase, on_done: Callable[[JobResult], None]
    ) -> Optional[int]:
        """Submit one job to the started pool; deliver as it completes.

        ``on_done`` receives the :class:`JobResult` from an internal
        thread (the pool's result handler, the healing monitor, or the
        inline executor thread) — callers that live on an event loop
        must marshal it themselves (``loop.call_soon_threadsafe``).
        Exceptions raised by ``on_done`` are swallowed: a broken
        consumer must not kill the shared result-handler thread the
        rest of the pool needs.  Returns the dispatch token in pool
        mode (``None`` inline) — delivery happens exactly once per
        token, whichever of the worker callback / crash detection /
        wedge heal gets there first.
        """
        if not self._started:
            raise RuntimeError("BatchRunner.submit() before start()")

        def deliver(result: JobResult) -> None:
            try:
                on_done(result)
            except Exception:
                pass

        def failed(exc: BaseException) -> JobResult:
            return JobResult(
                job_id=job.job_id,
                kind=job.KIND,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )

        if self._pool is not None:
            token = next(self._tokens)
            record = _Dispatch(
                job_id=job.job_id,
                kind=job.KIND,
                deliver=deliver,
                submitted_at=time.monotonic(),
            )
            with self._dispatch_lock:
                self._dispatches[token] = record
            try:
                record.handle = self._pool.apply_async(
                    _run_spec_tracked,
                    (job.to_spec(), token),
                    callback=lambda spec, token=token: self._settle(
                        token, JobResult.from_spec(spec)
                    ),
                    error_callback=lambda exc, token=token: self._settle(
                        token, failed(exc)
                    ),
                )
            except Exception:
                with self._dispatch_lock:
                    self._dispatches.pop(token, None)
                raise
            return token
        factory = self._inline_factory

        def run_inline() -> None:
            try:
                result = job.run(solver_factory=factory)
            except Exception as exc:  # job.run traps; belt-and-braces
                result = failed(exc)
            deliver(result)

        self._executor.submit(run_inline)
        return None

    # -- self-healing monitor (pool mode) ------------------------------------

    def _settle(self, token: int, result: JobResult) -> None:
        """Deliver a dispatch's result exactly once; drop seconds."""
        with self._dispatch_lock:
            record = self._dispatches.pop(token, None)
        if record is None:
            # Already settled by the healing monitor (backstop timeout
            # or crash): this is the late completion — drop it.
            self.late_drops += 1
            _metrics.count("runner_late_results_dropped_total")
            return
        record.deliver(result)

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.config.heal_interval_s):
            try:
                self._monitor_pass()
            except Exception:
                pass

    def _drain_events(self) -> None:
        events = self._events
        if events is None:
            return
        while True:
            try:
                if events.empty():
                    return
                # Sole consumer (the monitor thread), so a non-empty
                # queue cannot be drained out from under this get().
                kind, token, pid = events.get()
            except (EOFError, OSError, ValueError):
                return
            with self._dispatch_lock:
                record = self._dispatches.get(token)
            if record is None:
                continue
            if kind == "start":
                record.pid = pid
                record.started_at = time.monotonic()
            elif kind == "end":
                record.ended = True

    @staticmethod
    def _forget_pool_task(record: _Dispatch) -> None:
        """Strike a monitor-settled job from the pool's pending cache.

        A task lost to a SIGKILLed worker never produces a result, so
        its ``ApplyResult`` would sit in ``Pool._cache`` forever — and
        the pool's handler threads refuse to exit while that cache is
        non-empty, wedging ``Pool.join`` at teardown.  Removing the
        entry is safe: ``_handle_results`` tolerates unknown job ids,
        so even a miraculously-late genuine result is just ignored.
        """
        handle = record.handle
        try:
            handle._cache.pop(handle._job, None)
        except AttributeError:
            pass

    def _monitor_pass(self) -> None:
        self._drain_events()
        pool = self._pool
        if pool is None:
            return
        try:
            alive = {p.pid for p in pool._pool if p.is_alive()}
        except Exception:
            alive = None
        now = time.monotonic()
        with self._dispatch_lock:
            snapshot = list(self._dispatches.items())
        for token, record in snapshot:
            if record.ended or record.started_at is None:
                continue
            if alive is not None and record.pid not in alive:
                # Dead worker: the pool respawns the process on its
                # own, but the job's result is lost forever — settle it
                # as a crash now instead of waiting out the backstop.
                with self._dispatch_lock:
                    if self._dispatches.pop(token, None) is None:
                        continue
                self._forget_pool_task(record)
                self.worker_crashes += 1
                obs.event(
                    "runner:worker_crash",
                    job_id=record.job_id,
                    pid=record.pid,
                )
                _metrics.count("runner_worker_crashes_total")
                record.deliver(
                    crash_result(
                        record.job_id, record.kind, f"pid {record.pid}"
                    )
                )
            elif now - record.started_at > self.config.job_timeout:
                # Wedged worker: SIGKILL it so the pool respawns the
                # slot, and settle the job as a backstop timeout.  The
                # dispatch record is consumed here, so if the task
                # somehow completes anyway the result is dropped.
                with self._dispatch_lock:
                    if self._dispatches.pop(token, None) is None:
                        continue
                self._forget_pool_task(record)
                try:
                    os.kill(record.pid, signal.SIGKILL)
                except (OSError, TypeError):
                    pass
                self.heals += 1
                obs.event(
                    "runner:worker_heal",
                    job_id=record.job_id,
                    pid=record.pid,
                )
                _metrics.count("runner_worker_heals_total")
                record.deliver(
                    JobResult(
                        job_id=record.job_id,
                        kind=record.kind,
                        status="timeout",
                        seconds=self.config.job_timeout,
                        error=(
                            "job exceeded the runner's "
                            f"{self.config.job_timeout}s backstop"
                        ),
                    )
                )

    def pool_health(self) -> dict:
        """Liveness of the execution backend (the ``health`` op's
        ``runner`` section)."""
        health = {
            "mode": "inline" if self.config.workers == 0 else "pool",
            "started": self._started,
            "workers": self.config.workers,
            "workers_alive": 0,
            "jobs_tracked": len(self._dispatches),
            "worker_crashes": self.worker_crashes,
            "heals": self.heals,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "late_drops": self.late_drops,
        }
        pool = self._pool
        if pool is not None:
            try:
                health["workers_alive"] = sum(
                    1 for p in pool._pool if p.is_alive()
                )
            except Exception:
                pass
        elif self._executor is not None:
            health["workers_alive"] = max(1, self.config.inline_concurrency)
        return health

    def run_iter(
        self, jobs: Sequence[_JobBase]
    ) -> Iterator[Tuple[int, JobResult]]:
        """Yield ``(submission_index, result)`` pairs as jobs complete.

        No per-slot join: the first finished job is yielded first, no
        matter where it was submitted.  Recovery lives here: crashed or
        backstop-timed-out attempts are re-driven under the runner's
        :class:`RetryPolicy` (``retry_max``), poison jobs come back
        ``status="quarantined"``, and a stale attempt's late result is
        dropped — each submission index yields exactly once.  In pool
        mode the healing monitor owns precise backstop timing (from the
        worker's *start* event, so queue wait does not count); the
        local deadline here is an anti-hang fallback with 30s of slack.
        Starts and closes a pool of its own unless the runner was
        already :meth:`start`\\ ed.  No scheduler-level dedup: the
        caller owns coalescing in as-completed mode (the serve daemon's
        single-flight table does exactly that).
        """
        jobs = list(jobs)
        owns_pool = not self._started
        if owns_pool:
            self.start(obs_run=self._obs_run)
        policy = self.retry
        pool_mode = self._pool is not None
        slack = 30.0 if pool_mode else 0.0
        backstop = self.config.job_timeout
        results: "queue_module.Queue[Tuple[int, int, JobResult]]" = (
            queue_module.Queue()
        )
        attempts = [0] * len(jobs)
        crashes = [0] * len(jobs)
        tokens: Dict[int, Optional[int]] = {}
        deadlines: Dict[int, float] = {}
        retry_at: Dict[int, float] = {}

        def dispatch(index: int) -> None:
            attempt = attempts[index]
            deadlines[index] = time.monotonic() + backstop + slack
            tokens[index] = self.submit(
                jobs[index],
                lambda result, index=index, attempt=attempt: results.put(
                    (index, attempt, result)
                ),
            )

        def resolve(index: int, result: JobResult) -> Optional[JobResult]:
            """Terminal result, or ``None`` if the attempt is retried."""
            kind = policy.classify(result)
            if kind == "crash":
                crashes[index] += 1
            if policy.should_retry(kind, attempts[index], crashes[index]):
                attempts[index] += 1
                self.retries += 1
                _metrics.count("runner_retries_total", kind=kind)
                obs.event(
                    "runner:retry",
                    job_id=jobs[index].job_id,
                    attempt=attempts[index],
                    kind=kind,
                )
                retry_at[index] = time.monotonic() + policy.delay(
                    attempts[index], jobs[index].job_id
                )
                return None
            final = policy.finalize(result, attempts[index], crashes[index])
            if final.status == "quarantined":
                self.quarantined += 1
                _metrics.count("runner_quarantined_total")
                obs.event(
                    "runner:quarantine",
                    job_id=jobs[index].job_id,
                    crashes=crashes[index],
                )
            return final

        try:
            pending = set(range(len(jobs)))
            for index in range(len(jobs)):
                dispatch(index)
            while pending:
                now = time.monotonic()
                due = sorted(
                    i for i in pending
                    if i in retry_at and retry_at[i] <= now
                )
                for index in due:
                    del retry_at[index]
                    dispatch(index)
                wake_at = min(
                    retry_at.get(i, deadlines[i]) for i in pending
                )
                try:
                    index, attempt, result = results.get(
                        timeout=max(0.0, wake_at - now)
                    )
                except queue_module.Empty:
                    now = time.monotonic()
                    overdue = sorted(
                        i for i in pending
                        if i not in retry_at and deadlines[i] <= now
                    )
                    for index in overdue:
                        token = tokens.get(index)
                        record = None
                        if token is not None:
                            with self._dispatch_lock:
                                record = self._dispatches.get(token)
                        if record is not None:
                            # Still tracked: queued (not started) or
                            # the monitor hasn't fired yet — re-arm the
                            # local fallback from the true start time.
                            base = record.started_at or now
                            if base + backstop + slack > now:
                                deadlines[index] = base + backstop + slack
                                continue
                            with self._dispatch_lock:
                                self._dispatches.pop(token, None)
                        job = jobs[index]
                        final = resolve(
                            index,
                            JobResult(
                                job_id=job.job_id,
                                kind=job.KIND,
                                status="timeout",
                                seconds=backstop,
                                error=(
                                    "job exceeded the runner's "
                                    f"{backstop}s backstop"
                                ),
                            ),
                        )
                        if final is not None:
                            pending.discard(index)
                            yield index, final
                    continue
                if index not in pending or attempt != attempts[index]:
                    continue  # late completion of a stale attempt
                final = resolve(index, result)
                if final is not None:
                    pending.discard(index)
                    yield index, final
        finally:
            if owns_pool:
                self.close()

    # -- execution strategies ------------------------------------------------

    def _build_inline_factory(self) -> Callable[..., object]:
        if self.config.automata_cache:
            from repro.automata import configure_automata_cache

            configure_automata_cache(self.config.automata_cache)
        cache = (
            QueryCache(maxsize=self.config.cache_size)
            if self.config.use_cache or self.config.query_cache
            else None
        )
        if cache is not None and self.config.query_cache:
            cache.attach_store(
                self.config.query_cache,
                max_entries=self.config.query_cache_max,
            )
        return _make_solver_factory(cache)

    def _worker_initargs(self, shared) -> tuple:
        return (
            self.config.use_cache,
            self.config.cache_size,
            shared,
            self.config.automata_cache,
            self.config.query_cache,
            self.config.query_cache_max,
            self._obs_run.worker_config()
            if self._obs_run is not None
            else None,
            self.config.session_idle_s,
            self.config.fault_plan,
            self._events,
        )

    def _run_inline(self, jobs: Sequence[_JobBase]) -> List[JobResult]:
        factory = self._build_inline_factory()
        return [job.run(solver_factory=factory) for job in jobs]

    def _run_pool(self, jobs: Sequence[_JobBase]) -> List[JobResult]:
        """Pool-mode :meth:`run`: an ordered collect over
        :meth:`run_iter`, which owns the pool lifecycle, the backstop,
        and the retry/quarantine/self-healing machinery."""
        results: List[Optional[JobResult]] = [None] * len(jobs)
        for index, result in self.run_iter(jobs):
            results[index] = result
        return [result for result in results if result is not None]


# -- scheduler-level dedup ----------------------------------------------------


def _coalesce(
    jobs: Sequence[_JobBase],
) -> Tuple[List[_JobBase], List[int]]:
    """Group jobs by ``dedup_key``; return (representatives, assignment).

    ``assignment[i]`` is the representative index executing submitted
    job ``i``.  Jobs whose key is ``None`` always represent themselves.
    """
    by_key: Dict[str, int] = {}
    unique: List[_JobBase] = []
    assignment: List[int] = []
    for job in jobs:
        key = job.dedup_key()
        slot = by_key.get(key) if key is not None else None
        if slot is None:
            slot = len(unique)
            unique.append(job)
            if key is not None:
                by_key[key] = slot
        assignment.append(slot)
    return unique, assignment


def replay_result(
    job: _JobBase, rep_job: _JobBase, rep_result: JobResult
) -> JobResult:
    """The result a coalesced job replays from its representative.

    A copy of the representative's result with the coalesced job's own
    ``job_id``, zeroed work counters (it performed no solves of its own
    — that is the point), and a ``deduped_from`` marker so the report
    can tell replayed results from executed ones.  Shared by the batch
    scheduler's dedup fan-out and the serve daemon's cross-client
    single-flight table.
    """
    payload = dict(rep_result.payload)
    payload["deduped_from"] = rep_job.job_id
    if "name" in payload:
        # Analyze payloads carry a display name derived from the
        # job's own path; a replayed copy must not keep the
        # representative's (reports would list one program twice).
        payload["name"] = getattr(job, "path", None) or job.job_id
    for zeroed, value in (
        ("solver_queries", 0),
        ("solver_seconds", 0.0),
        ("concat_refuted", 0),
        ("prefixes_refuted", 0),
        ("backend_tallies", {}),
        ("session_tallies", {}),
        ("route_tallies", {}),
        ("automata_cache", {}),
    ):
        if zeroed in payload:
            payload[zeroed] = value
    return JobResult(
        job_id=job.job_id,
        kind=rep_result.kind,
        status=rep_result.status,
        seconds=0.0,
        payload=payload,
        error=rep_result.error,
        cache_hits=0,
        cache_misses=0,
        retries=rep_result.retries,
    )


def _fan_out(
    jobs: Sequence[_JobBase],
    unique_jobs: Sequence[_JobBase],
    executed: Sequence[JobResult],
    assignment: Sequence[int],
) -> List[JobResult]:
    """Expand representative results back to submission order."""
    results: List[JobResult] = []
    for job, slot in zip(jobs, assignment):
        rep_result = executed[slot]
        if unique_jobs[slot] is job:
            results.append(rep_result)
        else:
            results.append(
                replay_result(job, unique_jobs[slot], rep_result)
            )
    return results
