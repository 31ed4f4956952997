"""The worker-pool batch runner.

Runs many jobs concurrently across worker processes, the way the
paper's evaluation fanned 1,131 packages across machines.  Design
points:

- **Process workers, persistent caches.**  Each worker process builds
  one :class:`~repro.solver.backends.cached.QueryCache` when it starts
  and keeps it alive across every job it executes, so duplicated
  queries from different jobs hit.  With ``automata_cache=PATH`` every
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
- **Self-healing workers.**  The runner owns its ``workers`` processes,
  each with its own duplex pipe.  One dispatcher thread hands a job
  only to an idle worker (the rest wait in a runner-side queue), so it
  always knows which job each worker holds, and it blocks on every
  pipe and process sentinel at once.  A readable pipe is that job's
  result; a fired sentinel (or EOF on the pipe) is that job's crash,
  settled as a ``WorkerCrashed`` error the moment the process is gone;
  a job still held ``job_timeout`` after hand-off has its worker
  SIGKILLed and is settled as a timeout.  A dead or killed worker's
  slot is respawned, and every dispatch is settled exactly once.
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
  backstop, counted in pool mode from hand-off to a worker.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import (
    Callable,
    Deque,
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
from repro.service.jobs import JobResult, _JobBase, job_from_spec
from repro.solver.backends import CachedBackend, make_backend
from repro.solver.backends.cached import QueryCache

#: Per-worker-process state, installed by :func:`_worker_init` and
#: reused by every job the worker executes.
_WORKER_CACHE: Optional[object] = None


def _worker_init(
    use_cache: bool,
    cache_size: int,
    automata_cache,
    query_cache=None,
    query_cache_max=None,
    obs_config=None,
    session_idle_s=None,
    fault_plan=None,
) -> None:
    global _WORKER_CACHE
    if use_cache or query_cache:
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
    """Worker-side job execution."""
    job = job_from_spec(spec)
    result = job.run(solver_factory=_make_solver_factory(_WORKER_CACHE))
    # Ship this worker's cumulative metrics through the spool at every
    # job boundary; the runner's merge keeps the latest per pid.
    obs.checkpoint()
    return result.to_spec()



def _worker_main(conn, runner_end, initargs: tuple) -> None:
    """A pool worker's life: run each job spec the runner sends.

    Each spec is answered with ``("ok", result_spec)`` or, when the job
    machinery itself raises, ``("error", text)``.  A ``None`` stop
    message or EOF on the pipe (the runner went away) ends the loop.
    """
    # Drop the fork-inherited copy of the runner's end of this pipe, so
    # the runner dying is seen here as EOF.
    runner_end.close()
    _worker_init(*initargs)
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            return
        if spec is None:
            return
        try:
            faults.crash_point("worker:job", job_id=spec.get("job_id", ""))
            reply = ("ok", _run_spec(spec))
        except Exception as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except OSError:
            return


@dataclass
class _Dispatch:
    """One submitted pool job, settled exactly once."""

    spec: dict
    job_id: str
    kind: str
    deliver: Callable[[JobResult], None]


class _Worker:
    """One pool slot: a worker process, the runner's end of its pipe,
    and the dispatch it holds (``None`` while idle)."""

    def __init__(self, initargs: tuple):
        self.conn, child = multiprocessing.Pipe()
        # The platform's default start method (fork on Linux): a worker
        # inherits the runner's imports, so a respawn costs milliseconds
        # rather than a fresh interpreter start.
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(child, self.conn, initargs),
            name="repro-pool-worker",
            daemon=True,
        )
        self.process.start()
        child.close()
        self.job: Optional[_Dispatch] = None
        self.deadline = 0.0

    def stop(self, kill: bool) -> None:
        """SIGKILL (or ask to exit) and reap the process; close the pipe."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.process.join()
        self.conn.close()


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
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inline_factory: Optional[Callable[..., object]] = None
        self._started = False
        self._tokens = itertools.count(1)
        # -- pool mode: workers, their queue and the dispatcher thread ------
        self._workers: List[_Worker] = []
        self._queue: Deque[_Dispatch] = deque()
        self._lock = threading.Lock()  # guards _workers, _queue, _closing
        self._closing = False
        self._abort = False
        self._initargs: tuple = ()
        self._wake_r = self._wake_w = -1
        self._dispatcher: Optional[threading.Thread] = None
        # -- recovery accounting (cumulative over the runner's life) --------
        self.worker_crashes = 0
        self.heals = 0
        self.retries = 0
        self.quarantined = 0

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
        otherwise ``workers`` processes and the dispatcher thread are
        started once and reused across every submitted job.
        ``obs_run`` is the optional observability run whose worker
        config every worker receives.  Idempotent; pair with
        :meth:`close`.
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
            self._initargs = self._worker_initargs()
            self._closing = self._abort = False
            self._workers = [
                _Worker(self._initargs) for _ in range(self.config.workers)
            ]
            self._wake_r, self._wake_w = os.pipe()
            os.set_blocking(self._wake_r, False)
            os.set_blocking(self._wake_w, False)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="repro-pool-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
        self._started = True
        return self

    def close(self, graceful: bool = True) -> None:
        """Tear the persistent pool down.

        ``graceful`` lets queued and in-flight jobs finish, then asks
        each worker to exit; ``graceful=False`` drops queued jobs
        undelivered and SIGKILLs the workers.  A worker's pooled solver
        sessions die with it: each session child exits on EOF of its
        pipes once the worker is gone.
        """
        if not self._started:
            return
        self._started = False
        executor, self._executor = self._executor, None
        dispatcher, self._dispatcher = self._dispatcher, None
        self._inline_factory = None
        if dispatcher is not None:
            with self._lock:
                self._closing = True
                self._abort = not graceful
                if not graceful:
                    self._queue.clear()
            self._wake()
            dispatcher.join()
            os.close(self._wake_r)
            os.close(self._wake_w)
            self._workers = []
        if executor is not None:
            executor.shutdown(wait=graceful)

    def __enter__(self) -> "BatchRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def submit(
        self, job: _JobBase, on_done: Callable[[JobResult], None]
    ) -> Optional[int]:
        """Submit one job to the started pool; deliver as it completes.

        ``on_done`` receives the :class:`JobResult` from an internal
        thread (the pool's dispatcher thread or the inline executor
        thread) — callers that live on an event loop must marshal it
        themselves (``loop.call_soon_threadsafe``).  Exceptions raised
        by ``on_done`` are swallowed: a broken consumer must not kill
        the dispatcher thread the rest of the pool needs.  Returns the
        dispatch token in pool mode (``None`` inline); delivery happens
        exactly once per token — the worker's result, its crash, or
        its backstop timeout.
        """
        if not self._started:
            raise RuntimeError("BatchRunner.submit() before start()")

        def deliver(result: JobResult) -> None:
            try:
                on_done(result)
            except Exception:
                pass

        if self._dispatcher is not None:
            record = _Dispatch(job.to_spec(), job.job_id, job.KIND, deliver)
            with self._lock:
                if self._closing:
                    raise RuntimeError("BatchRunner.submit() after close()")
                self._queue.append(record)
                self._wake()
            return next(self._tokens)
        factory = self._inline_factory

        def run_inline() -> None:
            try:
                result = job.run(solver_factory=factory)
            except Exception as exc:  # job.run traps; belt-and-braces
                result = JobResult(
                    job_id=job.job_id,
                    kind=job.KIND,
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            deliver(result)

        self._executor.submit(run_inline)
        return None

    # -- the dispatcher thread (pool mode) -----------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full: a wake-up is already pending

    def _dispatch_loop(self) -> None:
        """Hand queued jobs to idle workers and settle every result,
        crash and overrun, until :meth:`close`."""
        while True:
            with self._lock:
                idle = all(worker.job is None for worker in self._workers)
                if self._closing and (
                    self._abort or (idle and not self._queue)
                ):
                    break
                self._hand_off()
                workers = list(self._workers)
            owners = {}
            for worker in workers:
                owners[worker.conn] = owners[worker.process.sentinel] = worker
            deadlines = [w.deadline for w in workers if w.job is not None]
            timeout = (
                max(0.0, min(deadlines) - time.monotonic())
                if deadlines
                else None
            )
            for ready in wait([self._wake_r, *owners], timeout):
                if ready == self._wake_r:
                    try:
                        while os.read(self._wake_r, 4096):
                            pass
                    except BlockingIOError:
                        pass
                else:
                    self._service(owners[ready])
            now = time.monotonic()
            for worker in workers:
                if worker.job is not None and worker.deadline <= now:
                    self._heal(worker)
        for worker in self._workers:
            worker.stop(kill=self._abort)

    def _hand_off(self) -> None:
        """Give queued jobs to idle workers (caller holds the lock)."""
        for worker in self._workers:
            if not self._queue:
                return
            if worker.job is not None:
                continue
            record = self._queue.popleft()
            try:
                worker.conn.send(record.spec)
            except OSError:
                # The worker died idle; its sentinel respawns the slot.
                self._queue.appendleft(record)
                continue
            worker.job = record
            worker.deadline = time.monotonic() + self.config.job_timeout

    def _service(self, worker: _Worker) -> None:
        """The worker's pipe or sentinel fired: its job's result, or
        its death."""
        if worker.conn.closed:
            return  # already replaced earlier in this pass
        try:
            status, payload = worker.conn.recv()
        except (EOFError, OSError):
            pid = worker.process.pid
            record = self._replace(worker)
            if record is None:
                return  # died idle: nobody's job is lost
            self.worker_crashes += 1
            obs.event("runner:worker_crash", job_id=record.job_id, pid=pid)
            _metrics.count("runner_worker_crashes_total")
            record.deliver(
                crash_result(record.job_id, record.kind, f"pid {pid}")
            )
            return
        record, worker.job = worker.job, None
        if status == "ok":
            result = JobResult.from_spec(payload)
        else:
            result = JobResult(
                job_id=record.job_id,
                kind=record.kind,
                status="error",
                error=payload,
            )
        record.deliver(result)

    def _heal(self, worker: _Worker) -> None:
        """SIGKILL a worker wedged past ``job_timeout``, respawn its
        slot, and settle its job as a backstop timeout."""
        pid = worker.process.pid
        record = self._replace(worker)
        self.heals += 1
        obs.event("runner:worker_heal", job_id=record.job_id, pid=pid)
        _metrics.count("runner_worker_heals_total")
        backstop = self.config.job_timeout
        record.deliver(_backstop_timeout(record.job_id, record.kind, backstop))

    def _replace(self, worker: _Worker) -> Optional[_Dispatch]:
        """Kill and reap ``worker``, respawn its slot, and return the
        job it held."""
        record, worker.job = worker.job, None
        worker.stop(kill=True)
        fresh = _Worker(self._initargs)
        with self._lock:
            self._workers[self._workers.index(worker)] = fresh
        return record

    def pool_health(self) -> dict:
        """Liveness of the execution backend (the ``health`` op's
        ``runner`` section)."""
        with self._lock:
            workers = list(self._workers)
            queued = len(self._queue)
        health = {
            "mode": "inline" if self.config.workers == 0 else "pool",
            "started": self._started,
            "workers": self.config.workers,
            "workers_alive": sum(w.process.is_alive() for w in workers),
            "jobs_tracked": queued + sum(w.job is not None for w in workers),
            "worker_crashes": self.worker_crashes,
            "heals": self.heals,
            "retries": self.retries,
            "quarantined": self.quarantined,
        }
        if self._executor is not None:
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
        mode the dispatcher owns the backstop (from hand-off, so queue
        wait does not count); inline, the deadline here is the only
        one.  Starts and closes a pool of its own unless the runner was
        already :meth:`start`\\ ed.  No scheduler-level dedup: the
        caller owns coalescing in as-completed mode (the serve daemon's
        single-flight table does exactly that).
        """
        jobs = list(jobs)
        owns_pool = not self._started
        if owns_pool:
            self.start(obs_run=self._obs_run)
        policy = self.retry
        inline = self._executor is not None
        backstop = self.config.job_timeout
        results: "queue_module.Queue[Tuple[int, int, JobResult]]" = (
            queue_module.Queue()
        )
        attempts = [0] * len(jobs)
        crashes = [0] * len(jobs)
        deadlines: Dict[int, float] = {}
        retry_at: Dict[int, float] = {}

        def dispatch(index: int) -> None:
            attempt = attempts[index]
            if inline:
                deadlines[index] = time.monotonic() + backstop
            self.submit(
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
                    retry_at.get(i, deadlines.get(i, math.inf))
                    for i in pending
                )
                try:
                    index, attempt, result = results.get(
                        timeout=max(0.0, wake_at - now)
                        if wake_at < math.inf
                        else None
                    )
                except queue_module.Empty:
                    now = time.monotonic()
                    overdue = sorted(
                        i for i in pending
                        if i not in retry_at
                        and deadlines.get(i, math.inf) <= now
                    )
                    for index in overdue:
                        job = jobs[index]
                        final = resolve(
                            index,
                            _backstop_timeout(job.job_id, job.KIND, backstop),
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

    def _worker_initargs(self) -> tuple:
        return (
            self.config.use_cache,
            self.config.cache_size,
            self.config.automata_cache,
            self.config.query_cache,
            self.config.query_cache_max,
            self._obs_run.worker_config()
            if self._obs_run is not None
            else None,
            self.config.session_idle_s,
            self.config.fault_plan,
        )

    def _run_inline(self, jobs: Sequence[_JobBase]) -> List[JobResult]:
        factory = self._build_inline_factory()
        return [job.run(solver_factory=factory) for job in jobs]

    def _run_pool(self, jobs: Sequence[_JobBase]) -> List[JobResult]:
        """Pool-mode :meth:`run`: an ordered collect over
        :meth:`run_iter`, which owns the pool lifecycle and the
        retry/quarantine/self-healing machinery."""
        results: List[Optional[JobResult]] = [None] * len(jobs)
        for index, result in self.run_iter(jobs):
            results[index] = result
        return [result for result in results if result is not None]


def _backstop_timeout(job_id: str, kind: str, backstop: float) -> JobResult:
    """The result of a job that overran the runner's ``job_timeout``."""
    return JobResult(
        job_id=job_id,
        kind=kind,
        status="timeout",
        seconds=backstop,
        error=f"job exceeded the runner's {backstop}s backstop",
    )


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


#: Payload keys that count a job's own work; a replayed copy drops them.
_WORK_KEYS = frozenset((
    "solver_queries", "solver_seconds", "concat_refuted",
    "prefixes_refuted", "literals_ingested", "unknown_causes",
    "refinements", "refined_queries", "sum_refinements",
    "backend_tallies", "session_tallies", "route_tallies",
    "automata_cache",
))


def replay_result(
    job: _JobBase, rep_job: _JobBase, rep_result: JobResult
) -> JobResult:
    """The result a coalesced job replays from its representative.

    A copy of the representative's result with the coalesced job's own
    ``job_id``, without work counters and tallies (it performed no
    solves of its own — that is the point; readers default them to
    zero), and a ``deduped_from`` marker so the report can tell replayed
    results from executed ones.  Shared by the batch scheduler's dedup
    fan-out and the serve daemon's cross-client single-flight table.
    """
    payload = {
        key: value
        for key, value in rep_result.payload.items()
        if key not in _WORK_KEYS
    }
    payload["deduped_from"] = rep_job.job_id
    if "name" in payload:
        # Analyze payloads carry a display name derived from the
        # job's own path; a replayed copy must not keep the
        # representative's (reports would list one program twice).
        payload["name"] = getattr(job, "path", None) or job.job_id
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
