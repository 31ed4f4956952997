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
- **One scheduler for batch and serve.**  :meth:`BatchRunner.run` is
  one client of a :class:`~repro.service.scheduler.JobScheduler` on a
  private event loop, the same scheduler the serve daemon puts in
  front of this pool.  With ``dedup=True`` its single-flight table
  coalesces jobs with equal
  :meth:`~repro.service.jobs._JobBase.dedup_key` (for solve jobs: the
  canonical fingerprint of the query they pose): N submitted jobs
  sharing a key become one execution whose result is fanned back out
  to every submitter as a :func:`replay_result` copy.
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
  scheduler re-drives crashed/timed-out jobs under the runner's
  :class:`~repro.faults.RetryPolicy`, with exponential backoff and
  deterministic jitter; a poison job that keeps killing workers is
  quarantined (``status="quarantined"``) instead of crash-looping the
  pool.
- **Deterministic ordering.**  Results are reported in submission order
  no matter which worker finished first.
- **Bounded jobs.**  Per-job wall budgets are enforced inside the job
  (engine time budgets, solver timeouts); ``job_timeout`` is the outer
  backstop, counted in pool mode from hand-off to a worker and, in an
  inline batch, by the scheduler from dispatch.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Deque, List, Optional, Sequence, Tuple

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
    #: Thread count of the inline executor (:meth:`BatchRunner.start`
    #: with ``workers == 0``) — lets an inline serve daemon overlap
    #: jobs without process workers.  The threads share one query cache
    #: (thread-safe); :meth:`BatchRunner.run` inline batches stay
    #: strictly serial, since their scheduler dispatches one job at a
    #: time (``max_inflight=1``).
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

    :meth:`start` / :meth:`submit` / :meth:`close` is the seam a
    :class:`~repro.service.scheduler.JobScheduler` drives: one pool (or
    inline executor) outlives any single job, jobs are submitted
    individually, and each result is delivered to a completion callback
    the moment it lands.  The serve daemon multiplexes its clients onto
    it; :meth:`run` is a batch driven through the same scheduler, and
    its one report lists the results in submission order.
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

    def run(self, jobs: Sequence[_JobBase]) -> "BatchReport":
        """Run ``jobs`` to completion; results in submission order.

        The batch is one client of a
        :class:`~repro.service.scheduler.JobScheduler` on a private
        event loop, so retries, quarantine and dedup (``single_flight``)
        follow the serve daemon's code path.  Reuses the pool of a
        runner that :meth:`start` already brought up, and otherwise
        starts and closes its own.
        """
        from repro.service.report import BatchReport

        started = time.monotonic()
        jobs = list(jobs)
        obs_run = ObsRun.start(
            trace=self.config.trace,
            trace_format=self.config.trace_format,
            metrics_json=self.config.metrics_json,
            slow_query_ms=self.config.slow_query_ms,
        )
        self._obs_run = obs_run
        owns_pool = not self._started
        loop = asyncio.new_event_loop()
        try:
            with obs.span(
                "batch:run",
                jobs=len(jobs),
                workers=self.config.workers,
            ):
                if owns_pool:
                    self.start(obs_run=obs_run)
                try:
                    results, coalesced = loop.run_until_complete(
                        self._schedule(jobs)
                    )
                finally:
                    if owns_pool:
                        self.close()
        except BaseException:
            if obs_run is not None:
                obs_run.abort()
            raise
        finally:
            loop.close()
            self._obs_run = None
        summary = obs_run.finish() if obs_run is not None else None
        report = BatchReport(
            results=results,
            wall_time=time.monotonic() - started,
            workers=self.config.workers,
            jobs_submitted=len(jobs),
            jobs_executed=len(jobs) - coalesced,
        )
        if summary is not None:
            report.trace_path = summary.trace_path
            report.metrics_path = summary.metrics_path
            report.slow_queries = summary.slow_queries
            report.obs_pids = summary.pids
        return report

    async def _schedule(
        self, jobs: List[_JobBase]
    ) -> Tuple[List[JobResult], int]:
        """Submit every job to a scheduler and wait for all of them;
        returns the results by submission index and the coalesced
        count."""
        from repro.service.scheduler import JobScheduler

        inline = self.config.workers == 0
        scheduler = JobScheduler(
            self,
            asyncio.get_running_loop(),
            max_queue=max(1, len(jobs)),
            # Inline batches stay strictly serial.
            max_inflight=1 if inline else None,
            single_flight=self.config.dedup,
            # A pool worker's job is backstopped by the dispatcher from
            # hand-off (queue wait does not count); inline, the
            # scheduler's timer is the only backstop.
            job_timeout=self.config.job_timeout if inline else 0,
        )
        results: List[Optional[JobResult]] = [None] * len(jobs)
        for index, job in enumerate(jobs):
            scheduler.submit(
                "batch",
                job,
                lambda result, _, index=index: results.__setitem__(
                    index, result
                ),
            )
        await scheduler.wait_idle()
        return results, scheduler.coalesced

    # -- persistent pool lifecycle (the scheduler's seam) --------------------

    @property
    def started(self) -> bool:
        return self._started

    def start(self, obs_run: Optional[ObsRun] = None) -> "BatchRunner":
        """Bring up a persistent worker pool for :meth:`submit`.

        With ``workers == 0`` jobs execute on ``inline_concurrency``
        internal threads in this process, sharing one query cache;
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
        undelivered and SIGKILLs the workers.
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

        # The job's spans keep the submitter's current span as parent.
        self._executor.submit(contextvars.copy_context().run, run_inline)
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
        }
        if self._executor is not None:
            health["workers_alive"] = max(1, self.config.inline_concurrency)
        return health

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
            self.config.fault_plan,
        )


def _backstop_timeout(job_id: str, kind: str, backstop: float) -> JobResult:
    """The result of a job that overran the runner's ``job_timeout``."""
    return JobResult(
        job_id=job_id,
        kind=kind,
        status="timeout",
        seconds=backstop,
        error=f"job exceeded the runner's {backstop}s backstop",
    )


#: Payload keys that count a job's own work; a replayed copy drops them.
_WORK_KEYS = frozenset((
    "solver_queries", "solver_seconds", "concat_refuted",
    "prefixes_refuted", "literals_ingested", "unknown_causes",
    "refinements", "refined_queries", "sum_refinements",
    "backend_tallies", "automata_cache",
))


def replay_result(
    job: _JobBase, rep_job: _JobBase, rep_result: JobResult
) -> JobResult:
    """The result a coalesced job replays from its representative.

    A copy of the representative's result with the coalesced job's own
    ``job_id``, without work counters and tallies (it performed no
    solves of its own — that is the point; readers default them to
    zero), and a ``deduped_from`` marker so the report can tell replayed
    results from executed ones.  The scheduler's single-flight fan-out
    uses it for batches and the serve daemon alike.
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
