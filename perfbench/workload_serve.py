"""``serve``: the survey workload through a ``python -m repro serve`` daemon.

``survey_workload(PACKAGES, input_seed, solve_cap=SOLVES)`` makes survey
shards plus one solve job per extracted regex literal, duplicates kept;
``--seed`` orders the solve jobs.
The daemon runs at its defaults (two pool workers, single-flight and the
query cache on).  One client drives a closed loop over two connections,
each holding ``WINDOW`` outstanding submits, cycling through the job
list (see :func:`_traffic`) until the window closes; every job gets a
fresh job id.
"""

from __future__ import annotations

import contextlib
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from measure import Outcome, descendants, median, peak_rss_mb, summarise, tail

PACKAGES = 4000
SOLVES = 2000
#: One outstanding submit per connection and one connection per pool
#: worker: a job rarely waits in the queue, so job latency follows the
#: daemon's own path rather than queueing delay, which grows far faster
#: than the host slows down.
CONNECTIONS = 2
WINDOW = 1
#: Solver timeout of the solve jobs (``survey_workload`` sets 1 s).  Two
#: lookahead literals never decide, and UNKNOWN is never cached, so
#: every recurrence burns the whole timeout: at 1 s those 1% of the jobs
#: hold the workers for most of the window.  At 0.1 s the daemon's own
#: path dominates.
SOLVE_TIMEOUT = 0.1
WARMUP = {"kind": "solve", "job_id": "warmup", "pattern": "^a+$", "flags": ""}


def _traffic(jobs, seed: int) -> List[dict]:
    """Job specs in submission order: the solve jobs shuffled by the seed,
    the survey shards spread evenly between them.

    Even spacing keeps the heavy shards from bunching up on both pool
    workers at once, which would set the latency tail by chance.
    """
    specs = [job.to_spec() for job in jobs]
    surveys = [spec for spec in specs if spec["kind"] == "survey"]
    solves = [spec for spec in specs if spec["kind"] == "solve"]
    for spec in solves:
        spec["solver_timeout"] = SOLVE_TIMEOUT
    random.Random(seed).shuffle(solves)
    step = len(solves) // max(1, len(surveys))
    order: List[dict] = []
    for index, survey in enumerate(surveys):
        order.append(survey)
        order.extend(solves[index * step:(index + 1) * step])
    order.extend(solves[len(surveys) * step:])
    return order


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Daemon:
    """One ``repro serve`` subprocess on a free localhost port."""

    def __init__(self, root: str, scratch: str):
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["TMPDIR"] = scratch
        self._log = open(os.path.join(scratch, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(self.port)],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"serve daemon did not start: {line!r}")

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(host="127.0.0.1", port=self.port, timeout=30.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in descendants(self.proc.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _start(root: str, scratch: str) -> Daemon:
    daemon = Daemon(root, scratch)
    try:
        with daemon.client() as client:
            client.wait_result(client.submit(dict(WARMUP))["id"])
    except BaseException:
        daemon.stop()
        raise
    return daemon


class _Loop:
    """The closed loop's shared job cursor and completion log."""

    def __init__(self, specs: List[dict], deadline: float):
        self.specs = specs
        self.deadline = deadline
        self.lock = threading.Lock()
        self.sent = 0
        #: (job index, submitted at, result received at, JobResult)
        self.done: List[Tuple[int, float, float, object]] = []
        self.rejected = 0
        self.errors: List[str] = []

    def next_spec(self) -> Optional[Tuple[int, dict]]:
        with self.lock:
            if time.perf_counter() >= self.deadline:
                return None
            index = self.sent % len(self.specs)
            spec = dict(self.specs[index])
            spec["job_id"] = f"{spec['job_id']}.{self.sent}"
            self.sent += 1
            return index, spec

    def drive(self, daemon: Daemon) -> None:
        from repro.serve.client import Rejected

        try:
            with daemon.client() as client:
                inflight: Dict[object, Tuple[int, float]] = {}

                def submit() -> None:
                    item = self.next_spec()
                    if item is None:
                        return
                    started = time.perf_counter()
                    try:
                        ack = client.submit(item[1])
                    except Rejected:
                        with self.lock:
                            self.rejected += 1
                        return
                    inflight[ack["id"]] = (item[0], started)

                for _ in range(WINDOW):
                    submit()
                for request_id, result, _ in client.iter_results():
                    received = time.perf_counter()
                    index, started = inflight.pop(request_id)
                    with self.lock:
                        self.done.append((index, started, received, result))
                    submit()
        except Exception as exc:  # reported as a failure of the run
            with self.lock:
                self.errors.append(repr(exc))


def _survey_reference(jobs) -> Dict[str, dict]:
    from repro.service.runner import BatchRunner, RunnerConfig

    report = BatchRunner(RunnerConfig(workers=0)).run(jobs)
    return {result.job_id: result.payload for result in report.results}


def _check_results(outcome: Outcome, loop: _Loop, specs, reference):
    """Check every result; returns latencies, dispatch times and tallies."""
    from repro.regex import RegExp

    matched: Dict[Tuple[str, str, str], bool] = {}
    latencies: List[float] = []
    dispatch: List[float] = []
    counts: Dict[str, float] = dict.fromkeys(
        ("solve", "found", "hits", "misses", "retries", "solve_s", "survey_s"), 0
    )
    for index, submitted, received, result in loop.done:
        outcome.attempted += 1
        spec = specs[index]
        latencies.append(received - submitted)
        dispatch.append(received - submitted - result.seconds)
        counts[f"{result.kind}_s"] += result.seconds
        counts["hits"] += result.cache_hits
        counts["misses"] += result.cache_misses
        counts["retries"] += result.retries
        if result.status != "ok":
            outcome.fail(f"{result.job_id}: {result.status} {result.error}")
            continue
        if result.kind == "survey":
            if result.payload != reference[spec["job_id"]]:
                outcome.fail(f"{result.job_id}: survey counts differ from the in-process run")
            continue
        counts["solve"] += 1
        if not result.payload.get("found"):
            continue
        counts["found"] += 1
        key = (spec["pattern"], spec["flags"], result.payload["word"])
        if key not in matched:
            matched[key] = RegExp(key[0], key[1]).exec(key[2]) is not None
        if not matched[key]:
            outcome.fail(f"{result.job_id}: /{key[0]}/{key[1]} rejects {key[2]!r}")
    return latencies, dispatch, counts


def run(
    seed: int,
    seconds: float,
    tracer=None,
    input_seed: int = 1909,
    root: str = ".",
    scratch: str = ".",
) -> Outcome:
    from repro.service.jobs import SurveyJob, survey_workload

    outcome = Outcome()
    setups: List[float] = []

    def set_up():
        started = time.perf_counter()
        jobs = survey_workload(PACKAGES, input_seed, solve_cap=SOLVES)
        specs = _traffic(jobs, seed)
        daemon = _start(root, scratch)
        setups.append(time.perf_counter() - started)
        return jobs, specs, daemon

    # Set-up is timed twice before the window and twice after it, for the
    # same reason as the import in run.py.
    set_up()[2].stop()
    jobs, specs, daemon = set_up()

    try:
        with daemon.client() as client:
            before = client.stats()["server"]
        window_start = time.perf_counter()
        loop = _Loop(specs, window_start + seconds)
        threads = [
            threading.Thread(target=loop.drive, args=(daemon,))
            for _ in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        with daemon.client() as client:
            after = client.stats()["server"]
            health = client.health()
        rss = peak_rss_mb([daemon.proc.pid] + descendants(daemon.proc.pid))
    finally:
        daemon.stop()
    for _ in range(2):
        set_up()[2].stop()

    for error in loop.errors:
        outcome.fail(f"client connection: {error}")
    if loop.rejected:
        outcome.fail(f"{loop.rejected} submits rejected", loop.rejected)
    if not health.get("ready"):
        outcome.fail(f"daemon not ready after the run: {health}")

    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        reference = _survey_reference(
            [job for job in jobs if isinstance(job, SurveyJob)]
        )
        latencies, dispatch, counts = _check_results(outcome, loop, specs, reference)
    outcome.attempted += loop.rejected

    completions = sorted(received for _, _, received, _ in loop.done)
    if not completions:
        outcome.fail("no job completed in the window")
    # wall_s: the median time to complete as many jobs as the list holds,
    # extrapolated from the jobs that did complete when no whole list did.
    marks = [window_start] + completions[len(specs) - 1::len(specs)]
    batches = [b - a for a, b in zip(marks, marks[1:])]
    if not batches and completions:
        busy = completions[-1] - window_start
        batches = [busy * len(specs) / len(completions)]
    summarise(
        outcome,
        setup_s=setups,
        batch_s=batches,
        ops=len(completions),
        op_seconds=latencies,
        busy_s=(completions[-1] - window_start) if completions else 0.0,
        decided=counts["found"],
        decidable=counts["solve"],
        rss_mb=rss,
    )
    outcome.note("jobs_per_s", outcome.metrics["ops_per_s"], "1/s")
    outcome.timing("job", latencies)
    outcome.note("jobs", len(completions), "count", f"{counts['solve']} solve")

    layer = outcome.layer
    value, _, _ = tail(dispatch)
    layer["serve.dispatch_p50_ms"] = median(dispatch) * 1000.0
    layer["serve.dispatch_tail_ms"] = value * 1000.0
    layer["service.run_s"] = counts["solve_s"]
    layer["corpus.survey_s"] = counts["survey_s"]
    submitted = after["jobs_submitted"] - before["jobs_submitted"]
    layer["serve.executed_ratio"] = (
        (after["jobs_executed"] - before["jobs_executed"]) / submitted
        if submitted else 0.0
    )
    layer["serve.coalesced"] = after["singleflight_coalesced"] - before["singleflight_coalesced"]
    lookups = counts["hits"] + counts["misses"]
    layer["service.query_cache.hit_ratio"] = counts["hits"] / lookups if lookups else 0.0
    layer["service.retries"] = counts["retries"]
    layer["serve.rejected"] = loop.rejected + after["rejected"] - before["rejected"]
    if tracer is not None:
        for index, submitted, received, result in loop.done:
            tracer.context = result.job_id
            tracer.record("serve.job", submitted, received)
    return outcome
