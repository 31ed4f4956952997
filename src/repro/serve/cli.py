"""Implementations of ``python -m repro serve``, ``worker``, ``submit``.

Kept out of :mod:`repro.__main__` so the parser stays import-light;
the command functions receive the parsed ``argparse`` namespace.

``serve`` brings up the daemon of :mod:`repro.serve.server` on a unix
socket (``--socket``) or TCP port (``--port``) and runs until
SIGTERM/SIGINT, then drains gracefully and exits 0.  With ``--cluster``
the same listener also acts as the fleet coordinator for worker nodes.

``worker`` runs one :class:`~repro.cluster.worker.WorkerNode`: it joins
a ``--cluster`` daemon (``--join ADDR``), executes leased jobs on its
own local runner, and heartbeats until SIGTERM.

``submit`` is the matching client: job files in, streamed results out.
A ``.json`` argument is read as one job-spec object (or a list of
them); anything else is treated as a mini-JS program and wrapped in an
``analyze`` job spec — so ``repro submit --socket S prog.js`` is the
daemon-shaped twin of ``repro batch prog.js``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import List


def _job_specs_from_args(args) -> List[dict]:
    specs: List[dict] = []
    for path in args.files:
        if path.endswith(".json"):
            with open(path) as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                loaded = [loaded]
            if not isinstance(loaded, list):
                raise ValueError(
                    f"{path}: expected a job-spec object or list"
                )
            specs.extend(loaded)
        else:
            with open(path) as handle:
                source = handle.read()
            specs.append(
                {
                    "kind": "analyze",
                    "job_id": "",
                    "source": source,
                    "path": path,
                    "level": args.level,
                    "max_tests": args.max_tests,
                    "time_budget": args.time_budget,
                    "backend": args.backend,
                }
            )
    return specs


def run_serve(args) -> int:
    import asyncio

    from repro.obs.export import ObsRun
    from repro.serve.server import ServeConfig, ServeServer
    from repro.service.runner import BatchRunner, RunnerConfig

    if not args.socket and not args.port:
        print("serve: provide --socket PATH or --port N", file=sys.stderr)
        return 2
    obs_run = None
    if args.trace or args.metrics_json or args.slow_query_ms:
        obs_run = ObsRun.start(
            trace=args.trace,
            trace_format=args.trace_format,
            metrics_json=args.metrics_json,
            slow_query_ms=args.slow_query_ms,
        )
    inline_concurrency = 1
    if args.workers == 0 and args.max_inflight:
        # An inline daemon overlaps jobs on executor threads; size the
        # executor to the requested in-flight bound.
        inline_concurrency = args.max_inflight
    fault_plan = None
    if getattr(args, "fault_plan", None):
        with open(args.fault_plan) as handle:
            fault_plan = json.load(handle)
    cluster = bool(getattr(args, "cluster", False))
    retry_max = getattr(args, "retry_max", 0)
    if cluster and retry_max == 0:
        # A fleet without retries would turn every revoked lease (node
        # death, partition) into a client-visible crash; floor it so
        # re-dispatch works out of the box.  ``--retry-max`` still wins
        # when set explicitly.
        retry_max = 2
    runner = BatchRunner(
        RunnerConfig(
            workers=args.workers,
            inline_concurrency=inline_concurrency,
            job_timeout=args.job_timeout,
            use_cache=not args.no_cache,
            cache_size=args.cache_size,
            automata_cache=args.automata_cache,
            query_cache=args.query_cache,
            query_cache_max=args.query_cache_max,
            retry_max=retry_max,
            retry_backoff_s=getattr(args, "retry_backoff_s", 0.25),
            quarantine_after=getattr(args, "quarantine_after", None),
            fault_plan=fault_plan,
        )
    )
    server = ServeServer(
        runner,
        ServeConfig(
            socket=args.socket,
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_inflight=args.max_inflight,
            single_flight=not args.no_single_flight,
            cluster=cluster,
            heartbeat_s=getattr(args, "heartbeat_s", 2.0),
            heartbeat_miss=getattr(args, "heartbeat_miss", 3),
        ),
        obs_run=obs_run,
    )

    async def main() -> None:
        task = asyncio.ensure_future(server.run(install_signals=True))
        while server.address is None and not task.done():
            await asyncio.sleep(0.01)
        if server.address is not None:
            where = (
                server.address[1]
                if server.address[0] == "unix"
                else f"{server.address[1]}:{server.address[2]}"
            )
            mode = " cluster" if cluster else ""
            print(
                f"serving{mode} on {where} "
                f"(workers={args.workers}, max_queue={args.max_queue})",
                flush=True,
            )
        await task

    try:
        asyncio.run(main())
    except BaseException:
        if obs_run is not None:
            obs_run.abort()
        raise
    if obs_run is not None:
        summary = obs_run.finish()
        if summary.metrics_path:
            print(f"metrics: {summary.metrics_path}")
    print("drained, exiting")
    return 0


def run_worker(args) -> int:
    import signal

    from repro.cluster.worker import WorkerConfig, WorkerNode
    from repro.service.runner import BatchRunner, RunnerConfig

    fault_plan = None
    if getattr(args, "fault_plan", None):
        with open(args.fault_plan) as handle:
            fault_plan = json.load(handle)
    inline_concurrency = (
        args.capacity if args.workers == 0 else 1
    )
    runner = BatchRunner(
        RunnerConfig(
            workers=args.workers,
            inline_concurrency=inline_concurrency,
            job_timeout=args.job_timeout,
            automata_cache=args.automata_cache,
            query_cache=args.query_cache,
            retry_max=0,  # the coordinator owns retries fleet-wide
            fault_plan=fault_plan,
        )
    )
    node = WorkerNode(
        runner,
        WorkerConfig(
            join=args.join,
            capacity=args.capacity,
            worker_id=args.worker_id,
            remote_cache=not args.no_remote_cache,
        ),
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: node.stop())
        except (ValueError, OSError):
            pass  # non-main thread (tests drive run() directly)
    print(
        f"worker joining {args.join} "
        f"(capacity={args.capacity}, workers={args.workers})",
        flush=True,
    )
    node.run()
    snapshot = node.snapshot()
    print(
        f"worker stopped ({snapshot['jobs_done']} jobs done, "
        f"{snapshot['registrations']} registrations)",
        flush=True,
    )
    return 0


def run_submit(args) -> int:
    from repro.serve.client import Rejected, ServeClient
    from repro.service.report import BatchReport, format_batch_report

    if not args.socket and not args.port:
        print("submit: provide --socket PATH or --port N", file=sys.stderr)
        return 2
    with ServeClient(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        reconnect=True,
    ) as client:
        if args.stats:
            frame = client.stats()
            print(
                json.dumps(
                    {"server": frame["server"], "obs": frame["obs"]},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        if getattr(args, "health", False):
            health = client.health()
            print(json.dumps(health, indent=2, sort_keys=True))
            return 0 if health.get("ready") else 1
        try:
            specs = _job_specs_from_args(args)
        except (OSError, ValueError) as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        if not specs:
            print("submit: no jobs (give job .json or mini-JS files)",
                  file=sys.stderr)
            return 2
        started = time.monotonic()
        order = {}
        rejected = 0
        wait_budget = float(getattr(args, "wait_on_overload", 0.0) or 0.0)
        for index, spec in enumerate(specs):
            deadline = time.monotonic() + wait_budget
            while True:
                try:
                    ack = client.submit(spec)
                except Rejected as exc:
                    # Honor the daemon's retry_after hint (bounded by
                    # --wait-on-overload) instead of dropping the job
                    # on the first overload rejection.
                    remaining = deadline - time.monotonic()
                    if exc.reason == "overloaded" and remaining > 0:
                        time.sleep(
                            min(exc.retry_after or 0.5, max(0.05, remaining))
                        )
                        continue
                    rejected += 1
                    print(
                        f"rejected ({exc.reason}): job {index}",
                        file=sys.stderr,
                    )
                    break
                order[ack["id"]] = index
                break
        results = []
        for request_id, result, coalesced in client.iter_results():
            results.append(result)
            if args.stream:
                line = dict(result.to_spec())
                line["coalesced"] = coalesced
                print(json.dumps(line, sort_keys=True), flush=True)
        if not args.stream:
            report = BatchReport(
                results=results,
                wall_time=time.monotonic() - started,
                workers=0,
                jobs_submitted=len(specs),
                jobs_executed=len(results),
            )
            print(format_batch_report(report))
            if args.json:
                with open(args.json, "w") as handle:
                    json.dump(report.to_spec(), handle, indent=2)
                print(f"\nwrote {args.json}")
    if rejected:
        return 3
    return 0 if all(r.status == "ok" for r in results) else 1
