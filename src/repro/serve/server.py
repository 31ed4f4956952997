"""The serve daemon: one process, one pool, many streaming clients.

``python -m repro serve`` keeps a :class:`~repro.service.runner.BatchRunner`
pool warm and multiplexes any number of concurrent clients onto it over
a unix socket (or TCP port).  Per connection, an asyncio reader task
parses newline-delimited JSON requests and a writer task drains an
outbound queue — so one client's slow socket never blocks another's
results, and a connection's ack/result frames interleave in completion
order, which is the streaming contract.

Scheduling (admission bounds, per-client fairness, cross-client
single-flight) lives in :class:`~repro.service.scheduler.JobScheduler`;
this module owns connection lifecycle and drain:

- a client disconnecting mid-job forfeits its queued jobs and its
  results (``JobScheduler.forget_client``) — in-flight work completes
  and the worker slot recycles, the orphaned result is dropped;
- SIGTERM/SIGINT triggers a graceful drain: stop accepting, reject new
  submits with ``draining``, flush every in-flight job's result to its
  waiters, close the pool gracefully (each worker exits on a stop
  message), and checkpoint metrics — then exit 0.

With ``--cluster`` the same listener doubles as the fleet coordinator:
``register`` / ``heartbeat`` / ``done`` / ``cache_get`` / ``cache_put``
frames route to a :class:`~repro.cluster.coordinator.ClusterCoordinator`
and the scheduler prefers ready remote workers, falling through to the
local pool when none are healthy (degraded mode).  A worker connection
closing is reported to the coordinator, which revokes its epoch-tagged
leases so the scheduler re-dispatches them.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro import faults, obs
from repro.obs import metrics
from repro.obs.export import ObsRun
from repro.serve import protocol
from repro.service.jobs import JobResult, job_from_spec
from repro.service.runner import BatchRunner
from repro.service.scheduler import JobScheduler, Overloaded


@dataclass
class ServeConfig:
    """Daemon knobs beyond the runner's own configuration."""

    socket: Optional[str] = None  # unix socket path
    host: str = "127.0.0.1"  # TCP fallback when no socket path
    port: Optional[int] = None
    max_queue: int = 128  # admission bound (queued, not in-flight)
    max_inflight: Optional[int] = None  # default: runner workers
    single_flight: bool = True
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    # -- cluster coordinator mode (``--cluster``) --------------------------
    cluster: bool = False
    heartbeat_s: float = 2.0  # heartbeat interval assigned to workers
    heartbeat_miss: int = 3  # missed beats before a node is dead


class _Connection:
    """One client: reader parses requests, writer drains the outbox."""

    def __init__(self, client_id: str, writer: asyncio.StreamWriter):
        self.client_id = client_id
        self.writer = writer
        self.outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.closing = False

    def send(self, frame: dict) -> None:
        if self.closing:
            return
        encoded = protocol.encode_frame(frame)
        if faults.enabled():
            # Chaos hook: drop or delay one outbound frame, exercising
            # the client's reconnect/timeout recovery paths.
            rule = faults.fire(
                "serve:frame", op=frame.get("op"), client=self.client_id
            )
            if rule is not None:
                if rule.action == "drop":
                    return
                if rule.action == "delay":
                    try:
                        asyncio.get_running_loop().call_later(
                            rule.delay_s or 0.5,
                            self.outbox.put_nowait,
                            encoded,
                        )
                        return
                    except RuntimeError:
                        pass  # off-loop caller: deliver undelayed
        self.outbox.put_nowait(encoded)

    def close(self) -> None:
        if not self.closing:
            self.closing = True
            self.outbox.put_nowait(None)  # writer-task sentinel


class ServeServer:
    """The daemon: asyncio front end over a persistent runner pool."""

    def __init__(
        self,
        runner: BatchRunner,
        config: Optional[ServeConfig] = None,
        obs_run: Optional[ObsRun] = None,
    ):
        self.runner = runner
        self.config = config or ServeConfig()
        self.obs_run = obs_run
        self.scheduler: Optional[JobScheduler] = None
        self.cluster = None  # ClusterCoordinator in --cluster mode
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._handler_tasks: "Set[asyncio.Task]" = set()
        self._client_ids = itertools.count(1)
        self._job_ids = itertools.count(1)
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._drained = False
        #: Where the daemon actually listens, set once the socket is
        #: bound — ``("unix", path)`` or ``("tcp", host, port)``.  With
        #: ``port=0`` this is how callers learn the assigned port.
        self.address: Optional[tuple] = None

    # -- lifecycle -----------------------------------------------------------

    async def _start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if not self.runner.started:
            self.runner.start(obs_run=self.obs_run)
        if self.config.cluster:
            from repro.cluster.coordinator import (
                ClusterConfig,
                ClusterCoordinator,
            )

            self.cluster = ClusterCoordinator(
                self.loop,
                ClusterConfig(
                    heartbeat_s=self.config.heartbeat_s,
                    heartbeat_miss=self.config.heartbeat_miss,
                    query_cache=self.runner.config.query_cache,
                    automata_cache=self.runner.config.automata_cache,
                ),
            )
        self.scheduler = JobScheduler(
            self.runner,
            self.loop,
            max_queue=self.config.max_queue,
            max_inflight=self.config.max_inflight,
            single_flight=self.config.single_flight,
            cluster=self.cluster,
        )
        limit = self.config.max_frame_bytes
        if self.config.socket:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket, limit=limit
            )
            self.address = ("unix", self.config.socket)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port or 0,
                limit=limit,
            )
            bound = self._server.sockets[0].getsockname()
            self.address = ("tcp", bound[0], bound[1])

    async def _drain(self) -> None:
        """Stop accepting, flush in-flight work, release every resource."""
        if self._drained:
            return
        self._drained = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.scheduler.draining = True
        await self.scheduler.wait_idle()
        if self.cluster is not None:
            self.cluster.close()
        for connection in list(self._connections):
            connection.close()
        # Let every connection handler flush its outbox and finish —
        # leaving them pending would have the loop's shutdown cancel
        # them mid-write.
        if self._handler_tasks:
            await asyncio.wait(set(self._handler_tasks), timeout=10.0)
        self.runner.close(graceful=True)
        obs.checkpoint()

    async def run(self, install_signals: bool = True) -> None:
        """Serve until :meth:`request_shutdown`, then drain."""
        await self._start()
        if install_signals:
            import signal

            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self.loop.add_signal_handler(
                        signum, self.request_shutdown
                    )
                except (NotImplementedError, RuntimeError):
                    pass
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            await self._drain()

    def request_shutdown(self) -> None:
        """Begin the graceful drain (signal handler / test hook)."""
        if self._shutdown is not None:
            self._shutdown.set()

    # -- background-thread harness (tests, and `submit` self-hosting) --------

    def start_background(self) -> "ServeServer":
        """Run the daemon on its own thread; returns once listening."""

        def main() -> None:
            asyncio.run(self.run(install_signals=False))

        self._thread = threading.Thread(
            target=main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to start listening")
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the background daemon and join its thread."""
        if self.loop is not None and self._shutdown is not None:
            try:
                self.loop.call_soon_threadsafe(self.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- stats ---------------------------------------------------------------

    def server_stats(self) -> dict:
        stats = self.scheduler.stats()
        stats["clients_connected"] = len(self._connections)
        stats["address"] = list(self.address) if self.address else None
        # Mirror the live gauges into the metrics registry (when one is
        # enabled) so ``--metrics-json`` checkpoints carry them too.
        metrics.gauge_set("serve_clients_connected", len(self._connections))
        metrics.gauge_set("serve_queue_depth", stats["queue_depth"])
        metrics.gauge_set("serve_in_flight", stats["in_flight"])
        metrics.gauge_set(
            "serve_singleflight_coalesced", stats["singleflight_coalesced"]
        )
        metrics.gauge_set(
            "serve_singleflight_replayed", stats["singleflight_replayed"]
        )
        if self.cluster is not None:
            stats["cluster"] = self.cluster.stats()
        return stats

    def health(self) -> dict:
        """Liveness + readiness, for the wire ``health`` op.

        ``live`` means the event loop is answering at all (trivially
        true when this runs); ``ready`` means the daemon is accepting
        work and its pool has live workers — a draining daemon or one
        whose every worker died reports unready so a supervisor can
        rotate it out before clients pile up on timeouts.
        """
        pool = self.runner.pool_health()
        scheduler = self.scheduler.stats() if self.scheduler else {}
        workers_ok = (
            pool.get("mode") != "pool"
            or pool.get("workers_alive", 0) > 0
        )
        draining = bool(scheduler.get("draining"))
        # A coordinator with remote capacity is ready even if its own
        # pool died; one with zero healthy workers is exactly the
        # single-machine daemon and reports whatever the pool says.
        if self.cluster is not None and self.cluster.ready_workers() > 0:
            workers_ok = True
        health = {
            "live": True,
            "ready": bool(not draining and workers_ok),
            "draining": draining,
            "runner": pool,
            "queue_depth": scheduler.get("queue_depth", 0),
            "in_flight": scheduler.get("in_flight", 0),
            "retries": scheduler.get("retries", 0),
            "quarantined": scheduler.get("quarantined", 0),
            "stores": obs.store_counters(),
        }
        if self.cluster is not None:
            health["cluster"] = self.cluster.snapshot()
        faults_snapshot = faults.snapshot()
        if faults_snapshot:
            health["faults"] = faults_snapshot
        return health

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(f"client-{next(self._client_ids)}", writer)
        self._connections.add(connection)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        writer_task = asyncio.ensure_future(self._write_loop(connection))
        try:
            await self._read_loop(reader, connection)
        finally:
            self._connections.discard(connection)
            if self.cluster is not None:
                # A worker's socket dying is the fastest failure
                # signal there is: revoke its leases immediately
                # rather than waiting out the heartbeat deadline.
                self.cluster.on_disconnect(connection)
            if self.scheduler is not None:
                self.scheduler.forget_client(connection.client_id)
            connection.close()
            await writer_task
            if task is not None:
                self._handler_tasks.discard(task)

    async def _write_loop(self, connection: _Connection) -> None:
        writer = connection.writer
        try:
            while True:
                frame = await connection.outbox.get()
                if frame is None:
                    break
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                if exc.partial.strip():
                    # A final frame without its newline: honor it.
                    self._handle_frame(connection, exc.partial)
                return
            except asyncio.LimitOverrunError:
                # Unrecoverable: the frame boundary is unknowable
                # without buffering the oversized line.  Error + close.
                connection.send(
                    protocol.error_frame(
                        "oversized-frame",
                        f"frame exceeds {self.config.max_frame_bytes} bytes",
                    )
                )
                return
            except (ConnectionError, OSError):
                return
            if not line.strip():
                continue
            self._handle_frame(connection, line)

    def _handle_frame(self, connection: _Connection, line: bytes) -> None:
        try:
            request = protocol.parse_request(protocol.decode_frame(line))
        except protocol.ProtocolError as exc:
            # Recoverable: the newline resynchronizes the stream.
            connection.send(protocol.error_frame(exc.code, exc.detail))
            return
        if request.op == "ping":
            connection.send(protocol.pong_frame(request.request_id))
        elif request.op == "stats":
            connection.send(
                protocol.stats_frame(
                    request.request_id, self.server_stats(), obs.snapshot()
                )
            )
        elif request.op == "health":
            connection.send(
                protocol.health_frame(request.request_id, self.health())
            )
        elif request.op in protocol.CLUSTER_OPS:
            self._handle_cluster(connection, request)
        else:
            self._handle_submit(connection, request)

    def _handle_cluster(
        self, connection: _Connection, request: protocol.Request
    ) -> None:
        if self.cluster is None:
            connection.send(
                protocol.error_frame(
                    "bad-request",
                    "cluster mode disabled (start with --cluster)",
                    request_id=request.request_id,
                )
            )
            return
        frame = request.frame or {}
        if request.op == "register":
            self.cluster.handle_register(connection, frame)
        elif request.op == "heartbeat":
            self.cluster.handle_heartbeat(connection, frame)
        elif request.op == "done":
            self.cluster.handle_done(connection, frame)
        elif request.op == "cache_get":
            self.cluster.handle_cache_get(connection, frame)
        elif request.op == "cache_put":
            self.cluster.handle_cache_put(connection, frame)

    def _handle_submit(
        self, connection: _Connection, request: protocol.Request
    ) -> None:
        spec = dict(request.job_spec)
        if not spec.get("job_id"):
            spec["job_id"] = f"job-{next(self._job_ids):05d}"
        try:
            job = job_from_spec(spec)
        except Exception as exc:
            connection.send(
                protocol.error_frame(
                    "bad-request",
                    f"{type(exc).__name__}: {exc}",
                    request_id=request.request_id,
                )
            )
            return
        request_id = request.request_id

        def deliver(result: JobResult, coalesced: bool) -> None:
            connection.send(
                protocol.result_frame(
                    request_id, result.to_spec(), coalesced
                )
            )

        try:
            coalesced = self.scheduler.submit(
                connection.client_id, job, deliver
            )
        except Overloaded as exc:
            connection.send(
                protocol.rejected_frame(
                    request_id,
                    job.job_id,
                    exc.reason,
                    queue_depth=self.scheduler.queue_depth,
                    max_queue=self.scheduler.max_queue,
                    retry_after=self.scheduler.retry_after_hint(),
                )
            )
            return
        connection.send(
            protocol.queued_frame(request_id, job.job_id, coalesced)
        )
