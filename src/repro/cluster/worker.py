"""The cluster worker node: ``python -m repro worker --join ADDR``.

One node is one process that dials the coordinator, registers with its
capacity, and then serves ``assign`` frames by running the job specs on
its own local :class:`~repro.service.runner.BatchRunner` — inline
executor threads by default (``workers=0`` with ``inline_concurrency ==
capacity``), or a process pool with ``--workers N``.  Results go back
as ``done`` frames echoing the epoch-tagged lease; the coordinator owns
retries, timeouts, and exactly-once delivery, so the node stays dumb on
purpose: run what you are leased, report what happened, heartbeat.

Liveness is a heartbeat thread shipping the local runner's
``pool_health()`` plus a load sample every ``heartbeat_s`` (assigned by
the coordinator at registration).  A lost connection triggers rejoin
with bounded exponential backoff under a **fresh epoch** — any work the
old incarnation still finishes is dropped coordinator-side as a late
done, which is what makes node restarts safe mid-corpus.

Three chaos sites live here (see :mod:`repro.faults.plan`):

- ``node:kill`` fires on assignment receipt — ``kill`` SIGKILLs the
  whole node process, the cluster twin of the pool-worker death fault;
- ``cluster:heartbeat`` fires per heartbeat tick — ``drop`` skips the
  send so the coordinator's missed-heartbeat detector trips;
- ``cluster:partition`` is consulted per heartbeat tick — a fired rule
  silences the node entirely (no sends, inbound frames dropped) for
  ``delay_s``, simulating a network partition: the coordinator revokes
  and re-dispatches, and the healed node finds its socket closed and
  rejoins under a new epoch.
"""

from __future__ import annotations

import base64
import itertools
import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro import faults, obs
from repro.faults.plan import FaultInjected
from repro.serve import protocol
from repro.service.jobs import JobResult, job_from_spec
from repro.service.runner import BatchRunner


def parse_join_address(addr: str) -> Tuple:
    """``unix:PATH`` / ``PATH`` / ``HOST:PORT`` / ``:PORT`` → address.

    Anything that does not look like ``host:port`` is a unix socket
    path, matching how the serve daemon binds.
    """
    if addr.startswith("unix:"):
        return ("unix", addr[len("unix:"):])
    if addr.startswith("tcp:"):
        addr = addr[len("tcp:"):]
    host, sep, port = addr.rpartition(":")
    if sep and port.isdigit():
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", addr)


@dataclass
class WorkerConfig:
    """Node knobs (wired from ``python -m repro worker`` flags)."""

    join: str = ""  # coordinator address (parse_join_address forms)
    capacity: int = 1  # concurrent leases this node accepts
    worker_id: Optional[str] = None  # default: coordinator-assigned
    #: Read worker caches through the coordinator's stores when it
    #: offers them (inline runner only — pool workers are separate
    #: processes and keep their configured local stores).
    remote_cache: bool = True
    #: Consecutive failed (re)connects before giving up; ``None``
    #: retries forever (the daemon default — a node should outwait
    #: a coordinator restart).
    reconnect_attempts: Optional[int] = None
    reconnect_backoff_s: float = 0.5
    reconnect_backoff_max_s: float = 10.0
    connect_timeout_s: float = 10.0
    #: Bound on one remote cache round trip; a slow coordinator is a
    #: cache miss, never a stall.
    cache_timeout_s: float = 5.0


class _PendingValue:
    """One in-flight ``cache_get`` awaiting its ``cache_value``."""

    __slots__ = ("event", "blob")

    def __init__(self):
        self.event = threading.Event()
        self.blob: Optional[bytes] = None


class WorkerNode:
    """One node of the fleet: a runner behind a coordinator socket."""

    def __init__(self, runner: BatchRunner, config: WorkerConfig):
        self.runner = runner
        self.config = config
        self.worker_id: Optional[str] = config.worker_id
        self.epoch = 0
        self.quarantined: Set[str] = set()
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self._partition_until = 0.0
        self._heartbeat_s = 2.0
        self._caches: dict = {}
        self._cache_ids = itertools.count(1)
        self._pending: Dict[str, _PendingValue] = {}
        self._pending_lock = threading.Lock()
        # -- lifetime counters (snapshot()) --------------------------------
        self.registrations = 0
        self.jobs_done = 0
        self.assigns_refused = 0
        self.done_send_failures = 0
        self.frames_dropped_partitioned = 0
        self.heartbeats_sent = 0
        self.heartbeats_dropped = 0
        self.connected = threading.Event()

    # -- public surface --------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return self._in_flight

    def run(self) -> None:
        """Serve until :meth:`stop`: connect, register, run leases.

        Blocking; reconnects with backoff on connection loss.  Returns
        once stopped (or once ``reconnect_attempts`` consecutive dials
        failed), after closing the local runner gracefully.
        """
        failures = 0
        try:
            while not self._stop.is_set():
                try:
                    self._connect()
                    self._register()
                except (OSError, ConnectionError, protocol.ProtocolError):
                    self._close_socket()
                    failures += 1
                    attempts = self.config.reconnect_attempts
                    if attempts is not None and failures >= attempts:
                        return
                    backoff = min(
                        self.config.reconnect_backoff_s
                        * 2 ** min(failures - 1, 6),
                        self.config.reconnect_backoff_max_s,
                    )
                    if self._stop.wait(backoff):
                        return
                    continue
                failures = 0
                heartbeat_stop = threading.Event()
                heartbeat = threading.Thread(
                    target=self._heartbeat_loop,
                    args=(heartbeat_stop,),
                    name="repro-worker-heartbeat",
                    daemon=True,
                )
                heartbeat.start()
                try:
                    self._read_frames()
                finally:
                    self.connected.clear()
                    heartbeat_stop.set()
                    self._fail_pending()
                    self._close_socket()
                    heartbeat.join(timeout=self._heartbeat_s + 1.0)
        finally:
            self.runner.close(graceful=True)

    def stop(self) -> None:
        """Non-blocking and signal-safe: unblocks :meth:`run`.

        Only *shuts down* the socket here — closing the buffered
        reader from a signal handler would re-enter the ``readline``
        the read loop is blocked in (``RuntimeError: reentrant call``).
        The run loop's own teardown does the full close.
        """
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def snapshot(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "epoch": self.epoch,
            "connected": self.connected.is_set(),
            "in_flight": self.in_flight,
            "jobs_done": self.jobs_done,
            "registrations": self.registrations,
            "quarantined": len(self.quarantined),
            "assigns_refused": self.assigns_refused,
            "done_send_failures": self.done_send_failures,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_dropped": self.heartbeats_dropped,
            "frames_dropped_partitioned": self.frames_dropped_partitioned,
        }

    # -- connection lifecycle --------------------------------------------------

    def _connect(self) -> None:
        parsed = parse_join_address(self.config.join)
        if parsed[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.config.connect_timeout_s)
            sock.connect(parsed[1])
        else:
            sock = socket.create_connection(
                (parsed[1], parsed[2]),
                timeout=self.config.connect_timeout_s,
            )
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _register(self) -> None:
        self._send_frame(
            protocol.register_frame(
                "register",
                {
                    "worker_id": self.worker_id,
                    "capacity": self.config.capacity,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                },
            )
        )
        deadline = time.monotonic() + self.config.connect_timeout_s
        while True:
            if time.monotonic() > deadline:
                raise protocol.ProtocolError(
                    "bad-request", "no 'registered' reply from coordinator"
                )
            frame = self._read_frame()
            if frame is None:
                raise ConnectionError("coordinator closed during register")
            op = frame.get("op")
            if op == "registered":
                break
            if op == "error":
                raise protocol.ProtocolError(
                    frame.get("error", "error"), frame.get("detail", "")
                )
        self.worker_id = frame.get("worker_id") or self.worker_id
        self.epoch = int(frame.get("epoch", 0))
        self._heartbeat_s = float(frame.get("heartbeat_s", 2.0))
        self._caches = frame.get("caches") or {}
        self.quarantined.update(frame.get("quarantined") or ())
        self.registrations += 1
        self._sock.settimeout(None)
        self._ensure_runner()
        self.connected.set()
        obs.event(
            "cluster:joined", worker=self.worker_id, epoch=self.epoch
        )

    def _ensure_runner(self) -> None:
        if self.runner.started:
            return
        if (
            self.config.remote_cache
            and self.runner.config.workers == 0
        ):
            # Read-through the fleet's shared answers.  Inline runner
            # only: the store adapters hold this node's socket channel,
            # which cannot cross into pool worker processes — those
            # keep whatever local store paths they were configured with.
            from repro.automata.cache import DFA_CODEC
            from repro.cluster.remotestore import RemoteStore
            from repro.solver.backends.cached import QUERY_CODEC

            if self._caches.get("query") and not self.runner.config.query_cache:
                self.runner.config.query_cache = RemoteStore(
                    self, QUERY_CODEC
                )
            if (
                self._caches.get("dfa")
                and not self.runner.config.automata_cache
            ):
                self.runner.config.automata_cache = RemoteStore(
                    self, DFA_CODEC
                )
        self.runner.start()

    def _close_socket(self) -> None:
        sock, self._sock = self._sock, None
        reader, self._reader = self._reader, None
        for handle in (reader, sock):
            if handle is None:
                continue
            try:
                handle.close()
            except OSError:
                pass

    # -- frame transport -------------------------------------------------------

    def _send_frame(self, frame: dict) -> None:
        sock = self._sock
        if sock is None:
            raise ConnectionError("not connected")
        data = protocol.encode_frame(frame)
        with self._send_lock:
            sock.sendall(data)

    def _read_frame(self) -> Optional[dict]:
        reader = self._reader
        if reader is None:
            return None
        try:
            line = reader.readline(protocol.MAX_FRAME_BYTES + 2)
        except (OSError, ValueError):
            return None
        if not line:
            return None
        try:
            return protocol.decode_frame(line)
        except protocol.ProtocolError:
            return {}

    def _read_frames(self) -> None:
        while not self._stop.is_set():
            frame = self._read_frame()
            if frame is None:
                return
            if not frame:
                continue
            if self._partitioned():
                # A partitioned node neither hears nor speaks: inbound
                # assigns/acks are lost exactly like the heartbeats.
                self.frames_dropped_partitioned += 1
                continue
            op = frame.get("op")
            if op == "assign":
                self._handle_assign(frame)
            elif op == "cache_value":
                self._handle_cache_value(frame)
            elif op == "quarantine":
                self.quarantined.update(frame.get("keys") or ())
            # heartbeat_ack / error frames carry no state to apply

    # -- partition simulation --------------------------------------------------

    def _partitioned(self) -> bool:
        return time.monotonic() < self._partition_until

    # -- heartbeats ------------------------------------------------------------

    def _heartbeat_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self._heartbeat_s):
            rule = faults.fire("cluster:partition", worker=self.worker_id)
            if rule is not None:
                self._partition_until = time.monotonic() + (
                    rule.delay_s or 30.0
                )
                obs.event(
                    "cluster:partitioned",
                    worker=self.worker_id,
                    seconds=rule.delay_s or 30.0,
                )
            if self._partitioned():
                self.heartbeats_dropped += 1
                continue
            rule = faults.fire("cluster:heartbeat", worker=self.worker_id)
            if rule is not None:
                if rule.action in ("drop", "wedge"):
                    self.heartbeats_dropped += 1
                    continue
                if rule.action == "delay":
                    time.sleep(rule.delay_s or 0.5)
            try:
                self._send_frame(
                    protocol.heartbeat_frame(
                        self.worker_id,
                        self.epoch,
                        ready=True,
                        load={
                            "in_flight": self.in_flight,
                            "capacity": self.config.capacity,
                        },
                        health=self.runner.pool_health()
                        if self.runner.started
                        else {},
                    )
                )
                self.heartbeats_sent += 1
            except (OSError, ConnectionError):
                return  # the read loop is tearing this connection down

    # -- assignments -----------------------------------------------------------

    def _handle_assign(self, frame: dict) -> None:
        lease = frame.get("lease") or {}
        spec = dict(frame.get("job") or {})
        job_id = str(spec.get("job_id", ""))
        try:
            # Chaos: the node-death site.  ``kill`` never returns.
            faults.crash_point(
                "node:kill", job_id=job_id, worker=self.worker_id
            )
        except FaultInjected as exc:
            self._send_done(
                lease,
                JobResult(
                    job_id=job_id,
                    kind=str(spec.get("kind", "")),
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                ).to_spec(),
            )
            return
        try:
            job = job_from_spec(spec)
        except Exception as exc:
            self._send_done(
                lease,
                JobResult(
                    job_id=job_id,
                    kind=str(spec.get("kind", "")),
                    status="error",
                    error=f"{type(exc).__name__}: {exc}",
                ).to_spec(),
            )
            return
        key = None
        try:
            key = job.dedup_key()
        except Exception:
            pass
        if key is not None and key in self.quarantined:
            # Fleet-wide quarantine, applied defensively node-side: a
            # poison job must not get a fresh chance to kill this node
            # just because a coordinator restart forgot it.
            self.assigns_refused += 1
            self._send_done(
                lease,
                JobResult(
                    job_id=job.job_id,
                    kind=job.KIND,
                    status="quarantined",
                    error="refused by fleet-wide quarantine",
                ).to_spec(),
            )
            return
        with self._state_lock:
            self._in_flight += 1

        def on_done(result: JobResult) -> None:
            with self._state_lock:
                self._in_flight -= 1
            self.jobs_done += 1
            self._send_done(lease, result.to_spec())

        self.runner.submit(job, on_done)

    def _send_done(self, lease: dict, result_spec: dict) -> None:
        if self._partitioned():
            self.frames_dropped_partitioned += 1
            return
        try:
            self._send_frame(protocol.done_frame(lease, result_spec))
        except (OSError, ConnectionError):
            # Connection died under us: the coordinator's revocation
            # already re-dispatched this lease, the result is moot.
            self.done_send_failures += 1

    # -- remote cache channel (the store adapters' transport) ------------------

    def cache_get(self, store: str, key: str) -> Optional[bytes]:
        """One blocking read-through round trip; ``None`` is a miss."""
        if not self.connected.is_set() or self._partitioned():
            return None
        request_id = f"cache-{next(self._cache_ids)}"
        slot = _PendingValue()
        with self._pending_lock:
            self._pending[request_id] = slot
        try:
            self._send_frame(
                protocol.cache_get_frame(request_id, store, key)
            )
            if not slot.event.wait(self.config.cache_timeout_s):
                return None
            return slot.blob
        except (OSError, ConnectionError):
            return None
        finally:
            with self._pending_lock:
                self._pending.pop(request_id, None)

    def cache_put(self, store: str, key: str, blob: bytes) -> None:
        """Fire-and-forget write-through."""
        if not self.connected.is_set() or self._partitioned():
            return
        self._send_frame(
            protocol.cache_put_frame(
                store, key, base64.b64encode(blob).decode("ascii")
            )
        )

    def _handle_cache_value(self, frame: dict) -> None:
        with self._pending_lock:
            slot = self._pending.get(frame.get("id"))
        if slot is None:
            return
        if frame.get("found") and frame.get("blob"):
            try:
                slot.blob = base64.b64decode(frame["blob"])
            except Exception:
                slot.blob = None
        slot.event.set()

    def _fail_pending(self) -> None:
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.event.set()  # blob stays None: a miss, not an error
