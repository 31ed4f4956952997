"""Coordinator-side fleet state: registry, leases, failure detection.

Everything here runs on the serve daemon's event loop thread — frame
handlers are called from the connection read loops, the heartbeat
monitor is a ``loop.call_later`` chain, and the scheduler's dispatch
seam calls in from the same loop — so, like the scheduler, the data
structures need no locks.

The unit of remote work is an **epoch-tagged lease**: dispatching a
job to a worker records ``(token, epoch, worker, callback)`` in the
lease table, and the worker echoes the lease in its ``done`` frame.
The epoch is a fleet-wide counter bumped on every registration and
every declared death; a ``done`` whose token is gone from the table
(revoked by a death, a timeout, or a partition) or whose epoch does
not match is dropped and counted — the coordinator-level twin of the
runner's attempt-tagged exactly-once slot healing, so a re-dispatched
job can never deliver twice.

Failure detection is missed heartbeats: a node that goes
``heartbeat_miss`` intervals without a heartbeat (or whose socket
closes) is declared dead, its leases are revoked, and each revoked
lease synthesizes a :func:`~repro.faults.retry.lease_lost_result` —
a ``WorkerCrashed``-prefixed result that the scheduler's existing
:class:`~repro.faults.retry.RetryPolicy` classifies as a crash and
re-dispatches (to another node, or locally in degraded mode).
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro import obs
from repro.automata.cache import DFA_CODEC
from repro.diskstore import DiskStore
from repro.faults.retry import lease_lost_result
from repro.obs import metrics as _metrics
from repro.serve import protocol
from repro.service.jobs import JobResult, _JobBase
from repro.solver.backends.cached import QUERY_CODEC

#: Store name on the wire → (the ``ClusterConfig`` path field, codec).
_STORES = {
    "query": ("query_cache", QUERY_CODEC),
    "dfa": ("automata_cache", DFA_CODEC),
}


@dataclass
class ClusterConfig:
    """Coordinator knobs (wired from ``serve --cluster`` flags)."""

    #: Interval workers are told to heartbeat at, seconds.
    heartbeat_s: float = 2.0
    #: Consecutive missed intervals before a node is declared dead.
    heartbeat_miss: int = 3
    #: The coordinator's persistent stores served to workers over
    #: ``cache_get``/``cache_put`` (``None`` disables that store).
    query_cache: Optional[str] = None
    automata_cache: Optional[str] = None


class _Lease:
    """One remote dispatch: who runs it and how to deliver its result."""

    __slots__ = ("token", "epoch", "worker_id", "job_id", "kind", "on_result")

    def __init__(self, token, epoch, worker_id, job_id, kind, on_result):
        self.token = token
        self.epoch = epoch
        self.worker_id = worker_id
        self.job_id = job_id
        self.kind = kind
        self.on_result = on_result


class _WorkerHandle:
    """One registered node: its connection, capacity, and liveness."""

    __slots__ = (
        "worker_id", "connection", "capacity", "epoch", "last_seen",
        "ready", "load", "leases", "jobs_done", "pid", "host",
    )

    def __init__(self, worker_id, connection, capacity, epoch, now,
                 pid=None, host=None):
        self.worker_id = worker_id
        self.connection = connection
        self.capacity = max(1, int(capacity))
        self.epoch = epoch
        self.last_seen = now
        self.ready = True
        self.load: dict = {}
        self.leases: Set[str] = set()
        self.jobs_done = 0
        self.pid = pid
        self.host = host

    @property
    def slots_free(self) -> int:
        return self.capacity - len(self.leases)


class ClusterCoordinator:
    """The daemon's fleet: registry, lease table, and cache service."""

    def __init__(self, loop, config: Optional[ClusterConfig] = None):
        self.loop = loop
        self.config = config or ClusterConfig()
        self._workers: Dict[str, _WorkerHandle] = {}
        self._by_connection: Dict[object, _WorkerHandle] = {}
        self._leases: Dict[str, _Lease] = {}
        #: Fleet-wide epoch: bumped per registration and per death, so
        #: every lease can name the fleet generation it was granted in.
        self.epoch = 0
        self._worker_ids = itertools.count(1)
        self._lease_tokens = itertools.count(1)
        self._monitor: Optional[object] = None  # TimerHandle
        self._closed = False
        #: Dedup keys quarantined anywhere in the fleet; consulted on
        #: admission and shipped to every (re)registering worker.
        self.quarantined_keys: Set[str] = set()
        # -- lifetime counters (health/stats surfaces) ---------------------
        self.registrations = 0
        self.deaths = 0
        self.leases_granted = 0
        self.leases_revoked = 0
        self.late_done_drops = 0
        self.remote_results = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self.cache_puts = 0
        self.cache_put_failures = 0
        # Store handles are opened lazily: the daemon's own runner may
        # share the same directories and the handles are cheap.
        self._stores: Dict[str, DiskStore] = {}

    # -- stores ----------------------------------------------------------------

    def _stores_offered(self) -> dict:
        return {
            name: bool(getattr(self.config, attr))
            for name, (attr, _) in _STORES.items()
        }

    def _store(self, name: str) -> Optional[DiskStore]:
        """The coordinator's store of one kind; ``None`` when it is not
        offered (an unusable directory stops being offered)."""
        store = self._stores.get(name)
        if store is None and name in _STORES:
            attr, codec = _STORES[name]
            path = getattr(self.config, attr)
            if path:
                try:
                    store = self._stores[name] = DiskStore(path, codec)
                except OSError:
                    setattr(self.config, attr, None)
        return store

    # -- registration and liveness ---------------------------------------------

    def handle_register(self, connection, frame: dict) -> None:
        spec = frame.get("worker") or {}
        worker_id = str(
            spec.get("worker_id") or f"worker-{next(self._worker_ids)}"
        )
        stale = self._workers.get(worker_id)
        if stale is not None:
            # A rejoin after a partition the monitor has not caught yet:
            # the old incarnation's leases are unrecoverable (its done
            # frames would carry a dead epoch anyway) — revoke them now.
            self._declare_dead(stale, "superseded by re-registration")
        self.epoch += 1
        handle = _WorkerHandle(
            worker_id,
            connection,
            spec.get("capacity", 1),
            self.epoch,
            self.loop.time(),
            pid=spec.get("pid"),
            host=spec.get("host"),
        )
        self._workers[worker_id] = handle
        self._by_connection[connection] = handle
        self.registrations += 1
        _metrics.count("cluster_workers_total", event="registered")
        obs.event("cluster:register", worker=worker_id, epoch=self.epoch)
        connection.send(
            protocol.registered_frame(
                frame.get("id"),
                worker_id,
                handle.epoch,
                self.config.heartbeat_s,
                self.config.heartbeat_miss,
                self._stores_offered(),
                sorted(self.quarantined_keys),
            )
        )
        self._ensure_monitor()

    def handle_heartbeat(self, connection, frame: dict) -> None:
        handle = self._by_connection.get(connection)
        if handle is None or handle.worker_id != frame.get("worker_id"):
            # A heartbeat from a node we already declared dead (its
            # socket is on the way out) — nothing to refresh.
            return
        handle.last_seen = self.loop.time()
        handle.ready = bool(frame.get("ready", True))
        load = frame.get("load")
        if isinstance(load, dict):
            handle.load = load
        connection.send(protocol.heartbeat_ack_frame(handle.epoch))

    def on_disconnect(self, connection) -> None:
        """A worker's socket closed: immediate death, no grace period."""
        handle = self._by_connection.get(connection)
        if handle is not None:
            self._declare_dead(handle, "connection closed")

    def _ensure_monitor(self) -> None:
        if self._monitor is None and not self._closed:
            self._monitor = self.loop.call_later(
                self.config.heartbeat_s, self._tick
            )

    def _tick(self) -> None:
        self._monitor = None
        if self._closed:
            return
        deadline = self.config.heartbeat_s * max(1, self.config.heartbeat_miss)
        now = self.loop.time()
        for handle in list(self._workers.values()):
            if now - handle.last_seen > deadline:
                self._declare_dead(
                    handle,
                    f"missed {self.config.heartbeat_miss} heartbeats",
                )
        if self._workers:
            self._ensure_monitor()

    def _declare_dead(self, handle: _WorkerHandle, reason: str) -> None:
        self._workers.pop(handle.worker_id, None)
        if self._by_connection.get(handle.connection) is handle:
            self._by_connection.pop(handle.connection, None)
        self.epoch += 1
        self.deaths += 1
        _metrics.count("cluster_workers_total", event="dead")
        obs.event(
            "cluster:worker_dead", worker=handle.worker_id, reason=reason
        )
        # Close the socket so a merely-partitioned node learns it was
        # declared dead the moment connectivity returns, and rejoins
        # under a fresh epoch instead of talking to a revoked lease.
        try:
            handle.connection.close()
        except Exception:
            pass
        for token in sorted(handle.leases):
            lease = self._leases.pop(token, None)
            if lease is None:
                continue
            self.leases_revoked += 1
            _metrics.count("cluster_leases_total", event="revoked")
            result = lease_lost_result(
                lease.job_id, lease.kind, handle.worker_id, reason
            )
            try:
                lease.on_result(result)
            except Exception:
                pass
        handle.leases.clear()

    # -- dispatch (the scheduler's seam) ---------------------------------------

    def ready_workers(self) -> int:
        return sum(1 for w in self._workers.values() if w.ready)

    def capacity(self) -> int:
        """Total assignable slots across ready workers."""
        return sum(
            w.capacity for w in self._workers.values() if w.ready
        )

    def has_capacity(self) -> bool:
        return any(
            w.ready and w.slots_free > 0 for w in self._workers.values()
        )

    def is_quarantined(self, key: Optional[str]) -> bool:
        return key is not None and key in self.quarantined_keys

    def try_dispatch(
        self,
        job: _JobBase,
        on_result: Callable[[JobResult], None],
    ) -> Optional[str]:
        """Lease ``job`` to the freest ready worker; ``None`` when the
        fleet has no slot (the scheduler then dispatches locally —
        degraded mode is this fall-through, not a separate path)."""
        best: Optional[_WorkerHandle] = None
        for handle in self._workers.values():
            if not handle.ready or handle.slots_free <= 0:
                continue
            if best is None or handle.slots_free > best.slots_free:
                best = handle
        if best is None:
            return None
        token = f"lease-{next(self._lease_tokens)}"
        lease = _Lease(
            token, best.epoch, best.worker_id, job.job_id, job.KIND,
            on_result,
        )
        self._leases[token] = lease
        best.leases.add(token)
        self.leases_granted += 1
        _metrics.count("cluster_leases_total", event="granted")
        best.connection.send(
            protocol.assign_frame(
                {
                    "token": token,
                    "epoch": lease.epoch,
                    "worker_id": best.worker_id,
                },
                job.to_spec(),
            )
        )
        return token

    def revoke(self, token: str, reason: str = "revoked") -> bool:
        """Drop a lease without delivering (scheduler timeout path): a
        late ``done`` for it will be counted and discarded."""
        lease = self._leases.pop(token, None)
        if lease is None:
            return False
        handle = self._workers.get(lease.worker_id)
        if handle is not None:
            handle.leases.discard(token)
        self.leases_revoked += 1
        _metrics.count("cluster_leases_total", event="revoked")
        obs.event("cluster:lease_revoked", token=token, reason=reason)
        return True

    def handle_done(self, connection, frame: dict) -> None:
        lease_spec = frame.get("lease") or {}
        token = lease_spec.get("token")
        lease = self._leases.get(token)
        if lease is None or lease.epoch != lease_spec.get("epoch"):
            # The exactly-once drop: this lease was revoked (node
            # declared dead, job timed out, fleet re-epoched) and its
            # work was re-dispatched — the late result must not race
            # the new attempt's delivery.
            self.late_done_drops += 1
            _metrics.count("cluster_leases_total", event="late_drop")
            return
        del self._leases[token]
        handle = self._workers.get(lease.worker_id)
        if handle is not None:
            handle.leases.discard(token)
            handle.jobs_done += 1
            handle.last_seen = self.loop.time()
        try:
            result = JobResult.from_spec(frame.get("result") or {})
        except Exception:
            result = lease_lost_result(
                lease.job_id, lease.kind, lease.worker_id,
                "undecodable done frame",
            )
        self.remote_results += 1
        _metrics.count("cluster_leases_total", event="completed")
        try:
            lease.on_result(result)
        except Exception:
            pass

    # -- fleet-wide quarantine -------------------------------------------------

    def broadcast_quarantine(self, key: Optional[str]) -> None:
        """Record a poison job's dedup key and tell every node."""
        if key is None or key in self.quarantined_keys:
            return
        self.quarantined_keys.add(key)
        _metrics.count("cluster_quarantine_broadcasts_total")
        frame = protocol.quarantine_frame([key])
        for handle in self._workers.values():
            handle.connection.send(frame)

    # -- cache service ---------------------------------------------------------

    def handle_cache_get(self, connection, frame: dict) -> None:
        self.cache_gets += 1
        key = frame["key"]
        store = self._store(frame["store"])
        value = store.get(key) if store is not None else None
        blob = None if value is None else store.codec.dumps(key, value)
        if blob is not None:
            self.cache_hits += 1
        _metrics.count(
            "cluster_cache_total",
            op="get",
            outcome="hit" if blob is not None else "miss",
        )
        connection.send(
            protocol.cache_value_frame(
                frame.get("id"),
                blob is not None,
                None
                if blob is None
                else base64.b64encode(blob).decode("ascii"),
            )
        )

    def handle_cache_put(self, connection, frame: dict) -> None:
        self.cache_puts += 1
        try:
            key = frame["key"]
            store = self._store(frame["store"])
            if store is not None:
                # Validate before writing: a put that does not decode
                # under the codec never reaches the disk.
                blob = base64.b64decode(frame.get("blob") or "")
                store.put(key, store.codec.loads(key, blob))
            _metrics.count("cluster_cache_total", op="put", outcome="ok")
        except Exception:
            # The store is a cache: a malformed put is dropped, counted,
            # and never an error back onto the worker's hot path.
            self.cache_put_failures += 1
            _metrics.count(
                "cluster_cache_total", op="put", outcome="failure"
            )

    # -- lifecycle / reporting -------------------------------------------------

    def close(self) -> None:
        self._closed = True
        if self._monitor is not None:
            self._monitor.cancel()
            self._monitor = None

    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "workers": len(self._workers),
            "workers_ready": self.ready_workers(),
            "capacity": self.capacity(),
            "leases_inflight": len(self._leases),
            "registrations": self.registrations,
            "deaths": self.deaths,
            "leases_granted": self.leases_granted,
            "leases_revoked": self.leases_revoked,
            "late_done_drops": self.late_done_drops,
            "remote_results": self.remote_results,
            "quarantined_keys": len(self.quarantined_keys),
            "cache_gets": self.cache_gets,
            "cache_hits": self.cache_hits,
            "cache_puts": self.cache_puts,
            "cache_put_failures": self.cache_put_failures,
        }

    def snapshot(self) -> dict:
        """The ``health`` op's cluster section: stats plus per-node rows."""
        now = self.loop.time()
        nodes = {
            worker_id: {
                "ready": handle.ready,
                "capacity": handle.capacity,
                "leases": len(handle.leases),
                "jobs_done": handle.jobs_done,
                "last_seen_s": round(now - handle.last_seen, 3),
                "epoch": handle.epoch,
                "load": handle.load,
            }
            for worker_id, handle in sorted(self._workers.items())
        }
        out = self.stats()
        out["nodes"] = nodes
        out["stores"] = self._stores_offered()
        return out
