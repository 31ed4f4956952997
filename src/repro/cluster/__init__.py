"""Cross-node worker fleet: lease-based sharding over the serve protocol.

The serve daemon gains a **coordinator** mode (``python -m repro serve
--cluster``) and a matching **worker node** daemon (``python -m repro
worker --join ADDR``), both speaking the existing newline-delimited
JSON frame protocol on the same listener — a worker is just a client
that opens with ``register`` instead of ``submit``.

- :mod:`repro.cluster.coordinator` — the daemon-side fleet state:
  worker registry, epoch-tagged lease table, missed-heartbeat failure
  detection, lease revocation feeding the scheduler's existing
  :class:`~repro.faults.retry.RetryPolicy` re-dispatch, fleet-wide
  poison-job quarantine, and the ``cache_get``/``cache_put`` service
  over the coordinator's persistent query/automata stores.
- :mod:`repro.cluster.worker` — the node daemon: registers, heartbeats
  with the local runner's ``pool_health()`` payload, executes assigned
  jobs on its own :class:`~repro.service.runner.BatchRunner`, and
  reconnects with backoff after partitions.  Hosts the ``node:kill``,
  ``cluster:heartbeat``, and ``cluster:partition`` fault sites.
- :mod:`repro.cluster.remotestore` — the read-through
  :class:`~repro.cluster.remotestore.RemoteStore` that makes a worker's
  query/automata caches fall back to the coordinator's disk stores
  (canonical fingerprints are already host-independent keys).

Degraded mode is structural, not a code path: the scheduler prefers a
ready remote worker and otherwise falls through to the untouched local
``BatchRunner`` dispatch, so a coordinator with zero healthy workers
*is* today's single-machine daemon, byte for byte.
"""

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.worker import WorkerConfig, WorkerNode, parse_join_address

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "WorkerConfig",
    "WorkerNode",
    "parse_join_address",
]
