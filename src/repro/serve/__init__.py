"""Long-lived analysis daemon: many clients, one warm worker pool.

``python -m repro serve`` amortizes what every cold ``repro batch``
invocation pays again — interpreter start-up, worker-pool spawn, cache
and automata-store warm-up — across every job any client submits for
the daemon's whole life.  Clients speak
newline-delimited JSON over a unix socket or TCP port
(:mod:`repro.serve.protocol`), results stream back the moment they
land, and duplicated work coalesces across clients through the
scheduler's single-flight table (:mod:`repro.service.scheduler`).

- :mod:`repro.serve.protocol` — wire frames and their validation;
- :mod:`repro.service.scheduler` — admission control, per-client
  fairness, cross-client single-flight (``repro batch`` runs through
  the same scheduler);
- :mod:`repro.serve.server` — the asyncio daemon and its drain;
- :mod:`repro.serve.client` — the blocking client library
  (``python -m repro submit`` is a thin wrapper over it);
- :mod:`repro.serve.cli` — the ``serve`` / ``submit`` command bodies.
"""

from repro.serve.client import Rejected, ServeClient, ServeError
from repro.serve.server import ServeConfig, ServeServer
from repro.service.scheduler import JobScheduler, Overloaded

__all__ = [
    "JobScheduler",
    "Overloaded",
    "Rejected",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeServer",
]
