"""One fingerprint-keyed, versioned disk store for every persisted kind.

Solver answers (``--query-cache``), compiled DFAs (``--automata-cache``)
and disagreement artifacts (``--artifacts``) share :class:`DiskStore`;
each kind only brings a :class:`Codec`, kept next to its value type.
The store owns the rest:

- layout ``<path>/v<codec.version>/<name>.<codec.suffix>``: a 64-hex
  key names its file as is, any other key by its sha256;
- atomic writes: a temp file of its own per write (threads of one
  process included), then ``os.replace``;
- defensive reads: an entry ``codec.loads`` rejects (truncated,
  garbled, version-skewed, foreign key) is evicted and counted in
  ``failures`` and ``corrupt_evictions``, never raised — the store is
  a cache, and a bad directory degrades to recomputing;
- with ``max_entries``, age-based GC down to a low-water mark an eighth
  below the cap, so a put-heavy store scans once per slack's worth of
  puts.  Age, not LRU: touching mtimes on every hit of a store shared
  by concurrent workers would turn reads into writes.

One weak registry of live handles feeds :func:`store_counters`, the
``stores`` section of ``obs.snapshot()`` and the daemon's ``health``.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro import faults
from repro.obs import metrics as _metrics

#: The counters every store handle (disk or remote) keeps.
COUNTER_KEYS = ("loads", "stores", "failures", "evictions", "corrupt_evictions")

#: Every live disk-store handle in this process (weak: a dropped cache
#: must not be pinned by its diagnostics).
_OPEN_STORES: "weakref.WeakSet" = weakref.WeakSet()

#: Temp-file serials: unique per write within this process.
_TMP_SERIALS = itertools.count()


@dataclass(frozen=True)
class Codec:
    """How one kind of value becomes an entry file and back.

    ``loads`` must raise on a magic, version or key mismatch; the store
    turns that into an eviction.
    """

    name: str
    version: int
    suffix: str
    dumps: Callable[[str, Any], bytes]
    loads: Callable[[str, bytes], Any]


class DiskStore:
    """A fingerprint-keyed directory of one codec's entries."""

    def __init__(
        self, path: str, codec: Codec, max_entries: Optional[int] = None
    ):
        self.root = path
        self.codec = codec
        self.path = os.path.join(path, f"v{codec.version}")
        os.makedirs(self.path, exist_ok=True)
        self.max_entries = max_entries
        self.loads = 0
        self.stores = 0
        self.failures = 0
        self.evictions = 0
        #: Entries evicted by the defensive read path, as opposed to GC.
        self.corrupt_evictions = 0
        self._suffix = "." + codec.suffix
        _OPEN_STORES.add(self)
        #: Entry-count estimate driving GC: seeded by a scan only when a
        #: cap makes the count matter, bumped per put.  Concurrent
        #: writers make it approximate; the GC pass recounts exactly.
        self._approx_count = 0 if max_entries is None else len(self)

    def _entry(self, key: str) -> str:
        name = key
        if len(name) != 64 or not all(c in "0123456789abcdef" for c in name):
            name = hashlib.sha256(name.encode("utf-8")).hexdigest()
        return os.path.join(self.path, name + self._suffix)

    def _count(self, op: str) -> None:
        _metrics.count("disk_store_total", store=self.codec.name, op=op)

    def get(self, key: str) -> Optional[Any]:
        entry = self._entry(key)
        # Chaos hook: an installed fault plan may scribble over the
        # entry here, exercising the defensive read path below.
        faults.corrupt_file(
            f"{self.codec.name}_store:get", entry, fingerprint=key
        )
        try:
            with open(entry, "rb") as handle:
                value = self.codec.loads(key, handle.read())
        except FileNotFoundError:
            return None
        except Exception:
            self.failures += 1
            self.corrupt_evictions += 1
            self._count("failure")
            try:
                os.unlink(entry)
            except OSError:
                pass
            return None
        self.loads += 1
        self._count("load")
        return value

    def put(self, key: str, value: Any) -> None:
        data = self.codec.dumps(key, value)
        entry = self._entry(key)
        tmp = f"{entry}.tmp.{os.getpid()}.{next(_TMP_SERIALS)}"
        try:
            with open(tmp, "xb") as handle:
                handle.write(data)
            os.replace(tmp, entry)
        except OSError:
            self.failures += 1
            self._count("failure")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self.stores += 1
        self._count("store")
        self._approx_count += 1
        if (
            self.max_entries is not None
            and self._approx_count > self.max_entries
        ):
            self.gc()

    def gc(self) -> int:
        """Evict oldest-mtime entries past ``max_entries``; return count.

        Down to a low-water mark an eighth below the cap, keeping at
        least one entry.  A concurrently deleted entry or an unreadable
        directory just ends the pass: the store degrades to being larger
        than asked, never to failure.
        """
        if self.max_entries is None:
            return 0
        try:
            aged = sorted(
                (entry.stat().st_mtime, entry.path)
                for entry in os.scandir(self.path)
                if entry.name.endswith(self._suffix)
            )
        except OSError:
            return 0
        self._approx_count = len(aged)
        if len(aged) <= self.max_entries:
            return 0
        low_water = max(1, self.max_entries - max(1, self.max_entries // 8))
        evicted = 0
        for _, path in aged[: len(aged) - low_water]:
            try:
                os.unlink(path)
            except OSError:
                continue
            evicted += 1
        self.evictions += evicted
        self._approx_count -= evicted
        return evicted

    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self.path)
                if name.endswith(self._suffix)
            )
        except OSError:
            return 0

    def counters(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in COUNTER_KEYS}


def attach(
    current, path, codec: Codec, max_entries: Optional[int] = None
):
    """The store handle a cache gets for ``attach_store(path)``.

    ``None`` detaches.  Re-attaching the same path keeps the existing
    handle, so its counters survive across jobs in one process; an
    explicit ``max_entries`` still takes effect on it.  An unusable path
    degrades to memory-only caching (``None``), never to failure.  A
    non-string ``path`` is taken to *be* a store-shaped object and used
    directly: cluster worker nodes pass a
    :class:`~repro.cluster.remotestore.RemoteStore` here.
    """
    if path is None:
        return None
    if not isinstance(path, str):
        return path
    if current is not None and current.root == path:
        if max_entries is not None and current.max_entries != max_entries:
            # A newly applied cap needs a real count: the handle skipped
            # the seeding scan while uncapped.
            current.max_entries = max_entries
            current._approx_count = len(current)
        return current
    try:
        return DiskStore(path, codec, max_entries)
    except OSError:
        return None


def disk_counters(store) -> Dict[str, int]:
    """A cache's disk-tier block: ``disk_<counter>``, zeros without a
    store."""
    return {
        f"disk_{key}": getattr(store, key) if store is not None else 0
        for key in COUNTER_KEYS
    }


def store_counters() -> Dict[str, Dict[str, int]]:
    """Totals per kind over every live store handle in this process.

    ``corrupt_evictions`` is the operator's signal that entries are
    being scribbled on (bad disk, version skew, a chaos plan).  The
    ``query`` and ``dfa`` sections are always present.
    """
    totals: Dict[str, Dict[str, int]] = {}

    def section(name: str) -> Dict[str, int]:
        return totals.setdefault(
            name, dict.fromkeys(("open_stores",) + COUNTER_KEYS, 0)
        )

    section("query")
    section("dfa")
    for store in list(_OPEN_STORES):
        block = section(store.codec.name)
        block["open_stores"] += 1
        for key in COUNTER_KEYS:
            block[key] += getattr(store, key)
    return totals
