"""Read-through store over the coordinator's cache service.

A worker node's query cache and automata interner normally fall back
to a :class:`~repro.diskstore.DiskStore`.  :class:`RemoteStore` has the
same duck interface — ``get``/``put``/counters/``root`` — but is backed
by ``cache_get``/``cache_put`` frames to the coordinator, so a fresh
node warms itself from the fleet's shared answers instead of re-solving
and re-compiling what any other node already paid for.  Canonical
fingerprints are host-independent, which is what makes the keys
meaningful across machines.

The wire blob is the codec's entry bytes, and the store name on the
wire is the codec's name.  Everything is best-effort, exactly like the
disk store: a timed-out or failed round trip is a miss (counted in
``failures``), an undecodable blob is evicted-as-miss (counted in
``corrupt_evictions``), and puts are fire-and-forget — the network is a
cache tier, never a failure source.

The channel (``cache_get(store, key)`` / ``cache_put(store, key,
blob)``) is the :class:`~repro.cluster.worker.WorkerNode`'s pending-
request table over its coordinator socket (base64 framing is the
channel's concern).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.diskstore import Codec


class RemoteStore:
    """One codec's entries, read through the coordinator."""

    max_entries = None  # the coordinator's store owns eviction

    def __init__(self, channel, codec: Codec):
        self._channel = channel
        self.codec = codec
        self.root = f"remote://{codec.name}"
        self.loads = 0
        self.stores = 0
        self.failures = 0
        self.evictions = 0
        self.corrupt_evictions = 0

    def get(self, key: str) -> Optional[Any]:
        try:
            blob = self._channel.cache_get(self.codec.name, key)
        except Exception:
            self.failures += 1
            return None
        if blob is None:
            return None
        try:
            value = self.codec.loads(key, blob)
        except Exception:
            self.failures += 1
            self.corrupt_evictions += 1
            return None
        self.loads += 1
        return value

    def put(self, key: str, value: Any) -> None:
        try:
            self._channel.cache_put(
                self.codec.name, key, self.codec.dumps(key, value)
            )
        except Exception:
            self.failures += 1
            return
        self.stores += 1

    def gc(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        # ``len() == 0`` must not read as "no store configured": the
        # runner truth-tests ``config.query_cache`` / ``automata_cache``
        # before attaching, and those slots may hold this adapter.
        return True
