"""The one disk store, checked against every codec it serves.

Query answers, compiled DFAs and disagreement artifacts all persist
through :class:`repro.diskstore.DiskStore`; the contract (round trip,
defensive reads, GC, re-attach, no scan when uncapped) is the same for
each.  The format pins write entries byte for byte as the stores before
the shared one did, so existing cache directories keep serving.
"""

import hashlib
import json
import os
import pickle
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import pytest

from repro import faults, obs
from repro.automata import dfa_for_pattern
from repro.automata.cache import DFA_CODEC, node_fingerprint
from repro.conformance import (
    ARTIFACT_CODEC,
    DisagreementArtifact,
    artifact_fingerprint,
)
from repro.diskstore import DiskStore, attach
from repro.regex import parse_regex
from repro.solver.backends.cached import QUERY_CODEC, CachedResult


def _query(i):
    return f"(in x /a{{{i}}}/)", CachedResult("sat", (("?0", "a" * i),))


def _dfa(i):
    return f"dfa-{i}", dfa_for_pattern(f"ab{{{i}}}c")


def _artifact(i):
    fingerprint = artifact_fingerprint("q+", "", f"w{i}")
    return fingerprint, DisagreementArtifact(
        fingerprint=fingerprint,
        pattern="q+",
        flags="",
        word=f"w{i}",
        verdicts={"native": "match", "planted": "nomatch"},
        members=["native", "planted"],
    )


#: How to skew an entry's header field to a value no codec accepts.
SKEWED = {"magic": lambda magic: "wrong-" + magic, "version": lambda v: v + 1}


def _skew_pickled(data, field):
    blob = list(pickle.loads(data))
    index = ("magic", "version").index(field)
    blob[index] = SKEWED[field](blob[index])
    return pickle.dumps(tuple(blob), protocol=4)


def _skew_json(data, field):
    blob = json.loads(data)
    blob[field] = SKEWED[field](blob[field])
    return json.dumps(blob).encode("utf-8")


@dataclass
class Kind:
    codec: object
    make: Callable  # i -> (key, value)
    skew: Callable  # (entry bytes, header field) -> the skewed entry

    def __repr__(self):
        return self.codec.name


KINDS = [
    Kind(QUERY_CODEC, _query, _skew_pickled),
    Kind(DFA_CODEC, _dfa, _skew_pickled),
    Kind(ARTIFACT_CODEC, _artifact, _skew_json),
]
#: The kinds whose entries repeat their key (a DFA blob does not).
KEYED = [kind for kind in KINDS if kind.codec is not DFA_CODEC]

by_kind = pytest.mark.parametrize("kind", KINDS, ids=repr)


def same(kind, key, a, b):
    return kind.codec.dumps(key, a) == kind.codec.dumps(key, b)


def assert_evicted(store, key, corrupt=1):
    assert store.get(key) is None
    assert store.failures == corrupt
    assert store.corrupt_evictions == corrupt
    assert not os.path.exists(store._entry(key))


@by_kind
def test_round_trip(kind, tmp_path):
    store = DiskStore(str(tmp_path), kind.codec)
    key, value = kind.make(1)
    store.put(key, value)
    assert same(kind, key, store.get(key), value)
    assert store.counters() == {
        "loads": 1,
        "stores": 1,
        "failures": 0,
        "evictions": 0,
        "corrupt_evictions": 0,
    }
    assert len(store) == 1
    assert os.path.dirname(store._entry(key)) == os.path.join(
        str(tmp_path), f"v{kind.codec.version}"
    )
    assert store._entry(key).endswith("." + kind.codec.suffix)
    other, _ = kind.make(2)
    assert store.get(other) is None  # a missing entry is a silent miss
    assert store.failures == 0


@by_kind
def test_truncated_entry_is_evicted_and_counted(kind, tmp_path):
    store = DiskStore(str(tmp_path), kind.codec)
    key, value = kind.make(1)
    store.put(key, value)
    with open(store._entry(key), "r+b") as handle:
        handle.truncate(os.path.getsize(store._entry(key)) // 2)
    assert_evicted(store, key)
    store.put(key, value)  # the store keeps working
    assert same(kind, key, store.get(key), value)


@by_kind
@pytest.mark.parametrize("field", sorted(SKEWED))
def test_skewed_entry_is_evicted_and_counted(kind, field, tmp_path):
    # A version bump (or a foreign magic) in an otherwise well-formed
    # entry: served by no codec, evicted instead of tripped over.
    store = DiskStore(str(tmp_path), kind.codec)
    key, value = kind.make(1)
    with open(store._entry(key), "wb") as handle:
        handle.write(kind.skew(kind.codec.dumps(key, value), field))
    assert_evicted(store, key)


@pytest.mark.parametrize("kind", KEYED, ids=repr)
def test_foreign_key_entry_is_evicted_and_counted(kind, tmp_path):
    # A hash collision or a renamed file must not serve another key's
    # value: the blob carries its key, verified on load.
    store = DiskStore(str(tmp_path), kind.codec)
    (key, value), (other, _) = kind.make(1), kind.make(2)
    store.put(key, value)
    os.replace(store._entry(key), store._entry(other))
    assert_evicted(store, other)


@by_kind
def test_foreign_kind_entry_is_evicted_and_counted(kind, tmp_path):
    store = DiskStore(str(tmp_path), kind.codec)
    key, _ = kind.make(1)
    foreign = next(k for k in KINDS if k is not kind)
    foreign_key, foreign_value = foreign.make(1)
    with open(store._entry(key), "wb") as handle:
        handle.write(foreign.codec.dumps(foreign_key, foreign_value))
    assert_evicted(store, key)


@by_kind
def test_chaos_hook_covers_every_kind(kind, tmp_path):
    store = DiskStore(str(tmp_path), kind.codec)
    key, value = kind.make(1)
    store.put(key, value)
    site = f"{kind.codec.name}_store:get"
    faults.install(
        {"rules": [{"site": site, "action": "corrupt", "nth": 1}]}
    )
    assert_evicted(store, key)
    totals = obs.snapshot()["stores"][kind.codec.name]
    assert totals["corrupt_evictions"] >= 1


@by_kind
def test_gc_caps_to_the_low_water_mark(kind, tmp_path):
    store = DiskStore(str(tmp_path), kind.codec, max_entries=8)
    base = time.time() - 1000
    keys = []
    for i in range(9):
        key, value = kind.make(i)
        store.put(key, value)
        os.utime(store._entry(key), (base + i, base + i))
        keys.append(key)
    # Past the cap of 8, the oldest go down to 8 - 8 // 8 = 7 entries.
    assert len(store) == 7
    assert store.evictions == 2
    assert store.get(keys[0]) is None and store.get(keys[1]) is None
    assert store.get(keys[8]) is not None
    assert store.corrupt_evictions == 0
    key, value = kind.make(9)
    store.put(key, value)  # one put after a GC does not rescan
    assert store.evictions == 2


@by_kind
def test_reattach_same_path_keeps_handle_and_counters(kind, tmp_path):
    path = str(tmp_path / "store")
    store = attach(None, path, kind.codec)
    key, value = kind.make(1)
    store.put(key, value)
    store.get(key)
    assert attach(store, path, kind.codec) is store
    assert (store.stores, store.loads) == (1, 1)
    capped = attach(store, path, kind.codec, max_entries=5)
    assert capped is store and store.max_entries == 5
    assert attach(store, None, kind.codec) is None
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert attach(None, str(blocker / "sub"), kind.codec) is None
    remote = object()  # a store-shaped object is used as is
    assert attach(store, remote, kind.codec) is remote


@by_kind
def test_uncapped_store_never_scans(kind, tmp_path, monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("an uncapped store scanned its directory")

    monkeypatch.setattr(os, "listdir", scan)
    monkeypatch.setattr(os, "scandir", scan)
    store = DiskStore(str(tmp_path), kind.codec)
    for i in range(12):
        key, value = kind.make(i)
        store.put(key, value)
    assert store.gc() == 0
    assert store.evictions == 0


# -- format pins: each entry is written by hand as the per-kind stores
# before the shared one wrote it; the shared store must serve it and
# re-encode it byte for byte.


def test_query_format_pin(tmp_path):
    fingerprint = "(in ?0 /a+b/)"
    name = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    entry = tmp_path / "v1" / (name + ".qry")
    entry.parent.mkdir()
    with open(entry, "wb") as handle:
        pickle.dump(
            ("repro-query", 1, fingerprint, "sat", (("?0", "ab"),)),
            handle,
            protocol=4,
        )
    store = DiskStore(str(tmp_path), QUERY_CODEC)
    served = store.get(fingerprint)
    assert served == CachedResult("sat", (("?0", "ab"),))
    assert store.corrupt_evictions == 0
    assert QUERY_CODEC.dumps(fingerprint, served) == entry.read_bytes()


def test_dfa_format_pin(tmp_path):
    fingerprint = node_fingerprint(parse_regex("ab").body)
    entry = tmp_path / "v1" / (fingerprint + ".dfa")
    entry.parent.mkdir()
    # /ab/: 0 -a-> 1 -b-> 2 (accepting).
    blob = (
        "repro-automata",
        1,
        3,
        0,
        (2,),
        (
            (0, (((((97, 97),), 1),))),
            (1, (((((98, 98),), 2),))),
            (2, ()),
        ),
    )
    with open(entry, "wb") as handle:
        pickle.dump(blob, handle, protocol=4)
    store = DiskStore(str(tmp_path), DFA_CODEC)
    served = store.get(fingerprint)
    assert served is not None and store.corrupt_evictions == 0
    assert served.accepts_word("ab") and not served.accepts_word("a")
    assert DFA_CODEC.dumps(fingerprint, served) == entry.read_bytes()


def test_artifact_format_pin(tmp_path):
    fingerprint = artifact_fingerprint("", "", "q")
    entry = tmp_path / "v1" / (fingerprint + ".json")
    entry.parent.mkdir()
    blob = {
        "magic": "repro-disagreement",
        "version": 1,
        "fingerprint": fingerprint,
        "pattern": "",
        "flags": "",
        "word": "q",
        "verdicts": {"native": "match", "planted": "nomatch"},
        "members": ["native", "planted"],
        "seed": 1909,
        "origin_pattern": "(a|q)+",
        "origin_word": "aq",
        "shrink_steps": 4,
        "hits": 3,
    }
    with open(entry, "w", encoding="utf-8") as handle:
        json.dump(blob, handle, ensure_ascii=False, sort_keys=True)
    store = DiskStore(str(tmp_path), ARTIFACT_CODEC)
    served = store.get(fingerprint)
    assert served is not None and store.corrupt_evictions == 0
    assert (served.pattern, served.word, served.hits) == ("", "q", 3)
    assert ARTIFACT_CODEC.dumps(fingerprint, served) == entry.read_bytes()


# -- concurrency --------------------------------------------------------------


def test_threads_sharing_one_store_never_corrupt_it(tmp_path):
    """Writer threads in one process must not share a temp file: a
    shared one is truncated and renamed under another writer, which
    loses puts (``failures``) and hands readers half-written entries
    that they evict from a healthy disk."""
    store = DiskStore(str(tmp_path), QUERY_CODEC)
    key, value = _query(3)
    store.put(key, value)
    writers_done = threading.Event()

    def write():
        for _ in range(200):
            store.put(key, value)

    def read():
        while not writers_done.is_set():
            store.get(key)

    writers = [threading.Thread(target=write) for _ in range(4)]
    readers = [threading.Thread(target=read) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        writers_done.set()
        for thread in readers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + writers)
    assert store.failures == 0
    assert store.corrupt_evictions == 0
    assert store.stores == 801
    assert store.get(key) == value
