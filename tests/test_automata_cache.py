"""The interned automata compilation cache and its on-disk store."""

import os

import pytest

from repro.automata import (
    automata_cache_counters,
    clear_caches,
    configure_automata_cache,
    dfa_for,
    dfa_for_pattern,
    node_fingerprint,
)
from repro.automata.build import NotRegularError
from repro.automata.cache import (
    DFA_CODEC,
    STORE_VERSION,
    counters_delta,
    dfa_from_blob,
    dfa_to_blob,
)
from repro.diskstore import DiskStore
from repro.regex import parse_regex


def body(src):
    return parse_regex(src).body


class TestFingerprint:
    def test_structural_not_textual(self, clean_automata):
        # Same charset, different surface syntax.
        assert node_fingerprint(body("[a-c]")) == node_fingerprint(
            body("[cba]")
        )
        assert node_fingerprint(body("[a-c]")) != node_fingerprint(
            body("[a-d]")
        )

    def test_group_syntax_is_transparent(self, clean_automata):
        assert node_fingerprint(body("(?:ab)+")) == node_fingerprint(
            body("(ab)+")
        )

    def test_laziness_is_erased(self, clean_automata):
        assert node_fingerprint(body("a+?")) == node_fingerprint(body("a+"))

    def test_distinguishes_quantifier_bounds(self, clean_automata):
        fingerprints = {
            node_fingerprint(body(src))
            for src in ("a{2,3}", "a{2,4}", "a{2,}", "a*", "a|b", "ab")
        }
        assert len(fingerprints) == 6

    def test_non_regular_nodes_rejected(self, clean_automata):
        with pytest.raises(NotRegularError):
            node_fingerprint(body("^a"))

    def test_interner_shares_across_ast_identities(self, clean_automata):
        first = dfa_for(body("(x|y)*z"))
        before = automata_cache_counters()
        second = dfa_for(body("(?:x|y)*?z"))  # same language, new AST
        after = automata_cache_counters()
        assert second is first
        assert after["misses"] == before["misses"]


class TestBlobRoundtrip:
    def test_roundtrip_preserves_language(self, clean_automata):
        dfa = dfa_for_pattern(r"(?:ab|ba)+c?")
        rebuilt = dfa_from_blob(dfa_to_blob(dfa))
        assert rebuilt.equivalent(dfa)

    def test_step_memo_is_not_persisted(self, clean_automata):
        dfa = dfa_for_pattern(r"(?:ab|ba)+c?")
        blob = dfa_to_blob(dfa)
        assert dfa.accepts_word("abbac")
        assert dfa._rows
        assert dfa_to_blob(dfa) == blob
        assert not dfa_from_blob(blob)._rows

    def test_version_mismatch_rejected(self, clean_automata):
        blob = list(dfa_to_blob(dfa_for_pattern("a+")))
        blob[1] = STORE_VERSION + 1
        with pytest.raises(ValueError):
            dfa_from_blob(tuple(blob))


class TestDiskStore:
    def test_cold_then_warm(self, clean_automata, tmp_path):
        configure_automata_cache(str(tmp_path))
        dfa_for_pattern(r"[a-z]+=[0-9]+")
        cold = automata_cache_counters()
        assert cold["misses"] >= 1
        assert cold["disk_stores"] >= 1

        clear_caches()  # fresh process simulation: memory gone, disk stays
        configure_automata_cache(str(tmp_path))
        warm_dfa = dfa_for_pattern(r"[a-z]+=[0-9]+")
        warm = automata_cache_counters()
        assert warm["misses"] == 0
        assert warm["disk_hits"] >= 1
        assert warm_dfa.accepts_word("k=1")
        assert not warm_dfa.accepts_word("k=")

    def test_corrupt_entry_degrades_to_recompile(
        self, clean_automata, tmp_path
    ):
        configure_automata_cache(str(tmp_path))
        dfa_for_pattern("corrupt|me")
        version_dir = tmp_path / f"v{STORE_VERSION}"
        (entry,) = [
            p for p in version_dir.iterdir() if p.suffix == ".dfa"
        ]
        entry.write_bytes(b"not a pickle")

        clear_caches()
        configure_automata_cache(str(tmp_path))
        dfa = dfa_for_pattern("corrupt|me")
        counters = automata_cache_counters()
        assert dfa.accepts_word("me")
        assert counters["disk_hits"] == 0
        assert counters["misses"] == 1
        assert counters["disk_failures"] == 1
        # The corrupt entry was evicted and replaced by the recompiled
        # DFA: a third cold start loads cleanly from disk again.
        assert counters["disk_stores"] == 1
        clear_caches()
        configure_automata_cache(str(tmp_path))
        dfa_for_pattern("corrupt|me")
        assert automata_cache_counters()["disk_hits"] == 1

    def test_store_is_versioned_by_directory(self, clean_automata, tmp_path):
        store = DiskStore(str(tmp_path), DFA_CODEC)
        assert store.path == os.path.join(
            str(tmp_path), f"v{STORE_VERSION}"
        )
        store.put("abc", dfa_for_pattern("a"))
        assert len(store) == 1

    def test_unusable_store_path_degrades_to_memory_only(
        self, clean_automata, tmp_path
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        # The parent of the store dir is a file: creation fails, the
        # interner must run memory-only instead of crashing the worker.
        configure_automata_cache(str(blocker / "store"))
        dfa = dfa_for_pattern("deg|rade")
        counters = automata_cache_counters()
        assert dfa.accepts_word("rade")
        assert counters["misses"] == 1
        assert counters["disk_stores"] == 0

    def test_unwritable_entry_degrades_silently(
        self, clean_automata, tmp_path
    ):
        store = DiskStore(str(tmp_path), DFA_CODEC)
        # A directory squatting on the entry path makes the atomic
        # replace fail (works even when running as root, where a
        # permissions-based setup would be bypassed).
        os.makedirs(store._entry("blocked"))
        store.put("blocked", dfa_for_pattern("a"))
        assert store.failures == 1
        assert store.stores == 0


class TestClearCaches:
    def test_clear_resets_interner_and_disk_handle(
        self, clean_automata, tmp_path
    ):
        configure_automata_cache(str(tmp_path))
        dfa_for_pattern("reset?me")
        assert automata_cache_counters()["memory_size"] >= 1

        clear_caches()
        counters = automata_cache_counters()
        assert counters["memory_size"] == 0
        assert counters == {
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
            "disk_stores": 0,
            "disk_failures": 0,
            "disk_corrupt_evictions": 0,
            "memory_size": 0,
        }
        # The disk handle is detached too: a recompile after the clear
        # must not consult (or repopulate) the old store.
        dfa_for_pattern("reset?me2")
        assert automata_cache_counters()["disk_stores"] == 0

    def test_counters_delta(self):
        before = {"hits": 2, "misses": 1, "disk_hits": 0, "disk_stores": 0}
        after = {"hits": 5, "misses": 2, "disk_hits": 1, "disk_stores": 1}
        assert counters_delta(before, after) == {
            "hits": 3,
            "misses": 1,
            "disk_hits": 1,
            "disk_stores": 1,
        }
