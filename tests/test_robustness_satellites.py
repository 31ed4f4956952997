"""Robustness satellites riding along with the cluster PR.

Independent hardening surfaces, each with the failure mode it guards
against:

- retry backoff jitter must be deterministic *across processes* (it
  is a blake2b hash, not ``random``), or the chaos suite's
  byte-identical-report property dies;
- ``ServeClient.reconnect()`` must resubmit in-flight specs so a
  daemon hiccup mid-batch is invisible to ``iter_results`` waiters;
- ``submit --wait-on-overload`` must honor the daemon's
  ``retry_after`` hint instead of dropping jobs on the first
  overload rejection;
- disk-store corruption evictions must be visible in
  ``obs.snapshot()`` and the serve ``health`` op — the operator's
  early warning for a bad disk.
"""

import hashlib
import json
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.faults.retry import RetryPolicy
from repro.serve.client import ServeClient
from repro.service import jobs

from serve_testing import (
    GateJob,
    open_gate,
    reset_gates,
    start_daemon,
    stop_started,
    wait_until,
)


@pytest.fixture(autouse=True)
def _serve_teardown():
    reset_gates()
    yield
    reset_gates()
    stop_started()


@pytest.fixture
def gate_kind(monkeypatch):
    monkeypatch.setitem(jobs._JOB_KINDS, "gate", GateJob)


class TestJitterDeterminism:
    def test_delay_matches_the_blake2b_contract(self):
        policy = RetryPolicy(max_retries=3, backoff_s=1.0, jitter=0.25)
        digest = hashlib.blake2b(b"job-42:1", digest_size=8).digest()
        expected = 1.0 * (
            1.0 + 0.25 * int.from_bytes(digest, "big") / 2**64
        )
        assert policy.delay(1, "job-42") == expected
        # Pinned literal: a silent change to the hash input layout or
        # digest size shows up as a golden-value mismatch, not as
        # "some other deterministic schedule".
        assert policy.delay(1, "job-42") == pytest.approx(
            1.206308972308118, abs=1e-15
        )
        assert policy.delay(2, "job-42") == pytest.approx(
            2.0251085139971945, abs=1e-15
        )

    def test_delay_is_identical_across_processes(self):
        policy = RetryPolicy(max_retries=3, backoff_s=1.0, jitter=0.25)
        here = [policy.delay(a, "job-42") for a in (1, 2, 3)]
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.faults.retry import RetryPolicy\n"
                "p = RetryPolicy(max_retries=3, backoff_s=1.0, "
                "jitter=0.25)\n"
                "print(repr([p.delay(a, 'job-42') for a in (1, 2, 3)]))",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert eval(out.stdout.strip()) == here  # bit-for-bit equal


class TestClientResubmission:
    def test_reconnect_resubmits_inflight_specs(self, tmp_path, gate_kind):
        server, sock = start_daemon(tmp_path)
        client = ServeClient(
            socket_path=sock,
            timeout=15.0,
            reconnect=True,
            reconnect_backoff_s=0.05,
        )
        try:
            a1 = client.submit(
                {"kind": "gate", "gate": "r1", "payload_note": "one"}
            )
            a2 = client.submit(
                {"kind": "gate", "gate": "r2", "payload_note": "two"}
            )
            # Kill the connection out from under the client (the daemon
            # is fine — this is the client's link dying mid-batch).
            client._sock.shutdown(socket.SHUT_RDWR)
            open_gate("r1")
            open_gate("r2")
            got = {}
            for request_id, result, _ in client.iter_results():
                got[request_id] = result
        finally:
            client.close()
        # Resubmission kept the original request ids, so the waiters'
        # bookkeeping never noticed the blink.
        assert set(got) == {a1["id"], a2["id"]}
        assert got[a1["id"]].status == "ok"
        assert got[a1["id"]].payload["note"] == "one"
        assert got[a2["id"]].payload["note"] == "two"

    def test_wait_result_survives_a_dead_connection(
        self, tmp_path, gate_kind
    ):
        server, sock = start_daemon(tmp_path)
        client = ServeClient(
            socket_path=sock,
            timeout=15.0,
            reconnect=True,
            reconnect_backoff_s=0.05,
        )
        try:
            ack = client.submit({"kind": "gate", "gate": "w1"})
            client._sock.shutdown(socket.SHUT_RDWR)
            open_gate("w1")
            result = client.wait_result(ack["id"])
        finally:
            client.close()
        assert result.status == "ok"


def _submit_args(sock, files, wait_on_overload=0.0, json_out=None):
    return SimpleNamespace(
        socket=sock,
        host=None,
        port=None,
        timeout=30.0,
        stats=False,
        health=False,
        files=files,
        level="full",
        max_tests=10,
        time_budget=5.0,
        backend=None,
        stream=False,
        json=json_out,
        wait_on_overload=wait_on_overload,
    )


class TestWaitOnOverload:
    def _fill_daemon(self, sock):
        """One job in flight + one queued == a full max_queue=1 daemon."""
        occupier = ServeClient(socket_path=sock, timeout=30.0)
        occupier.submit({"kind": "gate", "gate": "occ-run"})
        occupier.submit({"kind": "gate", "gate": "occ-queued"})
        return occupier

    def test_zero_budget_drops_on_first_rejection(
        self, tmp_path, gate_kind
    ):
        from repro.serve.cli import run_submit

        server, sock = start_daemon(
            tmp_path, max_queue=1, max_inflight=1
        )
        occupier = self._fill_daemon(sock)
        try:
            wait_until(lambda: server.scheduler.stats()["queue_depth"] == 1)
            job_file = str(tmp_path / "job.json")
            with open(job_file, "w") as handle:
                json.dump(
                    {"kind": "solve", "job_id": "w", "pattern": "ab"},
                    handle,
                )
            rc = run_submit(_submit_args(sock, [job_file]))
            assert rc == 3  # rejected, no waiting
        finally:
            open_gate("occ-run")
            open_gate("occ-queued")
            list(occupier.iter_results())
            occupier.close()

    def test_budget_waits_out_the_overload(self, tmp_path, gate_kind):
        from repro.serve.cli import run_submit

        server, sock = start_daemon(
            tmp_path, max_queue=1, max_inflight=1
        )
        occupier = self._fill_daemon(sock)
        try:
            wait_until(lambda: server.scheduler.stats()["queue_depth"] == 1)
            job_file = str(tmp_path / "job.json")
            with open(job_file, "w") as handle:
                json.dump(
                    {"kind": "solve", "job_id": "w", "pattern": "ab"},
                    handle,
                )
            opener = threading.Timer(0.3, lambda: (
                open_gate("occ-run"), open_gate("occ-queued")
            ))
            opener.start()
            try:
                rc = run_submit(
                    _submit_args(sock, [job_file], wait_on_overload=15.0)
                )
            finally:
                opener.join()
            assert rc == 0  # waited out retry_after, then landed
            assert server.scheduler.stats()["rejected"] >= 1
        finally:
            open_gate("occ-run")
            open_gate("occ-queued")
            list(occupier.iter_results())
            occupier.close()


class TestCorruptionCounters:
    def test_query_store_corruption_counts_in_obs_snapshot(
        self, tmp_path
    ):
        from repro.diskstore import DiskStore
        from repro.solver.backends.cached import CachedResult, QUERY_CODEC

        store = DiskStore(str(tmp_path / "q"), QUERY_CODEC)
        store.put("fp", CachedResult("unsat"))
        with open(store._entry("fp"), "wb") as handle:
            handle.write(b"\x80garbage")
        assert store.get("fp") is None  # evicted as a miss
        assert store.corrupt_evictions == 1
        snap = obs.snapshot()["stores"]
        assert snap["query"]["corrupt_evictions"] >= 1
        assert snap["query"]["open_stores"] >= 1
        assert "corrupt_evictions" in snap["dfa"]

    def test_health_op_surfaces_store_counters(self, tmp_path):
        server, sock = start_daemon(tmp_path)
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            health = client.health()
        assert "stores" in health
        for section in ("query", "dfa"):
            assert "corrupt_evictions" in health["stores"][section]
            assert "failures" in health["stores"][section]
