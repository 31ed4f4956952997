"""Cross-node worker fleet: leases, failure detection, re-dispatch.

The coordinator under test is the in-process serve daemon in
``--cluster`` mode (``serve_testing.start_daemon(cluster=True)``);
worker nodes are either in-process (``start_worker`` — same
interpreter, so ``GateJob`` gates control remote timing) or real
``python -m repro worker`` subprocesses for the node-kill chaos
scenario.  Heartbeats run at 0.2s so dead-node detection fits inside
test timeouts.

The invariants under test are the ISSUE's acceptance bars:

- a job leased to a node that dies mid-run is re-dispatched through
  the ordinary retry policy and lands **exactly once** (late ``done``
  frames from superseded epochs are dropped, never double-delivered);
- a fleet with zero live workers degrades to local execution — the
  coordinator *is* a serve daemon, remote dispatch is an optimization;
- quarantine decisions propagate fleet-wide, including to late-joining
  nodes;
- the coordinator's stores serve cache reads/writes for remote nodes.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import faults
from repro.serve.client import ServeClient
from repro.service import jobs
from repro.solver.backends.cached import CachedResult, QUERY_CODEC

from serve_testing import (
    GateJob,
    open_gate,
    reset_gates,
    start_daemon,
    start_worker,
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


def cluster_stats(server) -> dict:
    return server.cluster.stats()


class TestRegistrationAndDispatch:
    def test_remote_execution_and_health(self, tmp_path, gate_kind):
        server, sock = start_daemon(tmp_path, cluster=True, retry_max=2)
        start_worker(sock, capacity=2, worker_id="node-a")
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            ack = client.submit(
                {"kind": "gate", "gate": "", "payload_note": "hi"}
            )
            result = client.wait_result(ack["id"])
            assert result.status == "ok"
            assert result.payload["note"] == "hi"
            health = client.health()
        assert health["ready"] is True
        assert health["cluster"]["workers"] == 1
        assert health["cluster"]["capacity"] == 2
        assert health["cluster"]["remote_results"] == 1
        assert list(health["cluster"]["nodes"]) == ["node-a"]
        assert health["cluster"]["nodes"]["node-a"]["capacity"] == 2
        stats = server.scheduler.stats()
        assert stats["remote_dispatched"] == 1
        assert stats["local_dispatched"] == 0

    def test_zero_workers_serves_locally(self, tmp_path, gate_kind):
        """A coordinator with no fleet is byte-for-byte today's daemon."""
        server, sock = start_daemon(tmp_path, cluster=True)
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            acks = [
                client.submit(
                    {"kind": "gate", "gate": "", "payload_note": str(i)}
                )
                for i in range(3)
            ]
            results = [client.wait_result(a["id"]) for a in acks]
            health = client.health()
        assert all(r.status == "ok" for r in results)
        assert health["ready"] is True  # degraded != unready
        assert health["cluster"]["workers"] == 0
        stats = server.scheduler.stats()
        assert stats["local_dispatched"] == 3
        assert stats["remote_dispatched"] == 0

    def test_worker_snapshot_counts_work(self, tmp_path, gate_kind):
        server, sock = start_daemon(tmp_path, cluster=True)
        harness = start_worker(sock, capacity=1, worker_id="node-s")
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            ack = client.submit({"kind": "gate", "gate": ""})
            assert client.wait_result(ack["id"]).status == "ok"
        wait_until(lambda: harness.node.jobs_done == 1)
        wait_until(lambda: harness.node.heartbeats_sent >= 1)
        snap = harness.node.snapshot()
        assert snap["connected"] is True
        assert snap["registrations"] == 1
        assert cluster_stats(server)["registrations"] == 1


class TestFailureRecovery:
    def test_dead_node_redispatches_exactly_once(self, tmp_path, gate_kind):
        server, sock = start_daemon(
            tmp_path, cluster=True, retry_max=2, retry_backoff_s=0.05
        )
        harness = start_worker(sock, capacity=1, worker_id="node-d")
        with ServeClient(socket_path=sock, timeout=30.0) as client:
            ack = client.submit({"kind": "gate", "gate": "doomed"})
            wait_until(
                lambda: cluster_stats(server)["leases_inflight"] == 1
            )
            # Abrupt stop: the socket dies with the gate still closed,
            # exactly like a node losing power mid-job.
            harness.node.stop()
            wait_until(lambda: cluster_stats(server)["deaths"] == 1)
            wait_until(
                lambda: server.scheduler.stats()["retries"] == 1
            )
            open_gate("doomed")
            result = client.wait_result(ack["id"])
        assert result.status == "ok"
        assert result.retries == 1
        stats = cluster_stats(server)
        assert stats["leases_revoked"] == 1
        # The re-dispatch fell through to the coordinator's own runner
        # (no workers left) — and only one result reached the client.
        sched = server.scheduler.stats()
        assert sched["local_dispatched"] == 1
        assert sched["jobs_completed"] == 1

    def test_missed_heartbeats_declare_death(self, tmp_path, gate_kind):
        """A silent (not closed) connection is detected and revoked."""
        server, sock = start_daemon(
            tmp_path, cluster=True, retry_max=2, retry_backoff_s=0.05
        )
        harness = start_worker(sock, capacity=1, worker_id="node-h")
        # Drop every heartbeat from here on; the socket stays open, so
        # only the coordinator's deadline monitor can notice.
        faults.install(
            {
                "rules": [
                    {
                        "site": "cluster:heartbeat",
                        "action": "drop",
                        "every": 1,
                    }
                ]
            }
        )
        wait_until(
            lambda: cluster_stats(server)["deaths"] >= 1, timeout=15.0
        )
        harness.node.stop()  # stop the rejoin churn
        faults.reset()
        wait_until(lambda: cluster_stats(server)["workers"] == 0)
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            ack = client.submit({"kind": "gate", "gate": ""})
            result = client.wait_result(ack["id"])
        assert result.status == "ok"
        assert server.scheduler.stats()["local_dispatched"] >= 1

    def test_late_done_from_revoked_lease_is_dropped(
        self, tmp_path, gate_kind
    ):
        """Exactly-once: a straggler finishing a revoked lease is junk."""
        server, sock = start_daemon(
            tmp_path,
            cluster=True,
            retry_max=1,
            retry_backoff_s=0.05,
            job_timeout=0.8,
        )
        start_worker(sock, capacity=1, worker_id="node-l")
        with ServeClient(socket_path=sock, timeout=30.0) as client:
            ack = client.submit({"kind": "gate", "gate": "slow"})
            # The scheduler's backstop fires first: the lease is
            # revoked and the job re-dispatched while attempt 1 is
            # still wedged on the (closed) gate.
            wait_until(
                lambda: cluster_stats(server)["leases_revoked"] == 1,
                timeout=15.0,
            )
            open_gate("slow")
            result = client.wait_result(ack["id"])
        assert result.status == "ok"
        assert result.retries == 1
        stats = cluster_stats(server)
        # Attempt 1's done frame arrived with a stale token/epoch and
        # was dropped; only attempt 2 counted.
        wait_until(
            lambda: cluster_stats(server)["late_done_drops"] == 1,
            timeout=10.0,
        )
        assert stats["deaths"] == 0  # node stayed alive throughout
        assert server.scheduler.stats()["timeouts"] == 1
        assert server.scheduler.stats()["jobs_completed"] == 1

    def test_all_workers_down_degrades_and_recovers(
        self, tmp_path, gate_kind
    ):
        server, sock = start_daemon(
            tmp_path, cluster=True, retry_max=2, retry_backoff_s=0.05
        )
        a = start_worker(sock, capacity=1, worker_id="node-x")
        b = start_worker(sock, capacity=1, worker_id="node-y")
        wait_until(lambda: cluster_stats(server)["workers"] == 2)
        a.stop()
        b.stop()
        wait_until(lambda: cluster_stats(server)["workers"] == 0)
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            acks = [
                client.submit(
                    {"kind": "gate", "gate": "", "payload_note": str(i)}
                )
                for i in range(4)
            ]
            results = [client.wait_result(x["id"]) for x in acks]
            health = client.health()
        assert all(r.status == "ok" for r in results)
        assert health["ready"] is True
        assert server.scheduler.stats()["local_dispatched"] == 4


class TestQuarantinePropagation:
    def test_quarantine_broadcasts_fleet_wide(self, tmp_path, gate_kind):
        server, sock = start_daemon(
            tmp_path,
            cluster=True,
            retry_max=3,
            retry_backoff_s=0.05,
            quarantine_after=1,
        )
        harness = start_worker(sock, capacity=1, worker_id="node-q")
        spec = {"kind": "gate", "gate": "poison", "key": "poison"}
        with ServeClient(socket_path=sock, timeout=30.0) as client:
            ack = client.submit(spec)
            wait_until(
                lambda: cluster_stats(server)["leases_inflight"] == 1
            )
            harness.node.stop()  # one node death == the crash fuse
            result = client.wait_result(ack["id"])
            assert result.status == "quarantined"
            # A later node learns the verdict at registration time.
            late = start_worker(sock, capacity=1, worker_id="node-late")
            assert "gate|poison" in late.node.quarantined
            # Resubmission is blocked at admission — no dispatch at all.
            ack2 = client.submit(dict(spec))
            result2 = client.wait_result(ack2["id"])
        assert result2.status == "quarantined"
        stats = server.scheduler.stats()
        assert stats["quarantine_blocked"] == 1
        assert cluster_stats(server)["quarantined_keys"] == 1


class TestRemoteCache:
    def test_cache_round_trip_through_coordinator(self, tmp_path):
        server, sock = start_daemon(
            tmp_path,
            cluster=True,
            query_cache=str(tmp_path / "qc"),
            automata_cache=str(tmp_path / "ac"),
        )
        harness = start_worker(
            sock, capacity=1, worker_id="node-c", remote_cache=True
        )
        node = harness.node
        # The registered frame advertised the coordinator's stores and
        # the node wired remote read-through adapters into its runner.
        store = node.runner.config.query_cache
        assert store is not None and not isinstance(store, str)
        assert store.root.startswith("remote://")
        # put → coordinator's disk store; get → same entry back.
        # The wire blob is the query codec's entry bytes.
        entry = CachedResult("sat", (("?0", "a"),))
        node.cache_put(
            "query", "fp-remote", QUERY_CODEC.dumps("fp-remote", entry)
        )
        wait_until(lambda: cluster_stats(server)["cache_puts"] == 1)
        fetched = node.cache_get("query", "fp-remote")
        assert fetched is not None
        assert QUERY_CODEC.loads("fp-remote", fetched) == entry
        stats = cluster_stats(server)
        assert stats["cache_gets"] == 1
        assert stats["cache_hits"] == 1
        # A miss is a clean None, not an error.
        assert node.cache_get("query", "absent") is None

    def test_remote_solve_populates_coordinator_store(self, tmp_path):
        server, sock = start_daemon(
            tmp_path,
            cluster=True,
            query_cache=str(tmp_path / "qc"),
        )
        start_worker(
            sock, capacity=1, worker_id="node-r", remote_cache=True
        )
        with ServeClient(socket_path=sock, timeout=30.0) as client:
            ack = client.submit(
                {"kind": "solve", "job_id": "s1", "pattern": "ab+c"}
            )
            result = client.wait_result(ack["id"])
        assert result.status == "ok"
        assert server.scheduler.stats()["remote_dispatched"] == 1
        # The node wrote its answers through to the fleet store.
        wait_until(lambda: cluster_stats(server)["cache_puts"] >= 1)


class TestNodeKillChaos:
    """The ISSUE's chaos scenario with real worker *processes*."""

    def _spawn_worker(self, sock, tmp_path, name, fault_plan=None):
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--join",
            sock,
            "--capacity",
            "1",
            "--worker-id",
            name,
        ]
        if fault_plan is not None:
            plan_path = str(tmp_path / f"plan-{name}.json")
            with open(plan_path, "w") as handle:
                json.dump(fault_plan, handle)
            cmd += ["--fault-plan", plan_path]
        return subprocess.Popen(
            cmd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )

    def test_sigkill_mid_corpus_lands_every_job_exactly_once(
        self, tmp_path
    ):
        from repro.service.report import BatchReport, format_batch_report

        server, sock = start_daemon(
            tmp_path, cluster=True, retry_max=2, retry_backoff_s=0.05
        )
        procs = [
            self._spawn_worker(sock, tmp_path, "chaos-a"),
            # SIGKILLs itself on its first assignment receipt — the
            # coordinator sees EOF, revokes, and re-dispatches.
            self._spawn_worker(
                sock,
                tmp_path,
                "chaos-b",
                fault_plan={
                    "rules": [
                        {"site": "node:kill", "action": "kill", "nth": 1}
                    ]
                },
            ),
        ]
        try:
            with ServeClient(socket_path=sock, timeout=60.0) as client:
                wait_until(
                    lambda: cluster_stats(server)["workers"] == 2,
                    timeout=30.0,
                )
                started = time.monotonic()
                specs = [
                    {
                        "kind": "solve",
                        "job_id": f"chaos-{i}",
                        "pattern": f"a{{{i + 1}}}b+c",
                    }
                    for i in range(8)
                ]
                order = {}
                for spec in specs:
                    order[client.submit(spec)["id"]] = spec["job_id"]
                results = []
                for request_id, result, _ in client.iter_results():
                    results.append(result)
                wall = time.monotonic() - started
                health = client.health()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)
        assert len(results) == 8
        assert all(r.status == "ok" for r in results)
        # Exactly once: eight distinct job ids, no duplicates.
        assert sorted(r.job_id for r in results) == sorted(
            s["job_id"] for s in specs
        )
        assert sum(r.retries for r in results) >= 1
        assert health["cluster"]["deaths"] >= 1
        assert health["cluster"]["leases_revoked"] >= 1
        report = format_batch_report(
            BatchReport(
                results=results,
                wall_time=wall,
                workers=0,
                jobs_submitted=len(specs),
                jobs_executed=len(results),
            )
        )
        assert "recovery:" in report
