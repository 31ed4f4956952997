"""Chaos suite: fault injection exercising the recovery paths end to end.

Every test installs a :mod:`repro.faults` plan (cleared by the autouse
``_reset_faults`` fixture) and asserts the system *recovers* — retried
jobs succeed, poison jobs quarantine without starving their coalesced
twins, corrupt store entries are evicted and re-solved, and a serve
client survives a daemon restart.  Faults are never active by
default: with no plan installed all sites are inert.

Pool-mode tests use only built-in job kinds (monkeypatched kinds do not
cross the worker process boundary); the fault plan reaches workers via
the pool initializer, and per-process hit counters restart with each
respawned worker — which is exactly what lets a retried job succeed.
"""

import os
import socket
import time

import pytest

from repro import faults
from repro.automata import dfa_for_pattern
from repro.automata.cache import DFA_CODEC
from repro.diskstore import DiskStore
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServeServer
from repro.service.jobs import SolveJob
from repro.service.runner import BatchRunner, RunnerConfig
from repro.solver.backends.cached import CachedResult, QUERY_CODEC

from serve_testing import _STARTED, start_daemon, stop_started, wait_until


@pytest.fixture(autouse=True)
def _serve_teardown():
    yield
    stop_started()


class TestWorkerKillRetry:
    def test_killed_worker_job_retries_and_succeeds(self):
        """A SIGKILLed worker costs one retry, never the batch.

        ``nth=2`` kills the worker on its second job; the respawned
        worker's fault counters restart, so the retried job lands as
        hit 1 of the fresh process and completes.
        """
        runner = BatchRunner(
            RunnerConfig(
                workers=1,
                retry_max=2,
                retry_backoff_s=0.05,
                fault_plan={
                    "rules": [
                        {"site": "worker:job", "action": "kill", "nth": 2}
                    ]
                },
            )
        )
        jobs = [
            SolveJob(job_id="victim-a", pattern="ab", solver_timeout=1.0),
            SolveJob(job_id="victim-b", pattern="cd", solver_timeout=1.0),
        ]
        report = runner.run(jobs)
        assert [r.status for r in report.results] == ["ok", "ok"]
        assert report.total_retries == 1
        assert report.quarantined_jobs == 0
        assert sum(r.retries for r in report.results) == 1
        spec = report.to_spec()
        assert spec["recovery"] == {"retries": 1, "quarantined": 0}

    def test_wedged_worker_is_healed_and_its_job_retried(self):
        """A worker stuck past ``job_timeout`` is SIGKILLed and its slot
        respawned; the job comes back ``ok`` after one retry.

        ``nth=2`` wedges the worker on its second job.  ``nth=1`` would
        wedge the retry too: a respawned worker restarts its counters.
        """
        config = RunnerConfig(
            workers=1,
            job_timeout=1.0,
            retry_max=1,
            retry_backoff_s=0.05,
            fault_plan={
                "rules": [{"site": "worker:job", "action": "wedge", "nth": 2}]
            },
        )
        jobs = [
            SolveJob(job_id="warm", pattern="ab", solver_timeout=1.0),
            SolveJob(job_id="wedged", pattern="cd", solver_timeout=1.0),
        ]
        with BatchRunner(config) as runner:
            results = runner.run(jobs).results
            health = runner.pool_health()
        assert [results[i].status for i in (0, 1)] == ["ok", "ok"]
        assert results[1].retries == 1
        assert health["heals"] == 1
        assert health["workers_alive"] == 1
        assert health["worker_crashes"] == 0

    def test_worker_job_error_comes_back_without_retry(self):
        """An exception at the ``worker:job`` site is the job's error
        result: no retry, and the worker is not counted as crashed."""
        config = RunnerConfig(
            workers=1,
            retry_max=1,
            retry_backoff_s=0.05,
            fault_plan={
                "rules": [{"site": "worker:job", "action": "error", "nth": 1}]
            },
        )
        with BatchRunner(config) as runner:
            results = runner.run(
                [SolveJob(job_id="e", pattern="ab", solver_timeout=1.0)]
            ).results
            health = runner.pool_health()
        assert results[0].status == "error"
        assert results[0].error.startswith("FaultInjected: ")
        assert "worker:job" in results[0].error
        assert results[0].retries == 0
        assert health["worker_crashes"] == 0

    def test_dedup_twin_does_not_double_count_a_retry(self):
        """A coalesced twin replays its representative's ``retries``,
        but the batch counts the one redispatch once."""
        runner = BatchRunner(
            RunnerConfig(
                workers=1,
                dedup=True,
                retry_max=2,
                retry_backoff_s=0.05,
                fault_plan={
                    "rules": [
                        {"site": "worker:job", "action": "kill", "nth": 2}
                    ]
                },
            )
        )
        jobs = [
            SolveJob(job_id="a", pattern="ab", solver_timeout=1.0),
            SolveJob(job_id="b", pattern="cd", solver_timeout=1.0),
            SolveJob(job_id="b-twin", pattern="cd", solver_timeout=1.0),
        ]
        report = runner.run(jobs)
        assert [r.status for r in report.results] == ["ok", "ok", "ok"]
        assert [r.retries for r in report.results] == [0, 1, 1]
        assert report.results[2].payload["deduped_from"] == "b"
        assert report.jobs_executed == 2
        assert report.total_retries == 1

    def test_no_fault_plan_means_no_retries(self):
        runner = BatchRunner(RunnerConfig(workers=0))
        report = runner.run(
            [SolveJob(job_id="plain", pattern="ab", solver_timeout=1.0)]
        )
        assert report.results[0].status == "ok"
        assert report.total_retries == 0


class TestPoisonQuarantine:
    def test_poison_job_quarantines_without_starving_twins(self, tmp_path):
        """A job that kills every worker it touches is quarantined after
        ``quarantine_after`` kills; its coalesced twin shares the result
        (one flight, one quarantine) and healthy jobs still complete."""
        server, sock = start_daemon(
            tmp_path,
            workers=1,
            retry_max=5,
            retry_backoff_s=0.05,
            quarantine_after=2,
            fault_plan={
                "rules": [
                    {
                        "site": "worker:job",
                        "action": "kill",
                        "match": "poison",
                    }
                ]
            },
        )
        with ServeClient(socket_path=sock, timeout=60.0) as client:
            first = client.submit(
                {
                    "kind": "solve",
                    "job_id": "poison-a",
                    "pattern": "xy",
                    "solver_timeout": 1.0,
                }
            )
            twin = client.submit(
                {
                    "kind": "solve",
                    "job_id": "poison-b",
                    "pattern": "xy",
                    "solver_timeout": 1.0,
                }
            )
            healthy = client.submit(
                {
                    "kind": "solve",
                    "job_id": "healthy-1",
                    "pattern": "ab",
                    "solver_timeout": 1.0,
                }
            )
            assert twin["coalesced"] is True
            results = {
                request_id: result
                for request_id, result, _ in client.iter_results()
            }
            assert results[first["id"]].status == "quarantined"
            assert results[twin["id"]].status == "quarantined"
            assert "killing" in results[first["id"]].error
            assert results[first["id"]].retries == 1
            assert results[healthy["id"]].status == "ok"
            health = client.health()
        assert health["live"] is True
        assert health["quarantined"] == 1  # one flight, not one per twin
        assert health["retries"] >= 1
        assert health["runner"]["worker_crashes"] >= 2


class TestCorruptStoreEviction:
    def test_corrupt_query_store_entry_evicted_and_rewritable(
        self, tmp_path
    ):
        store = DiskStore(str(tmp_path / "qstore"), QUERY_CODEC)
        store.put("fp-chaos", CachedResult("unsat", None))
        assert store.get("fp-chaos").status == "unsat"
        faults.install(
            {
                "rules": [
                    {
                        "site": "query_store:get",
                        "action": "corrupt",
                        "nth": 1,
                    }
                ]
            }
        )
        # The corrupted entry reads as a miss, is evicted, and the
        # store keeps working — a bad directory degrades to solving.
        assert store.get("fp-chaos") is None
        assert store.failures == 1
        assert not os.path.exists(store._entry("fp-chaos"))
        store.put("fp-chaos", CachedResult("unsat", None))
        assert store.get("fp-chaos").status == "unsat"

    def test_corrupt_dfa_store_entry_evicted_and_recompiled(
        self, tmp_path, clean_automata
    ):
        store = DiskStore(str(tmp_path / "dstore"), DFA_CODEC)
        store.put("chaosdfa", dfa_for_pattern("ab*c"))
        assert store.get("chaosdfa") is not None
        faults.install(
            {
                "rules": [
                    {
                        "site": "dfa_store:get",
                        "action": "corrupt",
                        "nth": 1,
                    }
                ]
            }
        )
        assert store.get("chaosdfa") is None
        assert store.failures == 1
        assert not os.path.exists(store._entry("chaosdfa"))
        store.put("chaosdfa", dfa_for_pattern("ab*c"))
        assert store.get("chaosdfa").accepts_word("abbc")


class TestServeRecovery:
    def test_client_survives_daemon_restart(self, tmp_path):
        server_a, sock = start_daemon(tmp_path, workers=0)
        client = ServeClient(
            socket_path=sock,
            timeout=15.0,
            reconnect=True,
            reconnect_backoff_s=0.05,
        )
        try:
            client.ping()
            server_a.stop()
            if os.path.exists(sock):
                os.unlink(sock)  # asyncio does not reap unix sockets
            runner = BatchRunner(RunnerConfig(workers=0))
            server_b = ServeServer(
                runner, ServeConfig(socket=sock)
            ).start_background()
            _STARTED.append(server_b)
            # The first request on the dead connection redials with
            # backoff and retries — callers never see the restart.
            client.ping()
            ack = client.submit(
                {
                    "kind": "solve",
                    "job_id": "after-restart",
                    "pattern": "ab",
                    "solver_timeout": 1.0,
                }
            )
            assert client.wait_result(ack["id"]).status == "ok"
        finally:
            client.close()

    def test_reconnect_gives_up_after_bounded_attempts(self, tmp_path):
        server, sock = start_daemon(tmp_path, workers=0)
        client = ServeClient(
            socket_path=sock,
            timeout=5.0,
            reconnect=True,
            reconnect_attempts=2,
            reconnect_backoff_s=0.01,
        )
        try:
            client.ping()  # ensure the daemon accepted this connection
            server.stop()
            if os.path.exists(sock):
                os.unlink(sock)  # nothing will ever listen here again
            with pytest.raises(ConnectionError):
                client.ping()
        finally:
            client.close()

    def test_dropped_frame_times_out_then_recovers(self, tmp_path):
        """A dropped response frame surfaces as a read timeout (the
        connection is alive — auto-reconnect must NOT eat it); the
        connection's read stream is poisoned past a timeout, so the
        caller redials explicitly and the next request goes through
        once the rule's fire budget is spent."""
        server, sock = start_daemon(tmp_path, workers=0)
        client = ServeClient(socket_path=sock, timeout=0.5, reconnect=True)
        try:
            faults.install(
                {
                    "rules": [
                        {
                            "site": "serve:frame",
                            "action": "drop",
                            "match": "pong",
                            "count": 1,
                        }
                    ]
                }
            )
            with pytest.raises(socket.timeout):
                client.ping()
            client.reconnect()
            client.ping()  # rule exhausted: the daemon answers again
        finally:
            client.close()

    def test_delayed_frame_still_delivered(self, tmp_path):
        server, sock = start_daemon(tmp_path, workers=0)
        client = ServeClient(socket_path=sock, timeout=15.0)
        try:
            faults.install(
                {
                    "rules": [
                        {
                            "site": "serve:frame",
                            "action": "delay",
                            "match": "pong",
                            "delay_s": 0.15,
                            "count": 1,
                        }
                    ]
                }
            )
            started = time.monotonic()
            client.ping()
            assert time.monotonic() - started >= 0.1
        finally:
            client.close()

    def test_health_op_reports_ready_daemon(self, tmp_path):
        server, sock = start_daemon(tmp_path, workers=0)
        with ServeClient(socket_path=sock, timeout=15.0) as client:
            health = client.health()
        assert health["live"] is True
        assert health["ready"] is True
        assert health["draining"] is False
        assert health["runner"]["mode"] == "inline"
        assert "faults" not in health  # only reported when a plan is live
