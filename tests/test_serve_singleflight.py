"""Cross-client single-flight, fairness, and the serve/batch equivalence.

Gate jobs (see ``serve_testing``) hold the pipeline so coalescing
windows are deterministic: a duplicate submitted while its twin is
queued or in flight *must* coalesce — no sleeps, no timing luck.
"""

import itertools
import socket
import threading
import time
import types

import pytest

from repro.obs import metrics
from repro.obs.schema import validate_metrics_payload
from repro.serve import protocol, scheduler
from repro.serve.client import ServeClient
from repro.service import jobs
from repro.service.jobs import AnalyzeJob, SolveJob, SurveyJob
from repro.service.report import merge_solve, merge_survey
from repro.service.runner import BatchRunner, RunnerConfig
from repro.solver import core as solver_core

from serve_testing import (
    GateJob,
    RECORD,
    RecordJob,
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
    monkeypatch.setitem(jobs._JOB_KINDS, "record", RecordJob)


class TestSingleFlight:
    def test_duplicate_in_flight_coalesces_across_clients(
        self, tmp_path, gate_kind
    ):
        server, sock_path = start_daemon(tmp_path)
        a = ServeClient(socket_path=sock_path, timeout=15.0)
        b = ServeClient(socket_path=sock_path, timeout=15.0)
        try:
            first = a.submit({"kind": "gate", "gate": "g", "key": "same"})
            wait_until(lambda: server.scheduler.in_flight == 1)
            second = b.submit({"kind": "gate", "gate": "g", "key": "same"})
            assert first["coalesced"] is False
            assert second["coalesced"] is True
            open_gate("g")
            result_a = a.wait_result(first["id"])
            result_b = b.wait_result(second["id"])
            assert result_a.status == result_b.status == "ok"
            # The replayed copy carries its own id and the marker.
            assert result_b.job_id == second["job_id"]
            assert result_b.payload["deduped_from"] == first["job_id"]
            assert "deduped_from" not in result_a.payload
            stats = server.scheduler
            assert stats.executed == 1
            assert stats.coalesced == 1
            assert stats.completed == 1
        finally:
            a.close()
            b.close()

    def test_fan_out_to_many_clients(self, tmp_path, gate_kind):
        server, sock_path = start_daemon(tmp_path)
        clients = [
            ServeClient(socket_path=sock_path, timeout=15.0)
            for _ in range(4)
        ]
        try:
            acks = [
                client.submit({"kind": "gate", "gate": "fan", "key": "k"})
                for client in clients
            ]
            assert [ack["coalesced"] for ack in acks] == [
                False, True, True, True,
            ]
            open_gate("fan")
            results = [
                client.wait_result(ack["id"])
                for client, ack in zip(clients, acks)
            ]
            assert all(r.status == "ok" for r in results)
            assert server.scheduler.executed == 1
            assert server.scheduler.coalesced == 3
        finally:
            for client in clients:
                client.close()

    def test_queued_duplicates_coalesce_without_queue_slots(
        self, tmp_path, gate_kind
    ):
        # One slot in flight, one queue slot — yet any number of
        # duplicates of the queued job are admitted (they attach).
        server, sock_path = start_daemon(
            tmp_path, max_inflight=1, max_queue=1
        )
        a = ServeClient(socket_path=sock_path, timeout=15.0)
        b = ServeClient(socket_path=sock_path, timeout=15.0)
        try:
            a.submit({"kind": "gate", "gate": "head"})  # occupies the pool
            queued = a.submit({"kind": "gate", "gate": "q", "key": "dup"})
            assert server.scheduler.queue_depth == 1  # queue now full
            twin = b.submit({"kind": "gate", "gate": "q", "key": "dup"})
            assert twin["coalesced"] is True
            from repro.serve.client import Rejected

            with pytest.raises(Rejected):  # a *distinct* job is shed
                b.submit({"kind": "gate", "gate": "other"})
            open_gate("head")
            open_gate("q")
            assert a.wait_result(queued["id"]).status == "ok"
            assert b.wait_result(twin["id"]).status == "ok"
        finally:
            a.close()
            b.close()

    def test_owner_disconnect_reassigns_shared_flight(
        self, tmp_path, gate_kind
    ):
        server, sock_path = start_daemon(tmp_path, max_inflight=1)
        owner = ServeClient(socket_path=sock_path, timeout=15.0)
        survivor = ServeClient(socket_path=sock_path, timeout=15.0)
        try:
            owner.submit({"kind": "gate", "gate": "head"})
            shared = owner.submit(
                {"kind": "gate", "gate": "s", "key": "shared"}
            )
            twin = survivor.submit(
                {"kind": "gate", "gate": "s", "key": "shared"}
            )
            assert twin["coalesced"] is True
            owner.close()
            wait_until(lambda: len(server._connections) == 1)
            open_gate("head")
            open_gate("s")
            result = survivor.wait_result(twin["id"])
            assert result.status == "ok"
            # The survivor's copy replays the (gone) owner's execution.
            assert result.payload["deduped_from"] == shared["job_id"]
        finally:
            owner.close()
            survivor.close()

    def test_single_flight_can_be_disabled(self, tmp_path, gate_kind):
        server, sock_path = start_daemon(
            tmp_path, single_flight=False, max_inflight=2
        )
        with ServeClient(socket_path=sock_path, timeout=15.0) as client:
            one = client.submit({"kind": "gate", "gate": "x", "key": "k"})
            two = client.submit({"kind": "gate", "gate": "x", "key": "k"})
            assert two["coalesced"] is False
            open_gate("x")
            done = {rid for rid, _, _ in client.iter_results()}
            assert done == {one["id"], two["id"]}
            assert server.scheduler.executed == 2
            assert server.scheduler.coalesced == 0


def _solve(pattern="x(y|z)+w", **extra):
    return dict({"kind": "solve", "pattern": pattern}, **extra)


#: A literal no solver bound decides (the ``serve`` corpus has it).
LOOKAHEAD = r"(?=.*\d)(?=.*[a-z]).{8,}"


def _solver_clock(monkeypatch, monotonic):
    """Give the solver core its own ``time.monotonic``."""
    monkeypatch.setattr(
        solver_core,
        "time",
        types.SimpleNamespace(
            monotonic=monotonic, perf_counter=time.perf_counter
        ),
    )


def _run_one(client, spec):
    """Submit one spec and wait for it: ``(ack, result)``."""
    ack = client.submit(spec)
    return ack, client.wait_result(ack["id"])


class TestReplay:
    """Finished flights with a definitive answer answer later twins."""

    def test_sequential_duplicate_is_replayed_without_dispatch(
        self, tmp_path
    ):
        server, sock_path = start_daemon(tmp_path)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            first, original = _run_one(client, _solve(job_id="first"))
        assert original.payload["found"] is True
        executed = server.scheduler.executed
        # A raw connection sees the frames in the order they are sent.
        raw = socket.socket(socket.AF_UNIX)
        raw.settimeout(15.0)
        raw.connect(sock_path)
        try:
            raw.sendall(
                protocol.encode_frame(
                    {"op": "submit", "id": "r1",
                     "job": _solve(job_id="second")}
                )
            )
            with raw.makefile("rb") as reader:
                ack = protocol.decode_frame(reader.readline())
                frame = protocol.decode_frame(reader.readline())
        finally:
            raw.close()
        assert (ack["op"], ack["coalesced"]) == ("queued", True)
        assert (frame["op"], frame["coalesced"]) == ("result", True)
        replayed = frame["result"]
        assert replayed["job_id"] == "second"
        assert replayed["status"] == "ok"
        assert replayed["payload"]["deduped_from"] == first["job_id"]
        assert replayed["payload"]["word"] == original.payload["word"]
        assert "solver_queries" not in replayed["payload"]
        assert replayed["seconds"] == 0.0
        assert replayed["cache_hits"] == replayed["cache_misses"] == 0
        assert server.scheduler.executed == executed
        stats = server.scheduler.stats()
        assert stats["singleflight_replayed"] == 1
        assert stats["singleflight_coalesced"] == 1
        assert stats["jobs_completed"] == 1

    def test_unsat_result_is_replayed(self, tmp_path):
        server, sock_path = start_daemon(tmp_path)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            first, original = _run_one(client, _solve("a^b"))
            ack, second = _run_one(client, _solve("a^b"))
        assert original.payload["found"] is False
        assert original.payload["settled"] is True
        assert ack["coalesced"] is True
        assert second.payload["deduped_from"] == first["job_id"]
        assert second.payload["found"] is False
        assert server.scheduler.executed == 1
        assert server.scheduler.replayed == 1

    def test_budget_unknown_is_replayed(self, tmp_path, monkeypatch):
        # Jobs run inline, in this process: freeze the solver's clock so
        # the query can only stop on its work budget.
        _solver_clock(monkeypatch, lambda: 1000.0)
        server, sock_path = start_daemon(tmp_path)
        spec = _solve(LOOKAHEAD, solver_timeout=0.1)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            first, original = _run_one(client, spec)
            ack, second = _run_one(client, spec)
        assert original.payload["found"] is False
        assert original.payload["unknown_causes"] == {"budget": 1}
        assert ack["coalesced"] is True
        assert second.payload["deduped_from"] == first["job_id"]
        assert server.scheduler.executed == 1
        assert server.scheduler.replayed == 1

    def test_timeout_unknown_is_not_replayed(self, tmp_path, monkeypatch):
        # Every clock read is a second later: the wall-clock backstop
        # ends the query before its budget does.
        ticks = itertools.count()
        _solver_clock(monkeypatch, lambda: float(next(ticks)))
        server, sock_path = start_daemon(tmp_path)
        spec = _solve(LOOKAHEAD, solver_timeout=0.1)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            _, first = _run_one(client, spec)
            ack, second = _run_one(client, spec)
        assert first.payload["found"] is False
        assert first.payload["settled"] is False
        assert first.payload["unknown_causes"] == {"timeout": 1}
        assert ack["coalesced"] is False
        assert "deduped_from" not in second.payload
        assert server.scheduler.executed == 2
        assert server.scheduler.replayed == 0

    @pytest.mark.parametrize(
        "rule, status",
        [
            ({"action": "error", "match": "victim"}, "error"),
            ({"action": "wedge", "match": "victim"}, "timeout"),
        ],
        ids=["worker-error", "scheduler-timeout"],
    )
    def test_failed_result_is_not_replayed(self, tmp_path, rule, status):
        server, sock_path = start_daemon(
            tmp_path,
            workers=1,
            job_timeout=1.0,
            fault_plan={"rules": [dict(rule, site="worker:job")]},
        )
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            _, first = _run_one(client, _solve(job_id="victim"))
            ack, second = _run_one(client, _solve(job_id="again"))
        assert first.status == status
        assert ack["coalesced"] is False
        assert second.status == "ok"
        assert "deduped_from" not in second.payload
        assert server.scheduler.executed == 2
        assert server.scheduler.replayed == 0

    def test_retried_result_is_not_replayed(self, tmp_path):
        # The worker dies on its second job; the retry runs on a fresh
        # worker, whose counters restart, so it completes.
        server, sock_path = start_daemon(
            tmp_path,
            workers=1,
            retry_max=1,
            retry_backoff_s=0.05,
            fault_plan={
                "rules": [
                    {"site": "worker:job", "action": "kill", "nth": 2,
                     "match": "victim"}
                ]
            },
        )
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            _run_one(client, _solve("warm"))
            _, first = _run_one(client, _solve(job_id="victim"))
            ack, second = _run_one(client, _solve(job_id="again"))
        assert (first.status, first.payload["found"]) == ("ok", True)
        assert first.retries == 1
        assert ack["coalesced"] is False
        assert "deduped_from" not in second.payload
        assert server.scheduler.replayed == 0

    def test_key_covers_timeout_negation_and_backend(self, tmp_path):
        server, sock_path = start_daemon(tmp_path)
        variants = [
            _solve(),
            _solve(solver_timeout=1.5),
            _solve(negate=True),
            _solve(backend="native"),
        ]
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            acks = [_run_one(client, spec)[0] for spec in variants]
            assert [ack["coalesced"] for ack in acks] == [False] * 4
            assert server.scheduler.executed == 4
            # Each variant now replays its own answer.
            for spec, ack in zip(variants, acks):
                again, result = _run_one(client, spec)
                assert again["coalesced"] is True
                assert result.payload["deduped_from"] == ack["job_id"]
        assert server.scheduler.executed == 4
        assert server.scheduler.replayed == 4

    def test_remote_flight_is_replayed_too(self, tmp_path):
        server, sock_path = start_daemon(tmp_path, cluster=True)
        start_worker(sock_path, capacity=1, worker_id="node-r")
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            first, _ = _run_one(client, _solve())
            ack, result = _run_one(client, _solve())
        assert ack["coalesced"] is True
        assert result.payload["deduped_from"] == first["job_id"]
        stats = server.scheduler.stats()
        assert (stats["remote_dispatched"], stats["local_dispatched"]) == (
            1, 0,
        )
        assert stats["singleflight_replayed"] == 1

    def test_lru_evicts_least_recently_used_at_the_cap(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(scheduler, "REPLAY_CAP", 2)
        server, sock_path = start_daemon(tmp_path)

        def coalesced(client, pattern):
            return _run_one(client, _solve(pattern))[0]["coalesced"]

        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            for pattern in ("a1b", "a2b", "a3b"):
                assert coalesced(client, pattern) is False
            # a1b was evicted; a3b and a2b are replayed, in that order,
            # so a2b becomes the most recently used.
            assert coalesced(client, "a3b") is True
            assert coalesced(client, "a2b") is True
            assert coalesced(client, "a1b") is False  # evicts a3b
            assert coalesced(client, "a2b") is True
            assert coalesced(client, "a3b") is False
        assert len(server.scheduler._replay) == 2
        assert server.scheduler.replayed == 3

    def test_disabled_single_flight_executes_every_submit(self, tmp_path):
        server, sock_path = start_daemon(tmp_path, single_flight=False)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            acks = [_run_one(client, _solve())[0] for _ in range(3)]
        assert [ack["coalesced"] for ack in acks] == [False] * 3
        assert server.scheduler.executed == 3
        assert server.scheduler.replayed == 0

    def test_replayed_gauge_is_mirrored(self, tmp_path):
        server, sock_path = start_daemon(tmp_path)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            for _ in range(2):
                _run_one(client, _solve())
        registry = metrics.MetricsRegistry()
        previous = metrics.get_registry()
        metrics.set_registry(registry)
        try:
            stats = server.server_stats()
        finally:
            metrics.set_registry(previous)
        assert stats["singleflight_replayed"] == 1
        snapshot = registry.snapshot()
        assert validate_metrics_payload(snapshot) == []
        [gauge] = snapshot["gauges"]["serve_singleflight_replayed"]
        assert gauge["value"] == 1


class TestFairness:
    def test_round_robin_oldest_job_per_client(self, tmp_path, gate_kind):
        server, sock_path = start_daemon(tmp_path, max_inflight=1)
        a = ServeClient(socket_path=sock_path, timeout=15.0)
        b = ServeClient(socket_path=sock_path, timeout=15.0)
        try:
            a.submit({"kind": "gate", "gate": "head"})  # holds the slot
            for note in ("a1", "a2", "a3"):
                a.submit({"kind": "record", "note": note})
            b.submit({"kind": "record", "note": "b1"})
            wait_until(lambda: server.scheduler.queue_depth == 4)
            open_gate("head")
            wait_until(lambda: server.scheduler.completed == 5)
            # B's lone job is not starved behind A's backlog: dispatch
            # alternates clients, oldest job first within each.
            assert RECORD == ["a1", "b1", "a2", "a3"]
        finally:
            a.close()
            b.close()


class TestServeMatchesBatch:
    def _mixed_jobs(self):
        program = (
            'var s = symbol("s", "");\n'
            'if (/^a(b|c)+$/.test(s)) { 1; } else { 2; }\n'
        )
        mixed = []
        for i in range(4):
            # Every client submits the same duplicated solve patterns —
            # the cross-client coalescing case.
            mixed.append(
                [
                    SolveJob(job_id=f"c{i}-s0", pattern="x(y|z)+w"),
                    SolveJob(job_id=f"c{i}-s1", pattern="x(y|z)+w"),
                    SolveJob(job_id=f"c{i}-s2", pattern="p+q", negate=True),
                    SolveJob(job_id=f"c{i}-s3", pattern=f"u{{{i + 1}}}v"),
                    SolveJob(job_id=f"c{i}-s4", pattern="[0-9]+-[a-f]+"),
                    AnalyzeJob(
                        job_id=f"c{i}-a0", source=program,
                        max_tests=4, time_budget=5.0,
                    ),
                    AnalyzeJob(
                        job_id=f"c{i}-a1", source=program,
                        max_tests=4, time_budget=5.0,
                    ),
                    SurveyJob(
                        job_id=f"c{i}-v0",
                        package_files=[["var r = /a(b)c/; var t = /d+/;"]],
                    ),
                    SolveJob(job_id=f"c{i}-s5", pattern="m[no]p"),
                    SolveJob(job_id=f"c{i}-s6", pattern="x(y|z)+w"),
                ]
            )
        return mixed

    def test_four_clients_forty_jobs_match_batch(
        self, tmp_path, gate_kind
    ):
        per_client = self._mixed_jobs()
        server, sock_path = start_daemon(tmp_path)
        # Hold the pipeline so every duplicate is submitted while its
        # twin is still queued — the coalesce window is deterministic.
        warmup = ServeClient(socket_path=sock_path, timeout=60.0)
        warmup.submit({"kind": "gate", "gate": "open"})
        collected = {}
        errors = []

        def run_client(client_jobs):
            try:
                with ServeClient(
                    socket_path=sock_path, timeout=120.0
                ) as client:
                    results = client.run(
                        [job.to_spec() for job in client_jobs]
                    )
                    for job, result in zip(client_jobs, results):
                        collected[job.job_id] = result
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run_client, args=(client_jobs,))
            for client_jobs in per_client
        ]
        for thread in threads:
            thread.start()
        wait_until(lambda: server.scheduler.submitted == 41, timeout=30.0)
        open_gate("open")
        for thread in threads:
            thread.join(timeout=120.0)
        warmup.close()
        assert not errors
        assert len(collected) == 40
        assert all(r.status == "ok" for r in collected.values())
        # Duplicates coalesced across clients (counter-asserted): 12
        # copies of x(y|z)+w → 1 execution, 4 copies each of the other
        # repeated specs → 1 execution each.
        assert server.scheduler.coalesced >= 11
        assert server.scheduler.executed < 40

        # The daemon's results aggregate exactly like the same jobs run
        # through the classic batch path (order-independent merging).
        flat = [job for client_jobs in per_client for job in client_jobs]
        batch = BatchRunner(RunnerConfig(workers=0, dedup=True)).run(flat)
        served = list(collected.values())
        batch_solve = merge_solve(
            [r for r in batch.results if r.kind == "solve"]
        )
        serve_solve = merge_solve(
            [r for r in served if r.kind == "solve"]
        )
        for field in ("jobs", "solved", "unsolved", "failed_jobs"):
            assert serve_solve[field] == batch_solve[field]
        batch_survey = merge_survey(
            [r for r in batch.results if r.kind == "survey"]
        )
        serve_survey = merge_survey(
            [r for r in served if r.kind == "survey"]
        )
        assert serve_survey.total_regexes == batch_survey.total_regexes
        assert serve_survey.unique_regexes == batch_survey.unique_regexes
        solved_words = {
            r.job_id: r.payload.get("word")
            for r in served
            if r.kind == "solve"
        }
        batch_words = {
            r.job_id: r.payload.get("word")
            for r in batch.results
            if r.kind == "solve"
        }
        assert solved_words == batch_words
