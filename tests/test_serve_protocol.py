"""Wire-protocol and connection-lifecycle tests for the serve daemon.

The daemon runs in process (see ``serve_testing``) so job timing is
controlled with gates and the suite needs no subprocess except the one
test that must observe a real SIGTERM exit status.
"""

import json
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.serve import protocol
from repro.serve.client import Rejected, ServeClient, ServeError
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
    reset_gates()  # opens any still-held gate so jobs can finish
    stop_started()


@pytest.fixture
def gate_kind(monkeypatch):
    monkeypatch.setitem(jobs._JOB_KINDS, "gate", GateJob)


def raw_connect(sock_path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(sock_path)
    sock.settimeout(15.0)
    return sock, sock.makefile("rb")


def read_frame(reader):
    line = reader.readline()
    assert line, "daemon closed the connection unexpectedly"
    return json.loads(line)


class TestFrames:
    def test_round_trip(self):
        frame = {"op": "submit", "id": 7, "job": {"kind": "solve"}}
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_encode_is_one_line(self):
        data = protocol.encode_frame({"a": "b\nc"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1

    def test_bad_json_raises(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_frame(b"{nope")
        assert info.value.code == "bad-json"

    def test_non_object_raises(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_frame(b"[1, 2]")
        assert info.value.code == "bad-json"

    def test_undecodable_bytes_raise(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"\xff\xfe{}")


class TestParseRequest:
    def test_submit(self):
        request = protocol.parse_request(
            {"op": "submit", "id": "r1", "job": {"kind": "solve"}}
        )
        assert request.op == "submit"
        assert request.request_id == "r1"
        assert request.job_spec == {"kind": "solve"}

    def test_unknown_op(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.parse_request({"op": "shutdown"})
        assert info.value.code == "unknown-op"

    def test_submit_without_job(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.parse_request({"op": "submit", "id": 1})
        assert info.value.code == "bad-request"

    def test_job_without_kind(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.parse_request(
                {"op": "submit", "id": 1, "job": {"pattern": "a"}}
            )
        assert info.value.code == "bad-request"


class TestWireErrors:
    def test_malformed_json_keeps_connection(self, tmp_path):
        _, sock_path = start_daemon(tmp_path)
        sock, reader = raw_connect(sock_path)
        try:
            sock.sendall(b"{this is not json\n")
            frame = read_frame(reader)
            assert frame["op"] == "error"
            assert frame["error"] == "bad-json"
            # The newline resynchronized the stream: a ping still works.
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 9}))
            assert read_frame(reader)["op"] == "pong"
        finally:
            sock.close()

    def test_oversized_frame_errors_and_closes(self, tmp_path):
        _, sock_path = start_daemon(tmp_path, max_frame_bytes=1024)
        sock, reader = raw_connect(sock_path)
        try:
            sock.sendall(b"x" * 4096 + b"\n")
            frame = read_frame(reader)
            assert frame["op"] == "error"
            assert frame["error"] == "oversized-frame"
            assert reader.readline() == b""  # connection closed
        finally:
            sock.close()

    def test_unknown_kind_is_bad_request(self, tmp_path):
        _, sock_path = start_daemon(tmp_path)
        sock, reader = raw_connect(sock_path)
        try:
            sock.sendall(
                protocol.encode_frame(
                    {"op": "submit", "id": 4, "job": {"kind": "nope"}}
                )
            )
            frame = read_frame(reader)
            assert frame["op"] == "error"
            assert frame["error"] == "bad-request"
            assert frame["id"] == 4
            assert "nope" in frame["detail"]
        finally:
            sock.close()

    def test_client_error_raises_serve_error(self, tmp_path):
        _, sock_path = start_daemon(tmp_path)
        with ServeClient(socket_path=sock_path, timeout=15.0) as client:
            with pytest.raises(ServeError):
                client.submit({"kind": "nope"})


class TestRequests:
    def test_ping_and_stats_shapes(self, tmp_path):
        _, sock_path = start_daemon(tmp_path)
        with ServeClient(socket_path=sock_path, timeout=15.0) as client:
            client.ping()
            frame = client.stats()
            server = frame["server"]
            assert server["clients_connected"] == 1
            assert server["queue_depth"] == 0
            assert server["in_flight"] == 0
            assert "singleflight_coalesced" in server
            assert "pid" in frame["obs"]

    def test_submit_acks_echo_ids_and_fill_job_id(self, tmp_path):
        _, sock_path = start_daemon(tmp_path)
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            ack = client.submit({"kind": "solve", "pattern": "a+"})
            assert ack["job_id"].startswith("job-")
            assert ack["coalesced"] is False
            result = client.wait_result(ack["id"])
            assert result.status == "ok"
            assert result.job_id == ack["job_id"]

    def test_tcp_mode(self, tmp_path):
        from repro.serve.server import ServeConfig, ServeServer
        from repro.service.runner import BatchRunner, RunnerConfig

        server = ServeServer(
            BatchRunner(RunnerConfig(workers=0)),
            ServeConfig(port=0),
        ).start_background()
        try:
            assert server.address[0] == "tcp"
            port = server.address[2]
            with ServeClient(port=port, timeout=60.0) as client:
                results = client.run(
                    [{"kind": "solve", "pattern": "t[uv]+"}]
                )
            assert results[0].status == "ok"
            assert results[0].payload["found"] is True
        finally:
            server.stop()


class TestStreaming:
    def test_results_stream_as_completed(self, tmp_path, gate_kind):
        _, sock_path = start_daemon(tmp_path, max_inflight=2)
        with ServeClient(socket_path=sock_path, timeout=15.0) as client:
            slow = client.submit({"kind": "gate", "gate": "slow"})
            fast = client.submit({"kind": "gate", "gate": "fast"})
            open_gate("fast")
            arrivals = []
            for request_id, result, _ in client.iter_results():
                arrivals.append(request_id)
                if request_id == fast["id"]:
                    open_gate("slow")  # only now may the slow job end
            assert arrivals == [fast["id"], slow["id"]]

    def test_concurrent_clients_interleave(self, tmp_path, gate_kind):
        server, sock_path = start_daemon(tmp_path, max_inflight=2)
        a = ServeClient(socket_path=sock_path, timeout=15.0)
        b = ServeClient(socket_path=sock_path, timeout=15.0)
        try:
            slow_a = a.submit({"kind": "gate", "gate": "a-slow"})
            fast_b = b.submit({"kind": "gate", "gate": "b-fast"})
            open_gate("b-fast")
            # B's result lands while A's job is still in flight.
            result_b = b.wait_result(fast_b["id"])
            assert result_b.status == "ok"
            stats = b.stats()["server"]
            assert stats["clients_connected"] == 2
            assert stats["in_flight"] == 1
            open_gate("a-slow")
            assert a.wait_result(slow_a["id"]).status == "ok"
        finally:
            a.close()
            b.close()


class TestDisconnect:
    def test_mid_job_disconnect_drops_result_and_recycles(
        self, tmp_path, gate_kind
    ):
        server, sock_path = start_daemon(tmp_path)
        victim = ServeClient(socket_path=sock_path, timeout=15.0)
        victim.submit({"kind": "gate", "gate": "held"})
        wait_until(lambda: server.scheduler.in_flight == 1)
        victim.close()
        wait_until(lambda: not server._connections)
        open_gate("held")
        wait_until(lambda: server.scheduler.completed == 1)
        assert server.scheduler.results_dropped == 1
        # The worker slot came back: a fresh client's job runs fine.
        with ServeClient(socket_path=sock_path, timeout=60.0) as client:
            results = client.run([{"kind": "solve", "pattern": "r+s"}])
        assert results[0].status == "ok"

    def test_disconnect_cancels_queued_jobs(self, tmp_path, gate_kind):
        server, sock_path = start_daemon(tmp_path, max_inflight=1)
        victim = ServeClient(socket_path=sock_path, timeout=15.0)
        victim.submit({"kind": "gate", "gate": "head"})
        victim.submit({"kind": "gate", "gate": "queued-1"})
        victim.submit({"kind": "gate", "gate": "queued-2"})
        wait_until(lambda: server.scheduler.queue_depth == 2)
        victim.close()
        wait_until(lambda: server.scheduler.queue_depth == 0)
        open_gate("head")
        wait_until(lambda: server.scheduler.completed == 1)
        # The queued jobs never executed — their submitter is gone.
        assert server.scheduler.executed == 1


class TestOverload:
    def test_explicit_overloaded_rejection(self, tmp_path, gate_kind):
        _, sock_path = start_daemon(
            tmp_path, max_inflight=1, max_queue=1
        )
        with ServeClient(socket_path=sock_path, timeout=15.0) as client:
            client.submit({"kind": "gate", "gate": "busy"})  # in flight
            client.submit({"kind": "gate", "gate": "parked"})  # queued
            with pytest.raises(Rejected) as info:
                client.submit({"kind": "gate", "gate": "extra"})
            assert info.value.reason == "overloaded"
            assert info.value.frame["max_queue"] == 1
            open_gate("busy")
            open_gate("parked")
            done = {rid for rid, _, _ in client.iter_results()}
            assert len(done) == 2


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        sock_path = str(tmp_path / "drain.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", sock_path, "-w", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            wait_until(lambda: os.path.exists(sock_path), timeout=30.0)
            with ServeClient(socket_path=sock_path, timeout=60.0) as client:
                results = client.run(
                    [{"kind": "solve", "pattern": "d(e|f)g"}]
                )
            assert results[0].status == "ok"
            daemon.send_signal(signal.SIGTERM)
            output, _ = daemon.communicate(timeout=60.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert daemon.returncode == 0, output
        assert "drained, exiting" in output
