"""Tests for the service CLI verbs and the HTTP API layer."""

import json
import socket
import threading

import pytest

from repro.cli import build_parser, main
from repro.service.api import (
    ENDPOINT_FILE,
    ServiceClient,
    ServiceServer,
    serve_forever,
)
from repro.service.chaos import FakeClock, ScriptedExecutor
from repro.service.daemon import ControlPlane
from repro.service.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailable,
    UnknownJobError,
)
from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.retry import RetryPolicy
from repro.service.store import DurableStore


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------
def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve", "--dir", "/tmp/x"])
    assert args.dir == "/tmp/x"
    assert args.port == 0
    assert args.host == "127.0.0.1"
    assert args.max_seconds is None
    assert args.idle_exit is None
    assert not args.fsync


def test_submit_parser_spec_and_knobs():
    args = build_parser().parse_args([
        "submit", "--dir", "d", "--kind", "sim", "--spec", '{"apps": 4}',
        "--tenant", "acme", "--gpus", "2", "--priority", "5",
    ])
    assert args.kind == "sim"
    assert json.loads(args.spec) == {"apps": 4}
    assert args.tenant == "acme"
    assert args.gpus == 2
    assert args.priority == 5


def test_status_and_cancel_parsers():
    args = build_parser().parse_args(["status", "--dir", "d"])
    assert args.job is None
    args = build_parser().parse_args(["status", "--dir", "d", "job-1"])
    assert args.job == "job-1"
    args = build_parser().parse_args(["cancel", "--dir", "d", "job-1"])
    assert args.job == "job-1"


def test_sweep_retries_flag():
    args = build_parser().parse_args(["sweep", "--retries", "2"])
    assert args.retries == 2


def test_submit_rejects_bad_spec(tmp_path, capsys):
    code = main(["submit", "--dir", str(tmp_path), "--spec", "not json"])
    assert code == 2
    assert "bad --spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [("submit",), ("status",), ("status", "job-1"), ("cancel", "job-1"), ("worker",)],
)
def test_client_verbs_report_a_service_error_and_exit_1(tmp_path, capsys, argv):
    """``repro.cli.service``'s one wrapper: no daemon behind ``--dir``."""
    assert main([argv[0], "--dir", str(tmp_path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{argv[0]} failed (no_endpoint): ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "reply",
    [b"", b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"job_id": "jo'],
    ids=["no-reply", "truncated-body"],
)
def test_a_dropped_connection_is_unreachable_not_a_traceback(tmp_path, capsys, reply):
    """A daemon that reads the request and closes the socket mid-response
    (say, as its ``--idle-exit`` shuts it down) is ``unreachable``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def answer_then_hang_up():
        connection, _ = listener.accept()
        with connection:
            connection.recv(65536)
            connection.sendall(reply)

    thread = threading.Thread(target=answer_then_hang_up, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    (tmp_path / ENDPOINT_FILE).write_text(json.dumps({"host": host, "port": port}))
    try:
        assert main(["submit", "--dir", str(tmp_path)]) == 1
    finally:
        thread.join(timeout=5)
        listener.close()
    captured = capsys.readouterr()
    assert captured.err.startswith("submit failed (unreachable): ")


def test_client_without_endpoint_file(tmp_path):
    with pytest.raises(ServiceUnavailable) as excinfo:
        ServiceClient.from_dir(tmp_path)
    assert excinfo.value.reason == "no_endpoint"


# ----------------------------------------------------------------------
# HTTP round trip (in-process server, manual ticks)
# ----------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path, serve):
    admission = AdmissionController()
    admission.set_policy(TenantPolicy(tenant="limited", max_queued_jobs=1))
    plane = ControlPlane(
        DurableStore(tmp_path / "store"),
        executor=ScriptedExecutor(),
        admission=admission,
        retry=RetryPolicy(base_delay=0.5, jitter=0.0),
        clock=FakeClock(),
    )
    server = serve(plane)
    server.write_endpoint_file(tmp_path)
    return plane, server, ServiceClient.from_dir(tmp_path)


def test_http_submit_status_cancel_round_trip(service, tmp_path, capsys):
    plane, server, client = service
    job_id = client.submit({"kind": "noop"}, tenant="acme", gpus=2)
    assert client.status(job_id)["state"] == "queued"
    with server.lock:
        plane.tick()
    assert client.status(job_id)["state"] == "finished"
    # Cancel is idempotent on the terminal job.
    assert client.cancel(job_id) == "finished"
    # Health and filtered listings.
    health = client.health()
    assert health["epoch"] == 1
    assert health["jobs"] == {"finished": 1}
    assert [j["job_id"] for j in client.jobs(tenant="acme")] == [job_id]
    assert client.jobs(state="queued") == []
    # Ids and tenants travel percent-encoded in the query string.
    for odd in ("a b", "a&b=c", "a#frag"):
        assert client.submit({}, tenant="t&x=1", job_id=odd) == odd
        assert client.status(odd)["job_id"] == odd
    assert sorted(j["job_id"] for j in client.jobs(tenant="t&x=1")) == [
        "a b", "a#frag", "a&b=c",
    ]
    assert main(["status", "--dir", str(tmp_path), "a b"]) == 0
    assert json.loads(capsys.readouterr().out)["job_id"] == "a b"


def test_http_error_mapping(service):
    plane, server, client = service
    with pytest.raises(UnknownJobError):
        client.status("nope")
    with pytest.raises(UnknownJobError):
        client.cancel("nope")
    # Admission rejection surfaces as AdmissionError through HTTP 429.
    client.submit({}, tenant="limited")
    with pytest.raises(AdmissionError) as excinfo:
        client.submit({}, tenant="limited")
    assert excinfo.value.reason == "max_queued_jobs"
    # Duplicate ids map through 409.
    job_id = client.submit({}, job_id="dup")
    assert job_id == "dup"
    with pytest.raises(ServiceError) as excinfo:
        client.submit({}, job_id="dup")
    assert excinfo.value.reason == "duplicate_job"


def test_http_unknown_paths(service):
    plane, server, client = service
    with pytest.raises(ServiceError):
        client._request("GET", "/not-a-path")
    with pytest.raises(ServiceError):
        client._request("POST", "/also-not-a-path", {})


def test_serve_forever_idle_exit(tmp_path):
    """The daemon loop drains work and exits once idle."""
    plane = ControlPlane(
        DurableStore(tmp_path),
        executor=ScriptedExecutor(),
        retry=RetryPolicy(base_delay=0.01, jitter=0.0),
    )
    server = ServiceServer(plane)
    # The endpoint file lives in the store dir (as `repro serve` does),
    # which is where serve_forever removes it from on exit.
    endpoint = server.write_endpoint_file(tmp_path)
    plane.submit({}, job_id="j")
    serve_forever(
        plane, server, poll_interval=0.01, max_seconds=10.0, idle_exit=0.05
    )
    assert plane.jobs["j"].state.value == "finished"
    assert not endpoint.exists()  # cleaned up on the way out


def test_endpoint_file_contents(tmp_path):
    plane = ControlPlane(
        DurableStore(tmp_path / "store"), executor=ScriptedExecutor()
    )
    server = ServiceServer(plane)
    path = server.write_endpoint_file(tmp_path)
    assert path.name == ENDPOINT_FILE
    meta = json.loads(path.read_text(encoding="utf-8"))
    assert meta["host"] == "127.0.0.1"
    assert meta["port"] == server.endpoint[1]
    assert meta["port"] > 0
    server.server_close()
    plane.close()
