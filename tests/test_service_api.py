"""``POST /submit`` checks each field's type and answers a bad one with
400 ``bad_request`` — before anything reaches the WAL or moves the id
counter."""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.chaos import FakeClock, ScriptedExecutor
from repro.service.daemon import ControlPlane
from repro.service.store import DurableStore


@pytest.fixture
def service(tmp_path, serve):
    plane = ControlPlane(
        DurableStore(tmp_path / "store"), executor=ScriptedExecutor(),
        clock=FakeClock(),
    )
    host, port = serve(plane).endpoint
    return plane, f"http://{host}:{port}"


def post_submit(url, body: str):
    """``(status, reply)`` of one ``POST /submit`` with a raw JSON body
    (raw, so ``NaN`` / ``Infinity`` literals reach the server as sent)."""
    request = urllib.request.Request(
        url + "/submit", data=body.encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=5.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.mark.parametrize(
    "body",
    [
        '{"job_id": 7}',
        '{"tenant": 5}',
        '{"pool": ["a100"]}',
        '{"spec": [["kind", "noop"]]}',
        '{"gpus": "2"}',
        '{"gpus": 1.5}',
        '{"gpus": true}',
        '{"priority": "high"}',
        '{"priority": false}',
        '{"max_runtime_s": "10"}',
    ],
    ids=[
        "job_id-int", "tenant-int", "pool-list", "spec-pairs", "gpus-str",
        "gpus-float", "gpus-bool", "priority-str", "priority-bool",
        "max_runtime_s-str",
    ],
)
def test_submit_rejects_a_field_of_the_wrong_type(service, body):
    plane, url = service
    status, reply = post_submit(url, body)
    assert (status, reply["reason"]) == (400, "bad_request")
    assert json.loads(body).popitem()[0] in reply["error"]
    assert plane.jobs == {}


@pytest.mark.parametrize(
    "body",
    [
        '{"max_runtime_s": NaN}',
        '{"max_runtime_s": Infinity}',
        '{"max_runtime_s": -Infinity}',
        '{"max_runtime_s": 1e999}',
        '{"max_runtime_s": 0}',
        '{"gpus": 0}',
    ],
    ids=["nan", "inf", "-inf", "overflow", "zero-deadline", "zero-gpus"],
)
def test_submit_rejects_a_value_the_job_record_refuses(service, body):
    """Non-finite deadlines never reach the WAL as bare ``NaN`` /
    ``Infinity`` — and a record's own checks are a 400, not a 500."""
    plane, url = service
    status, reply = post_submit(url, body)
    assert (status, reply["reason"]) == (400, "bad_request")
    assert plane.jobs == {}
    assert b"NaN" not in plane.store.wal_path.read_bytes()
    assert b"Infinity" not in plane.store.wal_path.read_bytes()


def test_rejections_leave_no_id_gap_and_a_good_submit_lands(service):
    plane, url = service
    assert post_submit(url, '{"spec": {"kind": "noop"}}') == (
        200, {"job_id": "job-00001"}
    )
    for body in ('{"gpus": 0}', '{"job_id": 7}', '{"max_runtime_s": NaN}'):
        assert post_submit(url, body)[0] == 400
    status, reply = post_submit(
        url,
        '{"spec": {"kind": "noop"}, "tenant": "acme", "gpus": 2, '
        '"pool": "default", "priority": 1, "max_runtime_s": 30, '
        '"job_id": null}',
    )
    assert (status, reply) == (200, {"job_id": "job-00002"})
    record = plane.status("job-00002")
    assert (record["tenant"], record["gpus"], record["max_runtime_s"]) == (
        "acme", 2, 30.0
    )
