"""HTTP front door + client for the control plane (stdlib only).

``repro serve`` exposes the same :class:`ControlPlane` API that
in-process callers use, as a tiny JSON-over-HTTP surface:

* ``POST /submit``  ``{"spec": {...}, "tenant", "gpus", "pool",
  "priority", "max_runtime_s"}`` -> ``{"job_id"}``
* ``POST /cancel``  ``{"job_id"}`` -> ``{"job_id", "state"}``
* ``GET  /status?job=ID`` -> the full job record
* ``GET  /jobs[?tenant=T][&state=S]`` -> ``{"jobs": [...]}``
* ``GET  /health`` -> epoch / degradation / per-state counts

plus the pull-based worker protocol (``repro worker``):

* ``POST /worker/register``  ``{"name", "capacity"}`` ->
  ``{"worker_id", "epoch", "ttl"}``
* ``POST /worker/heartbeat`` ``{"worker_id"}`` -> lease renewal + the
  daemon's view of the worker's claim set
* ``POST /worker/claim``     ``{"worker_id", "max_jobs"}`` ->
  ``{"grants": [{"job": ..., "token": ...}]}``
* ``POST /worker/start``     ``{"token"}`` -> the RUNNING job record
* ``POST /worker/report``    ``{"token", "outcome"}`` ->
  ``{"accepted", "reason", "state"}``

The server binds an ephemeral port by default and writes
``service.json`` (host, port, pid) into the store directory, so the
CLI verbs find a running daemon from ``--dir`` alone.  Service errors
map to HTTP statuses: admission -> 429, unavailable store -> 503,
unknown jobs -> 404, reaped workers -> 410, fenced tokens -> 409,
bad requests -> 400.  :class:`ServiceClient` retries transient
transport failures (connection refused, 503 store-degraded) with the
shared capped-backoff :class:`~repro.service.retry.RetryPolicy`.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Union
from urllib.parse import parse_qs, urlencode, urlparse

from repro.service.daemon import ControlPlane, JobOutcome
from repro.service.errors import (
    AdmissionError,
    ServiceError,
    ServiceUnavailable,
    TokenError,
    UnknownJobError,
    UnknownWorkerError,
)
from repro.service.retry import RetryPolicy
from repro.service.tokens import DispatchToken

logger = logging.getLogger("repro.service.api")

#: File the server drops into the store directory so CLI clients can
#: find it from ``--dir`` alone.
ENDPOINT_FILE = "service.json"

#: Largest request body the handler reads; longer ones get a 413.
MAX_BODY_BYTES = 1 << 20

_STATUS_BY_REASON = {
    "max_queued_jobs": 429,
    "store_unavailable": 503,
    "unknown_job": 404,
    "duplicate_job": 409,
    "unknown_worker": 410,
    "stale_epoch": 409,
    "not_dispatched": 409,
    "token_mismatch": 409,
    "already_redeemed": 409,
    "malformed_token": 400,
    "bad_request": 400,
    "body_too_large": 413,
}

#: ``POST /submit`` fields: the Python types of the JSON each accepts,
#: and how to name them in the 400.  ``bool`` is an ``int`` to Python,
#: so it is refused separately.
_SUBMIT_FIELDS = {
    "spec": ((dict,), "a JSON object"),
    "tenant": ((str,), "a string"),
    "gpus": ((int,), "an integer"),
    "pool": ((str,), "a string"),
    "priority": ((int,), "an integer"),
    "job_id": ((str,), "a string"),
    "max_runtime_s": ((int, float), "a number"),
}

#: Reasons the client rebuilds as :class:`TokenError` (fencing, not
#: transport trouble — workers branch on these).
_TOKEN_REASONS = frozenset(
    {"stale_epoch", "not_dispatched", "token_mismatch",
     "already_redeemed", "malformed_token"}
)

#: Transport retry for the client: fast capped backoff, a few tries.
#: Kept well under the daemon's job-level policy — this smooths over
#: hiccups (a daemon mid-restart, a store flapping), it does not queue.
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.2, factor=2.0, max_delay=2.0, jitter=0.1
)


class ServiceClient:
    """Thin urllib client speaking the server's JSON dialect.

    Raises the same :mod:`repro.service.errors` types the in-process
    API raises, rebuilt from the error payload — CLI code handles both
    transports identically.  Transient transport failures retry with
    capped backoff, but only when a retry cannot double an effect:

    * 503 ``store_unavailable`` — the daemon *shed* the call before any
      state changed, so every verb is safe to retry;
    * connection refused — the request never reached a daemon, so POSTs
      are safe too;
    * GETs — idempotent, retried on any unreachable error;
    * a POST that *timed out* is NOT retried: it may have landed.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        *,
        retry: RetryPolicy = DEFAULT_CLIENT_RETRY,
        sleep: Optional[callable] = None,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self._sleep = sleep if sleep is not None else time.sleep

    @classmethod
    def from_dir(
        cls,
        root: Union[str, Path],
        timeout: float = 10.0,
        *,
        retry: RetryPolicy = DEFAULT_CLIENT_RETRY,
    ) -> "ServiceClient":
        """Locate a running server via the directory's endpoint file."""
        endpoint = Path(root) / ENDPOINT_FILE
        if not endpoint.exists():
            raise ServiceUnavailable(
                f"no {ENDPOINT_FILE} under {root}; is `repro serve` running?",
                reason="no_endpoint",
            )
        meta = json.loads(endpoint.read_text(encoding="utf-8"))
        return cls(
            f"http://{meta['host']}:{meta['port']}",
            timeout=timeout,
            retry=retry,
        )

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServiceUnavailable as error:
                attempt += 1
                if (
                    not self._safe_to_retry(method, error)
                    or attempt >= self.retry.max_attempts
                ):
                    raise
                delay = self.retry.delay(attempt, key=f"client:{path}")
                logger.debug(
                    "retrying %s %s in %.2fs (%s, attempt %d)",
                    method, path, delay, error.reason, attempt,
                )
                self._sleep(delay)

    @staticmethod
    def _safe_to_retry(method: str, error: ServiceUnavailable) -> bool:
        if error.reason == "store_unavailable":
            return True  # the daemon shed the call before any effect
        if error.reason == "unreachable":
            return method == "GET" or getattr(error, "connect_refused", False)
        return False

    def _request_once(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                body = json.loads(error.read().decode("utf-8"))
            except (ValueError, OSError):
                body = {}
            message = body.get("error", str(error))
            reason = body.get("reason", "error")
            if reason == "unknown_job":
                raise UnknownJobError(body.get("job_id", "?"))
            if reason == "unknown_worker":
                raise UnknownWorkerError(body.get("worker_id", "?"))
            if reason in _TOKEN_REASONS:
                raise TokenError(message, reason=reason)
            if error.code == 429:
                raise AdmissionError(message, reason=reason)
            if error.code == 503:
                raise ServiceUnavailable(message, reason=reason)
            raise ServiceError(message, reason=reason)
        except (urllib.error.URLError, ConnectionError, http.client.HTTPException) as error:
            # Past the connect, a dropped connection is a reset or a cut response.
            unavailable = ServiceUnavailable(
                f"cannot reach service at {self.url}: {error}",
                reason="unreachable",
            )
            # Connection refused means no daemon ever saw the request,
            # which is what makes a POST retry safe; a timeout does not.
            unavailable.connect_refused = isinstance(
                getattr(error, "reason", None), ConnectionRefusedError
            )
            raise unavailable

    def submit(
        self,
        spec: Optional[dict] = None,
        *,
        tenant: str = "default",
        gpus: int = 1,
        pool: str = "default",
        priority: int = 0,
        job_id: Optional[str] = None,
        max_runtime_s: Optional[float] = None,
    ) -> str:
        payload = {
            "spec": spec or {},
            "tenant": tenant,
            "gpus": gpus,
            "pool": pool,
            "priority": priority,
        }
        if job_id is not None:
            payload["job_id"] = job_id
        if max_runtime_s is not None:
            payload["max_runtime_s"] = max_runtime_s
        return self._request("POST", "/submit", payload)["job_id"]

    def cancel(self, job_id: str) -> str:
        return self._request("POST", "/cancel", {"job_id": job_id})["state"]

    # -- the worker protocol ------------------------------------------
    def register_worker(self, name: str = "", capacity: int = 1) -> dict:
        return self._request(
            "POST", "/worker/register", {"name": name, "capacity": capacity}
        )

    def heartbeat(self, worker_id: str) -> dict:
        return self._request(
            "POST", "/worker/heartbeat", {"worker_id": worker_id}
        )

    def claim(self, worker_id: str, max_jobs: int = 1) -> list:
        """Grants as ``[{"job": <record>, "token": <token>}, ...]``."""
        return self._request(
            "POST", "/worker/claim",
            {"worker_id": worker_id, "max_jobs": max_jobs},
        )["grants"]

    def start(self, token: dict) -> dict:
        """Redeem a dispatch token; returns the RUNNING job record."""
        return self._request("POST", "/worker/start", {"token": token})

    def report(self, token: dict, outcome: dict) -> dict:
        """Report one execution's outcome (a JSON ``JobOutcome``)."""
        return self._request(
            "POST", "/worker/report", {"token": token, "outcome": outcome}
        )

    def status(self, job_id: str) -> dict:
        return self._request("GET", "/status?" + urlencode({"job": job_id}))

    def jobs(self, tenant: Optional[str] = None, state: Optional[str] = None) -> list:
        query = {}
        if tenant:
            query["tenant"] = tenant
        if state:
            query["state"] = state
        suffix = "?" + urlencode(query) if query else ""
        return self._request("GET", f"/jobs{suffix}")["jobs"]

    def health(self) -> dict:
        return self._request("GET", "/health")


def _submit_arguments(payload: dict) -> dict:
    """The ``/submit`` body as :meth:`ControlPlane.submit` keywords.

    Every field is type-checked, not coerced: a JSON ``7`` must not
    become job id ``7`` (which ``/status?job=7`` can never find), nor a
    list of pairs a spec.  Absent and ``null`` fields take the plane's
    defaults.
    """
    arguments = {}
    for name, (types, expected) in _SUBMIT_FIELDS.items():
        value = payload.get(name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, types):
            raise ServiceError(
                f"/submit field {name!r} must be {expected}, got "
                f"{json.dumps(value)[:40]}",
                reason="bad_request",
            )
        arguments[name] = value
    return arguments


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the shared, lock-guarded control plane."""

    server: "ServiceServer"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http: " + format, *args)

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, error: Exception) -> None:
        if isinstance(error, UnknownJobError):
            self._reply(404, {"error": str(error), "reason": error.reason,
                              "job_id": error.job_id})
        elif isinstance(error, UnknownWorkerError):
            self._reply(410, {"error": str(error), "reason": error.reason,
                              "worker_id": error.worker_id})
        elif isinstance(error, ServiceError):
            code = _STATUS_BY_REASON.get(error.reason, 400)
            self._reply(code, {"error": str(error), "reason": error.reason})
        else:
            self._reply(500, {"error": str(error), "reason": "internal"})

    def _body(self) -> dict:
        header = self.headers.get("Content-Length") or "0"
        # Checked before reading: read(-1) would block this handler
        # thread until the client hangs up, a huge length allocates it.
        if not header.isdecimal():
            raise ServiceError(
                f"bad Content-Length {header!r}", reason="bad_content_length"
            )
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body over {MAX_BODY_BYTES} bytes", reason="body_too_large"
            )
        if length == 0:
            return {}
        data = self.rfile.read(length)
        try:
            # UnicodeDecodeError and JSONDecodeError are both ValueErrors.
            payload = json.loads(data.decode("utf-8"))
        except ValueError as error:
            raise ServiceError(f"bad JSON body: {error}", reason="bad_json") from None
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object", reason="bad_json")
        return payload

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlparse(self.path).path
        try:
            payload = self._body()
            with self.server.lock:
                if path == "/submit":
                    arguments = _submit_arguments(payload)
                    try:
                        job_id = self.server.plane.submit(**arguments)
                    except ValueError as error:
                        # JobRecord's own checks (gpus >= 1, a finite
                        # deadline > 0) are the client's fault too.
                        raise ServiceError(
                            str(error), reason="bad_request"
                        ) from None
                    self._reply(200, {"job_id": job_id})
                elif path == "/cancel":
                    job_id = str(payload.get("job_id", ""))
                    state = self.server.plane.cancel(job_id)
                    self._reply(200, {"job_id": job_id, "state": state.value})
                elif path == "/worker/register":
                    self._reply(200, self.server.plane.register_worker(
                        name=str(payload.get("name", "")),
                        capacity=int(payload.get("capacity", 1)),
                    ))
                elif path == "/worker/heartbeat":
                    self._reply(200, self.server.plane.worker_heartbeat(
                        str(payload.get("worker_id", ""))
                    ))
                elif path == "/worker/claim":
                    grants = self.server.plane.claim(
                        str(payload.get("worker_id", "")),
                        max_jobs=int(payload.get("max_jobs", 1)),
                    )
                    self._reply(200, {"grants": [
                        {"job": job.to_json(), "token": token.to_json()}
                        for job, token in grants
                    ]})
                elif path == "/worker/start":
                    token = DispatchToken.from_json(payload.get("token") or {})
                    job = self.server.plane.start(token)
                    self._reply(200, job.to_json())
                elif path == "/worker/report":
                    token = DispatchToken.from_json(payload.get("token") or {})
                    outcome = JobOutcome.from_json(payload.get("outcome") or {})
                    self._reply(200, self.server.plane.report(token, outcome))
                else:
                    self._reply(404, {"error": f"unknown path {path}",
                                      "reason": "not_found"})
        except (ValueError, TypeError, ServiceError) as error:
            self._fail(error)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        try:
            with self.server.lock:
                if parsed.path == "/status":
                    self._reply(200, self.server.plane.status(query.get("job", "")))
                elif parsed.path == "/jobs":
                    self._reply(200, {
                        "jobs": self.server.plane.job_list(
                            tenant=query.get("tenant"), state=query.get("state")
                        )
                    })
                elif parsed.path == "/health":
                    self._reply(200, self.server.plane.stats())
                else:
                    self._reply(404, {"error": f"unknown path {parsed.path}",
                                      "reason": "not_found"})
        except (ValueError, ServiceError) as error:
            self._fail(error)


class ServiceServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`ControlPlane` behind one lock."""

    daemon_threads = True

    def __init__(self, plane: ControlPlane, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.plane = plane
        self.lock = threading.RLock()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def write_endpoint_file(self, root: Union[str, Path]) -> Path:
        host, port = self.endpoint
        path = Path(root) / ENDPOINT_FILE
        path.write_text(
            json.dumps({"host": host, "port": port, "pid": os.getpid()}),
            encoding="utf-8",
        )
        return path


def serve_forever(
    plane: ControlPlane,
    server: ServiceServer,
    *,
    poll_interval: float = 0.1,
    max_seconds: Optional[float] = None,
    idle_exit: Optional[float] = None,
) -> None:
    """Run the daemon loop: HTTP in a thread, ticks in this one.

    ``max_seconds`` bounds the total run; ``idle_exit`` stops the loop
    once no non-terminal jobs existed for that long (both are what the
    CI smoke uses to keep ``repro serve`` short-lived).  The endpoint
    file is removed on the way out so stale clients fail fast.
    """
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    started = time.monotonic()
    idle_since: Optional[float] = None
    try:
        while True:
            with server.lock:
                plane.tick()
                active = plane.active_jobs
            now = time.monotonic()
            if active > 0:
                idle_since = None
            elif idle_since is None:
                idle_since = now
            if max_seconds is not None and now - started >= max_seconds:
                logger.info("serve: --max-seconds reached, shutting down")
                return
            if (
                idle_exit is not None
                and idle_since is not None
                and now - idle_since >= idle_exit
            ):
                logger.info("serve: idle for %.1fs, shutting down", idle_exit)
                return
            time.sleep(poll_interval)
    finally:
        server.shutdown()
        endpoint = Path(plane.store.root) / ENDPOINT_FILE
        if endpoint.exists():
            endpoint.unlink()
        plane.close()
