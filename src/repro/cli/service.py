"""The control-plane verbs: serve, worker, submit, status and cancel.

``serve`` runs the daemon; the others talk to a running one found
through ``--dir``.  The service modules are imported when a verb runs,
not when the parser is built.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from repro.cli.args import add_dir_arg, add_loop_args, positive_int
from repro.experiments.report import format_table

_RUNNING_DIR_HELP = "store directory of the running service"


def _client_verb(handler):
    """A verb that calls the daemon: a ``ServiceError`` becomes
    ``<verb> failed (<reason>): <error>`` on stderr and exit code 1."""

    @functools.wraps(handler)
    def run(args: argparse.Namespace) -> int:
        from repro.service.errors import ServiceError

        try:
            return handler(args)
        except ServiceError as error:
            print(f"{args.command} failed ({error.reason}): {error}", file=sys.stderr)
            return 1

    return run


def _client_for(args: argparse.Namespace):
    from repro.service.api import ServiceClient

    return ServiceClient.from_dir(args.dir)


def _add_serve(sub) -> None:
    parser = sub.add_parser(
        "serve",
        help="run the crash-safe control-plane daemon",
        description="Long-lived scheduler service over a durable WAL + "
                    "snapshot store.  Writes service.json into --dir so "
                    "'repro submit/status/cancel --dir DIR' find it.",
    )
    add_dir_arg(parser, "durable store directory (WAL, snapshots, endpoint file)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks an ephemeral port)")
    add_loop_args(parser, 0.1, poll_help="seconds between control-plane ticks",
                  idle_help="exit once idle (no active jobs) this long")
    parser.add_argument("--fsync", action="store_true",
                        help="fsync every WAL append (durability over throughput)")
    parser.add_argument("--policies", default=None,
                        help="JSON file with a list of tenant admission policies "
                             "(tenant '*' sets the default)")
    parser.add_argument("--worker-ttl", type=float, default=5.0,
                        help="seconds of heartbeat silence before a worker is reaped "
                             "and its jobs re-queued")
    parser.add_argument("--dispatch-timeout", type=float, default=30.0,
                        help="seconds a claimed job may sit dispatched before the "
                             "claim is revoked")
    parser.set_defaults(func=_cmd_serve)


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the durable control-plane daemon."""
    from repro.service import ControlPlane, DurableStore, policies_from_json
    from repro.service.api import ServiceServer, serve_forever

    admission = None
    if args.policies:
        try:
            with open(args.policies, "r", encoding="utf-8") as handle:
                admission = policies_from_json(json.load(handle))
        except (OSError, ValueError, TypeError) as error:
            print(f"cannot load tenant policies {args.policies!r}: {error}",
                  file=sys.stderr)
            return 2
    plane = ControlPlane(
        DurableStore(args.dir, fsync=args.fsync),
        admission=admission,
        worker_ttl=args.worker_ttl,
        dispatch_timeout=args.dispatch_timeout,
    )
    server = ServiceServer(plane, host=args.host, port=args.port)
    endpoint = server.write_endpoint_file(args.dir)
    host, port = server.endpoint
    print(f"repro service: epoch {plane.epoch} on http://{host}:{port} "
          f"(endpoint file {endpoint})")
    try:
        serve_forever(plane, server, poll_interval=args.poll_interval,
                      max_seconds=args.max_seconds, idle_exit=args.idle_exit)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _add_worker(sub) -> None:
    parser = sub.add_parser(
        "worker",
        help="run a pull-based worker against a 'repro serve' daemon",
        description="Registers with the daemon found via --dir, then "
                    "claims, executes (one child process per job) and "
                    "reports jobs until stopped.  Run several for a "
                    "fleet; kill any of them freely — leases and "
                    "dispatch tokens keep every job exactly-once.",
    )
    add_dir_arg(parser, _RUNNING_DIR_HELP)
    parser.add_argument("--name", default=None,
                        help="human-readable worker name (logs only)")
    parser.add_argument("--capacity", type=positive_int, default=1,
                        help="jobs this worker may hold at once")
    add_loop_args(parser, 0.2, poll_help="seconds between claim polls when idle",
                  idle_help="exit once no work was granted this long")
    parser.set_defaults(func=_cmd_worker)


@_client_verb
def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker``: pull-based executor against a running daemon."""
    from repro.service.worker import WorkerLoop

    loop = WorkerLoop(_client_for(args), name=args.name or "", capacity=args.capacity,
                      poll_interval=args.poll_interval, max_seconds=args.max_seconds,
                      idle_exit=args.idle_exit)
    try:
        executed = loop.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        loop.stop()
        executed = loop.executed
    print(f"worker {loop.worker_id or '?'}: executed {executed} job(s)")
    return 0


def _add_submit(sub) -> None:
    parser = sub.add_parser("submit", help="submit a job to a running 'repro serve' daemon")
    add_dir_arg(parser, _RUNNING_DIR_HELP)
    parser.add_argument("--kind", default="noop",
                        choices=("noop", "sleep", "fail", "sim"),
                        help="spec kind the daemon executor interprets")
    parser.add_argument("--spec", default=None,
                        help="JSON object merged into the job spec")
    parser.add_argument("--tenant", default="default")
    parser.add_argument("--gpus", type=positive_int, default=1)
    parser.add_argument("--pool", default="default")
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--job-id", default=None,
                        help="explicit job id (idempotent resubmission)")
    parser.add_argument("--max-runtime-s", type=float, default=None,
                        help="deadline: fail the job transiently if one execution "
                             "runs longer than this")
    parser.set_defaults(func=_cmd_submit)


@_client_verb
def _cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: enqueue one job; prints the bare job id."""
    spec = {"kind": args.kind}
    if args.spec:
        try:
            extra = json.loads(args.spec)
            if not isinstance(extra, dict):
                raise ValueError("--spec must be a JSON object")
        except ValueError as error:
            print(f"bad --spec: {error}", file=sys.stderr)
            return 2
        spec.update(extra)
    job_id = _client_for(args).submit(
        spec, tenant=args.tenant, gpus=args.gpus, pool=args.pool, priority=args.priority,
        job_id=args.job_id, max_runtime_s=args.max_runtime_s,
    )
    print(job_id)
    return 0


def _add_status(sub) -> None:
    parser = sub.add_parser("status", help="show one job, or every job, of a running daemon")
    add_dir_arg(parser, _RUNNING_DIR_HELP)
    parser.add_argument("job", nargs="?", default=None,
                        help="job id (omit for the full table)")
    parser.add_argument("--tenant", default=None,
                        help="table mode: only this tenant's jobs")
    parser.add_argument("--state", default=None,
                        help="table mode: only jobs in this state")
    parser.set_defaults(func=_cmd_status)


@_client_verb
def _cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: one job's record, or a table of every job."""
    client = _client_for(args)
    if args.job:
        print(json.dumps(client.status(args.job), indent=2, sort_keys=True))
        return 0
    jobs = client.jobs(tenant=args.tenant, state=args.state)
    health = client.health()
    print(f"epoch {health['epoch']}, degraded={health['degraded']}, "
          f"{sum(health['jobs'].values())} jobs")
    rows = [
        [job["job_id"], job["tenant"], job["state"], job["gpus"],
         job["attempts"], job["detail"][:40]]
        for job in jobs
    ]
    if rows:
        print(format_table(
            ["job", "tenant", "state", "gpus", "attempts", "detail"], rows))
    return 0


def _add_cancel(sub) -> None:
    parser = sub.add_parser("cancel", help="cancel a job on a running daemon (idempotent)")
    add_dir_arg(parser, _RUNNING_DIR_HELP)
    parser.add_argument("job", help="job id to cancel")
    parser.set_defaults(func=_cmd_cancel)


@_client_verb
def _cmd_cancel(args: argparse.Namespace) -> int:
    """``repro cancel``: cancel a job (idempotent on terminal states)."""
    print(f"{args.job}: {_client_for(args).cancel(args.job)}")
    return 0


def add_verbs(sub) -> None:
    """Register the control-plane verbs on ``repro``'s subparsers."""
    for add in (_add_serve, _add_worker, _add_submit, _add_status, _add_cancel):
        add(sub)
