"""Command-line interface: run scenarios, comparisons and paper figures.

Examples::

    python -m repro run --scheduler themis --apps 12 --seed 1
    python -m repro compare --schedulers themis,tiresias --apps 10 --workers 4
    python -m repro figure fig02
    python -m repro figure fig09 --apps 6 --workers 4 --cache-dir .sweep-cache
    python -m repro sweep --schedulers themis,tiresias,gandiva \\
        --seeds 1,2,3,4 --workers 4 --cache-dir .sweep-cache
    python -m repro sweep --cluster hetero --gpu-mix v100:0.5,p100:0.25,k80:0.25 \\
        --schedulers themis,tiresias --seeds 1,2
    python -m repro cache prune --dir .sweep-cache --max-age-days 30
    python -m repro trace --apps 30 --out trace.jsonl
    python -m repro serve --dir .service --idle-exit 5 &
    python -m repro submit --dir .service --kind sim --spec '{"apps": 4}'
    python -m repro status --dir .service

The verbs live by family, each declaring its flags next to its handler:
:mod:`repro.cli.sim` (run, compare, figure, sweep, cache, trace) and
:mod:`repro.cli.service` (serve, worker, submit, status, cancel), over
the shared argument types and groups of :mod:`repro.cli.args`.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.cli import service, sim
from repro.obs.logs import LOG_LEVELS, setup_logging


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Themis (NSDI 2020) reproduction: schedulers, traces, figures",
    )
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="verbosity of the repro.* logger hierarchy on "
                             "stderr (debug shows per-cell sweep progress)")
    sub = parser.add_subparsers(dest="command", required=True)
    sim.add_verbs(sub)
    service.add_verbs(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    setup_logging(args.log_level)
    return args.func(args)
