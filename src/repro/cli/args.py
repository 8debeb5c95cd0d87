"""The ``repro`` verbs' shared argument types and argument groups.

A type rejects a bad value at parse time, so the verb fails with an
argparse usage error and exit 2, never with a traceback from deep in
the simulator.  A group declares flags several verbs take, once.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
from typing import Optional

from repro.cluster.topology import DEFAULT_GPU_MIX
from repro.obs import EVENT_KINDS, ObsConfig

logger = logging.getLogger("repro.cli")


def _number(kind, accept, requirement: str):
    """An argument type: ``kind(text)`` that ``accept`` must pass."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    return parse


positive_int = _number(int, lambda value: value >= 1, ">= 1")
non_negative_int = _number(int, lambda value: value >= 0, ">= 0")
positive_float = _number(
    float, lambda value: math.isfinite(value) and value > 0, "finite and > 0"
)
unit_float = _number(float, lambda value: 0.0 <= value <= 1.0, "in [0, 1]")


def _list_of(kind, noun: str):
    """An argument type: a comma-separated list of ``kind``, as a tuple
    (``kind`` may be one of the bound types above)."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


float_list = _list_of(float, "numbers")
int_list = _list_of(int, "integers")
positive_float_list = _list_of(positive_float, "numbers")
unit_float_list = _list_of(unit_float, "numbers")


def gpu_mix(text: str) -> tuple[tuple[str, float], ...]:
    """Parse and validate ``v100:0.5,p100:0.25,k80:0.25`` into a gpu_mix tuple.

    Unknown generation names and malformed / non-positive mixes fail at
    argument-parse time with the valid alternatives spelled out, not at
    cluster-build time with a bare KeyError.
    """
    from repro.cluster.topology import resolve_gpu_type

    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, fraction_text = part.partition(":")
        name = name.strip()
        if not sep or not name:
            raise argparse.ArgumentTypeError(
                f"malformed gpu-mix entry {part!r}: expected name:fraction "
                "pairs like 'v100:0.5,k80:0.5'"
            )
        try:
            resolve_gpu_type(name)
        except KeyError as error:
            raise argparse.ArgumentTypeError(f"--gpu-mix: {error.args[0]}")
        try:
            fraction = float(fraction_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"gpu-mix fraction for {name!r} must be a number, "
                f"got {fraction_text!r}"
            )
        # isfinite: NaN slips past `< 0` (all NaN comparisons are False)
        # and would crash largest-remainder apportionment downstream.
        if not math.isfinite(fraction) or fraction < 0:
            raise argparse.ArgumentTypeError(
                f"gpu-mix fraction for {name!r} must be finite and >= 0, "
                f"got {fraction}"
            )
        pairs.append((name, fraction))
    if not pairs or sum(fraction for _, fraction in pairs) <= 0:
        raise argparse.ArgumentTypeError(
            f"gpu mix needs at least one positive fraction, got {text!r}"
        )
    return tuple(pairs)


def perf_matrix(text: str):
    """Parse ``--perf-matrix``: a preset name, a JSON file, or an inline spec.

    Inline form: ``family:gen=speedup,gen=speedup;family2:...`` e.g.
    ``vgg:v100=1.0,p100=0.25;resnet:v100=0.7,p100=0.9``.  Unknown
    family / generation names and malformed cells are rejected here
    with the valid alternatives listed.
    """
    from repro.workload.perf import (
        PERF_MATRIX_PRESETS,
        PerfModelError,
        canonical_matrix,
        validate_matrix_names,
    )

    text = text.strip()
    if not text:
        raise argparse.ArgumentTypeError("--perf-matrix must not be empty")
    if text in PERF_MATRIX_PRESETS:
        return text
    # Anything path-shaped is a file: inline specs never contain path
    # separators, and an existing file beats guessing from the suffix
    # (a valid JSON matrix in matrix.txt must not fall into the inline
    # parser with a misleading "malformed row" error).
    looks_like_file = (
        text.lower().endswith(".json") or os.sep in text or os.path.isfile(text)
    )
    if looks_like_file:
        try:
            with open(text, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as error:
            raise argparse.ArgumentTypeError(
                f"cannot read perf-matrix file {text!r}: {error}"
            )
        except json.JSONDecodeError as error:
            raise argparse.ArgumentTypeError(
                f"perf-matrix file {text!r} is not valid JSON: {error}"
            )
    else:
        data = {}
        for row in filter(None, (row.strip() for row in text.split(";"))):
            family, sep, cells = (part.strip() for part in row.partition(":"))
            if not sep or not family or not cells:
                raise argparse.ArgumentTypeError(
                    f"malformed perf-matrix row {row!r}: expected "
                    "'family:gen=speedup,gen=speedup' (or a preset name: "
                    f"{sorted(PERF_MATRIX_PRESETS)})"
                )
            if family in data:
                raise argparse.ArgumentTypeError(
                    f"duplicate perf-matrix row for family {family!r}"
                )
            data[family] = row_cells = {}
            for cell in filter(None, (cell.strip() for cell in cells.split(","))):
                generation, eq, value = (part.strip() for part in cell.partition("="))
                if not eq or not generation:
                    raise argparse.ArgumentTypeError(
                        f"malformed perf-matrix cell {cell!r} in row "
                        f"{family!r}: expected gen=speedup"
                    )
                if generation in row_cells:
                    raise argparse.ArgumentTypeError(
                        f"duplicate perf-matrix cell for {generation!r} "
                        f"in row {family!r}"
                    )
                row_cells[generation] = value
            if not row_cells:
                raise argparse.ArgumentTypeError(
                    f"perf-matrix row {family!r} has no gen=speedup cells"
                )
        if not data:
            raise argparse.ArgumentTypeError(
                f"perf-matrix spec {text!r} contains no rows; expected "
                "'family:gen=speedup[,gen=speedup][;family:...]'"
            )
    try:
        matrix = canonical_matrix(data)
        validate_matrix_names(matrix)
    except PerfModelError as error:
        raise argparse.ArgumentTypeError(f"--perf-matrix: {error}")
    return matrix


def event_kinds(text: str) -> tuple[str, ...]:
    """Parse/validate a comma-separated event-kind filter."""
    kinds = tuple(dict.fromkeys(k.strip() for k in text.split(",") if k.strip()))
    unknown = [k for k in kinds if k not in EVENT_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown trace event kinds {unknown}; known: {sorted(EVENT_KINDS)}"
        )
    return kinds


def add_scenario_args(parser: argparse.ArgumentParser, **defaults) -> None:
    """The scenario flags.  One that ``defaults`` does not name defaults to
    ``None``, "not given": the cluster's preset (or the scenario the flags
    apply over) keeps its own value."""
    parser.add_argument("--cluster", choices=("sim", "testbed", "hetero"),
                        default=defaults.get("cluster"),
                        help="256-GPU simulated cluster, 50-GPU testbed, or the "
                             "mixed-generation 256-GPU fleet")
    parser.add_argument("--gpu-mix", type=gpu_mix, default=DEFAULT_GPU_MIX,
                        help="GPU-generation mixture for --cluster hetero as name:fraction "
                             "pairs, e.g. v100:0.5,p100:0.25,k80:0.25; generation names "
                             "must be known presets (v100/p100/k80) and fractions must "
                             "be >= 0 with a positive sum")
    parser.add_argument("--perf-matrix", type=perf_matrix, default=None,
                        help="per-model-family x per-GPU-generation throughput matrix: a "
                             "preset name (rate-inversion, gavel-like), a .json file of "
                             "{family: {generation: speedup}}, or an inline spec like "
                             "'vgg:v100=1.0,p100=0.25;resnet:v100=0.7,p100=0.9'; unset = "
                             "scalar per-generation speeds")
    parser.add_argument("--migration", action="store_true", default=defaults.get("migration"),
                        help="enable speed-aware job migration: after each round, trade "
                             "a job's gang for free GPUs that run its model family "
                             "strictly faster")
    parser.add_argument("--apps", type=positive_int, default=defaults.get("apps"),
                        help="number of apps to generate")
    parser.add_argument("--seed", type=int, default=defaults.get("seed"), help="workload seed")
    parser.add_argument("--duration-scale", type=positive_float, default=None,
                        help="scale factor on job durations")
    parser.add_argument("--lease", type=positive_float, default=defaults.get("lease"),
                        help="GPU lease duration in minutes")


def scenario_knobs(args: argparse.Namespace) -> dict:
    """The scenario flags as :func:`~repro.experiments.config.preset_scenario`
    knobs, ``None`` where not given (``--gpu-mix`` always is)."""
    return dict(
        num_apps=args.apps,
        seed=args.seed,
        duration_scale=args.duration_scale,
        lease_minutes=args.lease,
        perf_matrix=args.perf_matrix,
        migration=args.migration,
    )


def add_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="worker processes for sweep cells (1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")


def add_obs_args(parser: argparse.ArgumentParser, trace_help: str) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH", help=trace_help)
    parser.add_argument("--trace-events", type=event_kinds, default=(),
                        help="comma-separated event kinds to keep (default: "
                             f"all of {sorted(EVENT_KINDS)})")
    parser.add_argument("--profile", action="store_true",
                        help="time the engine's phases (valuation, carve, auction solve, "
                             "payments, placement, migration, ...) and print the breakdown")


def obs_from_args(args: argparse.Namespace, trace_path=None) -> Optional[ObsConfig]:
    """Build the run's ObsConfig from --trace/--trace-events/--profile."""
    path = trace_path if trace_path is not None else args.trace
    if path is None and not args.profile:
        if args.trace_events:
            logger.warning("--trace-events has no effect without --trace")
        return None
    return ObsConfig(
        trace_path=str(path) if path is not None else None,
        trace_events=tuple(args.trace_events),
        profile=args.profile,
    )


def add_dir_arg(parser: argparse.ArgumentParser, help: str, default: Optional[str] = None):
    """``--dir``: required unless the verb names a default."""
    parser.add_argument("--dir", required=default is None, default=default, help=help)


def add_loop_args(parser: argparse.ArgumentParser, poll_interval: float, poll_help: str,
                  idle_help: str) -> None:
    """The serve / worker loop's pacing and exit flags."""
    parser.add_argument("--poll-interval", type=float, default=poll_interval, help=poll_help)
    parser.add_argument("--max-seconds", type=float, default=None,
                        help="exit after this long (CI smoke knob)")
    parser.add_argument("--idle-exit", type=float, default=None, help=idle_help)
