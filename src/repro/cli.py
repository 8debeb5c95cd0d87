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

The CLI is a thin shell over :mod:`repro.experiments` and
:mod:`repro.sweep`; everything it prints comes from the same
figure/report code the benchmarks use.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import re
import sys
from typing import Optional, Sequence

from repro.cluster.topology import DEFAULT_GPU_MIX
from repro.experiments.config import (
    ScenarioConfig,
    hetero_scenario,
    sim_scenario,
    testbed_scenario,
)
from repro.experiments.figures import FIGURES, compare_schedulers, run_figure
from repro.experiments.report import format_figure, format_table
from repro.experiments.runner import run_scenario
from repro.metrics.hetero import is_heterogeneous, per_type_rows
from repro.metrics.summary import metric_values
from repro.obs import (
    EVENT_KINDS,
    ObsConfig,
    TraceError,
    filter_events,
    read_trace,
    summarize_events,
    validate_events,
)
from repro.obs.logs import LOG_LEVELS, setup_logging
from repro.schedulers.registry import SCHEDULER_NAMES
from repro.sweep import SweepMatrix, run_sweep
from repro.workload.generator import GeneratorConfig, generate_trace

logger = logging.getLogger("repro.cli")

def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _gpu_mix(text: str) -> tuple[tuple[str, float], ...]:
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


def _perf_matrix(text: str):
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

    import os

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
        for row in text.split(";"):
            row = row.strip()
            if not row:
                continue
            family, sep, cells = row.partition(":")
            family = family.strip()
            if not sep or not family or not cells.strip():
                raise argparse.ArgumentTypeError(
                    f"malformed perf-matrix row {row!r}: expected "
                    "'family:gen=speedup,gen=speedup' (or a preset name: "
                    f"{sorted(PERF_MATRIX_PRESETS)})"
                )
            if family in data:
                raise argparse.ArgumentTypeError(
                    f"duplicate perf-matrix row for family {family!r}"
                )
            row_cells = {}
            for cell in cells.split(","):
                cell = cell.strip()
                if not cell:
                    continue
                generation, eq, value = cell.partition("=")
                generation = generation.strip()
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
                row_cells[generation] = value.strip()
            if not row_cells:
                raise argparse.ArgumentTypeError(
                    f"perf-matrix row {family!r} has no gen=speedup cells"
                )
            data[family] = row_cells
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


def _event_kinds(text: str) -> tuple[str, ...]:
    """Parse/validate a comma-separated event-kind filter."""
    kinds = tuple(dict.fromkeys(k.strip() for k in text.split(",") if k.strip()))
    unknown = [k for k in kinds if k not in EVENT_KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown trace event kinds {unknown}; known: {sorted(EVENT_KINDS)}"
        )
    return kinds


def _add_obs_args(parser: argparse.ArgumentParser, trace_help: str) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help=trace_help)
    parser.add_argument("--trace-events", type=_event_kinds, default=(),
                        help="comma-separated event kinds to keep (default: "
                             f"all of {sorted(EVENT_KINDS)})")
    parser.add_argument("--profile", action="store_true",
                        help="time the engine's phases (valuation, carve, "
                             "auction solve, payments, placement, migration, "
                             "...) and print the breakdown")


def _obs_from_args(args: argparse.Namespace, trace_path=None) -> Optional[ObsConfig]:
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


def _print_profile(profile: dict) -> None:
    """Render a ``SimulationResult.profile`` snapshot as a table.

    ``seconds`` is inclusive; ``self`` excludes nested phases, so the
    share column (of the summed self time) adds up to 100 %.
    """
    if not profile:
        return
    total = sum(rec["self_seconds"] for rec in profile.values())
    rows = [
        [name, round(rec["seconds"], 4), round(rec["self_seconds"], 4), rec["calls"],
         f"{100.0 * rec['self_seconds'] / total:.1f}%" if total > 0 else "-"]
        for name, rec in profile.items()
    ]
    print("\nphase profile:")
    print(format_table(["phase", "seconds", "self", "calls", "share"], rows))


def _parse_schedulers(text: str) -> Optional[list[str]]:
    """Split/validate a scheduler list; None (plus stderr) on unknown names.

    Duplicates collapse to the first occurrence — a repeated name is
    the same simulation cell, not a second run.
    """
    names = list(dict.fromkeys(n.strip() for n in text.split(",") if n.strip()))
    unknown = [n for n in names if n not in SCHEDULER_NAMES]
    if unknown:
        print(f"unknown schedulers: {unknown}; known: {list(SCHEDULER_NAMES)}",
              file=sys.stderr)
        return None
    return names


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.cluster == "hetero":
        scenario = hetero_scenario(
            num_apps=args.apps,
            seed=args.seed,
            duration_scale=args.duration_scale,
            gpu_mix=args.gpu_mix,
        )
    else:
        builder = sim_scenario if args.cluster == "sim" else testbed_scenario
        scenario = builder(
            num_apps=args.apps,
            seed=args.seed,
            duration_scale=args.duration_scale,
        )
    perf_matrix = getattr(args, "perf_matrix", None) or ()
    if perf_matrix and args.cluster != "hetero":
        # The sim/testbed presets are single-generation ("default")
        # fleets: unless the matrix prices that generation explicitly,
        # every lookup falls back to the scalar speed and the run would
        # silently measure nothing.
        from repro.workload.perf import resolve_matrix_spec

        resolved = resolve_matrix_spec(perf_matrix)
        prices_default = any(
            generation == "default"
            for _family, cells in resolved
            for generation, _speedup in cells
        )
        if not prices_default:
            logger.warning(
                "--perf-matrix has no effect on the single-generation "
                "'%s' cluster (no 'default' cells, so every lookup falls "
                "back to the scalar speed); use --cluster hetero to "
                "exercise the matrix",
                args.cluster,
            )
    return scenario.replace(
        lease_minutes=args.lease,
        perf_matrix=perf_matrix,
        migration=bool(getattr(args, "migration", False)),
    )


def _add_scenario_args(
    parser: argparse.ArgumentParser, default_apps: Optional[int]
) -> None:
    parser.add_argument("--cluster", choices=("sim", "testbed", "hetero"),
                        default="testbed",
                        help="256-GPU simulated cluster, 50-GPU testbed, or the "
                             "mixed-generation 256-GPU fleet")
    parser.add_argument("--gpu-mix", type=_gpu_mix, default=DEFAULT_GPU_MIX,
                        help="GPU-generation mixture for --cluster hetero as "
                             "name:fraction pairs, e.g. "
                             "v100:0.5,p100:0.25,k80:0.25; generation names "
                             "must be known presets (v100/p100/k80) and "
                             "fractions must be >= 0 with a positive sum")
    parser.add_argument("--perf-matrix", type=_perf_matrix, default=None,
                        help="per-model-family x per-GPU-generation throughput "
                             "matrix: a preset name (rate-inversion, "
                             "gavel-like), a .json file of "
                             "{family: {generation: speedup}}, or an inline "
                             "spec like 'vgg:v100=1.0,p100=0.25;"
                             "resnet:v100=0.7,p100=0.9'; unset = scalar "
                             "per-generation speeds")
    parser.add_argument("--migration", action="store_true",
                        help="enable speed-aware job migration: after each "
                             "round, trade a job's gang for free GPUs that "
                             "run its model family strictly faster")
    parser.add_argument("--apps", type=int, default=default_apps,
                        help="number of apps to generate")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument("--duration-scale", type=float, default=None,
                        help="scale factor on job durations")
    parser.add_argument("--lease", type=float, default=20.0,
                        help="GPU lease duration in minutes")


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="worker processes for sweep cells (1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed result cache directory")


def _fill_duration_default(args: argparse.Namespace) -> None:
    if args.duration_scale is None:
        args.duration_scale = 0.4 if args.cluster in ("sim", "hetero") else 0.08


#: :data:`repro.metrics.METRICS` names of the run/compare/sweep table.
_SUMMARY_METRICS = (
    "max_rho", "jain", "avg_jct", "placement", "gpu_time", "peak_contention",
)
_SUMMARY_HEADERS = ["scheduler", *_SUMMARY_METRICS]


def _summary_row(name: str, result) -> list:
    return [name, *metric_values(result, _SUMMARY_METRICS).values()]


def _cmd_run(args: argparse.Namespace) -> int:
    _fill_duration_default(args)
    scenario = _scenario_from_args(args)
    kwargs = {}
    if args.fairness_knob is not None:
        kwargs["fairness_knob"] = args.fairness_knob
    obs = _obs_from_args(args)
    result = run_scenario(scenario, args.scheduler, kwargs or None, obs=obs)
    print(format_table(_SUMMARY_HEADERS, [_summary_row(args.scheduler, result)]))
    if not result.completed:
        logger.warning("run hit max_minutes before all apps finished")
    if args.profile:
        _print_profile(result.profile)
    if args.trace:
        print(f"wrote trace to {args.trace}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _fill_duration_default(args)
    scenario = _scenario_from_args(args)
    names = _parse_schedulers(args.schedulers)
    if names is None:
        return 2
    results = compare_schedulers(
        scenario, names, workers=args.workers, cache_dir=args.cache_dir
    )
    rows = [_summary_row(name, results[name]) for name in names]
    print(format_table(_SUMMARY_HEADERS, rows))
    return 0


#: The ``figure`` verb's scenario flags, each defaulting to "not given".
_FIGURE_SCENARIO_FLAGS = (
    "cluster", "apps", "seed", "duration_scale", "lease", "perf_matrix",
    "migration",
)


def _figure_scenario(args: argparse.Namespace) -> Optional[ScenarioConfig]:
    """The scenario ``repro figure`` replays: the registry's, verbatim,
    unless scenario flags were given — then the preset rebuilt with the
    flags over the registry scenario's own cluster / apps / seed /
    duration scale / lease."""
    registered = FIGURES[args.name].scenario
    if registered is None or all(
        getattr(args, flag) is None for flag in _FIGURE_SCENARIO_FLAGS
    ):
        return registered
    if args.duration_scale is None and args.cluster in (None, registered.cluster_kind):
        args.duration_scale = registered.generator.duration_scale
    for flag, value in (
        ("cluster", registered.cluster_kind),
        ("apps", registered.generator.num_apps),
        ("seed", registered.generator.seed),
        ("lease", registered.lease_minutes),
    ):
        if getattr(args, flag) is None:
            setattr(args, flag, value)
    _fill_duration_default(args)
    return _scenario_from_args(args)


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in FIGURES:
        print(f"unknown figure {args.name!r}; known: {sorted(FIGURES)}",
              file=sys.stderr)
        return 2
    figure = run_figure(
        args.name,
        scenario=_figure_scenario(args),
        workers=args.workers,
        cache_dir=args.cache_dir,
    )
    print(format_figure(figure))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _fill_duration_default(args)
    names = _parse_schedulers(args.schedulers)
    if names is None:
        return 2
    if args.knobs and "themis" not in names:
        print("--knobs sweeps the themis-only fairness_knob kwarg; add themis "
              "to --schedulers", file=sys.stderr)
        return 2
    scenario_axes = {}
    if args.leases:
        scenario_axes["lease_minutes"] = args.leases
    base = _scenario_from_args(args)
    generator_axes = {}
    if args.contention:
        try:
            generator_axes["mean_interarrival_minutes"] = tuple(
                base.generator.with_contention(factor).mean_interarrival_minutes
                for factor in args.contention
            )
        except ValueError as error:
            print(f"--contention: {error}", file=sys.stderr)
            return 2
    # fairness_knob is a themis-only kwarg: give themis the knob axis
    # and run the other schedulers without it, in one task list.
    matrix = SweepMatrix(
        base=base,
        schedulers=tuple(n for n in names if n != "themis") if args.knobs else names,
        seeds=args.seeds or (),
        scenario_axes=scenario_axes,
        generator_axes=generator_axes,
    )
    tasks = []
    if args.knobs:
        tasks += SweepMatrix(
            base=base,
            schedulers=("themis",),
            seeds=args.seeds or (),
            scenario_axes=scenario_axes,
            generator_axes=generator_axes,
            scheduler_axes={"fairness_knob": args.knobs},
        ).expand()
    if matrix.schedulers:
        tasks += matrix.expand()
    if args.trace or args.profile:
        tasks = _attach_sweep_obs(tasks, args)
    print(f"expanded {len(tasks)} sweep cells ({len(names)} schedulers)")
    retry = None
    if args.retries:
        from repro.service.retry import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries + 1, base_delay=0.5,
                            max_delay=10.0)
    report = run_sweep(
        tasks,
        workers=args.workers,
        cache=args.cache_dir,
        progress=print if args.verbose else None,
        retry=retry,
    )
    rows = []
    for task, record in zip(tasks, report.records):
        if record.status == "failed":
            continue
        rows.append(
            _summary_row(task.task_id, report.result_for(task.task_id))
            + [record.status, record.duration_seconds]
        )
    print(format_table(_SUMMARY_HEADERS + ["status", "seconds"], rows))
    _print_per_type_breakdown(tasks, report)
    if args.seeds and len(args.seeds) > 1:
        agg_rows = report.aggregate(tasks)
        if agg_rows:
            print("\ncross-seed aggregation (mean +/- 95% CI):")
            headers = list(agg_rows[0].keys())
            print(format_table(headers, [[row.get(h) for h in headers] for row in agg_rows]))
    print(report.summary())
    if args.out:
        payload = {
            "summary": {
                "tasks": len(report.records),
                "ok": report.num_ok,
                "cached": report.num_cached,
                "failed": report.num_failed,
                "workers": report.workers,
                "wall_seconds": report.wall_seconds,
            },
            "results": {
                tid: result.to_json() for tid, result in report.results.items()
            },
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        print(f"wrote {len(report.results)} results to {args.out}")
    if report.num_failed:
        for record in report.failures():
            logger.error("FAILED %s:\n%s", record.task_id, record.error)
        return 1
    return 0


def _attach_sweep_obs(tasks, args: argparse.Namespace):
    """Attach per-cell observability: one trace file per task under
    ``--trace DIR``, plus the phase profiler with ``--profile``.

    Cells served from the result cache never execute, so they produce
    no trace file — the cache stores results, not event streams.
    """
    from dataclasses import replace as dc_replace
    from pathlib import Path

    trace_dir = Path(args.trace) if args.trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    attached = []
    for task in tasks:
        path = None
        if trace_dir is not None:
            safe = re.sub(r"[^A-Za-z0-9._=-]+", "_", task.task_id)
            path = str(trace_dir / f"{safe}.jsonl")
        attached.append(
            dc_replace(
                task,
                obs=ObsConfig(
                    trace_path=path,
                    trace_events=tuple(args.trace_events),
                    profile=args.profile,
                ),
            )
        )
    return attached


def _print_per_type_breakdown(tasks, report) -> None:
    """Per-GPU-generation metric rows for heterogeneous sweep cells."""
    type_rows = []
    for task in tasks:
        result = report.results.get(task.task_id)
        if result is None or not is_heterogeneous(result):
            continue
        for row in per_type_rows(result):
            type_rows.append(
                [
                    task.task_id,
                    row["gpu_type"],
                    row["gpus"],
                    row["gpu_time"],
                    row["utilization"],
                    row["weighted_rho"],
                    row["weighted_jct"],
                    row["weighted_placement"],
                ]
            )
    if type_rows:
        print("\nper-GPU-type breakdown (rho/jct/placement weighted by GPU time):")
        print(format_table(
            ["task", "gpu_type", "gpus", "gpu_time", "util",
             "rho", "jct", "placement"],
            type_rows,
        ))


def _cmd_cache(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.sweep import ResultCache

    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"no cache directory at {directory}", file=sys.stderr)
        return 2
    cache = ResultCache(directory)
    entries = cache.entries()
    if args.action == "stats":
        total = sum(e.size_bytes for e in entries)
        print(f"{len(entries)} entries, {total / 1e6:.2f} MB in {directory}")
        print(f"schema version: {cache.schema_version}")
        if entries:
            import datetime

            oldest = datetime.datetime.fromtimestamp(entries[0].modified)
            newest = datetime.datetime.fromtimestamp(entries[-1].modified)
            print(f"oldest entry: {oldest:%Y-%m-%d %H:%M}, newest: {newest:%Y-%m-%d %H:%M}")
        return 0
    if args.action == "list":
        rows = []
        for entry in entries[-args.limit:] if args.limit else entries:
            header = entry.describe()
            rows.append([
                entry.key[:12],
                header.get("task_id") or "?",
                header.get("schema_version"),
                entry.size_bytes,
            ])
        print(format_table(["key", "task_id", "schema", "bytes"], rows))
        return 0
    # prune
    kwargs = {}
    if args.max_age_days is not None:
        kwargs["max_age_seconds"] = args.max_age_days * 86400.0
    if args.max_size_mb is not None:
        kwargs["max_total_bytes"] = int(args.max_size_mb * 1e6)
    if args.max_entries is not None:
        kwargs["max_entries"] = args.max_entries
    try:
        stats = cache.prune(**kwargs)
    except ValueError as error:
        print(f"cache prune: {error}", file=sys.stderr)
        return 2
    print(
        f"pruned {stats.removed} entries ({stats.bytes_freed / 1e6:.2f} MB), "
        f"{stats.kept} kept, {stats.tmp_removed} orphaned temp files removed"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.file is not None:
        return _cmd_trace_inspect(args)
    _fill_duration_default(args)
    trace = generate_trace(
        GeneratorConfig(
            num_apps=args.apps,
            seed=args.seed,
            duration_scale=args.duration_scale,
            perf_matrix=args.perf_matrix or (),
        )
    )
    trace.to_jsonl(args.out)
    extra = " (perf matrix embedded)" if trace.perf_matrix else ""
    print(f"wrote {trace.num_apps} apps / {trace.num_jobs} jobs to {args.out}{extra}")
    return 0


def _cmd_trace_inspect(args: argparse.Namespace) -> int:
    """``repro trace FILE``: summarize / validate / filter a decision trace."""
    try:
        header, events = read_trace(args.file)
    except (OSError, TraceError) as error:
        print(f"cannot read trace {args.file!r}: {error}", file=sys.stderr)
        return 2
    if args.validate:
        problems = validate_events(events, header=header)
        if problems:
            for problem in problems:
                print(f"INVALID {problem}", file=sys.stderr)
            return 1
        print(f"trace OK: {len(events)} events, schema {header.get('schema')}")
        return 0
    if args.filter or args.app:
        selected = filter_events(events, kinds=args.filter or None, app=args.app)
        if args.limit:
            selected = selected[: args.limit]
        for event in selected:
            print(json.dumps(event, sort_keys=True))
        return 0
    summary = summarize_events(events)
    print(f"trace {args.file}")
    meta = {k: v for k, v in header.items() if k not in ("kind",)}
    print(f"header: {json.dumps(meta, sort_keys=True)}")
    print(f"{summary['events']} events, rounds={summary['rounds']}, "
          f"apps={summary['apps']}, "
          f"t=[{summary['t_min']}, {summary['t_max']}]")
    rows = [[kind, count] for kind, count in sorted(summary["by_kind"].items())]
    if rows:
        print(format_table(["kind", "events"], rows))
    return 0


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
    store = DurableStore(args.dir, fsync=args.fsync)
    kwargs = {"admission": admission} if admission is not None else {}
    plane = ControlPlane(
        store,
        worker_ttl=args.worker_ttl,
        dispatch_timeout=args.dispatch_timeout,
        **kwargs,
    )
    server = ServiceServer(plane, host=args.host, port=args.port)
    endpoint = server.write_endpoint_file(args.dir)
    host, port = server.endpoint
    print(f"repro service: epoch {plane.epoch} on http://{host}:{port} "
          f"(endpoint file {endpoint})")
    try:
        serve_forever(
            plane,
            server,
            poll_interval=args.poll_interval,
            max_seconds=args.max_seconds,
            idle_exit=args.idle_exit,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _client_for(args: argparse.Namespace):
    from repro.service.api import ServiceClient

    return ServiceClient.from_dir(args.dir)


def _cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: enqueue one job; prints the bare job id."""
    from repro.service.errors import ServiceError

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
    try:
        job_id = _client_for(args).submit(
            spec,
            tenant=args.tenant,
            gpus=args.gpus,
            pool=args.pool,
            priority=args.priority,
            job_id=args.job_id,
            max_runtime_s=args.max_runtime_s,
        )
    except ServiceError as error:
        print(f"submit failed ({error.reason}): {error}", file=sys.stderr)
        return 1
    print(job_id)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker``: pull-based executor against a running daemon."""
    from repro.service.errors import ServiceError
    from repro.service.worker import WorkerLoop

    try:
        client = _client_for(args)
        loop = WorkerLoop(
            client,
            name=args.name or "",
            capacity=args.capacity,
            poll_interval=args.poll_interval,
            max_seconds=args.max_seconds,
            idle_exit=args.idle_exit,
        )
        try:
            executed = loop.run()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            loop.stop()
            executed = loop.executed
    except ServiceError as error:
        print(f"worker failed ({error.reason}): {error}", file=sys.stderr)
        return 1
    print(f"worker {loop.worker_id or '?'}: executed {executed} job(s)")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: one job's record, or a table of every job."""
    from repro.service.errors import ServiceError

    try:
        client = _client_for(args)
        if args.job:
            print(json.dumps(client.status(args.job), indent=2, sort_keys=True))
            return 0
        jobs = client.jobs(tenant=args.tenant, state=args.state)
        health = client.health()
    except ServiceError as error:
        print(f"status failed ({error.reason}): {error}", file=sys.stderr)
        return 1
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


def _cmd_cancel(args: argparse.Namespace) -> int:
    """``repro cancel``: cancel a job (idempotent on terminal states)."""
    from repro.service.errors import ServiceError

    try:
        state = _client_for(args).cancel(args.job)
    except ServiceError as error:
        print(f"cancel failed ({error.reason}): {error}", file=sys.stderr)
        return 1
    print(f"{args.job}: {state}")
    return 0


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

    run_parser = sub.add_parser("run", help="run one scheduler over a scenario")
    _add_scenario_args(run_parser, default_apps=10)
    run_parser.add_argument("--scheduler", default="themis", choices=SCHEDULER_NAMES)
    run_parser.add_argument("--fairness-knob", type=float, default=None)
    _add_obs_args(run_parser,
                  trace_help="write the structured decision-event stream "
                             "(JSONL) to this path")
    run_parser.set_defaults(func=_cmd_run)

    compare_parser = sub.add_parser("compare", help="compare several schedulers")
    _add_scenario_args(compare_parser, default_apps=10)
    compare_parser.add_argument(
        "--schedulers", default="themis,gandiva,slaq,tiresias",
        help="comma-separated scheduler names",
    )
    _add_exec_args(compare_parser)
    compare_parser.set_defaults(func=_cmd_compare)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("name", help=f"one of {sorted(FIGURES)}")
    _add_scenario_args(figure_parser, default_apps=None)
    # No scenario flag = replay the registry's scenario for the figure;
    # a flag that is given overrides that scenario's value.
    figure_parser.set_defaults(**dict.fromkeys(_FIGURE_SCENARIO_FLAGS))
    _add_exec_args(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    sweep_parser = sub.add_parser(
        "sweep", help="run a scheduler x seed x knob matrix through the pool"
    )
    _add_scenario_args(sweep_parser, default_apps=6)
    sweep_parser.add_argument(
        "--schedulers", default="themis,gandiva,slaq,tiresias",
        help="comma-separated scheduler names (one matrix axis)",
    )
    sweep_parser.add_argument("--seeds", type=_int_list, default=None,
                              help="comma-separated workload seeds axis")
    sweep_parser.add_argument("--knobs", type=_float_list, default=None,
                              help="comma-separated fairness-knob axis "
                                   "(themis-only kwarg)")
    sweep_parser.add_argument("--leases", type=_float_list, default=None,
                              help="comma-separated lease-minutes axis")
    sweep_parser.add_argument("--contention", type=_float_list, default=None,
                              help="comma-separated contention-factor axis")
    sweep_parser.add_argument("--out", default=None,
                              help="write all results as JSON to this path")
    sweep_parser.add_argument("--verbose", action="store_true",
                              help="print one line per completed cell")
    sweep_parser.add_argument("--retries", type=int, default=0,
                              help="re-run a cell up to N extra times after "
                                   "transient failures (worker deaths, IO "
                                   "errors) with capped backoff")
    _add_obs_args(sweep_parser,
                  trace_help="directory for per-cell decision-event streams "
                             "(one <task_id>.jsonl per executed cell; cached "
                             "cells produce no trace)")
    _add_exec_args(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    cache_parser = sub.add_parser(
        "cache", help="inspect or prune a sweep result-cache directory"
    )
    cache_parser.add_argument("action", choices=("stats", "list", "prune"),
                              help="stats: totals; list: entries; prune: GC")
    cache_parser.add_argument("--dir", default=".sweep-cache",
                              help="cache directory (default .sweep-cache)")
    cache_parser.add_argument("--limit", type=_positive_int, default=None,
                              help="list: show only the newest N entries")
    cache_parser.add_argument("--max-age-days", type=float, default=None,
                              help="prune: drop entries older than this")
    cache_parser.add_argument("--max-size-mb", type=float, default=None,
                              help="prune: keep total size under this bound")
    cache_parser.add_argument("--max-entries", type=int, default=None,
                              help="prune: keep at most this many entries")
    cache_parser.set_defaults(func=_cmd_cache)

    trace_parser = sub.add_parser(
        "trace",
        help="generate a workload trace, or inspect a decision trace",
        description="Without a FILE argument: generate a workload trace "
                    "JSONL (--apps/--seed/--out).  With FILE: inspect a "
                    "decision-event stream produced by 'repro run --trace' — "
                    "summarize it, --validate it against the event schema, "
                    "or --filter/--app it down to matching events.",
    )
    trace_parser.add_argument("file", nargs="?", default=None,
                              help="decision-trace JSONL to inspect "
                                   "(omit to generate a workload trace)")
    trace_parser.add_argument("--apps", type=int, default=30)
    trace_parser.add_argument("--seed", type=int, default=42)
    trace_parser.add_argument("--duration-scale", type=float, default=None)
    trace_parser.add_argument("--cluster", choices=("sim", "testbed"), default="sim")
    trace_parser.add_argument("--perf-matrix", type=_perf_matrix, default=None,
                              help="embed a throughput matrix (preset name, "
                                   ".json file, or inline spec) into the "
                                   "trace header")
    trace_parser.add_argument("--out", default="trace.jsonl")
    trace_parser.add_argument("--validate", action="store_true",
                              help="inspect mode: check the stream against "
                                   "the typed event schema; exit 1 on "
                                   "violations")
    trace_parser.add_argument("--filter", type=_event_kinds, default=(),
                              help="inspect mode: print only these event "
                                   "kinds, one JSON object per line")
    trace_parser.add_argument("--app", default=None,
                              help="inspect mode: print only events touching "
                                   "this app id")
    trace_parser.add_argument("--limit", type=_positive_int, default=None,
                              help="inspect mode: print at most N events")
    trace_parser.set_defaults(func=_cmd_trace)

    serve_parser = sub.add_parser(
        "serve",
        help="run the crash-safe control-plane daemon",
        description="Long-lived scheduler service over a durable WAL + "
                    "snapshot store.  Writes service.json into --dir so "
                    "'repro submit/status/cancel --dir DIR' find it.",
    )
    serve_parser.add_argument("--dir", required=True,
                              help="durable store directory (WAL, snapshots, "
                                   "endpoint file)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (0 picks an ephemeral port)")
    serve_parser.add_argument("--poll-interval", type=float, default=0.1,
                              help="seconds between control-plane ticks")
    serve_parser.add_argument("--max-seconds", type=float, default=None,
                              help="exit after this long (CI smoke knob)")
    serve_parser.add_argument("--idle-exit", type=float, default=None,
                              help="exit once idle (no active jobs) this long")
    serve_parser.add_argument("--fsync", action="store_true",
                              help="fsync every WAL append (durability over "
                                   "throughput)")
    serve_parser.add_argument("--policies", default=None,
                              help="JSON file with a list of tenant admission "
                                   "policies (tenant '*' sets the default)")
    serve_parser.add_argument("--worker-ttl", type=float, default=5.0,
                              help="seconds of heartbeat silence before a "
                                   "worker is reaped and its jobs re-queued")
    serve_parser.add_argument("--dispatch-timeout", type=float, default=30.0,
                              help="seconds a claimed job may sit dispatched "
                                   "before the claim is revoked")
    serve_parser.set_defaults(func=_cmd_serve)

    worker_parser = sub.add_parser(
        "worker",
        help="run a pull-based worker against a 'repro serve' daemon",
        description="Registers with the daemon found via --dir, then "
                    "claims, executes (one child process per job) and "
                    "reports jobs until stopped.  Run several for a "
                    "fleet; kill any of them freely — leases and "
                    "dispatch tokens keep every job exactly-once.",
    )
    worker_parser.add_argument("--dir", required=True,
                               help="store directory of the running service")
    worker_parser.add_argument("--name", default=None,
                               help="human-readable worker name (logs only)")
    worker_parser.add_argument("--capacity", type=_positive_int, default=1,
                               help="jobs this worker may hold at once")
    worker_parser.add_argument("--poll-interval", type=float, default=0.2,
                               help="seconds between claim polls when idle")
    worker_parser.add_argument("--max-seconds", type=float, default=None,
                               help="exit after this long (CI smoke knob)")
    worker_parser.add_argument("--idle-exit", type=float, default=None,
                               help="exit once no work was granted this long")
    worker_parser.set_defaults(func=_cmd_worker)

    submit_parser = sub.add_parser(
        "submit", help="submit a job to a running 'repro serve' daemon"
    )
    submit_parser.add_argument("--dir", required=True,
                               help="store directory of the running service")
    submit_parser.add_argument("--kind", default="noop",
                               choices=("noop", "sleep", "fail", "sim"),
                               help="spec kind the daemon executor interprets")
    submit_parser.add_argument("--spec", default=None,
                               help="JSON object merged into the job spec")
    submit_parser.add_argument("--tenant", default="default")
    submit_parser.add_argument("--gpus", type=_positive_int, default=1)
    submit_parser.add_argument("--pool", default="default")
    submit_parser.add_argument("--priority", type=int, default=0)
    submit_parser.add_argument("--job-id", default=None,
                               help="explicit job id (idempotent resubmission)")
    submit_parser.add_argument("--max-runtime-s", type=float, default=None,
                               help="deadline: fail the job transiently if "
                                    "one execution runs longer than this")
    submit_parser.set_defaults(func=_cmd_submit)

    status_parser = sub.add_parser(
        "status", help="show one job, or every job, of a running daemon"
    )
    status_parser.add_argument("--dir", required=True,
                               help="store directory of the running service")
    status_parser.add_argument("job", nargs="?", default=None,
                               help="job id (omit for the full table)")
    status_parser.add_argument("--tenant", default=None,
                               help="table mode: only this tenant's jobs")
    status_parser.add_argument("--state", default=None,
                               help="table mode: only jobs in this state")
    status_parser.set_defaults(func=_cmd_status)

    cancel_parser = sub.add_parser(
        "cancel", help="cancel a job on a running daemon (idempotent)"
    )
    cancel_parser.add_argument("--dir", required=True,
                               help="store directory of the running service")
    cancel_parser.add_argument("job", help="job id to cancel")
    cancel_parser.set_defaults(func=_cmd_cancel)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
