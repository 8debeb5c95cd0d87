"""The simulation verbs: run, compare, figure, sweep, cache and trace.

``run`` / ``compare`` / ``sweep`` build their scenario, and ``figure``
overrides its registry scenario, through the one preset dispatch
:func:`~repro.experiments.config.preset_scenario`; everything printed
comes from the same figure/report code the benchmarks use.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from typing import Optional

from repro.cli.args import (
    add_dir_arg,
    add_exec_args,
    add_obs_args,
    add_scenario_args,
    event_kinds,
    float_list,
    int_list,
    non_negative_int,
    obs_from_args,
    perf_matrix,
    positive_float,
    positive_float_list,
    positive_int,
    scenario_knobs,
    unit_float,
    unit_float_list,
)
from repro.experiments.config import ScenarioConfig, preset_scenario
from repro.experiments.figures import FIGURES, compare_schedulers, run_figure
from repro.experiments.report import format_figure, format_table
from repro.experiments.runner import run_scenario
from repro.metrics.hetero import is_heterogeneous, per_type_rows
from repro.metrics.summary import metric_values
from repro.obs import TraceError, filter_events, read_trace, summarize_events, validate_events
from repro.schedulers.registry import SCHEDULER_NAMES
from repro.sweep import SweepMatrix, run_sweep
from repro.workload.generator import generate_trace

logger = logging.getLogger("repro.cli")

#: ``run`` / ``compare`` / ``sweep`` defaults; ``figure`` has none.
_DIRECT_DEFAULTS = dict(cluster="testbed", seed=42, lease=20.0, migration=False)


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


def _print_placement(round_stats: dict) -> None:
    """The install path's counters (``round_stats["placement"]``): GPUs
    new to their app, those a job took, and installs that took none."""
    counts = round_stats.get("placement")
    if not counts:
        return
    granted, installed = counts["gpus_granted"], counts["gpus_installed"]
    share = f"{100.0 * installed / granted:.1f}%" if granted else "-"
    print("\nplacement:")
    print(format_table(
        ["gpus_granted", "gpus_installed", "share", "installs_fully_declined"],
        [[granted, installed, share, counts["installs_fully_declined"]]],
    ))


def _print_auctions(round_stats: dict) -> None:
    """Eligible apps and participants per auction, mean and max, over the
    arbiter's ``per_round`` rows (every auction unless the run downsampled)."""
    rows = round_stats.get("per_round")
    if not rows:
        return
    cells = [len(rows)]
    for key in ("num_eligible", "num_participants"):
        values = [row[key] for row in rows]
        cells += [round(sum(values) / len(values), 2), max(values)]
    print("\nauctions:")
    print(format_table(
        ["auctions", "eligible_mean", "eligible_max", "participants_mean", "participants_max"],
        [cells],
    ))


def _print_valuation(round_stats: dict) -> None:
    """The valuation work of every auction of the run: carves made
    (wherever they were made, the rho probes' included), the ones the
    bids made, snapshots rebuilt, and the values asked of bids, in total
    and per auction."""
    totals = round_stats.get("totals")
    if not totals or "carves" not in totals:
        return
    rounds = round_stats["rounds"]
    carves, lookups = totals["carves"], totals["valuation_lookups"]
    print("\nvaluation:")
    print(format_table(
        ["carves", "bid_carves", "carves_per_auction", "rebuilds", "lookups",
         "lookups_per_auction"],
        [[carves, totals["valuation_probes"], round(carves / rounds, 2),
          totals["rebuilds"], lookups, round(lookups / rounds, 2)]],
    ))


def _print_payments(result) -> None:
    """The hidden payments' ledger over every auction of the run:
    proportional-fair winners, the ones that paid, and the
    ``paid_share`` and ``gpus_withheld`` columns of METRICS."""
    totals = result.round_stats.get("totals")
    if not totals or "num_pf_winners" not in totals:
        return
    ledger = metric_values(result, ("paid_share", "gpus_withheld"))
    share = ledger["paid_share"]
    print("\npayments:")
    print(format_table(
        ["pf_winners", "paid", "paid_share", "gpus_withheld"],
        [[totals["num_pf_winners"], totals["num_paid"],
          "-" if share is None else round(share, 3), ledger["gpus_withheld"]]],
    ))


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


def _scenario(args: argparse.Namespace, base: Optional[ScenarioConfig] = None) -> ScenarioConfig:
    """The scenario flags over the cluster's preset, or over ``base``."""
    scenario = preset_scenario(args.cluster, base, gpu_mix=args.gpu_mix, **scenario_knobs(args))
    if scenario.perf_matrix and scenario.cluster_kind != "hetero":
        # The sim/testbed presets are single-generation ("default")
        # fleets: unless the matrix prices that generation explicitly,
        # every lookup falls back to the scalar speed and the run would
        # silently measure nothing.
        from repro.workload.perf import resolve_matrix_spec

        cells = (cell for _, row in resolve_matrix_spec(scenario.perf_matrix) for cell in row)
        if not any(generation == "default" for generation, _speedup in cells):
            logger.warning(
                "--perf-matrix has no effect on the single-generation "
                "'%s' cluster (no 'default' cells, so every lookup falls "
                "back to the scalar speed); use --cluster hetero to "
                "exercise the matrix",
                scenario.cluster_kind,
            )
    return scenario


#: :data:`repro.metrics.METRICS` names of the run/compare/sweep table.
_SUMMARY_METRICS = (
    "max_rho", "jain", "avg_jct", "placement", "gpu_time", "peak_contention",
)
_SUMMARY_HEADERS = ["scheduler", *_SUMMARY_METRICS]


def _summary_row(name: str, result) -> list:
    return [name, *metric_values(result, _SUMMARY_METRICS).values()]


def _add_run(sub) -> None:
    parser = sub.add_parser("run", help="run one scheduler over a scenario")
    add_scenario_args(parser, apps=10, **_DIRECT_DEFAULTS)
    parser.add_argument("--scheduler", default="themis", choices=SCHEDULER_NAMES)
    parser.add_argument("--fairness-knob", type=unit_float, default=None)
    add_obs_args(parser, "write the structured decision-event stream (JSONL) to this path")
    parser.set_defaults(func=_cmd_run)


def _cmd_run(args: argparse.Namespace) -> int:
    kwargs = None if args.fairness_knob is None else {"fairness_knob": args.fairness_knob}
    result = run_scenario(_scenario(args), args.scheduler, kwargs, obs=obs_from_args(args))
    print(format_table(_SUMMARY_HEADERS, [_summary_row(args.scheduler, result)]))
    if not result.completed:
        logger.warning("run hit max_minutes before all apps finished")
    if args.profile:
        _print_profile(result.profile)
        _print_placement(result.round_stats)
        _print_auctions(result.round_stats)
        _print_valuation(result.round_stats)
        _print_payments(result)
    if args.trace:
        print(f"wrote trace to {args.trace}")
    return 0


def _add_compare(sub) -> None:
    parser = sub.add_parser("compare", help="compare several schedulers")
    add_scenario_args(parser, apps=10, **_DIRECT_DEFAULTS)
    parser.add_argument("--schedulers", default="themis,gandiva,slaq,tiresias",
                        help="comma-separated scheduler names")
    add_exec_args(parser)
    parser.set_defaults(func=_cmd_compare)


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    names = _parse_schedulers(args.schedulers)
    if names is None:
        return 2
    results = compare_schedulers(scenario, names, workers=args.workers, cache_dir=args.cache_dir)
    rows = [_summary_row(name, results[name]) for name in names]
    print(format_table(_SUMMARY_HEADERS, rows))
    return 0


def _add_figure(sub) -> None:
    parser = sub.add_parser("figure", help="regenerate a paper figure")
    parser.add_argument("name", help=f"one of {sorted(FIGURES)}")
    # No scenario flag = replay the registry's scenario for the figure;
    # a flag that is given overrides that scenario's value.
    add_scenario_args(parser)
    add_exec_args(parser)
    parser.set_defaults(func=_cmd_figure)


def _figure_scenario(args: argparse.Namespace) -> Optional[ScenarioConfig]:
    """The scenario ``repro figure`` replays: the registry's, verbatim,
    unless scenario flags were given — then the flags over it."""
    registered = FIGURES[args.name].scenario
    if registered is None or all(
        value is None for value in (args.cluster, *scenario_knobs(args).values())
    ):
        return registered
    return _scenario(args, base=registered)


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.name not in FIGURES:
        print(f"unknown figure {args.name!r}; known: {sorted(FIGURES)}",
              file=sys.stderr)
        return 2
    figure = run_figure(args.name, scenario=_figure_scenario(args), workers=args.workers,
                        cache_dir=args.cache_dir)
    print(format_figure(figure))
    return 0


def _add_sweep(sub) -> None:
    parser = sub.add_parser("sweep", help="run a scheduler x seed x knob matrix through the pool")
    add_scenario_args(parser, apps=6, **_DIRECT_DEFAULTS)
    parser.add_argument("--schedulers", default="themis,gandiva,slaq,tiresias",
                        help="comma-separated scheduler names (one matrix axis)")
    parser.add_argument("--seeds", type=int_list, default=None,
                        help="comma-separated workload seeds axis")
    parser.add_argument("--knobs", type=unit_float_list, default=None,
                        help="comma-separated fairness-knob axis (themis-only kwarg)")
    parser.add_argument("--leases", type=positive_float_list, default=None,
                        help="comma-separated lease-minutes axis")
    parser.add_argument("--contention", type=float_list, default=None,
                        help="comma-separated contention-factor axis")
    parser.add_argument("--out", default=None,
                        help="write all results as JSON to this path")
    parser.add_argument("--verbose", action="store_true",
                        help="print one line per completed cell")
    parser.add_argument("--retries", type=non_negative_int, default=0,
                        help="re-run a cell up to N extra times after transient failures "
                             "(worker deaths, IO errors) with capped backoff")
    add_obs_args(parser, "directory for per-cell decision-event streams (one "
                         "<task_id>.jsonl per executed cell; cached cells produce no trace)")
    add_exec_args(parser)
    parser.set_defaults(func=_cmd_sweep)


def _cmd_sweep(args: argparse.Namespace) -> int:
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
    base = _scenario(args)
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
    axes = dict(
        seeds=args.seeds or (), scenario_axes=scenario_axes, generator_axes=generator_axes
    )
    matrix = SweepMatrix(
        base=base,
        schedulers=tuple(n for n in names if n != "themis") if args.knobs else names,
        **axes,
    )
    tasks = []
    if args.knobs:
        tasks += SweepMatrix(
            base=base, schedulers=("themis",),
            scheduler_axes={"fairness_knob": args.knobs}, **axes,
        ).expand()
    if matrix.schedulers:
        tasks += matrix.expand()
    if args.trace or args.profile:
        tasks = _attach_sweep_obs(tasks, args)
    print(f"expanded {len(tasks)} sweep cells ({len(names)} schedulers)")
    retry = None
    if args.retries:
        from repro.service.retry import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries + 1, base_delay=0.5, max_delay=10.0)
    report = run_sweep(tasks, workers=args.workers, cache=args.cache_dir,
                       progress=print if args.verbose else None, retry=retry)
    rows = [
        _summary_row(task.task_id, report.result_for(task.task_id))
        + [record.status, record.duration_seconds]
        for task, record in zip(tasks, report.records)
        if record.status != "failed"
    ]
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
        summary = dict(tasks=len(report.records), ok=report.num_ok, cached=report.num_cached,
                       failed=report.num_failed, workers=report.workers,
                       wall_seconds=report.wall_seconds)
        results = {tid: result.to_json() for tid, result in report.results.items()}
        payload = {"summary": summary, "results": results}
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
        attached.append(dc_replace(task, obs=obs_from_args(args, trace_path=path)))
    return attached


#: ``per_type_rows`` columns of the per-GPU-type breakdown table.
_PER_TYPE_COLUMNS = (
    "gpu_type", "gpus", "gpu_time", "utilization",
    "weighted_rho", "weighted_jct", "weighted_placement",
)


def _print_per_type_breakdown(tasks, report) -> None:
    """Per-GPU-generation metric rows for heterogeneous sweep cells."""
    type_rows = []
    for task in tasks:
        result = report.results.get(task.task_id)
        if result is None or not is_heterogeneous(result):
            continue
        type_rows += [
            [task.task_id, *(row[column] for column in _PER_TYPE_COLUMNS)]
            for row in per_type_rows(result)
        ]
    if type_rows:
        print("\nper-GPU-type breakdown (rho/jct/placement weighted by GPU time):")
        headers = ["task", "gpu_type", "gpus", "gpu_time", "util", "rho", "jct", "placement"]
        print(format_table(headers, type_rows))


def _add_cache(sub) -> None:
    parser = sub.add_parser("cache", help="inspect or prune a sweep result-cache directory")
    parser.add_argument("action", choices=("stats", "list", "prune"),
                        help="stats: totals; list: entries; prune: GC")
    add_dir_arg(parser, "cache directory (default .sweep-cache)", default=".sweep-cache")
    parser.add_argument("--limit", type=positive_int, default=None,
                        help="list: show only the newest N entries")
    parser.add_argument("--max-age-days", type=float, default=None,
                        help="prune: drop entries older than this")
    parser.add_argument("--max-size-mb", type=float, default=None,
                        help="prune: keep total size under this bound")
    parser.add_argument("--max-entries", type=int, default=None,
                        help="prune: keep at most this many entries")
    parser.set_defaults(func=_cmd_cache)


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
            rows.append([entry.key[:12], header.get("task_id") or "?",
                         header.get("schema_version"), entry.size_bytes])
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


def _add_trace(sub) -> None:
    parser = sub.add_parser(
        "trace",
        help="generate a workload trace, or inspect a decision trace",
        description="Without a FILE argument: generate a workload trace "
                    "JSONL (--apps/--seed/--out).  With FILE: inspect a "
                    "decision-event stream produced by 'repro run --trace' — "
                    "summarize it, --validate it against the event schema, "
                    "or --filter/--app it down to matching events.",
    )
    parser.add_argument("file", nargs="?", default=None,
                        help="decision-trace JSONL to inspect (omit to generate a workload trace)")
    parser.add_argument("--apps", type=positive_int, default=30)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--duration-scale", type=positive_float, default=None)
    parser.add_argument("--cluster", choices=("sim", "testbed"), default="sim")
    parser.add_argument("--perf-matrix", type=perf_matrix, default=None,
                        help="embed a throughput matrix (preset name, .json file, or "
                             "inline spec) into the trace header")
    parser.add_argument("--out", default="trace.jsonl")
    parser.add_argument("--validate", action="store_true",
                        help="inspect mode: check the stream against the "
                             "typed event schema; exit 1 on violations")
    parser.add_argument("--filter", type=event_kinds, default=(),
                        help="inspect mode: print only these event kinds, "
                             "one JSON object per line")
    parser.add_argument("--app", default=None,
                        help="inspect mode: print only events touching this app id")
    parser.add_argument("--limit", type=positive_int, default=None,
                        help="inspect mode: print at most N events")
    parser.set_defaults(func=_cmd_trace)


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.file is not None:
        return _cmd_trace_inspect(args)
    # The --cluster preset's generator (duration scale, app widths), so
    # the file is the trace that preset's scenario replays.
    preset = preset_scenario(args.cluster, duration_scale=args.duration_scale)
    trace = generate_trace(
        preset.generator.replace(
            num_apps=args.apps, seed=args.seed, perf_matrix=args.perf_matrix or ()
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


def add_verbs(sub) -> None:
    """Register the simulation verbs on ``repro``'s subparsers."""
    for add in (_add_run, _add_compare, _add_figure, _add_sweep, _add_cache, _add_trace):
        add(sub)
