"""The paper's evaluation (Section 8) as data: one registry of figures.

:data:`FIGURES` holds, per figure id — the nine figures of the paper
plus four ablations of Themis' design choices — everything that
defines the experiment: the paper-scale scenario it replays, the
schedulers and the one swept knob with the paper's grid (a
:class:`~repro.sweep.SweepMatrix` in the making), the row columns as
names into :data:`repro.metrics.METRICS`, and the shape the paper
reports as a ``claim`` string.  :func:`run_figure` is the one way to run
any of them: it expands the matrix, executes the cells through
:func:`repro.sweep.run_sweep` (``workers`` fans them out over a process
pool, ``cache_dir`` reuses unchanged cells across invocations) and
projects the results into the rows/series the paper plots.  The CLI's
``figure`` verb, the replays under ``benchmarks/`` (which record their
tables in ``benchmarks/results/``) and the examples all go through it,
so what a figure runs is defined here and nowhere else.

Figures 1, 2 and 8 are not scheduler sweeps and stay custom callables
registered in the same table.

This module sits *above* :mod:`repro.sweep` in the import order (the
scenario presets and :func:`~repro.experiments.runner.run_scenario` sit
below it), so import it by its full name:
``from repro.experiments.figures import FIGURES, run_figure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.cluster.topology import Cluster, ClusterSpec, MachineSpec, build_cluster
from repro.experiments.config import ScenarioConfig, sim_scenario, testbed_scenario
from repro.metrics.fairness import distance_from_ideal
from repro.metrics.jct import cdf, percentile
from repro.metrics.summary import metric_values, multi_bidder_auctions
from repro.metrics.timeline import allocation_series
from repro.schedulers.registry import make_scheduler
from repro.simulation.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.sweep import SweepMatrix, SweepReport, SweepTask, run_sweep
from repro.workload.models import get_model, throughput
from repro.workload.trace import Trace, TraceApp, TraceJob

#: The paper's comparison set (Section 8.3).
PAPER_SCHEDULERS: tuple[str, ...] = ("themis", "gandiva", "slaq", "tiresias")

#: Optional cache-directory argument of everything that runs a sweep.
CacheDir = Union[str, Path, None]


@dataclass
class FigureResult:
    """Reproduction output for one paper figure."""

    figure_id: str
    title: str
    rows: list[dict]
    series: dict[str, list[tuple]] = field(default_factory=dict)
    notes: str = ""


@dataclass(frozen=True)
class Axis:
    """The one knob a sweep-shaped figure varies, with the paper's grid."""

    #: The :class:`~repro.sweep.SweepMatrix` axis mapping the knob goes
    #: in — ``"scenario"``, ``"generator"`` or ``"scheduler"`` — and the
    #: config field / scheduler kwarg it sets.
    kind: str
    name: str
    values: tuple
    #: Row column of the grid value where it is not ``name``.
    column: str = ""
    #: Grid value -> field value where the figure's x-axis is not the
    #: field itself (Figure 10 plots a contention *factor*).
    encode: Optional[Callable[[ScenarioConfig, object], object]] = None


@dataclass(frozen=True)
class Figure:
    """One registry entry: what a figure runs and what the paper says it shows."""

    title: str
    #: The shape the paper reports (arXiv:1907.01484, Section 8), as this
    #: tree's docstrings and benchmark comments quoted it; where no
    #: magnitude is given, only the shape is known.
    claim: str
    #: The paper-scale scenario the benchmarks replay (``None``: the
    #: figure builds its own fixed setup).
    scenario: Optional[ScenarioConfig] = None
    schedulers: tuple[str, ...] = ("themis",)
    axis: Optional[Axis] = None
    #: Row columns, as :data:`repro.metrics.METRICS` names (``labels``
    #: renames one in the rows).  With an axis *and* several schedulers
    #: the columns repeat as ``column:scheduler``.
    columns: tuple[str, ...] = ()
    labels: Mapping[str, str] = field(default_factory=dict)
    #: Optional last step over the projected result and its
    #: ``(scheduler, result)`` cells.
    finish: Optional[Callable[[FigureResult, Sequence[tuple]], None]] = None
    #: Figures that are not scheduler sweeps: ``custom(scenario, values)``
    #: returns ``(rows, series, notes)``.
    custom: Optional[Callable[[Optional[ScenarioConfig], Optional[Sequence]], tuple]] = None


# ----------------------------------------------------------------------
# Running a registry entry
# ----------------------------------------------------------------------
def _run_cells(tasks: Sequence[SweepTask], workers: int, cache_dir: CacheDir) -> SweepReport:
    """Run cells through the sweep subsystem; raise on failures."""
    report = run_sweep(tasks, workers=workers, cache=cache_dir)
    report.raise_on_failure()
    return report


def _bidders_note(results: Sequence[SimulationResult]) -> str:
    """How many auctions of each Themis run had anyone to compete with."""
    return "auctions with >= 2 bidders: " + ", ".join(
        "{} of {}".format(*multi_bidder_auctions(result)) for result in results
    )


def figure_tasks(
    figure_id: str,
    scenario: Optional[ScenarioConfig] = None,
    values: Optional[Sequence] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> list[SweepTask]:
    """The cells a sweep-shaped registry figure expands to: grid point by
    grid point and, within a point, scheduler by scheduler."""
    figure = FIGURES[figure_id]
    scenario = scenario or figure.scenario
    # dedupe, keep first occurrence: a repeated name is the same cell
    names = tuple(dict.fromkeys(schedulers or figure.schedulers))
    axis = figure.axis
    if axis is None:
        return SweepMatrix(base=scenario, schedulers=names).expand()
    tasks: list[SweepTask] = []
    for value in axis.values if values is None else values:
        knob = axis.encode(scenario, value) if axis.encode else value
        axes = {f"{axis.kind}_axes": {axis.name: (knob,)}}
        tasks += SweepMatrix(base=scenario, schedulers=names, **axes).expand()
    return tasks


def run_figure(
    figure_id: str,
    scenario: Optional[ScenarioConfig] = None,
    values: Optional[Sequence] = None,
    schedulers: Optional[Sequence[str]] = None,
    workers: int = 1,
    cache_dir: CacheDir = None,
) -> FigureResult:
    """Run one registry figure and return the rows/series the paper plots.

    With no arguments beyond the id this is the paper-scale replay the
    registry describes.  ``scenario`` substitutes another workload
    (tests shrink it), ``values`` another grid for the figure's swept
    knob and ``schedulers`` another comparison set.  Every figure whose
    cells include ``themis`` reports in ``notes`` how many of each such
    run's auctions had at least two bidders.
    """
    figure = FIGURES[figure_id]
    scenario = scenario or figure.scenario
    if figure.custom is not None:
        return FigureResult(figure_id, figure.title, *figure.custom(scenario, values))

    tasks = figure_tasks(figure_id, scenario, values, schedulers)
    report = _run_cells(tasks, workers, cache_dir)
    cells = [(task.scheduler, report.result_for(task.task_id)) for task in tasks]
    names = tuple(dict.fromkeys(name for name, _result in cells))
    axis = figure.axis

    def columns(result: SimulationResult, suffix: str = "") -> dict:
        return {
            figure.labels.get(metric, metric) + suffix: value
            for metric, value in metric_values(result, figure.columns).items()
        }

    if axis is None:
        rows = [{"scheduler": name, **columns(result)} for name, result in cells]
    else:
        # One row per grid point (cells are grid-point-major); a figure
        # that compares schedulers along its axis repeats the columns
        # per scheduler.
        wide = max(len(names), len(figure.schedulers)) > 1
        grid = axis.values if values is None else values
        rows = [{axis.column or axis.name: value} for value in grid]
        for index, (name, result) in enumerate(cells):
            rows[index // len(names)].update(columns(result, f":{name}" if wide else ""))
    result = FigureResult(figure_id, figure.title, rows)
    if figure.finish is not None:
        figure.finish(result, cells)
    themis = [cell for name, cell in cells if name == "themis"]
    if themis:
        result.notes = "; ".join(filter(None, (result.notes, _bidders_note(themis))))
    return result


def compare_schedulers(
    scenario: ScenarioConfig,
    schedulers: Sequence[str] = PAPER_SCHEDULERS,
    workers: int = 1,
    cache_dir: CacheDir = None,
) -> dict[str, SimulationResult]:
    """Run several schedulers over identical workloads; keyed by name.

    Every scheduler replays the *same* trace (regenerated fresh per run
    so job state never leaks between runs) on the same cluster topology
    — the apples-to-apples setup of the paper's macrobenchmark.
    ``workers`` sizes the sweep worker pool (1 = serial in-process);
    ``cache_dir`` enables the content-addressed result cache.  A
    failing run raises :class:`repro.sweep.SweepError` with the
    worker's traceback.
    """
    tasks = SweepMatrix(
        base=scenario, schedulers=tuple(dict.fromkeys(schedulers))
    ).expand()
    report = _run_cells(tasks, workers, cache_dir)
    return {task.scheduler: report.result_for(task.task_id) for task in tasks}


# ----------------------------------------------------------------------
# Custom figures: 1 (trace CDF), 2 (placement throughput), 8 (timeline)
# ----------------------------------------------------------------------
def _fig01_task_duration_cdf(scenario: ScenarioConfig, _values) -> tuple:
    """CDF of task durations, at the generator's native scale
    (duration_scale=1) so the x-axis is comparable with the paper's."""
    trace = scenario.with_generator(duration_scale=1.0).build_trace()
    durations = trace.task_durations()
    rows = [
        {"percentile": q, "duration_minutes": percentile(durations, q)}
        for q in (10, 25, 50, 75, 90, 99)
    ]
    notes = f"{len(durations)} tasks; median {percentile(durations, 50):.0f} min"
    return rows, {"cdf": cdf(durations)}, notes


def _two_servers(name: str) -> Cluster:
    """Two 4-GPU machines in one rack: the fixed setup of Figures 2 and 8."""
    spec = ClusterSpec(
        machine_specs=(MachineSpec(count=2, gpus_per_machine=4),), num_racks=1, name=name
    )
    return build_cluster(spec)


_FIG02_MODELS = ("vgg16", "vgg19", "alexnet", "inceptionv3", "resnet50")


def _fig02_placement_throughput(_scenario, models: Optional[Sequence[str]]) -> tuple:
    """Throughput for 4 GPUs on one server vs 2x2 across servers."""
    # Placement "one server" uses machine 0 only; "2x2" takes two GPUs
    # from each machine.
    cluster = _two_servers("fig2-pair")
    one_server = cluster.gpus_on_machine(0)
    split = cluster.gpus_on_machine(0)[:2] + cluster.gpus_on_machine(1)[:2]
    rows = []
    for name in models or _FIG02_MODELS:
        profile = get_model(name)
        t_local = throughput(profile, one_server)
        t_split = throughput(profile, split)
        rows.append(
            {
                "model": name,
                "one_server_4gpu": t_local,
                "two_by_two": t_split,
                "slowdown": t_split / t_local,
            }
        )
    return rows, {}, "slowdown < ~0.6 marks placement-sensitive models"


def _fig08_timeline(_scenario, _values) -> tuple:
    """GPU allocation timeline of two hand-picked apps.

    Reconstructs the paper's scenario: two single-job apps with a 3x
    running-time ratio and equal placement sensitivity arrive together
    at t=40 into a small contended cluster; more apps arrive at t=60.
    """

    def job(job_id: str, minutes: float) -> TraceJob:
        return TraceJob(
            job_id=job_id,
            model="vgg16",
            duration_minutes=minutes,
            max_parallelism=4,
        )

    apps = [
        TraceApp("short-app", 40.0, (job("short-app-j0", 30.0),)),
        TraceApp("long-app", 40.0, (job("long-app-j0", 90.0),)),
        TraceApp("bg-0", 60.0, (job("bg-0-j0", 40.0),)),
        TraceApp("bg-1", 60.0, (job("bg-1-j0", 40.0),)),
    ]
    sim = ClusterSimulator(
        cluster=_two_servers("fig8-mini"),
        workload=Trace(apps=tuple(apps), name="fig8"),
        scheduler=make_scheduler("themis"),
        config=SimulationConfig(lease_minutes=20.0, record_timeline=True),
    )
    result = sim.run()
    series = {
        "short_app": allocation_series(result, "short-app"),
        "long_app": allocation_series(result, "long-app"),
    }
    stats = result.stats_by_app()
    rows = [
        {
            "app": app_id,
            "finished_at": stats[app_id].finished_at,
            "completion_time": stats[app_id].completion_time,
            "rho": stats[app_id].rho,
        }
        for app_id in ("short-app", "long-app")
    ]
    notes = "short app should finish first; long app must not starve; "
    return rows, series, notes + _bidders_note([result])


# ----------------------------------------------------------------------
# Last steps of the two sweep figures that plot more than metric columns
# ----------------------------------------------------------------------
def _macrobenchmark_extras(figure: FigureResult, cells: Sequence[tuple]) -> None:
    """Figures 6 and 7 are CDFs: attach them per scheduler as series.

    Every scheduler's distance from ideal is measured against the one
    peak contention the notes print (the maximum over the cells), not
    its own cell's: the columns then share one "ideal".
    """
    for name, result in cells:
        figure.series[f"jct_cdf:{name}"] = cdf(result.completion_times())
        figure.series[f"placement_cdf:{name}"] = cdf(result.placement_scores())
    peak = max(result.peak_contention for _name, result in cells)
    for row, (_name, result) in zip(figure.rows, cells):
        row["dist_from_ideal"] = distance_from_ideal(result.rhos(), peak)
    figure.notes = f"peak contention {peak:.2f}x"


def _improvement_over_tiresias(figure: FigureResult, _cells: Sequence[tuple]) -> None:
    """Figure 9a plots Themis' max-fairness improvement factor over Tiresias."""
    for row in figure.rows:
        if "max_rho:themis" in row and "max_rho:tiresias" in row:
            row["improvement_over_tiresias"] = (
                row["max_rho:tiresias"] / row["max_rho:themis"]
            )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
#: The 256-GPU replay Figures 4, 9, 10 and 11 share: 14 apps, durations
#: scaled so peak contention lands near the paper's, sized for one seed
#: of a 24-cell figure to finish in minutes.
_SIM_REPLAY = sim_scenario(num_apps=14, seed=42, duration_scale=0.35)
#: The 50-GPU testbed replay of the macrobenchmark (Figures 5-7) ...
_TESTBED_REPLAY = testbed_scenario(num_apps=25, seed=42)
#: ... and its 20-app variant the ablations run.
_ABLATION_REPLAY = testbed_scenario(num_apps=20, seed=42)

#: Figures 5-7 and the ablations print these METRICS under the paper's names.
_MACRO_LABELS = {
    "max_rho": "max_fairness",
    "jain": "jain_index",
    "placement": "mean_placement_score",
}
_ABLATION_COLUMNS = ("max_rho", "jain", "avg_jct", "gpu_time")

FIGURES: dict[str, Figure] = {
    "fig01": Figure(
        "Distribution of task durations",
        claim="Mostly short tasks (median tens of minutes; 59 / 123 min "
        "short / long medians) with a tail that stays below ~1000 minutes.",
        scenario=sim_scenario(num_apps=120, seed=42),
        custom=_fig01_task_duration_cdf,
    ),
    "fig02": Figure(
        "Effect of GPU placement on job throughput",
        claim="VGG-family models lose roughly half their throughput when 4 "
        "GPUs are split 2x2 across servers; ResNet and Inception barely "
        "notice; hundreds of images/sec at 4 GPUs.",
        custom=_fig02_placement_throughput,
    ),
    "fig04ab": Figure(
        "Sensitivity to fairness knob f (4a: fairness, 4b: GPU time)",
        claim="Max rho falls as f rises, with diminishing returns past ~0.8 "
        "(the knee the paper selects), while GPU time rises: fewer apps see "
        "each offer, so packing opportunities shrink.  Shape only.",
        scenario=_SIM_REPLAY,
        axis=Axis("scheduler", "fairness_knob", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
        columns=("min_rho", "median_rho", "max_finite_rho", "gpu_time", "peak_contention"),
        labels={"max_finite_rho": "max_rho"},
    ),
    "fig04c": Figure(
        "Sensitivity to lease duration",
        claim="Shorter leases reallocate more often and are fairer (lower max "
        "rho), at the cost of checkpoint/restore overhead visible in GPU "
        "time.  Shape only.",
        scenario=_SIM_REPLAY,
        axis=Axis("scenario", "lease_minutes", (5.0, 10.0, 20.0, 30.0, 40.0)),
        columns=("max_rho", "gpu_time", "rounds"),
    ),
    "fig05-07": Figure(
        "Macrobenchmark: fairness, JCT and placement across schedulers",
        claim="Themis has the lowest max rho (~7% from the ideal at ~4.76x "
        "peak contention; prior schemes 68%-2155% away), the best Jain index "
        "and the best average completion time (~4.6% / ~55.5% / ~24.4% better "
        "than Gandiva / SLAQ / Tiresias); placement-aware schedulers (Themis, "
        "Gandiva) pack better than placement-blind ones.",
        scenario=_TESTBED_REPLAY,
        schedulers=PAPER_SCHEDULERS,
        columns=(
            "max_rho", "jain", "dist_from_ideal", "avg_jct", "p95_jct",
            "placement", "gpu_time", "utilization",
        ),
        labels=_MACRO_LABELS,
        finish=_macrobenchmark_extras,
    ),
    "fig08": Figure(
        "Timeline of GPU allocations (short vs long app)",
        claim="The short app is served first and runs to completion; the long "
        "app is temporarily displaced by fresh arrivals (whose rho is "
        "unbounded) but is never starved and finishes later.",
        custom=_fig08_timeline,
    ),
    "fig09": Figure(
        "Impact of placement sensitivity (9a: fairness factor, 9b: GPU time)",
        claim="9a: Themis' max-rho improvement factor over Tiresias grows from "
        "~1x on compute-only workloads as the network-intensive fraction "
        "rises.  9b: all schedulers burn about the same GPU time at 0%; "
        "placement-unaware ones inflate it fastest towards 100%.  Shape only.",
        scenario=_SIM_REPLAY,
        schedulers=PAPER_SCHEDULERS,
        axis=Axis("generator", "network_intensive_fraction", (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
        columns=("max_rho", "gpu_time"),
        finish=_improvement_over_tiresias,
    ),
    "fig10": Figure(
        "Effect of contention on Jain's fairness index",
        claim="As contention rises (1X / 2X / 4X, by compressing inter-arrival "
        "times) both schedulers' Jain index degrades, Tiresias' faster than "
        "Themis'.  Shape only.",
        scenario=_SIM_REPLAY,
        schedulers=("themis", "tiresias"),
        axis=Axis(
            "generator", "mean_interarrival_minutes", (1.0, 2.0, 4.0),
            column="contention_factor",
            encode=lambda scenario, factor: (
                scenario.generator.with_contention(factor).mean_interarrival_minutes
            ),
        ),
        columns=("jain", "max_rho"),
    ),
    "fig11": Figure(
        "Impact of bid valuation error on max fairness",
        claim="Flat: with errors sampled per bundle from [-theta, +theta] and "
        "max rho computed on accurate values, \"even with theta = 0.2 the "
        "change in max finish-time fairness is not significant\".",
        scenario=_SIM_REPLAY,
        axis=Axis("scheduler", "noise_theta", (0.0, 0.05, 0.10, 0.20), column="theta"),
        columns=("max_rho", "jain"),
    ),
    # The four ablations are not paper figures; their claims are the
    # paper's arguments for the design choice each one switches off.
    "ablation-strawman": Figure(
        "Auction (Themis) vs Section-4 strawman",
        claim="Section 4: the one-app-at-a-time strawman wastes placement "
        "opportunities and invites misreported rho.  Being greedy max-min on "
        "rho it can undercut the auction on raw max fairness; the auction "
        "should stay in the same ballpark while matching its efficiency.",
        scenario=_ABLATION_REPLAY,
        schedulers=("themis", "strawman"),
        columns=_ABLATION_COLUMNS,
        labels=_MACRO_LABELS,
    ),
    "ablation-hidden-payments": Figure(
        "Hidden payments (truth-telling incentive) on vs off",
        claim="Truthfulness protection should be cheap in fairness and GPU "
        "time (the paper keeps it always on).",
        scenario=_ABLATION_REPLAY,
        axis=Axis("scheduler", "hidden_payments", (True, False)),
        columns=_ABLATION_COLUMNS,
        labels=_MACRO_LABELS,
    ),
    "ablation-leftover": Figure(
        "Work-conserving leftover allocation on vs off",
        claim="Handing leftover GPUs to non-participants (work conservation) "
        "should help, or at least not hurt, completion times.",
        scenario=_ABLATION_REPLAY,
        axis=Axis("scheduler", "leftover_allocation", (True, False)),
        columns=_ABLATION_COLUMNS,
        labels=_MACRO_LABELS,
    ),
    "ablation-drf": Figure(
        "Finish-time fairness vs instantaneous fairness (DRF) vs FIFO",
        claim="Section 2.2: instantaneous fair shares (DRF) do not give "
        "finish-time fairness, and FIFO ignores fairness entirely — Themis "
        "should beat FIFO on max rho.",
        scenario=_ABLATION_REPLAY,
        schedulers=("themis", "drf", "fifo"),
        columns=_ABLATION_COLUMNS,
        labels=_MACRO_LABELS,
    ),
}
