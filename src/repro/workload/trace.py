"""Trace schema: serialisable descriptions of apps and jobs.

The paper replays "workloads from a large enterprise trace" (Section 1).
That trace is proprietary, so this module defines the neutral on-disk
format our generator targets: one JSON object per app (JSONL), each
carrying its arrival time and per-job model / work / parallelism /
loss-curve parameters.  Traces round-trip losslessly, which the tests
verify, and instantiate into runtime :class:`~repro.workload.app.App`
objects for simulation.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Optional, Union

from repro.cluster.topology import ordered_sum
from repro.hyperparam.curves import LossCurve
from repro.workload.app import App, CompletionSemantics
from repro.workload.job import Job, JobSpec
from repro.workload.models import get_model


@dataclass(frozen=True)
class TraceJob:
    """One job's static description inside a trace.

    ``duration_minutes`` is the job's running time at full parallelism
    with ideal placement — the quantity whose distribution Figure 1
    plots; ``serial_work = duration * max_parallelism``.
    """

    job_id: str
    model: str
    duration_minutes: float
    max_parallelism: int
    total_iterations: int = 1000
    loss_initial: float = 5.0
    loss_floor: float = 0.0
    loss_alpha: float = 0.5
    loss_knee: float = 100.0
    #: Optional GPU-generation affinity (a type name, e.g. "v100"): a
    #: soft preference the intra-app distributor honours on mixed
    #: clusters.  ``None`` (the default) means any generation.
    gpu_type: Optional[str] = None

    def __post_init__(self) -> None:
        # ``nan <= 0`` is False, and json.loads reads a literal NaN.
        if not math.isfinite(self.duration_minutes) or self.duration_minutes <= 0:
            raise ValueError(
                f"duration_minutes must be finite and > 0, got {self.duration_minutes}"
            )
        # Here, not at ``to_job``, so ``from_jsonl`` names the line: a
        # float or bool count would load and only crash mid-replay.
        for name in ("max_parallelism", "total_iterations"):
            value = getattr(self, name)
            try:
                number = 0 if isinstance(value, bool) else operator.index(value)
            except TypeError:
                number = 0
            if number <= 0:
                raise ValueError(f"{name} must be an integer > 0, got {value!r}")
            object.__setattr__(self, name, number)
        if self.gpu_type is not None and not self.gpu_type:
            raise ValueError("gpu_type affinity must be None or a non-empty name")
        get_model(self.model)  # validate the model exists

    @property
    def serial_work(self) -> float:
        """Serial GPU-minutes of work (duration at ideal full parallelism)."""
        return self.duration_minutes * self.max_parallelism

    def loss_curve(self) -> LossCurve:
        """Materialise the job's loss curve from the stored parameters."""
        return LossCurve(
            initial=self.loss_initial,
            floor=self.loss_floor,
            alpha=self.loss_alpha,
            knee=self.loss_knee,
        )

    def to_job(self) -> Job:
        """Instantiate the runtime job."""
        spec = JobSpec(
            job_id=self.job_id,
            model=self.model,
            serial_work=self.serial_work,
            max_parallelism=self.max_parallelism,
            total_iterations=self.total_iterations,
            loss_curve=self.loss_curve(),
            gpu_type=self.gpu_type,
        )
        return Job(spec=spec)


@dataclass(frozen=True)
class TraceApp:
    """One app's static description inside a trace."""

    app_id: str
    arrival_minutes: float
    jobs: tuple[TraceJob, ...]

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_minutes) or self.arrival_minutes < 0:
            raise ValueError(
                f"arrival_minutes must be finite and >= 0, got {self.arrival_minutes}"
            )
        if not self.jobs:
            raise ValueError(f"trace app {self.app_id!r} has no jobs")

    def to_app(
        self, semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS
    ) -> App:
        """Instantiate the runtime app with fresh job state."""
        return App(
            app_id=self.app_id,
            arrival_time=self.arrival_minutes,
            jobs=[job.to_job() for job in self.jobs],
            semantics=semantics,
        )


@dataclass
class Trace:
    """A complete replayable workload plus provenance metadata.

    ``perf_matrix`` optionally carries measured per-model-family x
    per-GPU-generation throughput factors (canonical tuple form, see
    :mod:`repro.workload.perf`): the matrix is workload+hardware data,
    so it travels with the trace and the simulator picks it up
    automatically.  Empty means the scalar speed model.
    """

    apps: tuple[TraceApp, ...]
    name: str = "synthetic"
    seed: Optional[int] = None
    metadata: dict = field(default_factory=dict)
    perf_matrix: tuple = ()

    def __post_init__(self) -> None:
        self.apps = tuple(sorted(self.apps, key=lambda app: (app.arrival_minutes, app.app_id)))
        ids = [app.app_id for app in self.apps]
        if len(set(ids)) != len(ids):
            raise ValueError("trace contains duplicate app ids")
        # The simulator keys job events and ownership by bare job id.
        owner: dict[str, str] = {}
        for app in self.apps:
            for job in app.jobs:
                if job.job_id in owner:
                    raise ValueError(
                        f"trace contains duplicate job id {job.job_id!r} "
                        f"(apps {owner[job.job_id]!r} and {app.app_id!r})"
                    )
                owner[job.job_id] = app.app_id
        if self.perf_matrix:
            from repro.workload.perf import canonical_matrix

            self.perf_matrix = canonical_matrix(self.perf_matrix)

    def perf_model(self):
        """The trace's performance model (scalar default when no matrix)."""
        from repro.workload.perf import resolve_perf_model

        return resolve_perf_model(self.perf_matrix)

    # ------------------------------------------------------------------
    # Aggregate views
    # ------------------------------------------------------------------
    @property
    def num_apps(self) -> int:
        """Number of apps in the trace."""
        return len(self.apps)

    @property
    def num_jobs(self) -> int:
        """Number of jobs across all apps."""
        return sum(len(app.jobs) for app in self.apps)

    def task_durations(self) -> list[float]:
        """All job durations in minutes — the distribution of Figure 1."""
        return [job.duration_minutes for app in self.apps for job in app.jobs]

    def jobs_per_app(self) -> list[int]:
        """Job count per app — Section 8.1's 1..98 / median-23 statistic."""
        return [len(app.jobs) for app in self.apps]

    def total_serial_work(self) -> float:
        """Total serial GPU-minutes in the trace."""
        return ordered_sum(job.serial_work for app in self.apps for job in app.jobs)

    def peak_gpu_demand(self) -> int:
        """Sum of max parallelism over all jobs (upper bound on demand)."""
        return sum(job.max_parallelism for app in self.apps for job in app.jobs)

    def instantiate(
        self, semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS
    ) -> list[App]:
        """Fresh runtime apps (safe to call repeatedly; state is new each time)."""
        return [app.to_app(semantics) for app in self.apps]

    def scaled(self, duration_factor: float, name: Optional[str] = None) -> "Trace":
        """A copy with every job duration multiplied by ``duration_factor``.

        The paper scales durations down 5x for the 50-GPU testbed runs
        (Section 8.3, footnote 3); arrival times are preserved, exactly
        as the footnote describes ("retain the same inter-arrival
        distribution").
        """
        if duration_factor <= 0:
            raise ValueError(f"duration_factor must be > 0, got {duration_factor}")
        apps = tuple(
            TraceApp(
                app_id=app.app_id,
                arrival_minutes=app.arrival_minutes,
                jobs=tuple(
                    TraceJob(
                        job_id=job.job_id,
                        model=job.model,
                        duration_minutes=job.duration_minutes * duration_factor,
                        max_parallelism=job.max_parallelism,
                        total_iterations=job.total_iterations,
                        loss_initial=job.loss_initial,
                        loss_floor=job.loss_floor,
                        loss_alpha=job.loss_alpha,
                        loss_knee=job.loss_knee,
                        gpu_type=job.gpu_type,
                    )
                    for job in app.jobs
                ),
            )
            for app in self.apps
        )
        return Trace(
            apps=apps,
            name=name or f"{self.name}-x{duration_factor:g}",
            seed=self.seed,
            metadata=dict(self.metadata, duration_factor=duration_factor),
            perf_matrix=self.perf_matrix,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the trace as JSON lines: one header line, one line per app."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            header = {"name": self.name, "seed": self.seed, "metadata": self.metadata}
            if self.perf_matrix:
                header["perf_matrix"] = {
                    family: dict(cells) for family, cells in self.perf_matrix
                }
            handle.write(json.dumps({"trace_header": header}) + "\n")
            for app in self.apps:
                handle.write(json.dumps(asdict(app)) + "\n")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace previously written with :meth:`to_jsonl`.

        A malformed row raises ``ValueError`` prefixed ``<path>:<line>:``.
        """
        path = Path(path)
        name = "unnamed"
        seed: Optional[int] = None
        metadata: dict = {}
        perf_matrix: tuple = ()
        apps: list[TraceApp] = []
        # Tolerate unknown keys written by newer builds (the same
        # forward-compatibility rule the result cache uses).
        known = {f.name for f in dataclass_fields(TraceJob)}
        with path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if "trace_header" in record:
                        header = record["trace_header"]
                        name = header.get("name", name)
                        seed = header.get("seed")
                        metadata = header.get("metadata", {})
                        raw_matrix = header.get("perf_matrix")
                        if raw_matrix:
                            from repro.workload.perf import canonical_matrix

                            perf_matrix = canonical_matrix(raw_matrix)
                        continue
                    jobs = tuple(
                        TraceJob(**{k: v for k, v in job.items() if k in known})
                        for job in record["jobs"]
                    )
                    apps.append(
                        TraceApp(
                            app_id=record["app_id"],
                            arrival_minutes=record["arrival_minutes"],
                            jobs=jobs,
                        )
                    )
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: missing key {exc}") from exc
                except (ValueError, TypeError, AttributeError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return cls(
            apps=tuple(apps),
            name=name,
            seed=seed,
            metadata=metadata,
            perf_matrix=perf_matrix,
        )
