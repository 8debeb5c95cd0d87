"""Intra-app (top-level) scheduler API — Section 5.2's app schedulers.

The paper's two-level design keeps hyper-parameter logic inside the
app: HyperBand / HyperDrive decide which exploration jobs to kill and
how to prioritise survivors, while the AGENT pulls four quantities from
them to prepare bids: total work and work left per job, placement
sensitivity, and per-job maximum parallelism.

:class:`AppSchedulerBase` is that narrow API.  The simulator calls
:meth:`step` at every scheduling round; the returned jobs are killed
(their GPUs return to the pool).
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workload -> curves)
    from repro.workload.app import App
    from repro.workload.job import Job


class JobClass(enum.Enum):
    """HyperDrive's convergence classes (Section 5.2)."""

    GOOD = "good"
    PROMISING = "promising"
    POOR = "poor"


class AppSchedulerBase(abc.ABC):
    """Base class for intra-app hyper-parameter schedulers."""

    name: str = "base"

    def __init__(self, app: App) -> None:
        self.app = app
        #: Observed (iteration, loss) samples per job, fed by :meth:`observe`.
        self._samples: dict[str, list[tuple[float, float]]] = {
            job.job_id: [] for job in app.jobs
        }

    # ------------------------------------------------------------------
    # Profiling feed (Section 7: the AM profiler parses training logs)
    # ------------------------------------------------------------------
    def observe(self, job: Job) -> None:
        """Record the job's current (iteration, loss) point."""
        if job.spec.loss_curve is None:
            return
        samples = self._samples[job.job_id]
        point = (job.iterations_done, job.current_loss())
        if not samples or point[0] > samples[-1][0] + 1e-9:
            samples.append(point)

    def samples_of(self, job: Job) -> list[tuple[float, float]]:
        """All recorded samples for one job."""
        return list(self._samples[job.job_id])

    # ------------------------------------------------------------------
    # The AGENT-facing API (Section 5.2, "ML App Scheduler to Agent API")
    # ------------------------------------------------------------------
    def max_parallelism(self, job: Job) -> int:
        """Current parallelism bound for ``job`` (priority mechanism)."""
        return job.max_parallelism

    # ------------------------------------------------------------------
    # Scheduling decisions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def step(self, now: float) -> list[Job]:
        """Advance scheduler state; return jobs to terminate now.

        Called by the simulator at every scheduling round.  Must never
        return the app's last active job (an app cannot kill itself).
        """

    def alive(self) -> list[Job]:
        """Jobs still running or waiting."""
        return self.app.active_jobs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(app={self.app.app_id}, alive={len(self.alive())})"
