"""Per-task status/timing aggregation and the sweep summary report.

The executor emits one :class:`TaskRecord` per cell as it completes;
:class:`ProgressTracker` optionally narrates them live, and
:class:`SweepReport` is the terminal artifact — statuses, timings,
failure tracebacks and the reconstructed results, queryable by task id.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.metrics.summary import METRICS
from repro.simulation.simulator import SimulationResult

logger = logging.getLogger("repro.sweep.progress")

#: z-value of the two-sided 95% normal interval used by
#: :meth:`SweepReport.aggregate`'s ``*_ci95`` columns.
_Z_95 = 1.96

#: :data:`~repro.metrics.summary.METRICS` names
#: :meth:`SweepReport.aggregate` reports when given no ``metrics``.
_AGGREGATE_METRICS = ("max_rho", "jain", "avg_jct")

#: Task terminal states.
STATUS_OK = "ok"  # executed and produced a result
STATUS_CACHED = "cached"  # served from the result cache, no recompute
STATUS_FAILED = "failed"  # raised; traceback captured in ``error``


class SweepError(RuntimeError):
    """Raised by :meth:`SweepReport.raise_on_failure` when cells failed."""


@dataclass(frozen=True)
class TaskRecord:
    """Outcome of one sweep cell: status, wall time, error if any.

    ``attempts`` counts executions of the cell including the final one
    — it stays 1 unless the executor's retry policy re-ran a transient
    failure; ``duration_seconds`` sums all attempts.
    """

    task_id: str
    status: str
    duration_seconds: float = 0.0
    error: Optional[str] = None
    attempts: int = 1


class ProgressTracker:
    """Streams ``[done/total] task status (time)`` lines as cells finish.

    ``print_fn=None`` routes the lines to the ``repro.sweep.progress``
    logger at DEBUG instead — silent under the default WARNING level,
    visible with ``--log-level debug`` — so the executor can always
    drive a tracker and tests can assert on progress without capturing
    stdout.
    """

    def __init__(
        self,
        total: int,
        print_fn: Optional[Callable[[str], None]] = None,
        every: int = 1,
    ) -> None:
        self.total = total
        self.done = 0
        self.every = max(1, every)
        self._print = print_fn

    def update(self, record: TaskRecord) -> None:
        """Register one finished cell (and maybe narrate it)."""
        self.done += 1
        if self.done % self.every and self.done != self.total:
            return
        line = (
            f"[{self.done}/{self.total}] {record.task_id} "
            f"{record.status} ({record.duration_seconds:.2f}s)"
        )
        if self._print is None:
            logger.debug(line)
        else:
            self._print(line)


@dataclass
class SweepReport:
    """Everything a sweep produced, in original task order."""

    records: list[TaskRecord]
    results: dict[str, SimulationResult] = field(default_factory=dict)
    workers: int = 1
    wall_seconds: float = 0.0

    @property
    def num_ok(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_OK)

    @property
    def num_cached(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_CACHED)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_FAILED)

    @property
    def num_retried(self) -> int:
        """Cells that needed more than one execution attempt."""
        return sum(1 for r in self.records if r.attempts > 1)

    def failures(self) -> list[TaskRecord]:
        """Records of failed cells, with tracebacks."""
        return [r for r in self.records if r.status == STATUS_FAILED]

    def result_for(self, task_id: str) -> SimulationResult:
        """The result of one cell; raises ``KeyError`` for failed cells."""
        return self.results[task_id]

    def task_seconds(self) -> float:
        """Sum of per-cell wall times (the serial-equivalent cost)."""
        return sum(r.duration_seconds for r in self.records)

    def aggregate(
        self,
        tasks: Sequence,
        metrics: Optional[Mapping[str, Callable[[SimulationResult], float]]] = None,
        seed_tag: str = "seed",
    ) -> list[dict]:
        """Cross-seed mean/CI rows, one per (scheduler, non-seed axes) group.

        Tasks sharing everything but their ``seed`` tag collapse into
        one row whose ``<metric>_mean`` / ``<metric>_ci95`` columns are
        the sample mean and half-width of the normal-approximation 95%
        interval (``1.96 * s / sqrt(n)``; 0.0 when ``n < 2``) over the
        group's completed results, plus an ``n`` column.  Non-finite
        metric values (starved apps report ``inf`` rho) are excluded
        from the statistics.  Failed cells are skipped, so a partially
        failed sweep still aggregates.  ``metrics`` maps column-name
        prefixes to callables on :class:`SimulationResult`; the default
        covers max rho, Jain's index and average JCT.
        """
        metric_fns = (
            dict(metrics)
            if metrics is not None
            else {name: METRICS[name] for name in _AGGREGATE_METRICS}
        )
        groups: dict[tuple, tuple[dict, list[SimulationResult]]] = {}
        for task in tasks:
            result = self.results.get(task.task_id)
            if result is None:
                continue
            identity = {"scheduler": task.scheduler}
            identity.update(
                (key, value) for key, value in task.tags if key != seed_tag
            )
            identity.update(task.scheduler_kwargs)
            key = tuple(sorted((k, repr(v)) for k, v in identity.items()))
            groups.setdefault(key, (identity, []))[1].append(result)
        rows: list[dict] = []
        for _key, (identity, results) in sorted(groups.items()):
            row = dict(identity)
            row["n"] = len(results)
            for name, fn in metric_fns.items():
                values = []
                for result in results:
                    # Metrics raise on empty inputs (e.g. max_fairness on
                    # a run with no finished apps); such cells simply
                    # contribute no sample rather than killing the whole
                    # aggregation.
                    try:
                        values.append(fn(result))
                    except (ValueError, ZeroDivisionError):
                        continue
                values = [v for v in values if isinstance(v, (int, float)) and math.isfinite(v)]
                if not values:
                    row[f"{name}_mean"] = math.nan
                    row[f"{name}_ci95"] = math.nan
                    continue
                mean = statistics.fmean(values)
                if len(values) >= 2:
                    ci = _Z_95 * statistics.stdev(values) / math.sqrt(len(values))
                else:
                    ci = 0.0
                row[f"{name}_mean"] = mean
                row[f"{name}_ci95"] = ci
            rows.append(row)
        return rows

    def raise_on_failure(self) -> None:
        """Raise :class:`SweepError` summarising every failed cell."""
        failed = self.failures()
        if not failed:
            return
        details = "\n\n".join(
            f"--- {r.task_id} ---\n{r.error or '(no traceback captured)'}"
            for r in failed
        )
        raise SweepError(f"{len(failed)} sweep task(s) failed:\n{details}")

    def summary(self) -> str:
        """Multi-line human-readable wrap-up of the sweep."""
        retried = f", {self.num_retried} retried" if self.num_retried else ""
        lines = [
            f"sweep: {len(self.records)} tasks | {self.num_ok} ok, "
            f"{self.num_cached} cached, {self.num_failed} failed{retried} | "
            f"workers={self.workers}",
            f"wall {self.wall_seconds:.2f}s, task time {self.task_seconds():.2f}s"
            + (
                f", speedup {self.task_seconds() / self.wall_seconds:.2f}x"
                if self.wall_seconds > 0
                else ""
            ),
        ]
        executed = [r for r in self.records if r.status == STATUS_OK]
        if executed:
            slowest = max(executed, key=lambda r: r.duration_seconds)
            lines.append(
                f"slowest: {slowest.task_id} ({slowest.duration_seconds:.2f}s)"
            )
        for record in self.failures():
            last_line = (record.error or "").strip().splitlines()
            lines.append(
                f"FAILED {record.task_id}: {last_line[-1] if last_line else 'unknown'}"
            )
        return "\n".join(lines)
