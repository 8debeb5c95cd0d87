"""The two per-round metrics every ``SimulationResult`` carries.

The simulator samples both once per scheduling round into a
:class:`~repro.obs.reservoir.ReservoirSeries` (bounded by
``SimulationConfig.downsample``):

* **fragmentation** — dispersion of free in-service GPUs across
  machines, ``1 - sum((free_m / free_total)^2)`` (one minus the
  Herfindahl index; 0 when all free GPUs sit on one machine — or none
  are free — approaching 1 as they scatter).  Machines are single-
  generation, so this is dispersion across generations too.
* **starvation** — per-app rounds since the app last held a GPU while
  wanting one; the per-round series records the p99 (nearest-rank)
  across currently-waiting apps.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile_nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 on an empty input."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile must be in [0, 1], got {q}")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def fragmentation_index(free_per_machine: Sequence[int]) -> float:
    """Free-GPU dispersion: ``1 - sum((f_m / F)^2)`` over machines.

    0.0 when the free pool is empty or concentrated on one machine;
    approaches ``1 - 1/M`` when F GPUs spread evenly over M machines.
    Callers must pass counts in a deterministic (machine-id) order so
    the float sum is byte-stable across lease-tracking modes.
    """
    total = 0
    for count in free_per_machine:
        total += count
    if total <= 0:
        return 0.0
    acc = 0.0
    for count in free_per_machine:
        share = count / total
        acc += share * share
    return 1.0 - acc
