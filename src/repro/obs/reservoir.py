"""Bounded append-only series: the one series type of the simulator.

:class:`ReservoirSeries` is an append-only series bounded to at most
``cap`` retained entries whose retained set is always "every
``stride``-th append".  Whenever the retained list would exceed
``cap``, every second retained entry is dropped and the stride doubles,
so long traces keep an evenly thinned record instead of growing without
bound (or truncating one end).  ``cap=None`` keeps every append.

Every per-round record of
:class:`~repro.simulation.simulator.SimulationResult` goes through it —
contention samples, the timeline, the fragmentation and starvation
series, and the ``per_round`` solver stats — with
``SimulationConfig.downsample`` as the cap, so every consumer gets the
same bounded-memory, deterministic thinning.
"""

from __future__ import annotations

from typing import Iterable, Optional


class ReservoirSeries:
    """Append-only series bounded to at most ``cap`` retained entries.

    Accepts every ``stride``-th appended item; whenever the retained
    list would exceed ``cap``, every second retained entry is dropped
    and the stride doubles.  ``cap=None`` keeps every item (the stride
    stays 1).  Deterministic: the retained set depends only on the
    append sequence, never on time or randomness.
    """

    __slots__ = ("cap", "_stride", "_appends", "_items")

    def __init__(self, cap: Optional[int]) -> None:
        if cap is not None and cap < 2:
            raise ValueError(f"downsample cap must be >= 2, got {cap}")
        self.cap = cap
        self._stride = 1
        self._appends = 0
        self._items: list = []

    def append(self, item) -> None:
        """Record ``item`` if it falls on the current stride."""
        if self._appends % self._stride == 0:
            self._items.append(item)
            if self.cap is not None and len(self._items) > self.cap:
                self._items = self._items[::2]
                self._stride *= 2
        self._appends += 1

    def extend(self, items: Iterable) -> None:
        """Append every item of ``items`` in order."""
        for item in items:
            self.append(item)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReservoirSeries(cap={self.cap}, retained={len(self._items)}, "
            f"appends={self._appends}, stride={self._stride})"
        )
