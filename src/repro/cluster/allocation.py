"""Immutable GPU allocation vectors.

The paper represents an allocation as a vector ``[G_{x,y}]`` over GPUs
``x`` on machines ``y`` (Section 4) and bids as per-machine fractions of
free GPUs (Section 5.1).  :class:`Allocation` is the concrete form used
throughout this reproduction: an immutable, hashable set of
:class:`~repro.cluster.topology.Gpu` with the aggregate queries the bid
generator, auction and metrics need.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.cluster.placement import LocalityLevel, placement_level, placement_score
from repro.cluster.topology import Gpu, ordered_sum


class Allocation:
    """An immutable set of GPUs with topology-aware aggregate queries.

    Allocations compare equal by GPU membership, hash (usable as dict
    keys inside bid tables) and combine with ``|`` and ``-``:

    >>> a = Allocation([gpu1, gpu2])          # doctest: +SKIP
    >>> (a | Allocation([gpu3])).size          # doctest: +SKIP
    3
    """

    __slots__ = (
        "_gpus",
        "_key",
        "_effective",
        "_type_counts",
        "_machine_counts",
        "_score",
        "_type_items",
    )

    def __init__(self, gpus: Iterable[Gpu] = ()) -> None:
        unique = {gpu.gpu_id: gpu for gpu in gpus}
        self._gpus: tuple[Gpu, ...] = tuple(unique[g] for g in sorted(unique))
        self._key = frozenset(unique)
        self._effective: float | None = None
        self._type_counts: dict[str, int] | None = None
        self._machine_counts: dict[int, int] | None = None
        self._score: float | None = None
        self._type_items: tuple[tuple[str, int], ...] | None = None

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of GPUs in the allocation."""
        return len(self._gpus)

    @property
    def gpus(self) -> tuple[Gpu, ...]:
        """The member GPUs in ascending gpu_id order."""
        return self._gpus

    @property
    def gpu_ids(self) -> frozenset[int]:
        """The member GPU ids."""
        return self._key

    @property
    def effective_size(self) -> float:
        """Speed-weighted GPU count (= ``size`` on homogeneous clusters).

        The unit every heterogeneity-aware estimate works in: a V100
        counts 1.0, an older generation counts its speed factor.
        """
        if self._effective is None:
            self._effective = ordered_sum(gpu.speed for gpu in self._gpus)
        return self._effective

    def effective_size_weighted(self, weight_of) -> float:
        """Sum of arbitrary per-GPU weights, in ascending gpu_id order.

        The family-aware generalisation of :attr:`effective_size`: a
        performance model weights each GPU by its holder's model family
        instead of the generation's scalar speed.  Summation order
        matches :attr:`effective_size` exactly, so a weighting that
        degenerates to ``gpu.speed`` produces bit-identical floats.
        """
        return ordered_sum(weight_of(gpu) for gpu in self._gpus)

    def per_type_counts(self) -> dict[str, int]:
        """Map GPU-type name -> number of member GPUs of that generation."""
        if self._type_counts is None:
            counts: dict[str, int] = {}
            for gpu in self._gpus:
                name = gpu.gpu_type.name
                counts[name] = counts.get(name, 0) + 1
            self._type_counts = counts
        return dict(self._type_counts)

    def type_count_items(self) -> tuple[tuple[str, int], ...]:
        """``per_type_counts().items()`` as a shared immutable tuple.

        The GPU-time integrator reads the split every simulated minute a
        job holds this allocation; the tuple avoids a dict copy per read.
        """
        if self._type_items is None:
            self._type_items = tuple(self.per_type_counts().items())
        return self._type_items

    def __len__(self) -> int:
        return len(self._gpus)

    def __iter__(self) -> Iterator[Gpu]:
        return iter(self._gpus)

    def __bool__(self) -> bool:
        return bool(self._gpus)

    def __contains__(self, gpu: Gpu) -> bool:
        return gpu.gpu_id in self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Allocation({sorted(self._key)})"

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def __or__(self, other: "Allocation") -> "Allocation":
        if not isinstance(other, Allocation):
            return NotImplemented
        return Allocation(self._gpus + other._gpus)

    def __sub__(self, other: "Allocation") -> "Allocation":
        if not isinstance(other, Allocation):
            return NotImplemented
        return Allocation(gpu for gpu in self._gpus if gpu.gpu_id not in other._key)

    def union(self, gpus: Iterable[Gpu]) -> "Allocation":
        """Allocation extended with additional GPUs."""
        return Allocation(self._gpus + tuple(gpus))

    # ------------------------------------------------------------------
    # Topology aggregates
    # ------------------------------------------------------------------
    @property
    def machine_ids(self) -> tuple[int, ...]:
        """Distinct machines spanned, sorted."""
        return tuple(sorted({gpu.machine_id for gpu in self._gpus}))

    def per_machine_counts(self) -> dict[int, int]:
        """Map machine_id -> number of member GPUs on that machine.

        This is the paper's bid representation: "each dimension in R
        represents the number of unused GPUs in a given machine".
        Memoised (allocations are immutable); a fresh copy is returned
        so callers can extend it into hypothetical bundles.
        """
        return dict(self._counts())

    def count_on(self, machine_id: int) -> int:
        """GPUs of the allocation on ``machine_id`` (no copy made)."""
        return self._counts().get(machine_id, 0)

    def _counts(self) -> dict[int, int]:
        if self._machine_counts is None:
            self._machine_counts = dict(Counter(gpu.machine_id for gpu in self._gpus))
        return self._machine_counts

    def level(self) -> LocalityLevel:
        """Worst networking boundary spanned (see :func:`placement_level`)."""
        return placement_level(self._gpus)

    def score(self) -> float:
        """4-level placement score of the allocation (Figure 7 metric).

        Memoised: the score integral accrues every simulated minute a
        job holds this (immutable) allocation.
        """
        if self._score is None:
            self._score = placement_score(self._gpus)
        return self._score
