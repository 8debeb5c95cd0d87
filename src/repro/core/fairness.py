"""Finish-time fairness: ``rho = T_sh / T_id`` and its estimators.

Section 5.2 spells out how an AGENT values a hypothetical allocation:

1. merge the offered GPUs with the app's current allocation,
2. split the aggregate across constituent jobs in a placement-sensitive
   greedy manner,
3. compute each job's rate ``G_j * S_j`` from the spread of its GPUs,
4. estimate the shared finish time ``T_sh`` and divide by the ideal
   time ``T_id`` (max parallelism, perfect placement).

Valuations are queried *many* times per auction (the greedy Nash-product
winner determination probes incremental bundles), so this module is
built for that hot path:

* all estimates work on per-machine GPU *counts* — the paper's own bid
  representation — never on concrete GPU sets; machines are internally
  homogeneous, so a count on a machine implies a GPU generation and the
  carve scores it in speed-weighted *effective compute*,
* :class:`AppSnapshot` holds an app's job list, sorted once and kept
  across rounds until a job leaves, a cap changes or a drain reorders
  jobs of different shapes; only its ``total_remaining`` (and, on a
  re-sort, its job order) is rewritten as held jobs drain,
* the carve loop stops as soon as the count pool drains, so the cost is
  bounded by the GPUs offered, not the (much larger) job count,
* there is one carve kernel, :func:`_carve_fast`: each job reads its
  machine speeds from its family's map of
  :meth:`~repro.workload.perf.ThroughputMatrixModel.machine_speed_index`
  — a family without a matrix row reads the cluster's one scalar map,
  so under the empty matrix every job reads that one map.
  :func:`_carve_reference` (a from-scratch dict scan per grab) is the
  oracle the equivalence suites hold the kernel to; nothing in
  ``src/`` calls it.

:func:`carve_allotments` is the public, fully-annotated version used by
tests.  Every policy that carves — Themis' valuations, Gandiva's
packing utility, the strawman's rho ranking — carves through
:meth:`FairnessEstimator._carved` behind one
:class:`AppValuationState` per app, held in its scheduler's ``states``,
so ``carve_count`` counts them all.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from repro.cluster.placement import PLACEMENT_SCORES, LocalityLevel, SensitivityProfile
from repro.cluster.topology import NVLINK_GROUP_SIZE, Cluster, ordered_sum
from repro.obs.profiler import NULL_PROFILER
from repro.workload.app import App, CompletionSemantics
from repro.workload.job import Job
from repro.workload.perf import DEFAULT_PERF_MODEL, ThroughputMatrixModel

#: Internal job descriptor:
#: (remaining_work, parallelism_cap, profile, job_id, family).
#: ``family`` selects the job's machine speeds (its ``FamilySpeedFn`` map).
_JobTuple = tuple[float, int, SensitivityProfile, str, str]

#: Per-family machine speed lookup: family -> {machine_id: speedup}.
#: Families that read equal speeds should get the same map object: the
#: carve re-keys its machine order only when the map changes.
FamilySpeedFn = Callable[[str], Mapping[int, float]]

#: Ceiling on valuations when rho is (degenerately) zero or negative.
#: ``V = 1/rho`` would otherwise be ``inf``, and the auction's greedy
#: gain computation and Nash-log-welfare take ``log`` of it — an ``inf``
#: sort key poisons every downstream comparison.  A large finite value
#: preserves "this app values any allocation maximally" semantics while
#: keeping all arithmetic finite.
VALUE_CEILING = 1e12


def value_from_rho(rho: float) -> float:
    """Auction valuation ``V = 1/rho``, clamped to finite range (higher
    is better, 0 = starved).

    ``inf`` rho (fully starved) maps to 0; a degenerate ``rho <= 0``
    maps to :data:`VALUE_CEILING`.  ``1/rho`` is homogeneous of degree
    one under the paper's linear scaling assumption, which the PA
    mechanism's truthfulness argument requires (Section 5.1).  Every
    value a :class:`~repro.core.bids.Bid` reports goes through it.
    """
    if math.isinf(rho):
        return 0.0
    if rho <= 0:
        return VALUE_CEILING
    return min(1.0 / rho, VALUE_CEILING)


@dataclass(frozen=True)
class JobAllotment:
    """What one job would get out of a hypothetical app-level allocation.

    ``effective`` is the speed-weighted GPU count (= ``gpus`` on a
    homogeneous cluster); ``rate = effective * slowdown``.
    """

    job_id: str
    gpus: int
    level: LocalityLevel
    slowdown: float
    rate: float
    remaining_work: float
    effective: float = 0.0


def _classify_taken(taken: dict[int, int], rack_of: Mapping[int, int]) -> LocalityLevel:
    """Locality level of a per-machine count vector (non-empty)."""
    if len(taken) == 1:
        ((machine_id, count),) = taken.items()
        if count <= NVLINK_GROUP_SIZE:
            return LocalityLevel.SLOT
        return LocalityLevel.MACHINE
    racks = {rack_of[m] for m in taken}
    if len(racks) == 1:
        return LocalityLevel.RACK
    return LocalityLevel.CLUSTER


#: One carved allotment: (job_tuple, gpus, level, rate, effective_gpus).
_Carved = tuple[_JobTuple, int, LocalityLevel, float, float]


def _carve_fast(
    job_tuples: Sequence[_JobTuple],
    machine_counts: Mapping[int, int],
    rack_of: Mapping[int, int],
    speeds_of: FamilySpeedFn,
) -> tuple[list[_Carved], int]:
    """Core carve loop over pre-sorted job tuples — sorted-order edition.

    Returns ``(allotments, next_index)`` where ``allotments`` holds one
    ``(job_tuple, gpus, level, rate, effective)`` entry per job that
    received GPUs and ``next_index`` is the index of the first job that
    received nothing (the pool drained).  ``effective`` is the
    speed-weighted GPU count and ``rate = effective * S(level)``; at
    speed 1.0 both reduce to the homogeneous count model.  Jobs
    are assumed sorted by remaining work ascending, mirroring the
    intra-app distributor.

    The live machines sit in one list ``order`` of ``(-(count * speed),
    machine_id, count, speed, rack_id)`` entries, kept sorted: the rule
    "most effective free compute first, lower machine id on ties" is
    exactly "smallest ``(-(count * speed), machine_id)`` first", so the
    unrestricted pick is ``order[0]`` and the racks-already-used pick is
    the first entry whose rack the job already uses (else ``order[0]``).
    A partial grab re-inserts its machine with :func:`bisect.insort`
    (machine ids are unique, so no comparison reaches the trailing
    fields); a drained machine is deleted.  Negation is exact, so each
    pick is the minimum of the ``(-(count * speed), machine_id)`` keys
    the dict scan of :func:`_carve_reference` minimises, on the same
    floats: the carve order, every grab and every downstream rho are
    byte-identical to the oracle (property-tested over
    ``helpers.carve_instances`` in tests/test_incremental_valuation.py).

    The setup pass keys ``order`` on the first job's map,
    ``speeds_of(family)``.  "Effective" is measured with the *current
    job's* map — under a throughput matrix a bundle can be fast for one
    job and slow for the next, inverting which machines drain first —
    so ``order`` is re-keyed from the live counts and re-sorted whenever
    the next job's map is a different object than the one it was last
    keyed from: never when every family reads one shared map (the empty
    matrix), once per change of map otherwise.  Every key holds the
    product ``count * speed``, so distinct maps of equal speeds present
    the same comparison floats as one shared map, hence byte-identical
    carves (pinned by tests/test_hetero_equivalence.py).
    """
    #: The speed map ``order`` was last keyed from.
    row = speeds_of(job_tuples[0][4]) if job_tuples else {}
    order: list[tuple[float, int, int, float, int]] = []
    for machine_id, count in machine_counts.items():
        if count > 0:
            speed = row.get(machine_id, 1.0)
            order.append((-(count * speed), machine_id, count, speed, rack_of[machine_id]))
    order.sort()
    out: list[_Carved] = []
    index = 0
    for index, job in enumerate(job_tuples):
        if not order:
            return out, index
        job_row = speeds_of(job[4])
        if job_row is not row:
            row = job_row
            rekeyed = []
            for _key, machine_id, count, _speed, rack_id in order:
                speed = row.get(machine_id, 1.0)
                rekeyed.append((-(count * speed), machine_id, count, speed, rack_id))
            rekeyed.sort()
            order = rekeyed
        need = job[1]
        taken_machines = 0
        first_count = 0
        effective = 0.0
        used_racks: list[int] = []
        while need > 0 and order:
            pick = 0
            if used_racks:
                for position, entry in enumerate(order):
                    if entry[4] in used_racks:
                        pick = position
                        break
            _key, machine_id, count, speed, rack_id = order[pick]
            del order[pick]
            if need < count:
                grab = need
                remaining = count - grab
                # Less compute left: the entry can only move right.
                insort(
                    order,
                    (-(remaining * speed), machine_id, remaining, speed, rack_id),
                    pick,
                )
            else:
                grab = count
            taken_machines += 1
            if taken_machines == 1:
                first_count = grab
            effective += grab * speed
            if rack_id not in used_racks:
                used_racks.append(rack_id)
            need -= grab
        total = job[1] - need
        if total <= 0:
            return out, index
        if taken_machines == 1:
            level = (
                LocalityLevel.SLOT
                if first_count <= NVLINK_GROUP_SIZE
                else LocalityLevel.MACHINE
            )
        elif len(used_racks) == 1:
            level = LocalityLevel.RACK
        else:
            level = LocalityLevel.CLUSTER
        factor = 1.0 if total <= 1 else job[2].at(level)
        out.append((job, total, level, effective * factor, effective))
    return out, index + 1


def _carve_reference(
    job_tuples: Sequence[_JobTuple],
    machine_counts: Mapping[int, int],
    rack_of: Mapping[int, int],
    speeds_of: FamilySpeedFn,
) -> tuple[list[_Carved], int]:
    """Dict-scan carve, kept as the equivalence oracle.

    Identical contract to :func:`_carve_fast`, with nothing kept sorted:
    every grab re-finds the best machine from scratch over the live
    counts, reading the current job's map.  The property suite asserts both return
    byte-identical allotments on randomized instances (the same role
    :func:`~repro.core.auction.rescan_fair_allocation` plays for the
    auction solver).
    """
    counts = {m: c for m, c in machine_counts.items() if c > 0}
    out = []
    index = 0
    for index, job in enumerate(job_tuples):
        if not counts:
            return out, index
        speed_map = speeds_of(job[4])
        need = job[1]
        taken: dict[int, int] = {}
        effective = 0.0
        used_racks: list[int] = []
        while need > 0 and counts:
            best_key = None
            machine_id = None
            pool_ids = (
                [m for m in counts if rack_of[m] in used_racks]
                if used_racks
                else []
            ) or list(counts)
            for candidate in pool_ids:
                key = (-counts[candidate] * speed_map.get(candidate, 1.0), candidate)
                if best_key is None or key < best_key:
                    best_key = key
                    machine_id = candidate
            grab = min(need, counts[machine_id])
            if counts[machine_id] - grab > 0:
                counts[machine_id] -= grab
            else:
                del counts[machine_id]
            taken[machine_id] = taken.get(machine_id, 0) + grab
            effective += grab * speed_map.get(machine_id, 1.0)
            rack_id = rack_of[machine_id]
            if rack_id not in used_racks:
                used_racks.append(rack_id)
            need -= grab
        total = job[1] - need
        if total <= 0:
            return out, index
        level = _classify_taken(taken, rack_of)
        factor = 1.0 if total <= 1 else job[2].at(level)
        out.append((job, total, level, effective * factor, effective))
    return out, index + 1


#: What the carve kernels read about one machine besides its id order:
#: ``(rack_id, speeds)`` — see :meth:`FairnessEstimator.machine_reads`.
_MachineReads = Mapping[int, tuple[int, object]]


def bundle_shape(
    total_key: tuple[tuple[int, int], ...], reads: _MachineReads
) -> tuple[tuple[int, object, int], ...]:
    """Shape of a canonical bundle: all a carve can tell about it.

    The tuple, in ascending machine-id order (the canonical key order),
    of ``(rack label by first appearance, speeds, count)``.

    **Lemma (shape symmetry).**  For a fixed job-tuple sequence the
    allotments of :func:`_carve_fast` and :func:`_carve_reference`,
    under any ``speeds_of``, are a pure function of the bundle's shape;
    two bundles with equal shapes carve to bit-identical floats.

    *Proof.*  Each kernel touches a machine through four reads only.
    (1) Its *id*, solely as the tie-break of the sort key ``(-(count *
    speed), machine_id)`` (the key the reference's dict scan
    minimises): an order comparison, so the winner of every tie is fixed
    by the machines' relative id order — the order the shape lists them
    in.  (2) Its *rack id*, solely inside ``entry[4] in used_racks`` /
    ``rack_id not in used_racks`` / ``len(racks) == 1``: equality
    tests, invariant under any relabelling that keeps the equality
    pattern — which first-appearance labels capture exactly.  (3) Its
    *speed* in the current job's map, entering ``count * speed`` and
    ``grab * speed`` — carried verbatim in ``speeds``.  (4) Its *count* — carried verbatim.  No
    id, rack id or map key is ever emitted: an allotment is ``(job,
    gpus, level, rate, effective)``.  By induction over grabs, two
    equal-shape bundles present the same comparison operands in the
    same positions, pick the machine at the same position, and
    accumulate the same floats in the same order.  ∎

    Order position matters: with racks ``{1: A, 4: B, 6: A, 9: A}``
    the bundles ``{1:2, 4:2, 6:2}`` and ``{4:2, 6:2, 9:2}`` differ only
    in a free rack-A machine absent from ``{4:2, 6:2}``, yet the
    lower-id tie-break drains rack A first in one and rack B first in
    the other (tests/test_shape_symmetry.py pins 4.0 vs 5.2).
    """
    if len(total_key) == 1:
        ((machine_id, count),) = total_key
        return ((0, reads[machine_id][1], count),)
    labels: dict[int, int] = {}
    shape = []
    for machine_id, count in total_key:
        rack_id, speeds = reads[machine_id]
        shape.append((labels.setdefault(rack_id, len(labels)), speeds, count))
    return tuple(shape)


def shape_of_entries(
    entries: Sequence[tuple[int, object, int]],
) -> tuple[tuple[int, object, int], ...]:
    """:func:`bundle_shape` over pre-read ``(rack_id, speeds, count)`` entries.

    One entry per machine in ascending machine-id order: the shape of a
    row (:class:`RowProbe`) and, on a miss of the row's kernel table, of
    the row with one machine's entry spliced in.
    """
    if len(entries) == 1:
        ((_rack_id, speeds, count),) = entries
        return ((0, speeds, count),)
    labels: dict[int, int] = {}
    return tuple(
        [
            (labels.setdefault(rack_id, len(labels)), speeds, count)
            for rack_id, speeds, count in entries
        ]
    )


def shape_classes(
    row: "RowProbe", remaining: Mapping[int, int], cap: float
) -> tuple[list[int], dict[tuple, list[int]]]:
    """The machines of ``remaining`` grouped by shape class against ``row``.

    ``remaining`` maps machine -> free GPUs in ascending id order; a
    step on a machine is bounded by ``min(free, cap)``.  Returns the
    machines already in the row's ``total_key``,
    each its own class (a step there lands on an existing entry), and
    every other machine under its class, members in ascending id:
    ``(insertion position among the total key's ids, index of its rack
    among the total key's racks or -1, speeds, min(free, cap))``.

    Two machines of one class extend ``total_key`` by the same step to
    equal shapes: the spliced entry sits at the same position, and its
    rack label by first appearance is the same existing label or a new
    one at that position.  So by the lemma of :func:`bundle_shape` they
    value identically at every step up to the shared bound.  The
    position is needed: a free machine of the holdings' rack and speed
    sorts before or after them, and the carve's id tie-break can drain a
    different rack first (tests/test_shape_symmetry.py pins 4.0 vs 5.2).
    """
    entries, reads = row.entries, row.state.machine_reads
    held = [machine for machine, _count in row.total_key]
    rack_index: dict[int, int] = {}
    for rack_id, _speeds, _count in entries:
        rack_index.setdefault(rack_id, len(rack_index))
    own: list[int] = []
    classes: dict[tuple, list[int]] = {}
    # Ascending ids: the position among the held ids only advances.
    position = 0
    next_held = held[0] if held else math.inf
    for machine_id, free in remaining.items():
        if machine_id >= next_held:
            position = bisect_right(held, machine_id, position)
            next_held = held[position] if position < len(held) else math.inf
            if held[position - 1] == machine_id:
                own.append(machine_id)
                continue
        rack_id, speeds = reads[machine_id]
        machine_class = (
            position,
            rack_index.get(rack_id, -1),
            speeds,
            free if free < cap else cap,
        )
        members = classes.get(machine_class)
        if members is None:
            classes[machine_class] = [machine_id]
        else:
            members.append(machine_id)
    return own, classes


def merge_keys(
    base: tuple[tuple[int, int], ...], extra: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """Merge two canonical count keys, summing counts per machine.

    Both inputs are sorted by machine id, so the canonical total is a
    linear merge — no dict build, no re-sort on the valuation hot path.
    """
    if not base:
        return extra
    if not extra:
        return base
    out: list[tuple[int, int]] = []
    i = j = 0
    len_a, len_b = len(base), len(extra)
    while i < len_a and j < len_b:
        machine_a, count_a = base[i]
        machine_b, count_b = extra[j]
        if machine_a == machine_b:
            out.append((machine_a, count_a + count_b))
            i += 1
            j += 1
        elif machine_a < machine_b:
            out.append(base[i])
            i += 1
        else:
            out.append(extra[j])
            j += 1
    out.extend(base[i:])
    out.extend(extra[j:])
    return tuple(out)


def extend_key(
    base: tuple[tuple[int, int], ...], machine_id: int, extra: int
) -> tuple[tuple[int, int], ...]:
    """``base`` with ``extra`` more GPUs on ``machine_id``, staying sorted:
    the greedy solver's probe path, O(len(bundle)) with no dict build or
    re-sort (bundles are a handful of machines)."""
    out: list[tuple[int, int]] = []
    inserted = False
    for machine, count in base:
        if machine == machine_id:
            out.append((machine, count + extra))
            inserted = True
        elif not inserted and machine > machine_id:
            out.append((machine_id, extra))
            out.append((machine, count))
            inserted = True
        else:
            out.append((machine, count))
    if not inserted:
        out.append((machine_id, extra))
    return tuple(out)


def _job_tuples(jobs: Sequence[Job]) -> tuple[list[_JobTuple], list[Job]]:
    """Descriptors of the active jobs, shortest remaining first (ties by
    id), and the jobs themselves in that order: the one job-tuple
    builder of every snapshot and carve."""
    decorated = []
    for job in jobs:
        if job.is_active:
            profile = job.model_profile
            decorated.append(
                (
                    (
                        job.remaining_work,
                        job.max_parallelism,
                        profile.sensitivity,
                        job.job_id,
                        profile.family,
                    ),
                    job,
                )
            )
    decorated.sort(key=lambda item: (item[0][0], item[0][3]))
    return [item[0] for item in decorated], [item[1] for item in decorated]


def carve_allotments(
    jobs: Sequence[Job],
    machine_counts: Mapping[int, int],
    rack_of: Mapping[int, int],
    speeds_of: FamilySpeedFn,
) -> list[JobAllotment]:
    """Greedily split per-machine GPU counts across jobs (Section 5.2, step 4).

    Jobs are served shortest-remaining-work first; each takes up to its
    ``max_parallelism`` GPUs, draining the machines with the most
    effective free compute — each job's in its family's ``speeds_of``
    map — before spilling across racks.  Returns
    one allotment per *active* job, including zero-GPU allotments once
    the pool is drained.
    """
    tuples, _jobs = _job_tuples(jobs)
    carved, next_index = _carve_fast(tuples, machine_counts, rack_of, speeds_of)
    allotments = [
        JobAllotment(
            job_id=job[3],
            gpus=gpus,
            level=level,
            slowdown=rate / effective if effective else 1.0,
            rate=rate,
            remaining_work=job[0],
            effective=effective,
        )
        for job, gpus, level, rate, effective in carved
    ]
    # Jobs from next_index on received nothing (the pool drained).
    for job in tuples[next_index:]:
        allotments.append(
            JobAllotment(
                job_id=job[3],
                gpus=0,
                level=LocalityLevel.SLOT,
                slowdown=1.0,
                rate=0.0,
                remaining_work=job[0],
            )
        )
    return allotments


def _packing_score(carved: Sequence[_Carved]) -> float:
    """Gandiva's social objective over a carve: each allocated job's
    effective compute — family-relative under a throughput matrix —
    times the 4-level placement score of its spread, the quantity
    Gandiva's introspective migration maximises (``gpus * score`` on a
    homogeneous cluster)."""
    return ordered_sum(
        effective * PLACEMENT_SCORES[level]
        for _job, _gpus, level, _rate, effective in carved
    )


@dataclass
class AppSnapshot:
    """An app's sorted job list, built once and probed many times.

    Sorting the job list and summing remaining work happen once here
    instead of once per valuation probe.  A held app's jobs drain
    between rounds, and :meth:`AppValuationState._walk` writes the
    re-summed ``total_remaining`` in place — and, when the drain
    reordered jobs of equal shapes, the re-sorted ``job_tuples`` — so
    the :attr:`family` memo survives the drift too.
    """

    app_id: str
    arrival_time: float
    job_tuples: tuple[_JobTuple, ...]
    total_remaining: float
    t_ideal: float

    @classmethod
    def of(cls, app: App, tuples: Sequence[_JobTuple], capacity: object) -> "AppSnapshot":
        """The snapshot of ``app`` over its :func:`_job_tuples`."""
        return cls(
            app_id=app.app_id,
            arrival_time=app.arrival_time,
            job_tuples=tuple(tuples),
            total_remaining=ordered_sum(item[0] for item in tuples),
            t_ideal=app.ideal_running_time(capacity),
        )

    @cached_property
    def family(self) -> Optional[str]:
        """The single model family of all jobs, or ``None`` when mixed.

        Selects the app's throughput-matrix row for speed-class
        tie-breaks; computed once per snapshot rather than once per bid
        (a starved app's snapshot survives many rounds, a held app's as
        long as its drain keeps the job order).
        """
        families = {job_tuple[4] for job_tuple in self.job_tuples}
        return next(iter(families)) if len(families) == 1 else None


class FairnessEstimator:
    """Computes ``rho`` for current and hypothetical allocations.

    One estimator is shared per simulation.  Besides the cluster
    topology and the app-completion semantics it mirrors, it carries
    two pieces of state: :attr:`carve_count` and the
    :meth:`machine_reads` memo, one entry per set of speed maps read.
    """

    def __init__(
        self,
        cluster: Cluster,
        semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS,
        perf_model: Optional[ThroughputMatrixModel] = None,
    ) -> None:
        self.cluster = cluster
        self.semantics = semantics
        self.perf_model = perf_model if perf_model is not None else DEFAULT_PERF_MODEL
        self._rack_of = {
            machine.machine_id: machine.rack_id for machine in cluster.machines
        }
        self._speeds_of = self.perf_model.machine_speed_index(cluster)
        #: Shared ClusterCapacity (scalar) or per-family PerfCapacity.
        self.capacity = self.perf_model.capacity_for(cluster)
        #: Keyed by the ids of the maps read; ``_speeds_of`` keeps them alive.
        self._reads_by_maps: dict[tuple[int, ...], _MachineReads] = {}
        #: Carve computations performed through this estimator (cache
        #: hits in :class:`AppValuationState` don't increment it); its
        #: whole-replay total is frozen per cell under ``carves`` in
        #: ``tests/golden_sim.json``.
        self.carve_count = 0
        #: Snapshots rebuilt by the :class:`AppValuationState`\ s over
        #: this estimator (a kept or re-sorted snapshot doesn't count).
        self.rebuild_count = 0
        #: Observability hook; the simulator rewires this at bind time.
        #: :meth:`_carved` enters its ``carve`` phase unconditionally: a
        #: disabled profiler's ``phase`` is one shared no-op.
        self.profiler = NULL_PROFILER

    def machine_reads(self, job_tuples: Sequence[_JobTuple]) -> _MachineReads:
        """``machine_id -> (rack_id, speeds)`` for an app with these jobs.

        ``speeds`` is every speed a valuation of the app can read for
        the machine — its speed in the scalar map (a mixed-family bid's
        tie-break) and in each of the jobs' family maps, one per distinct
        map object: a single float when they are all the scalar map —
        and nothing else: two machines of differently *named* but
        equally fast GPU types read the same.  :func:`bundle_shape` and
        the auction's machine classes are built from it.
        """
        families = sorted({job[4] for job in job_tuples})
        maps = {id(row): row for row in map(self._speeds_of, (None, *families))}
        key = tuple(maps)
        reads = self._reads_by_maps.get(key)
        if reads is None:
            reads = {}
            for machine_id, rack_id in self._rack_of.items():
                speeds = tuple(row.get(machine_id, 1.0) for row in maps.values())
                reads[machine_id] = (rack_id, speeds if len(speeds) > 1 else speeds[0])
            self._reads_by_maps[key] = reads
        return reads

    # ------------------------------------------------------------------
    # Snapshots (hot path)
    # ------------------------------------------------------------------
    def snapshot(self, app: App) -> AppSnapshot:
        """Freeze the app's active-job state for repeated valuation probes."""
        return AppSnapshot.of(app, _job_tuples(app.jobs)[0], self.capacity)

    def aggregate_rate_from_snapshot(
        self, snap: AppSnapshot, machine_counts: Mapping[int, int]
    ) -> float:
        """Aggregate placement-adjusted rate of the carved counts.

        The ``ALL_JOBS`` valuation kernel: the carve hands GPUs out in
        the snapshot's job order, reading each job's cap, sensitivity
        profile and family — never its id or remaining work — so
        :class:`AppValuationState` caches this sum across rounds under
        that ``(cap, profile, family)`` sequence even while the app's
        jobs drain.
        """
        if not machine_counts:
            return 0.0
        carved = self._carved(snap, machine_counts)
        return ordered_sum(rate for *_, rate, _effective in carved)

    def packing_from_snapshot(
        self, snap: AppSnapshot, machine_counts: Mapping[int, int]
    ) -> float:
        """Gandiva's kernel: :func:`_packing_score` of the carved counts.

        Like the aggregate rate it reads the job shapes in order, never
        the ids or remaining-work magnitudes, so
        :class:`AppValuationState` caches it across rounds under the
        same signature.
        """
        if not machine_counts:
            return 0.0
        return _packing_score(self._carved(snap, machine_counts))

    def _carved(
        self, snap: AppSnapshot, machine_counts: Mapping[int, int]
    ) -> list[_Carved]:
        """One counted, profiled carve, shared by every valuation kernel
        (a disabled profiler's ``phase`` is one shared no-op)."""
        self.carve_count += 1
        with self.profiler.phase("carve"):
            carved, _ = _carve_fast(
                snap.job_tuples, machine_counts, self._rack_of, self._speeds_of
            )
        return carved

    def carve_pairs_from_snapshot(
        self, snap: AppSnapshot, machine_counts: Mapping[int, int]
    ) -> tuple[tuple[str, float], ...]:
        """Per-job ``(job_id, rate)`` pairs of one carve (rate > 0 only).

        The ``FIRST_WINNER`` valuation kernel: like the aggregate rate,
        which job receives which GPUs — and hence each job's rate —
        depends only on the job shapes in order, never on the
        remaining-work magnitudes; the pairs name the jobs, so
        :class:`AppValuationState` caches them across rounds under a
        signature that keeps the ids, and re-divides by the current
        remaining work in O(pairs).
        """
        if not machine_counts:
            return ()
        carved = self._carved(snap, machine_counts)
        return tuple(
            (job[3], rate)
            for job, _gpus, _level, rate, _effective in carved
            if rate > 0
        )

    def shared_delta_from_snapshot(
        self, snap: AppSnapshot, machine_counts: Mapping[int, int]
    ) -> float:
        """Elapsed-independent part of T_sh: minutes from *now* to finish.

        ``shared_time(now) = elapsed(now) + delta`` — the carve (the
        expensive part) depends only on the snapshot and the
        hypothetical per-machine counts, never on the clock, so this is
        the quantity :class:`AppValuationState` caches *across rounds*:
        a starved app probing the same bundle in round after round pays
        for one carve total.  Under ``FIRST_WINNER`` semantics the delta
        is the paper's ``min_j W'_j / (G_j * S_j)``; under ``ALL_JOBS``
        it is total remaining work over the aggregate placement-adjusted
        rate.  ``inf`` when the counts sustain no progress — the
        unbounded metric that guarantees starved apps win future
        auctions.
        """
        if not snap.job_tuples:
            return 0.0
        if self.semantics is CompletionSemantics.FIRST_WINNER:
            if not machine_counts:
                return math.inf
            remaining = {job[3]: job[0] for job in snap.job_tuples}
            finish = math.inf
            for job_id, rate in self.carve_pairs_from_snapshot(snap, machine_counts):
                per_job = remaining[job_id] / rate
                if per_job < finish:
                    finish = per_job
            return finish
        if snap.total_remaining <= 0:
            return 0.0
        aggregate_rate = self.aggregate_rate_from_snapshot(snap, machine_counts)
        if aggregate_rate <= 0:
            return math.inf
        return snap.total_remaining / aggregate_rate

    def shared_time_from_snapshot(
        self, snap: AppSnapshot, now: float, machine_counts: Mapping[int, int]
    ) -> float:
        """T_sh — estimated completion under a hypothetical allocation.

        ``elapsed + shared_delta``; see :meth:`shared_delta_from_snapshot`
        for the semantics of the delta term.
        """
        elapsed = max(0.0, now - snap.arrival_time)
        return elapsed + self.shared_delta_from_snapshot(snap, machine_counts)

    def rho_from_snapshot(
        self, snap: AppSnapshot, now: float, machine_counts: Mapping[int, int]
    ) -> float:
        """rho given a snapshot and the app's full per-machine counts."""
        if snap.t_ideal <= 0:
            raise ValueError(
                f"app {snap.app_id} has non-positive ideal time {snap.t_ideal}"
            )
        return self.shared_time_from_snapshot(snap, now, machine_counts) / snap.t_ideal

    # ------------------------------------------------------------------
    # Convenience (non-hot) API
    # ------------------------------------------------------------------
    def shared_time(
        self, app: App, now: float, machine_counts: Mapping[int, int]
    ) -> float:
        """T_sh for an app's hypothetical total per-machine counts."""
        return self.shared_time_from_snapshot(self.snapshot(app), now, machine_counts)

    def rho(
        self,
        app: App,
        now: float,
        extra_counts: Optional[Mapping[int, int]] = None,
    ) -> float:
        """Finish-time fairness with the current plus ``extra_counts`` GPUs.

        ``rho`` close to (and below) the number of contending apps means
        the app is receiving its sharing-incentive due; ``inf`` means it
        is fully starved.
        """
        counts = dict(app.allocation().per_machine_counts())
        if extra_counts:
            for machine_id, count in extra_counts.items():
                if count < 0:
                    raise ValueError(f"negative GPU count for machine {machine_id}")
                counts[machine_id] = counts.get(machine_id, 0) + count
        return self.rho_from_snapshot(self.snapshot(app), now, counts)


#: Entries (row tables: rows) kept in one of an app's cross-round
#: kernel caches before it is dropped wholesale.  Purely a memory bound: cache contents never
#: change computed values, so the clear is invisible to results.
_KERNEL_CACHE_LIMIT = 131072


class AppValuationState:
    """Cross-round valuation cache for one app, over one kernel.

    The kernel is fixed when the state is built: the aggregate carve
    rate (``ALL_JOBS``) or the per-job ``(job_id, rate)`` pairs
    (``FIRST_WINNER``), whichever the estimator's semantics name — the
    rho a Themis AGENT bids and the strawman ranks by — or, with
    ``packing``, Gandiva's placement-score utility.  Each scheduler
    holds one state per active app in its ``states``.

    Holds the app's :class:`AppSnapshot`, its base per-machine
    counts, and the cache of the kernel, keyed by bundle *shape*
    (:func:`bundle_shape` — a bundle is carved once per shape, not once
    per machine-id key; any noise is applied above this layer, in
    ``Bid.rho_from_key``).  The row tables (:class:`RowProbe`) hold the
    same kernel one level up, per row shape and one-machine extension;
    both are dropped wholesale at :data:`_KERNEL_CACHE_LIMIT` entries.

    **One reuse rule.**  A carve reads each job's cap, sensitivity
    profile and family, in ``(remaining work, job id)`` order — never
    the work magnitudes, and under ``ALL_JOBS`` and packing not the ids
    either.  So the snapshot holds while every job it sorted is still
    active with the same cap and the order holds; :meth:`refresh`
    checks exactly that (:meth:`_walk`) and rewrites the drained work in
    place.  Job states only move forward, so no job can join the active
    set; a cap changes only on a live job (a tuner's write, followed by
    :meth:`App.invalidate`), so ``t_ideal`` holds too.  A drain that
    reorders the jobs re-sorts them, and the snapshot stays if the
    *kernel signature* — the ``(cap, profile, family)`` sequence, plus
    the ids under ``FIRST_WINNER``, whose pairs name jobs — is
    unchanged.  Otherwise the snapshot is rebuilt, and the kernel
    caches are dropped only if the signature moved.  The app's epoch
    only says when to look: a clean app holding no GPUs cannot drift
    and is reused verbatim; after a bump the walk also checks
    activity and caps, and the holdings (``base_counts`` /
    ``base_key``) are re-read.

    Reuse never changes a value: the caches store pure functions of
    (signature, bundle shape), so a state answers exactly what a
    freshly constructed one would.  The rho reads (:meth:`rho_at`,
    :meth:`current_rho`) are those of a rate or pairs kernel.
    """

    __slots__ = (
        "app",
        "estimator",
        "packing",
        "first_winner",
        "_carve",
        "epoch",
        "snapshot",
        "base_counts",
        "base_key",
        "_base_kernel",
        "_probe",
        "rate_signature",
        "machine_reads",
        "_kernel_cache",
        "_row_tables",
        "_remaining_by_id",
        "_base_alloc",
        "_sorted_jobs",
    )

    def __init__(
        self, app: App, estimator: FairnessEstimator, packing: bool = False
    ) -> None:
        self.app = app
        self.estimator = estimator
        self.packing = packing
        self.first_winner = (
            not packing and estimator.semantics is CompletionSemantics.FIRST_WINNER
        )
        #: The state's kernel: what one carve of a bundle computes.
        self._carve: Callable[[AppSnapshot, Mapping[int, int]], object] = (
            estimator.packing_from_snapshot
            if packing
            else estimator.carve_pairs_from_snapshot
            if self.first_winner
            else estimator.aggregate_rate_from_snapshot
        )
        self.epoch = -1
        self.snapshot: Optional[AppSnapshot] = None
        self.base_counts: dict[int, int] = {}
        self.base_key: tuple[tuple[int, int], ...] = ()
        #: The kernel of ``base_key``, read on the first probe that needs
        #: it and dropped whenever the base key, the rate signature or the
        #: kernel cache is replaced.
        self._base_kernel: object = None
        #: ``(now, rho)`` of the last :meth:`current_rho`, which
        #: :meth:`held_rho` reuses at the same instant; every
        #: :meth:`refresh` drops it.
        self._probe: Optional[tuple[float, float]] = None
        #: The kernel signature of the snapshot's jobs (see the class
        #: docstring); the kernel caches are valid while it is.
        self.rate_signature: Optional[tuple] = None
        #: ``estimator.machine_reads`` of the current snapshot's jobs;
        #: rebuilt with the kernel caches (it depends on their families).
        self.machine_reads: _MachineReads = {}
        #: shape -> kernel (:meth:`kernel_of`), valid while the rate
        #: signature is; the row tables likewise.
        self._kernel_cache: dict[tuple, object] = {}
        #: row shape -> {(position, rack label, speeds, step) -> kernel}:
        #: :class:`RowProbe`'s tables.
        self._row_tables: dict[tuple, dict[tuple, object]] = {}
        #: job_id -> current remaining work (FIRST_WINNER deltas divide
        #: cached rates by it).
        self._remaining_by_id: dict[str, float] = {}
        self._base_alloc = None
        #: Job objects aligned with ``snapshot.job_tuples``: what
        #: :meth:`_walk` re-reads.
        self._sorted_jobs: list[Job] = []

    def refresh(self) -> AppSnapshot:
        """Bring the snapshot and the holdings up to date (the class
        docstring's rule); no-op for a clean app holding no GPUs.

        Drops the probe :meth:`held_rho` would reuse: the snapshot may
        move under it."""
        self._probe = None
        app = self.app
        snap = self.snapshot
        bumped = self.epoch != app.epoch
        if snap is None or (bumped or self.base_counts) and not self._walk(snap, bumped):
            self._rebuild_snapshot(*_job_tuples(app.jobs))
        if bumped:
            self.epoch = app.epoch
            alloc = app.allocation()
            if alloc is not self._base_alloc:
                # The allocation object is epoch-memoised on the app, so
                # it is the same object until the next bump.
                self._base_alloc = alloc
                self.base_counts = dict(alloc.per_machine_counts())
                self.base_key = tuple(
                    sorted((m, c) for m, c in self.base_counts.items() if c > 0)
                )
                self._base_kernel = None
        return self.snapshot

    def _walk(self, snap: AppSnapshot, bumped: bool) -> bool:
        """Bring the state up to date with the jobs ``snap`` sorted;
        ``False`` when one of them left or changed cap (a rebuild).

        After an epoch bump, every job the snapshot sorted must still be
        active with the cap it had.  Then the jobs are re-read in
        snapshot order: while they are still sorted by ``(remaining
        work, job id)`` (an id is read only when two works tie),
        ``total_remaining`` is rewritten in place — summed along the
        current order, so the float matches a rebuild bit for bit — and
        the :attr:`AppSnapshot.family` memo survives.  Out of order,
        :meth:`_resort` takes over.  The per-job magnitudes inside
        ``job_tuples`` are left stale: no kernel reads them, the
        ``ALL_JOBS`` delta divides the fresh total, and the
        ``FIRST_WINNER`` one reads ``_remaining_by_id``, re-read here.
        """
        jobs = self._sorted_jobs
        if bumped:
            for job, job_tuple in zip(jobs, snap.job_tuples):
                if not job.is_active or job.max_parallelism != job_tuple[1]:
                    return False
        total = 0.0
        prev_work = -math.inf
        prev_job = None
        for job in jobs:
            work = job.remaining_work
            if work <= prev_work and (work < prev_work or job.job_id < prev_job.job_id):
                self._resort(snap)
                return True
            total += work
            prev_work = work
            prev_job = job
        snap.total_remaining = total
        if self.first_winner:
            self._remaining_by_id = {job.job_id: job.remaining_work for job in jobs}
        return True

    def _resort(self, snap: AppSnapshot) -> None:
        """Re-sort the (unchanged) jobs after a reordering drain: keep
        ``snap`` — its job tuples and total rewritten in place — and the
        kernel caches while the kernel signature is unchanged (never under
        ``FIRST_WINNER``: a reorder moves the ids), else rebuild from the
        re-sorted jobs."""
        tuples, jobs = _job_tuples(self._sorted_jobs)
        if self._signature(tuples) != self.rate_signature:
            self._rebuild_snapshot(tuples, jobs)
            return
        self._sorted_jobs = jobs
        snap.job_tuples = tuple(tuples)
        snap.total_remaining = ordered_sum(item[0] for item in tuples)

    def _signature(self, tuples: Sequence[_JobTuple]) -> tuple:
        """What the kernel reads of the sorted jobs: ``(cap, profile,
        family)`` each, and the id too under ``FIRST_WINNER``."""
        if self.first_winner:
            return tuple(item[1:] for item in tuples)
        return tuple((item[1], item[2], item[4]) for item in tuples)

    def _rebuild_snapshot(self, tuples: list[_JobTuple], jobs: list[Job]) -> None:
        """A new snapshot over the app's active jobs as :func:`_job_tuples`
        sorts them, counted in ``estimator.rebuild_count``; the kernel
        caches are dropped only when the signature moved.

        Built by :meth:`AppSnapshot.of`, as
        :meth:`FairnessEstimator.snapshot` builds one, so the snapshots
        are byte-identical to ones built from scratch.
        """
        self.estimator.rebuild_count += 1
        self._sorted_jobs = jobs
        signature = self._signature(tuples)
        if signature != self.rate_signature:
            self.rate_signature = signature
            self.machine_reads = self.estimator.machine_reads(tuples)
            self._base_kernel = None
            self._kernel_cache = {}
            self._row_tables = {}
        self.snapshot = AppSnapshot.of(self.app, tuples, self.estimator.capacity)
        if self.first_winner:
            self._remaining_by_id = {job[3]: job[0] for job in tuples}

    def kernel_of(
        self, total_key: tuple[tuple[int, int], ...], shape: Optional[tuple] = None
    ) -> object:
        """The state's kernel of a canonical total-counts bundle, memoised.

        What a carve computes: the aggregate carve rate, the per-job
        ``(job_id, rate)`` pairs, or Gandiva's packing utility.  A carve
        reads the job order, never the remaining work, so the kernel is
        cached across rounds under the bundle's shape (exact by the
        lemma of :func:`bundle_shape`) until the rate signature changes.
        ``shape``, when given, is ``total_key``'s, spliced by
        :class:`RowProbe`; the counts mapping is built only on a miss.
        """
        if shape is None:
            shape = bundle_shape(total_key, self.machine_reads)
        cache = self._kernel_cache
        kernel = cache.get(shape)
        if kernel is None:
            kernel = self._carve(self.snapshot, dict(total_key))
            if len(cache) >= _KERNEL_CACHE_LIMIT:
                cache.clear()
                self._base_kernel = None
            cache[shape] = kernel
        return kernel

    def rho_at(
        self, now: float, total_key: tuple[tuple[int, int], ...], shape: Optional[tuple] = None
    ) -> float:
        """Noise-free rho for a canonical total-counts bundle at ``now``:
        kernel, then divide; bit for bit
        :meth:`FairnessEstimator.rho_from_snapshot`.

        The delta is 0 with no active job, or under ``ALL_JOBS`` with no
        work left (no kernel read then); else under ``FIRST_WINNER`` the
        min over the served jobs of *current* remaining work over rate,
        under ``ALL_JOBS`` the total remaining work over the aggregate
        rate; ``inf`` when nothing progresses.  ``Bid.row``'s class probe
        repeats this arithmetic on a kernel read off a row table.  The
        holdings' own kernel (``total_key`` *is* ``base_key``) is kept
        with the state, so the round's probe hashes no shape.
        """
        snap = self.snapshot
        assert snap is not None, "refresh() before probing"
        if snap.t_ideal <= 0:
            raise ValueError(
                f"app {snap.app_id} has non-positive ideal time {snap.t_ideal}"
            )
        if not snap.job_tuples or (snap.total_remaining <= 0 and not self.first_winner):
            delta = 0.0
        else:
            if total_key is self.base_key:
                kernel = self._base_kernel
                if kernel is None:
                    kernel = self._base_kernel = self.kernel_of(total_key, shape)
            else:
                kernel = self.kernel_of(total_key, shape)
            if self.first_winner:
                remaining = self._remaining_by_id
                delta = math.inf
                for job_id, rate in kernel:  # type: ignore[attr-defined]
                    per_job = remaining[job_id] / rate
                    if per_job < delta:
                        delta = per_job
            elif kernel <= 0:  # type: ignore[operator]
                delta = math.inf
            else:
                delta = snap.total_remaining / kernel  # type: ignore[operator]
        elapsed = now - snap.arrival_time
        if elapsed < 0.0:
            elapsed = 0.0
        return (elapsed + delta) / snap.t_ideal

    def current_rho(self, now: float) -> float:
        """rho with the allocation the app holds right now: one exact probe.

        :meth:`refresh`, then :meth:`rho_at` of the holdings, whose
        kernel is kept with the state.  The answer is kept as the probe
        that :meth:`held_rho` reuses at the same instant.
        """
        self.refresh()
        rho = self.rho_at(now, self.base_key)
        self._probe = (now, rho)
        return rho

    def held_rho(self, now: float) -> float:
        """:meth:`current_rho`, reusing this instant's probe.

        The probe is reused while the app's epoch is the snapshot's and
        no :meth:`refresh` has run since (one drops it): the snapshot is
        then as fresh as the probe left it.  Otherwise this probes again.
        """
        probe = self._probe
        if probe is not None and probe[0] == now and self.epoch == self.app.epoch:
            return probe[1]
        return self.current_rho(now)


class RowProbe:
    """One row pass: an app's bundle so far against one more machine.

    ``total_key`` (holdings plus the bundle) and its ``(rack_id, speeds,
    count)`` ``entries`` are what a row pass classes free machines
    against (:func:`shape_classes`).  A machine of class ``(position,
    rack label, speeds, bound)`` plus a step extends the row to a shape
    fixed by the row's shape and the slot ``(position, rack label,
    speeds, step)``: the entry lands at ``position`` and the labels by
    first appearance follow from the rack label, also when the machine
    sorts before its rack's first held machine (racks ``[A, B, A]`` and
    a ``B`` machine at position 0 relabel ``B`` to 0, ``A`` to 1).  So
    by the lemma of :func:`bundle_shape` the state's kernel is a
    function of ``(row shape, slot)``, and :meth:`kernel` reads it off
    the state's table for the row's shape, fetched on the first call (a
    row the auction's pair memo serves never hashes its shape).  Only a
    table miss splices the machine in; a carve runs only if the
    shape-keyed kernel cache misses too.
    """

    __slots__ = ("state", "total_key", "entries", "_table")

    def __init__(self, state: AppValuationState, key: tuple[tuple[int, int], ...]) -> None:
        reads = state.machine_reads
        self.state = state
        self.total_key = total_key = merge_keys(state.base_key, key)
        self.entries = [(*reads[machine], count) for machine, count in total_key]
        self._table: Optional[dict[tuple, object]] = None

    def kernel(self, machine_id: int, machine_class: tuple, step: int) -> object:
        """The kernel of the row's bundle plus ``step`` GPUs on
        ``machine_id``, a machine of ``machine_class`` (so not in the
        total key)."""
        position, label, speeds, _bound = machine_class
        slot = (position, label, speeds, step)
        table = self._table
        if table is None:
            state = self.state
            tables = state._row_tables
            row_shape = shape_of_entries(self.entries)
            table = tables.get(row_shape)
            if table is None:
                if len(tables) >= _KERNEL_CACHE_LIMIT:
                    tables.clear()
                table = tables[row_shape] = {}
            self._table = table
        kernel = table.get(slot)
        if kernel is None:
            state = self.state
            total_key, entries = self.total_key, self.entries
            rack_id = state.machine_reads[machine_id][0]
            spliced = total_key[:position] + ((machine_id, step),) + total_key[position:]
            shape = shape_of_entries(
                entries[:position] + [(rack_id, speeds, step)] + entries[position:]
            )
            kernel = table[slot] = state.kernel_of(spliced, shape)
        return kernel
