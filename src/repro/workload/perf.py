"""Pluggable performance models: how fast does *this* model run on *that* GPU?

PR 3 collapsed every GPU generation to a single scalar speed factor
(:attr:`~repro.cluster.topology.GpuType.speed`).  Real ML models scale
very differently across generations — an attention-heavy model may see
3x going K80 -> V100 while a small CNN sees 1.3x — and
heterogeneity-aware schedulers (Gavel, OEF) model that with measured
per-workload per-device throughput matrices.  This module is the seam:

* :class:`ThroughputMatrixModel` — the one model: it owns the mapping
  from a (model family, GPU generation) pair to a per-GPU throughput
  factor, an explicit ``family x generation`` matrix.  Everything
  downstream (job progress rates, carve scoring, ideal-time capacity,
  baseline fills, the migration policy) asks the model instead of
  reading ``gpu.speed`` directly.  Missing cells fall back to the
  generation's scalar speed, and a family without a row (or no family,
  ``None``) reads the cluster's one shared scalar speed map — the same
  object for all of them — so the empty matrix,
  :data:`DEFAULT_PERF_MODEL`, is the scalar model with no branch of its
  own.  An *all-scalar* matrix, and a partial one written out at the
  scalar speeds, are byte-identical to it
  (``tests/test_hetero_equivalence.py`` pins both).
* :class:`PerfCapacity` — per-family "fastest N GPUs" capacity views,
  the heterogeneous generalisation of
  :class:`~repro.cluster.topology.ClusterCapacity`: running alone on a
  mixed fleet means running on the GPUs fastest *for your model*.

The matrix rides on the workload: traces carry an optional
``perf_matrix`` in their header (see :class:`~repro.workload.trace.Trace`),
the generator has a knob, and the CLI accepts ``--perf-matrix`` (a
preset name, a JSON file, or an inline spec).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from repro.cluster.topology import (
    DEFAULT_GPU_TYPE,
    GPU_TYPES,
    Cluster,
    ClusterCapacity,
    Gpu,
    GpuType,
)
from repro.workload.models import effective_gpus, gpu_speed

#: Canonical matrix form: sorted ((family, ((generation, speedup), ...)), ...).
MatrixTuple = tuple[tuple[str, tuple[tuple[str, float], ...]], ...]

#: Raw matrix forms accepted by :func:`canonical_matrix`.
MatrixLike = Union[MatrixTuple, Mapping[str, Mapping[str, float]], Sequence]


class PerfModelError(ValueError):
    """A malformed performance-model specification (actionable message)."""


def known_generation_names() -> tuple[str, ...]:
    """Generation names a matrix may reference: the presets + default."""
    return tuple(sorted(GPU_TYPES)) + (DEFAULT_GPU_TYPE.name,)


def known_families() -> tuple[str, ...]:
    """Model families of the zoo (the valid matrix row keys)."""
    from repro.workload.models import MODEL_FAMILIES

    return MODEL_FAMILIES


def canonical_matrix(matrix: MatrixLike) -> MatrixTuple:
    """Normalise any accepted matrix form into the canonical sorted tuple.

    Accepts a mapping of mappings (``{"vgg": {"v100": 1.0}}``), an
    items-style nested sequence, or an already-canonical tuple.  The
    canonical form is hashable (frozen-dataclass friendly) and sorts
    deterministically, so equal matrices fingerprint equally in the
    sweep cache.  Raises :class:`PerfModelError` on malformed input.
    """
    rows: dict[str, dict[str, float]] = {}
    items: Iterable
    if isinstance(matrix, Mapping):
        items = matrix.items()
    else:
        items = matrix
    for entry in items:
        try:
            family, cells = entry
        except (TypeError, ValueError):
            raise PerfModelError(
                f"matrix rows must be (family, cells) pairs, got {entry!r}"
            )
        if not isinstance(family, str) or not family:
            raise PerfModelError(
                f"matrix family keys must be non-empty strings, got {family!r}"
            )
        cell_items = cells.items() if isinstance(cells, Mapping) else cells
        row: dict[str, float] = {}
        for cell in cell_items:
            try:
                generation, speedup = cell
            except (TypeError, ValueError):
                raise PerfModelError(
                    f"matrix cells must be (generation, speedup) pairs, "
                    f"got {cell!r} in family {family!r}"
                )
            try:
                value = float(speedup)
            except (TypeError, ValueError):
                raise PerfModelError(
                    f"speedup for ({family!r}, {generation!r}) must be a "
                    f"number, got {speedup!r}"
                )
            # NaN compares False against everything, so `value <= 0`
            # alone would let NaN (and inf) corrupt every downstream
            # rate comparison instead of failing here.
            if not math.isfinite(value) or value <= 0:
                raise PerfModelError(
                    f"speedup for ({family!r}, {generation!r}) must be a "
                    f"finite number > 0, got {value}"
                )
            row[str(generation)] = value
        if family in rows:
            raise PerfModelError(f"duplicate matrix row for family {family!r}")
        rows[family] = row
    return tuple(
        (family, tuple(sorted(rows[family].items()))) for family in sorted(rows)
    )


def validate_matrix_names(
    matrix: MatrixTuple,
    generations: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
) -> None:
    """Reject unknown family / generation names with actionable errors.

    Used by the CLI and the generator so a typo'd matrix fails at parse
    time (listing the valid names) instead of silently falling back to
    scalar speeds at simulation time.
    """
    valid_generations = tuple(generations) if generations else known_generation_names()
    valid_families = tuple(families) if families else known_families()
    for family, cells in matrix:
        if family not in valid_families:
            raise PerfModelError(
                f"unknown model family {family!r} in perf matrix; "
                f"known families: {sorted(valid_families)}"
            )
        for generation, _speedup in cells:
            if generation not in valid_generations:
                raise PerfModelError(
                    f"unknown GPU generation {generation!r} in perf matrix row "
                    f"{family!r}; known generations: {sorted(valid_generations)}"
                )


class ThroughputMatrixModel:
    """Maps (model family, GPU generation) to a per-GPU throughput factor.

    A job's progress rate is ``sum_g speedup(family, g.gpu_type)`` over
    its held GPUs (capped at its parallelism, fastest first) times the
    placement slowdown — :meth:`effective_gpus` is that sum.

    ``matrix`` maps a model family to per-generation speedups.  Lookups
    for a family or generation the matrix does not mention fall back to
    the generation's scalar ``speed`` — a partial matrix refines only
    what it measures, and the empty matrix is the scalar model.  This is
    what makes *rate inversions* expressible: family A can prefer
    generation X while family B prefers Y, which no single scalar
    ordering can encode.
    """

    def __init__(self, matrix: MatrixLike = ()) -> None:
        self._matrix: MatrixTuple = canonical_matrix(matrix)
        self._rows: dict[str, dict[str, float]] = {
            family: dict(cells) for family, cells in self._matrix
        }

    @property
    def matrix(self) -> MatrixTuple:
        """The canonical matrix tuple (hashable, sorted)."""
        return self._matrix

    def speedup(self, family: str, gpu_type: GpuType) -> float:
        """Per-GPU throughput factor of one generation for one family."""
        row = self._rows.get(family)
        if row is None:
            return gpu_type.speed
        value = row.get(gpu_type.name)
        if value is None:
            return gpu_type.speed
        return value

    def gpu_speedup(self, family: str, gpu: Gpu) -> float:
        """Per-GPU throughput factor for a concrete GPU."""
        return self.speedup(family, gpu.gpu_type)

    def gpu_speed_of(self, family: str) -> Callable[[Gpu], float]:
        """The per-GPU throughput factor ``family`` sees, as a lookup:
        its row, or :func:`~repro.workload.models.gpu_speed` (the
        generation's scalar speed) for a family without one."""
        if family in self._rows:
            return partial(self.gpu_speedup, family)
        return gpu_speed

    def effective_gpus(
        self, family: str, gpus: Iterable[Gpu], cap: Optional[int] = None
    ) -> float:
        """Family-weighted GPU count of an allocation, optionally capped.

        The per-family generalisation of
        :func:`repro.workload.models.effective_gpus`: with a ``cap`` only
        the ``cap`` fastest-for-this-family GPUs count (a rational gang
        drops its slowest stragglers first).
        """
        return effective_gpus(gpus, cap, self.gpu_speed_of(family))

    def _per_cluster_memo(self, slot: str, cluster: Cluster, build):
        """Identity-keyed per-cluster memo for derived cluster views.

        The simulator, the fairness estimator and the schedulers all
        derive views from the same (model, cluster) pair within one run;
        sharing them matters both for cost and because per-app
        ideal-time caches key capacity objects by identity.  Keyed by
        ``id`` with the cluster itself retained, so a recycled id can
        never alias a dead cluster.  Bounded: a long-lived model reused
        across many distinct clusters (sweep loops, notebooks) must not
        pin every cluster it ever saw, so the memo is cleared when it
        outgrows a handful of entries.
        """
        cache = getattr(self, slot, None)
        if cache is None:
            cache = {}
            setattr(self, slot, cache)
        got = cache.get(id(cluster))
        if got is None or got[0] is not cluster:
            if len(cache) >= 8:
                cache.clear()
            got = (cluster, build())
            cache[id(cluster)] = got
        return got[1]

    def capacity_for(self, cluster: Cluster):
        """The cluster's capacity under this model.

        The empty matrix returns the cluster's shared
        :class:`~repro.cluster.topology.ClusterCapacity` object
        unchanged (identity matters: it keys per-app ideal-time caches);
        a matrix returns one shared :class:`PerfCapacity` per cluster
        with lazily-built per-family views.
        """
        if not self._matrix:
            return cluster.capacity
        return self._per_cluster_memo(
            "_capacity_memo",
            cluster,
            lambda: PerfCapacity(tuple(gpu.gpu_type for gpu in cluster.gpus), self),
        )

    def machine_speed_index(
        self, cluster: Cluster
    ) -> Callable[[Optional[str]], Mapping[int, float]]:
        """The ``family -> {machine_id: speedup}`` lookup of one cluster.

        Machines are internally homogeneous, so a per-machine count
        implies a generation.  A family with a row gets its own map,
        built on first read; ``None`` and every family without a row
        read the cluster's one scalar map, the same object, so a carve
        re-keys its machine order only where the speeds can differ.
        One shared index per (model, cluster); its maps are read-only.
        """
        return self._per_cluster_memo(
            "_speed_index_memo", cluster, lambda: _SpeedIndex(self, cluster).__getitem__
        )

    def machine_speeds_for(
        self, cluster: Cluster, family: Optional[str]
    ) -> Mapping[int, float]:
        """The ``machine_id -> speed`` map one model family sees (read-only):
        ``family``'s entry of :meth:`machine_speed_index` (``None`` for a
        caller with no single family, e.g. a mixed-family app)."""
        return self.machine_speed_index(cluster)(family)

    def to_json(self) -> dict:
        """JSON-safe description (see :func:`perf_model_from_json`)."""
        if not self._matrix:
            return {"kind": "scalar"}
        return {
            "kind": "matrix",
            "matrix": {family: dict(cells) for family, cells in self._matrix},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThroughputMatrixModel(families={[f for f, _ in self._matrix]})"


class _SpeedIndex(dict):
    """``family -> {machine_id: speedup}`` of one cluster, filled on
    first read; ``None`` and each family without a matrix row map to
    the one scalar map (see
    :meth:`ThroughputMatrixModel.machine_speed_index`).  A dict, so that
    a read of a known family — one per job in every carve — is its
    builtin ``__getitem__``."""

    __slots__ = ("_model", "_types")

    def __init__(self, model: ThroughputMatrixModel, cluster: Cluster) -> None:
        super().__init__({None: cluster.machine_speeds()})
        self._model = model
        self._types = {m.machine_id: m.gpu_type for m in cluster.machines}

    def __missing__(self, family: str) -> Mapping[int, float]:
        model = self._model
        if family in model._rows:
            speeds = {
                machine_id: model.speedup(family, gpu_type)
                for machine_id, gpu_type in self._types.items()
            }
        else:
            speeds = self[None]
        self[family] = speeds
        return speeds


#: The shared default: the empty matrix, scalar speeds, byte-identical
#: to pre-matrix builds.
DEFAULT_PERF_MODEL = ThroughputMatrixModel()


def perf_model_from_json(data: Optional[Mapping]) -> ThroughputMatrixModel:
    """Rebuild a model from :meth:`ThroughputMatrixModel.to_json` output.

    ``None`` / missing / ``"scalar"`` / unknown kinds fall back to the
    scalar default, mirroring the forward-compatible ``from_json``
    discipline of the result cache: payloads written by newer builds
    must still load.
    """
    if not data or data.get("kind") != "matrix":
        return DEFAULT_PERF_MODEL
    return resolve_perf_model(data.get("matrix", {}))


def resolve_perf_model(matrix: Optional[MatrixLike]) -> ThroughputMatrixModel:
    """``None``/empty -> the scalar default; else a matrix model."""
    if not matrix:
        return DEFAULT_PERF_MODEL
    return ThroughputMatrixModel(matrix)


class PerfCapacity:
    """Per-family fastest-N capacity views of one cluster.

    The ideal running time of Section 5.2 divides work by the summed
    speed of the fastest N GPUs; under a throughput matrix "fastest" is
    family-relative, so each family gets its own
    :class:`~repro.cluster.topology.ClusterCapacity` prefix-sum view,
    built lazily and cached (a trace has a handful of families).
    Hashable by identity, so per-app ideal-time caches key on it the
    same way they key on a shared ``ClusterCapacity``.
    """

    __slots__ = ("_types", "_model", "_views", "_best_totals")

    def __init__(self, gpu_types: Sequence[GpuType], model: ThroughputMatrixModel) -> None:
        if not gpu_types:
            raise ValueError("capacity needs at least one GPU")
        self._types: tuple[GpuType, ...] = tuple(gpu_types)
        self._model = model
        self._views: dict[str, ClusterCapacity] = {}
        self._best_totals: dict[tuple[str, ...], float] = {}

    @property
    def num_gpus(self) -> int:
        """Number of GPUs backing every view."""
        return len(self._types)

    def view(self, family: str) -> ClusterCapacity:
        """The fastest-N prefix sums as seen by one model family."""
        got = self._views.get(family)
        if got is None:
            got = ClusterCapacity(
                self._model.speedup(family, gpu_type) for gpu_type in self._types
            )
            self._views[family] = got
        return got

    def best_total(self, families: Iterable[str]) -> float:
        """Max aggregate compute achievable by a set of families.

        Each GPU contributes its best speedup over the given families —
        the tight capacity bound for an app whose jobs span families
        with *inverted* preferences: running alone, job A takes the
        GPUs fast for A while job B takes those fast for B, so no
        single family's :meth:`view` total bounds the aggregate rate.
        Summed fastest-first so a degenerate (all-scalar) matrix
        reproduces ``view(f).total`` bit-for-bit.
        """
        key = tuple(sorted(set(families)))
        if not key:
            raise ValueError("best_total needs at least one family")
        if len(key) == 1:
            return self.view(key[0]).total
        got = self._best_totals.get(key)
        if got is None:
            model = self._model
            best = sorted(
                (
                    max(model.speedup(family, gpu_type) for family in key)
                    for gpu_type in self._types
                ),
                reverse=True,
            )
            total = 0.0
            for speed in best:
                total += speed
            self._best_totals[key] = got = total
        return got

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PerfCapacity(gpus={self.num_gpus}, model={self._model!r})"


# ----------------------------------------------------------------------
# Presets and app-level helpers
# ----------------------------------------------------------------------
#: Named matrix presets for the CLI / bench profiles.  ``rate-inversion``
#: is the scenario the scalar model cannot express: network-heavy
#: families (vgg/rnn/attention — bandwidth-starved on older parts)
#: strongly prefer v100, while the small compute-bound families
#: (inception/gan) run *better* on p100 than the scalar ordering says,
#: so the two classes disagree about which generation to queue for.
PERF_MATRIX_PRESETS: dict[str, MatrixTuple] = {
    "rate-inversion": canonical_matrix(
        {
            "vgg": {"v100": 1.0, "p100": 0.25, "k80": 0.1},
            "rnn": {"v100": 1.0, "p100": 0.3, "k80": 0.12},
            "attention": {"v100": 1.0, "p100": 0.3, "k80": 0.12},
            "alexnet": {"v100": 1.0, "p100": 0.4, "k80": 0.2},
            "resnet": {"v100": 0.7, "p100": 0.9, "k80": 0.45},
            "inception": {"v100": 0.65, "p100": 1.0, "k80": 0.5},
            "gan": {"v100": 0.6, "p100": 1.0, "k80": 0.55},
        }
    ),
    "gavel-like": canonical_matrix(
        {
            "vgg": {"v100": 1.0, "p100": 0.45, "k80": 0.2},
            "rnn": {"v100": 1.0, "p100": 0.5, "k80": 0.22},
            "attention": {"v100": 1.0, "p100": 0.48, "k80": 0.18},
            "alexnet": {"v100": 1.0, "p100": 0.55, "k80": 0.3},
            "resnet": {"v100": 1.0, "p100": 0.7, "k80": 0.42},
            "inception": {"v100": 1.0, "p100": 0.72, "k80": 0.45},
            "gan": {"v100": 1.0, "p100": 0.75, "k80": 0.5},
        }
    ),
}


def resolve_matrix_spec(spec) -> MatrixTuple:
    """Resolve a matrix spec: empty, a preset name, or matrix data.

    The generator / scenario configs accept any of the three; the
    result is always the canonical validated tuple.  Unknown preset
    names and unknown family/generation names raise
    :class:`PerfModelError` with the valid alternatives listed.
    """
    if not spec:
        return ()
    if isinstance(spec, str):
        preset = PERF_MATRIX_PRESETS.get(spec)
        if preset is None:
            raise PerfModelError(
                f"unknown perf-matrix preset {spec!r}; "
                f"available presets: {sorted(PERF_MATRIX_PRESETS)}"
            )
        return preset
    matrix = canonical_matrix(spec)
    validate_matrix_names(matrix)
    return matrix


def app_family(app) -> Optional[str]:
    """The single model family of an app's active jobs, or ``None``.

    Generated traces give every job of an app the same architecture
    (Section 5.2: jobs of an app share a model structure); hand-built
    apps may mix, in which case family-specific shortcuts fall back to
    scalar speeds.
    """
    families = {job.family for job in app.jobs if job.is_active}
    if len(families) == 1:
        return next(iter(families))
    return None


def app_effective_compute(app, model: ThroughputMatrixModel) -> float:
    """Speed-weighted compute an app currently holds, under ``model``.

    Each held GPU is weighted by its *holder job's* family row (a K80
    held by a K80-tolerant model is worth more than the same K80 under
    a bandwidth-starved one).  The sum runs in the union allocation's
    gpu_id order — the same order
    :attr:`~repro.cluster.allocation.Allocation.effective_size` uses —
    so rows at the scalar speeds produce bit-identical floats.
    """
    union = app.allocation()
    family_of: dict[int, str] = {}
    for job in app.jobs:
        if job.allocation:
            family = job.family
            for gpu in job.allocation:
                family_of[gpu.gpu_id] = family
    return union.effective_size_weighted(
        lambda gpu: model.speedup(
            family_of.get(gpu.gpu_id, ""), gpu.gpu_type
        )
        if gpu.gpu_id in family_of
        else gpu.speed
    )
