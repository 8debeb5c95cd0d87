"""Cluster topology: GPUs grouped into NVLink slots, machines and racks.

The paper evaluates on two clusters:

* a **heterogeneous 256-GPU simulated cluster** — "a mixture of 4 GPU,
  2 GPU, and 1 GPU machines spread across multiple racks" (Section 8.1),
* a **50-GPU testbed** — "20 instances ... that have 1/2/4 GPUs in each
  instance" (Section 8.1).

:func:`themis_sim_cluster` and :func:`testbed_cluster` build those two.
Arbitrary clusters are described with :class:`ClusterSpec` and built with
:func:`build_cluster`.

Beyond the paper, GPUs carry a :class:`GpuType` (generation name +
relative speed factor), so mixed V100/P100/K80-style fleets are
first-class: :func:`mixed_sim_cluster` builds the paper-shaped cluster
with a generation mixture, and :class:`ClusterCapacity` exposes the
speed-sorted compute totals the fairness estimator needs.  A cluster
whose GPUs are all speed 1.0 behaves bit-identically to the original
homogeneous model.

Topology is immutable after construction; allocation state (who holds a
GPU) lives in the simulator, not here, so topology objects can be shared
freely between scheduler instances under comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union


def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right ``0 + v1 + v2 + ...``.

    The builtin ``sum`` of floats up to CPython 3.11; 3.12 made it a
    compensated sum whose last bit can differ.  Float totals that can
    reach a :class:`SimulationResult` use this, so replays and the
    frozen digests are the same on every interpreter.  (Lives here:
    this module is the root of the package's import graph.)
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class GpuType:
    """One GPU generation: a name and a relative speed factor.

    ``speed`` is throughput relative to the cluster's reference
    generation (1.0 = fastest).  A job placed on ``G`` GPUs of speed
    ``s`` progresses at ``G * s`` work-units per minute before the
    placement slowdown ``S`` is applied, so *effective compute* — the
    speed-weighted GPU count — replaces raw counts wherever progress,
    valuations or fairness are estimated.
    """

    name: str
    speed: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("gpu type needs a non-empty name")
        if self.speed <= 0:
            raise ValueError(f"gpu speed must be > 0, got {self.speed}")


#: The implicit generation of every GPU before heterogeneity is opted
#: into.  Speed 1.0 everywhere reproduces the homogeneous model exactly.
DEFAULT_GPU_TYPE = GpuType("default", 1.0)

#: Named generations for the mixed-fleet presets.  Relative speeds
#: follow the rough V100 : P100 : K80 ResNet-class throughput ratios
#: reported by heterogeneity-aware follow-on work (Gavel et al.).
GPU_TYPES: dict[str, GpuType] = {
    "v100": GpuType("v100", 1.0),
    "p100": GpuType("p100", 0.6),
    "k80": GpuType("k80", 0.35),
}


def resolve_gpu_type(gpu_type: Union[str, GpuType]) -> GpuType:
    """Accept a :class:`GpuType` or a preset name from :data:`GPU_TYPES`."""
    if isinstance(gpu_type, GpuType):
        return gpu_type
    key = str(gpu_type).lower()
    if key == DEFAULT_GPU_TYPE.name:
        return DEFAULT_GPU_TYPE
    if key not in GPU_TYPES:
        raise KeyError(f"unknown gpu type {gpu_type!r}; available: {sorted(GPU_TYPES)}")
    return GPU_TYPES[key]


@dataclass(frozen=True)
class Gpu:
    """A single GPU, identified globally and by its topological position.

    ``slot_id`` identifies the NVLink island within the machine; GPUs in
    the same slot communicate over NVLink, GPUs in different slots of the
    same machine over PCIe (paper's 4-level locality, Section 8.1).
    ``gpu_type`` carries the device generation; machines are internally
    homogeneous, so every GPU of a machine shares one type.
    """

    gpu_id: int
    machine_id: int
    rack_id: int
    slot_id: int
    gpu_type: GpuType = DEFAULT_GPU_TYPE

    @property
    def speed(self) -> float:
        """Relative speed factor of this GPU's generation."""
        return self.gpu_type.speed

    def __repr__(self) -> str:
        suffix = "" if self.gpu_type is DEFAULT_GPU_TYPE else f"/{self.gpu_type.name}"
        return f"Gpu({self.gpu_id}@m{self.machine_id}/r{self.rack_id}/s{self.slot_id}{suffix})"


#: GPUs per NVLink island (one slot): a 4-GPU machine has two NVLink
#: pairs bridged over PCIe, the common PCIe-server configuration the
#: paper's slot-vs-machine locality distinction implies.  The one value
#: both :func:`build_cluster`'s slot ids and the carve's SLOT bound
#: (:mod:`repro.core.fairness`) read, so a gang the cluster keeps in one
#: slot is the gang every valuation prices as slot-local.
NVLINK_GROUP_SIZE = 2


@dataclass(frozen=True)
class MachineSpec:
    """How many machines of a given shape to build (slots of
    :data:`NVLINK_GROUP_SIZE` GPUs)."""

    count: int
    gpus_per_machine: int
    gpu_type: GpuType = DEFAULT_GPU_TYPE

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError(f"machine count must be >= 0, got {self.count}")
        if self.gpus_per_machine <= 0:
            raise ValueError(f"gpus_per_machine must be > 0, got {self.gpus_per_machine}")


@dataclass(frozen=True)
class ClusterSpec:
    """Declarative description of a cluster to build.

    Machines from all specs are built in order and dealt round-robin
    across ``num_racks`` racks, which spreads machine shapes evenly the
    way the paper describes ("spread across multiple racks").
    """

    machine_specs: tuple[MachineSpec, ...]
    num_racks: int = 4
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.num_racks <= 0:
            raise ValueError(f"num_racks must be > 0, got {self.num_racks}")
        if not self.machine_specs:
            raise ValueError("cluster needs at least one MachineSpec")

    @property
    def total_gpus(self) -> int:
        """Total number of GPUs the spec describes."""
        return sum(spec.count * spec.gpus_per_machine for spec in self.machine_specs)


class Machine:
    """A machine holding one or more GPUs, possibly in NVLink slot groups.

    Machines are internally homogeneous: all GPUs share one
    :class:`GpuType`.  This is what lets the auction keep its
    per-machine *count* bid representation under heterogeneity — a
    count on a machine implies a speed class.
    """

    def __init__(self, machine_id: int, rack_id: int, gpus: list[Gpu]) -> None:
        if not gpus:
            raise ValueError("a machine must hold at least one GPU")
        if len({gpu.gpu_type for gpu in gpus}) > 1:
            raise ValueError(
                f"machine {machine_id} mixes GPU types "
                f"{sorted({gpu.gpu_type.name for gpu in gpus})}; "
                "machines must be internally homogeneous"
            )
        self.machine_id = machine_id
        self.rack_id = rack_id
        self.gpus: tuple[Gpu, ...] = tuple(gpus)

    @property
    def num_gpus(self) -> int:
        """Number of GPUs installed in this machine."""
        return len(self.gpus)

    @property
    def gpu_type(self) -> GpuType:
        """The (single) GPU generation installed in this machine."""
        return self.gpus[0].gpu_type

    @property
    def speed(self) -> float:
        """Relative speed factor of this machine's GPUs."""
        return self.gpus[0].gpu_type.speed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(m{self.machine_id}, rack={self.rack_id}, gpus={self.num_gpus})"


class ClusterCapacity:
    """Speed-sorted compute capacity: ``fastest(n)`` prefix sums.

    The ideal running time of Section 5.2 assumes the app runs alone
    with perfect placement; under heterogeneity "alone on the cluster"
    means "on the *fastest* N GPUs", so T_id divides work by the sum of
    the top-N speed factors.  For an all-speed-1.0 cluster
    ``fastest(n) == float(n)`` exactly and every derived quantity is
    bit-identical to the homogeneous count model.
    """

    __slots__ = ("_prefix",)

    def __init__(self, speeds: Iterable[float]) -> None:
        ordered = sorted(speeds, reverse=True)
        if not ordered:
            raise ValueError("capacity needs at least one GPU speed")
        if ordered[-1] <= 0:
            raise ValueError("gpu speeds must be > 0")
        prefix = [0.0]
        total = 0.0
        for speed in ordered:
            total += speed
            prefix.append(total)
        self._prefix: tuple[float, ...] = tuple(prefix)

    @classmethod
    def uniform(cls, num_gpus: int) -> "ClusterCapacity":
        """Capacity of ``num_gpus`` speed-1.0 GPUs (the legacy count model)."""
        if num_gpus <= 0:
            raise ValueError(f"cluster_gpus must be > 0, got {num_gpus}")
        return cls([1.0] * num_gpus)

    @property
    def num_gpus(self) -> int:
        """Number of GPUs backing this capacity."""
        return len(self._prefix) - 1

    @property
    def total(self) -> float:
        """Aggregate speed-weighted compute of the whole cluster."""
        return self._prefix[-1]

    def fastest(self, n: int) -> float:
        """Summed speed factors of the ``n`` fastest GPUs (clamped)."""
        return self._prefix[min(max(n, 0), self.num_gpus)]

    def view(self, family: str) -> "ClusterCapacity":
        """The capacity one model family sees: scalar speeds ignore it.

        With :meth:`best_total`, the two calls a per-family
        :class:`~repro.workload.perf.PerfCapacity` also answers, so
        ``App.ideal_running_time`` reads either the same way.
        """
        return self

    def best_total(self, families: Iterable[str]) -> float:
        """Aggregate compute available to any set of families: :attr:`total`."""
        return self.total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterCapacity(gpus={self.num_gpus}, total={self.total:g})"


CapacityLike = Union[int, ClusterCapacity]


def as_capacity(capacity: CapacityLike) -> ClusterCapacity:
    """Coerce a legacy GPU count into a uniform :class:`ClusterCapacity`.

    Capacity objects (scalar or per-family) pass through unchanged.
    """
    if isinstance(capacity, int):
        return ClusterCapacity.uniform(capacity)
    return capacity


class Cluster:
    """An immutable GPU cluster topology with fast lookup tables."""

    def __init__(self, machines: Iterable[Machine], name: str = "custom") -> None:
        self.name = name
        self.machines: tuple[Machine, ...] = tuple(machines)
        if not self.machines:
            raise ValueError("a cluster must contain at least one machine")
        self._machines_by_id = {m.machine_id: m for m in self.machines}
        if len(self._machines_by_id) != len(self.machines):
            raise ValueError("duplicate machine ids in cluster")
        self._gpus: tuple[Gpu, ...] = tuple(gpu for m in self.machines for gpu in m.gpus)
        self._gpus_by_id = {gpu.gpu_id: gpu for gpu in self._gpus}
        if len(self._gpus_by_id) != len(self._gpus):
            raise ValueError("duplicate gpu ids in cluster")
        self._racks: dict[int, list[Machine]] = {}
        for machine in self.machines:
            self._racks.setdefault(machine.rack_id, []).append(machine)
        self._machine_speeds = {m.machine_id: m.speed for m in self.machines}
        self._capacity = ClusterCapacity(gpu.speed for gpu in self._gpus)
        counts: dict[str, int] = {}
        for gpu in self._gpus:
            counts[gpu.gpu_type.name] = counts.get(gpu.gpu_type.name, 0) + 1
        self._gpus_by_type = dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def num_gpus(self) -> int:
        """Total GPUs in the cluster."""
        return len(self._gpus)

    @property
    def num_machines(self) -> int:
        """Total machines in the cluster."""
        return len(self.machines)

    @property
    def num_racks(self) -> int:
        """Total racks in the cluster."""
        return len(self._racks)

    @property
    def gpus(self) -> tuple[Gpu, ...]:
        """All GPUs, ordered by gpu_id construction order."""
        return self._gpus

    # ------------------------------------------------------------------
    # Heterogeneity queries
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> ClusterCapacity:
        """Speed-sorted compute capacity (shared, immutable)."""
        return self._capacity

    @property
    def gpu_types(self) -> tuple[GpuType, ...]:
        """Distinct GPU generations present, fastest first."""
        distinct = {m.gpu_type for m in self.machines}
        return tuple(sorted(distinct, key=lambda t: (-t.speed, t.name)))

    def machine_speeds(self) -> dict[int, float]:
        """machine_id -> speed factor (machines are internally homogeneous).

        Returns a fresh dict: clusters are shared freely between
        scheduler instances under comparison, so callers must not be
        able to mutate shared lookup state.
        """
        return dict(self._machine_speeds)

    def gpus_by_type(self) -> dict[str, int]:
        """GPU counts per generation name, sorted by name."""
        return dict(self._gpus_by_type)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def gpu(self, gpu_id: int) -> Gpu:
        """Look a GPU up by id.  Raises ``KeyError`` for unknown ids."""
        return self._gpus_by_id[gpu_id]

    def machine(self, machine_id: int) -> Machine:
        """Look a machine up by id.  Raises ``KeyError`` for unknown ids."""
        return self._machines_by_id[machine_id]

    def gpus_on_machine(self, machine_id: int) -> tuple[Gpu, ...]:
        """All GPUs installed in one machine."""
        return self._machines_by_id[machine_id].gpus

    def __contains__(self, gpu_id: int) -> bool:
        return gpu_id in self._gpus_by_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster({self.name!r}, gpus={self.num_gpus}, "
            f"machines={self.num_machines}, racks={self.num_racks})"
        )


def build_cluster(spec: ClusterSpec) -> Cluster:
    """Materialise a :class:`Cluster` from a :class:`ClusterSpec`.

    GPU and machine ids are assigned sequentially, machines are dealt
    round-robin over racks, and NVLink slots are numbered within each
    machine, so builds are fully deterministic.
    """
    machines: list[Machine] = []
    gpu_id = 0
    machine_id = 0
    for machine_spec in spec.machine_specs:
        for _ in range(machine_spec.count):
            rack_id = machine_id % spec.num_racks
            gpus = []
            for index in range(machine_spec.gpus_per_machine):
                slot_id = index // NVLINK_GROUP_SIZE
                gpus.append(
                    Gpu(
                        gpu_id=gpu_id,
                        machine_id=machine_id,
                        rack_id=rack_id,
                        slot_id=slot_id,
                        gpu_type=machine_spec.gpu_type,
                    )
                )
                gpu_id += 1
            machines.append(Machine(machine_id=machine_id, rack_id=rack_id, gpus=gpus))
            machine_id += 1
    return Cluster(machines, name=spec.name)


def themis_sim_cluster(scale: float = 1.0, num_racks: int = 8) -> Cluster:
    """The heterogeneous 256-GPU simulation cluster of Section 8.1.

    The composition (40 four-GPU, 32 two-GPU, 32 one-GPU machines, i.e.
    160 + 64 + 32 = 256 GPUs over 8 racks) follows the paper's
    description of "a mixture of 4 GPU, 2 GPU, and 1 GPU machines spread
    across multiple racks".  ``scale`` shrinks or grows every machine
    count proportionally, which the microbenchmarks use for sweeps.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    spec = ClusterSpec(
        machine_specs=(
            MachineSpec(count=max(1, round(40 * scale)), gpus_per_machine=4),
            MachineSpec(count=max(1, round(32 * scale)), gpus_per_machine=2),
            MachineSpec(count=max(1, round(32 * scale)), gpus_per_machine=1),
        ),
        num_racks=num_racks,
        name=f"themis-sim-{scale:g}x",
    )
    return build_cluster(spec)


#: Default generation mixture for the heterogeneous presets: half the
#: fleet current-generation, the rest split between two older ones —
#: the composition the mixed-fleet example sweep uses.
DEFAULT_GPU_MIX: tuple[tuple[str, float], ...] = (
    ("v100", 0.5),
    ("p100", 0.25),
    ("k80", 0.25),
)


def split_by_mix(count: int, mix: Sequence[tuple[str, float]]) -> list[tuple[GpuType, int]]:
    """Split ``count`` machines across GPU generations by mix fractions.

    Largest-remainder apportionment: totals are preserved exactly and
    the split is deterministic in the mix order.  Fractions are
    normalised, so ``(("v100", 2), ("k80", 1))`` style ratios work too.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not mix:
        raise ValueError("gpu mix needs at least one (type, fraction) entry")
    types = [resolve_gpu_type(name) for name, _ in mix]
    weights = [float(fraction) for _, fraction in mix]
    total_weight = ordered_sum(weights)
    if any(w < 0 for w in weights) or total_weight <= 0:
        raise ValueError(f"gpu mix fractions must be >= 0 and sum > 0, got {weights}")
    quotas = [count * w / total_weight for w in weights]
    floors = [int(q) for q in quotas]
    remainder = count - sum(floors)
    by_fraction = sorted(
        range(len(mix)), key=lambda i: (-(quotas[i] - floors[i]), i)
    )
    for i in by_fraction[:remainder]:
        floors[i] += 1
    return [(gpu_type, n) for gpu_type, n in zip(types, floors)]


def mixed_sim_cluster(
    scale: float = 1.0,
    mix: Sequence[tuple[str, float]] = DEFAULT_GPU_MIX,
    num_racks: int = 8,
) -> Cluster:
    """A mixed-generation variant of the 256-GPU simulation cluster.

    Keeps the paper's machine shapes (4/2/1-GPU boxes in the Section
    8.1 proportions) but splits each shape's machine count across GPU
    generations by ``mix`` — e.g. the default 50/25/25 V100/P100/K80
    fleet.  Machines stay internally homogeneous, so the auction's
    per-machine count bids remain well defined.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    shapes = (
        (max(1, round(40 * scale)), 4),
        (max(1, round(32 * scale)), 2),
        (max(1, round(32 * scale)), 1),
    )
    specs: list[MachineSpec] = []
    for count, gpus_per_machine in shapes:
        for gpu_type, split_count in split_by_mix(count, mix):
            if split_count > 0:
                specs.append(
                    MachineSpec(
                        count=split_count,
                        gpus_per_machine=gpus_per_machine,
                        gpu_type=gpu_type,
                    )
                )
    spec = ClusterSpec(
        machine_specs=tuple(specs),
        num_racks=num_racks,
        name=f"themis-sim-hetero-{scale:g}x",
    )
    return build_cluster(spec)


def testbed_cluster(num_racks: int = 4) -> Cluster:
    """The 50-GPU / 20-instance Azure testbed of Section 8.1.

    Eight 4-GPU, six 2-GPU and six 1-GPU instances give 20 machines and
    32 + 12 + 6 = 50 GPUs, matching the paper's NC/NV-series mixture.
    """
    spec = ClusterSpec(
        machine_specs=(
            MachineSpec(count=8, gpus_per_machine=4),
            MachineSpec(count=6, gpus_per_machine=2),
            MachineSpec(count=6, gpus_per_machine=1),
        ),
        num_racks=num_racks,
        name="themis-testbed",
    )
    return build_cluster(spec)
