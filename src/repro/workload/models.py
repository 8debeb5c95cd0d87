"""Model zoo with placement-sensitivity profiles.

Figure 2 of the paper measures throughput for five architectures under
two placements of 4 P100 GPUs: all four on one server versus a 2x2
split across two servers.  VGG-family models lose roughly half their
throughput when split (strict machine-locality preference) while the
ResNet family is essentially placement-insensitive.  The zoo below
encodes profiles with that shape: a single-GPU throughput plus a
:class:`~repro.cluster.placement.SensitivityProfile` giving the slowdown
at each locality level.

Absolute numbers are calibrated to the magnitudes visible in Figure 2
(hundreds of images/second for 4 GPUs); what the reproduction relies on
is the *relative* shape — which models collapse when spread out — since
that is what drives every placement-related result in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional

from repro.cluster.placement import SensitivityProfile, slowdown
from repro.cluster.topology import Gpu, ordered_sum


@dataclass(frozen=True)
class ModelProfile:
    """Static description of one trainable model architecture.

    ``single_gpu_throughput`` is in images (or samples) per second on one
    GPU.  ``network_intensive`` tags models whose gradient exchange
    dominates (large dense layers), i.e. the paper's "placement
    sensitive" class; the microbenchmark of Figure 9 sweeps the fraction
    of such models in the workload.
    """

    name: str
    family: str
    params_million: float
    single_gpu_throughput: float
    sensitivity: SensitivityProfile
    network_intensive: bool

    def __post_init__(self) -> None:
        if self.params_million <= 0:
            raise ValueError(f"params_million must be > 0, got {self.params_million}")
        if self.single_gpu_throughput <= 0:
            raise ValueError(
                f"single_gpu_throughput must be > 0, got {self.single_gpu_throughput}"
            )


def _profile(
    name: str,
    family: str,
    params_million: float,
    single_gpu_throughput: float,
    machine: float,
    rack: float,
    cluster: float,
    network_intensive: bool,
) -> ModelProfile:
    return ModelProfile(
        name=name,
        family=family,
        params_million=params_million,
        single_gpu_throughput=single_gpu_throughput,
        sensitivity=SensitivityProfile(machine=machine, rack=rack, cluster=cluster),
        network_intensive=network_intensive,
    )


#: All models known to the workload generator.  The sensitive half
#: (VGG/AlexNet/language models — large parameter or activation traffic)
#: degrades sharply past machine locality; the insensitive half
#: (ResNet/Inception family — compute bound) barely notices spread.
MODEL_ZOO: dict[str, ModelProfile] = {
    profile.name: profile
    for profile in (
        # --- placement sensitive (network intensive) -------------------
        _profile("vgg16", "vgg", 138.0, 62.0, machine=0.90, rack=0.45, cluster=0.25, network_intensive=True),
        _profile("vgg19", "vgg", 144.0, 52.0, machine=0.90, rack=0.44, cluster=0.24, network_intensive=True),
        _profile("alexnet", "alexnet", 61.0, 130.0, machine=0.85, rack=0.55, cluster=0.35, network_intensive=True),
        _profile("lstm-lm", "rnn", 66.0, 45.0, machine=0.88, rack=0.50, cluster=0.30, network_intensive=True),
        _profile("gnmt", "rnn", 160.0, 28.0, machine=0.86, rack=0.48, cluster=0.28, network_intensive=True),
        _profile("transformer", "attention", 65.0, 35.0, machine=0.92, rack=0.55, cluster=0.35, network_intensive=True),
        _profile("bert-base", "attention", 110.0, 30.0, machine=0.90, rack=0.52, cluster=0.32, network_intensive=True),
        # --- placement insensitive (compute bound) ---------------------
        _profile("resnet50", "resnet", 25.6, 97.0, machine=0.98, rack=0.96, cluster=0.92, network_intensive=False),
        _profile("resnet101", "resnet", 44.5, 60.0, machine=0.98, rack=0.95, cluster=0.91, network_intensive=False),
        _profile("resnet152", "resnet", 60.2, 42.0, machine=0.97, rack=0.95, cluster=0.90, network_intensive=False),
        _profile("inceptionv3", "inception", 23.8, 80.0, machine=0.97, rack=0.93, cluster=0.88, network_intensive=False),
        _profile("inceptionv4", "inception", 42.7, 55.0, machine=0.97, rack=0.92, cluster=0.87, network_intensive=False),
        _profile("googlenet", "inception", 6.6, 110.0, machine=0.97, rack=0.94, cluster=0.90, network_intensive=False),
        _profile("dcgan", "gan", 3.5, 220.0, machine=0.98, rack=0.96, cluster=0.93, network_intensive=False),
    )
}


def get_model(name: str) -> ModelProfile:
    """Look a model profile up by name (case-insensitive).

    Raises ``KeyError`` listing available names for unknown models, so
    trace files with typos fail loudly.
    """
    key = name.lower()
    if key not in MODEL_ZOO:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}")
    return MODEL_ZOO[key]


def list_models() -> tuple[str, ...]:
    """All model names in the zoo, sorted."""
    return tuple(sorted(MODEL_ZOO))


def models_by_family(network_intensive: bool) -> tuple[ModelProfile, ...]:
    """Profiles filtered by the network-intensive flag, in stable order."""
    return tuple(
        MODEL_ZOO[name]
        for name in sorted(MODEL_ZOO)
        if MODEL_ZOO[name].network_intensive == network_intensive
    )


#: Distinct model families of the zoo, sorted — the row keys a
#: per-family throughput matrix (:mod:`repro.workload.perf`) may use.
MODEL_FAMILIES: tuple[str, ...] = tuple(
    sorted({profile.family for profile in MODEL_ZOO.values()})
)


def family_of(model_name: str) -> str:
    """The architecture family of a model (the throughput-matrix row key)."""
    return get_model(model_name).family


#: ``gpu.speed`` as a lookup: every family's per-GPU weight under a scalar model.
gpu_speed: Callable[[Gpu], float] = attrgetter("gpu_type.speed")


def effective_gpus(gpus: Iterable[Gpu], cap: Optional[int] = None, speed_of=gpu_speed) -> float:
    """Speed-weighted GPU count of an allocation, optionally capped.

    With a ``cap`` (a job's max parallelism) only the fastest ``cap``
    GPUs count — a rational gang drops its slowest stragglers first.
    On an all-speed-1.0 cluster this is exactly ``min(len(gpus), cap)``.
    ``speed_of`` weighs each GPU (see :meth:`~repro.workload.job.Job.speed_of`).
    """
    speeds = list(map(speed_of, gpus))
    if cap is not None and len(speeds) > cap:
        speeds.sort(reverse=True)
        speeds = speeds[: max(cap, 0)]
    return ordered_sum(speeds)


def throughput(profile: ModelProfile, gpus: Iterable[Gpu]) -> float:
    """Aggregate training throughput of ``profile`` on a GPU allocation.

    Implements the paper's scaling model (Section 5.2), generalised to
    mixed GPU generations: throughput is ``single_gpu * E * S(placement)``
    where ``E`` is the speed-weighted GPU count and ``S`` the slowdown at
    the worst locality boundary spanned.  On a homogeneous cluster
    ``E = G`` and this reproduces Figure 2 exactly: e.g. vgg16 on 4
    co-located GPUs runs at ~0.90 scaling but collapses to ~0.45 when
    split 2x2 across two machines.
    """
    gpus = list(gpus)
    if not gpus:
        return 0.0
    return (
        profile.single_gpu_throughput
        * effective_gpus(gpus)
        * slowdown(profile.sensitivity, gpus)
    )
