"""Scenario presets mirroring Section 8.1's two experimental setups.

* :func:`sim_scenario` — the heterogeneous 256-GPU simulated cluster
  replaying the enterprise-trace distributions.  ``duration_scale`` is
  calibrated (0.4) so peak contention lands near the paper's 4.76x
  ("We proportionally scale down these times for purpose of our
  experiments").
* :func:`testbed_scenario` — the 50-GPU / 20-instance testbed with job
  durations scaled down 5x relative to the simulation runs, exactly as
  footnote 3 of Section 8.3 describes.

Both, and :func:`hetero_scenario`, return a :class:`ScenarioConfig`,
a declarative bundle of trace generator + cluster + simulator knobs;
:func:`preset_scenario` picks the preset by cluster kind and applies
the knobs given, for the CLI and the service's ``sim`` jobs alike.
The figure registry (:mod:`repro.experiments.figures`) holds the
paper-scale instance each figure replays; ``run_figure`` accepts any
other scenario in its place, which is how tests shrink a figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.cluster.topology import (
    DEFAULT_GPU_MIX,
    Cluster,
    mixed_sim_cluster,
    testbed_cluster,
    themis_sim_cluster,
)
from repro.simulation.simulator import SimulationConfig
from repro.workload.app import CompletionSemantics
from repro.workload.generator import GeneratorConfig, generate_trace
from repro.workload.trace import Trace


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete runnable scenario: workload + cluster + sim knobs."""

    name: str
    generator: GeneratorConfig
    #: "sim" (256 GPUs), "testbed" (50 GPUs) or "hetero" (the sim
    #: cluster shape with a mixed-generation GPU fleet).
    cluster_kind: str = "sim"
    cluster_scale: float = 1.0
    #: GPU-generation mixture for ``cluster_kind="hetero"``: a tuple of
    #: (type name, fraction) pairs — the heterogeneity-ratio sweep axis.
    #: Empty means :data:`~repro.cluster.topology.DEFAULT_GPU_MIX`.
    gpu_mix: tuple = ()
    lease_minutes: float = 20.0
    restart_overhead_minutes: float = 0.5
    record_timeline: bool = False
    max_minutes: Optional[float] = None
    semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS
    #: Cap on retained contention/timeline samples (None = keep all).
    downsample: Optional[int] = None
    #: Performance-model spec: empty (scalar speeds), a preset name from
    #: :data:`repro.workload.perf.PERF_MATRIX_PRESETS`, or a matrix in
    #: any form :func:`repro.workload.perf.canonical_matrix` accepts.
    perf_matrix: object = ()
    #: Speed-aware job migration (see ``SimulationConfig.migration``).
    migration: bool = False

    def build_cluster(self) -> Cluster:
        """Materialise the scenario's cluster."""
        if self.cluster_kind == "sim":
            return themis_sim_cluster(scale=self.cluster_scale)
        if self.cluster_kind == "testbed":
            return testbed_cluster()
        if self.cluster_kind == "hetero":
            mix = tuple(tuple(pair) for pair in self.gpu_mix) or DEFAULT_GPU_MIX
            return mixed_sim_cluster(scale=self.cluster_scale, mix=mix)
        raise ValueError(f"unknown cluster kind {self.cluster_kind!r}")

    def build_trace(self) -> Trace:
        """Sample the scenario's workload trace (deterministic in the seed)."""
        return generate_trace(self.generator)

    def build_sim_config(self) -> SimulationConfig:
        """Simulator knobs for this scenario."""
        return SimulationConfig(
            lease_minutes=self.lease_minutes,
            restart_overhead_minutes=self.restart_overhead_minutes,
            semantics=self.semantics,
            max_minutes=self.max_minutes,
            record_timeline=self.record_timeline,
            downsample=self.downsample,
            migration=self.migration,
        )

    def build_perf_model(self):
        """The scenario's performance model, or ``None`` when unset.

        ``None`` (no matrix on the scenario) lets the simulator fall
        back to whatever the trace carries — a generator-embedded
        matrix must not be silently overridden by the scalar default.
        """
        from repro.workload.perf import resolve_matrix_spec, resolve_perf_model

        matrix = resolve_matrix_spec(self.perf_matrix)
        if not matrix:
            return None
        return resolve_perf_model(matrix)

    def replace(self, **changes) -> "ScenarioConfig":
        """Functional update returning a new scenario."""
        return replace(self, **changes)

    def with_generator(self, **changes) -> "ScenarioConfig":
        """Functional update of nested generator fields."""
        return self.replace(generator=self.generator.replace(**changes))


def sim_scenario(
    num_apps: int = 40,
    seed: int = 42,
    duration_scale: float = 0.4,
    **kwargs,
) -> ScenarioConfig:
    """The 256-GPU simulation scenario (Figures 4, 9, 10, 11)."""
    return ScenarioConfig(
        name=f"sim256-n{num_apps}-s{seed}",
        generator=GeneratorConfig(
            num_apps=num_apps, seed=seed, duration_scale=duration_scale
        ),
        cluster_kind="sim",
        **kwargs,
    )


def testbed_scenario(
    num_apps: int = 25,
    seed: int = 42,
    duration_scale: float = 0.08,
    jobs_per_app_median: float = 8.0,
    jobs_per_app_max: int = 24,
    **kwargs,
) -> ScenarioConfig:
    """The 50-GPU testbed scenario (Figures 5-8).

    Durations are 1/5 of the simulation scenario's (0.4 / 5 = 0.08),
    mirroring the paper's testbed scaling footnote while keeping the
    arrival process unchanged.  Exploration widths are narrowed
    (median 8 jobs/app instead of the trace's 23) so the 50-GPU
    cluster sees the peak contention the paper reports (~4.76x);
    replaying full-width apps would put demand at >20x a 50-GPU
    cluster and make every scheduler look identically saturated.
    """
    return ScenarioConfig(
        name=f"testbed50-n{num_apps}-s{seed}",
        generator=GeneratorConfig(
            num_apps=num_apps,
            seed=seed,
            duration_scale=duration_scale,
            jobs_per_app_median=jobs_per_app_median,
            jobs_per_app_max=jobs_per_app_max,
        ),
        cluster_kind="testbed",
        **kwargs,
    )


def hetero_scenario(
    num_apps: int = 40,
    seed: int = 42,
    duration_scale: float = 0.4,
    gpu_mix: tuple = DEFAULT_GPU_MIX,
    **kwargs,
) -> ScenarioConfig:
    """A mixed-generation variant of the 256-GPU simulation scenario.

    Same workload distributions as :func:`sim_scenario`, replayed on
    the paper-shaped cluster whose machine fleet is split across GPU
    generations by ``gpu_mix`` (default 50/25/25 V100/P100/K80).  The
    mix is the heterogeneity-ratio sweep axis; pass it through
    ``scenario_axes={"gpu_mix": [...]}`` to sweep fleet compositions.
    """
    mix = tuple(tuple(pair) for pair in gpu_mix)
    mix_tag = "-".join(f"{name}{fraction:g}" for name, fraction in mix)
    return ScenarioConfig(
        name=f"hetero256-n{num_apps}-s{seed}-{mix_tag}",
        generator=GeneratorConfig(
            num_apps=num_apps, seed=seed, duration_scale=duration_scale
        ),
        cluster_kind="hetero",
        gpu_mix=mix,
        **kwargs,
    )


#: Cluster kind -> its preset; :func:`preset_scenario` is the one dispatch.
PRESETS = {"sim": sim_scenario, "testbed": testbed_scenario, "hetero": hetero_scenario}


def preset_scenario(
    cluster: Optional[str] = None, base: Optional[ScenarioConfig] = None, **knobs
) -> ScenarioConfig:
    """The ``cluster`` kind's preset with the ``knobs`` given (not ``None``):
    the presets' keywords and :class:`ScenarioConfig` fields.

    A knob not given takes the preset's own default or, over a ``base``
    scenario, the base's value; the base's duration scale and GPU mix
    carry over only while the cluster kind stays (``cluster=None``
    keeps the base's).  ``gpu_mix`` reaches the hetero preset only.
    An unknown kind raises :class:`ValueError` naming the known ones.
    """
    kind = base.cluster_kind if cluster is None else cluster
    if kind not in PRESETS:
        raise ValueError(f"unknown cluster kind {kind!r}; known: {sorted(PRESETS)}")
    applied = {}
    if base is not None:
        applied = dict(num_apps=base.generator.num_apps, seed=base.generator.seed,
                       lease_minutes=base.lease_minutes, perf_matrix=base.perf_matrix,
                       migration=base.migration)
        if kind == base.cluster_kind:
            applied.update(duration_scale=base.generator.duration_scale, gpu_mix=base.gpu_mix)
    applied.update((name, value) for name, value in knobs.items() if value is not None)
    if kind != "hetero":
        applied.pop("gpu_mix", None)
    return PRESETS[kind](**applied)


def tiny_scenario(num_apps: int = 4, seed: int = 0) -> ScenarioConfig:
    """A seconds-fast scenario for unit and integration tests."""
    return ScenarioConfig(
        name=f"tiny-n{num_apps}-s{seed}",
        generator=GeneratorConfig(
            num_apps=num_apps,
            seed=seed,
            duration_scale=0.1,
            jobs_per_app_median=4.0,
            jobs_per_app_max=8,
        ),
        cluster_kind="testbed",
        lease_minutes=10.0,
    )
