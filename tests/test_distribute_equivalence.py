"""``App.distribute`` splits a grant exactly as the full-rescan reference does.

The production distributor keeps a running fill state per job with
headroom (effective sum, rate, spanned racks / machines / slots), builds
a GPU-less job's only when it is probed, and reports just the jobs that
change plus the declined GPUs; ``helpers.rescan_distribute`` re-rates
every job from scratch for every pool GPU and returns every job's
split.  The inputs exercise every term of the probe: two racks and more, 4-GPU machines of two NVLink pairs, mixed generations, the
``rate-inversion`` throughput matrix, GPU-type affinities, jobs pushed
over their runtime cap by ``parallelism_limit``, inactive jobs, and
grants that drop some held GPUs while adding others.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import rescan_distribute
from repro.cluster.allocation import Allocation
from repro.cluster.topology import (
    GPU_TYPES,
    ClusterSpec,
    GpuType,
    MachineSpec,
    build_cluster,
)
from repro.workload.app import App
from repro.workload.job import Job, JobSpec
from repro.workload.perf import DEFAULT_PERF_MODEL, PERF_MATRIX_PRESETS, ThroughputMatrixModel

CLUSTER = build_cluster(
    ClusterSpec(
        machine_specs=(
            MachineSpec(count=3, gpus_per_machine=4, gpu_type=GPU_TYPES["v100"]),
            MachineSpec(count=2, gpus_per_machine=4, gpu_type=GPU_TYPES["p100"]),
            MachineSpec(count=2, gpus_per_machine=2, gpu_type=GPU_TYPES["k80"]),
            MachineSpec(count=1, gpus_per_machine=1, gpu_type=GPU_TYPES["v100"]),
            # Slow enough that a placement-insensitive job declines it.
            MachineSpec(count=2, gpus_per_machine=2, gpu_type=GpuType("slow", 0.05)),
        ),
        num_racks=3,
        name="dist-equiv",
    )
)

PERF_MODELS = (
    None,
    DEFAULT_PERF_MODEL,
    ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"]),
)

#: Placement-sensitive and -insensitive models across five families.
MODELS = ("vgg16", "resnet50", "alexnet", "inceptionv3", "dcgan", "transformer")


@st.composite
def scenarios(draw):
    """An app with held allocations and a grant that reshuffles them."""
    perf_model = draw(st.sampled_from(PERF_MODELS))
    free = list(draw(st.permutations(range(CLUSTER.num_gpus))))
    jobs, held, limits, kills = [], [], [], []
    for index in range(draw(st.integers(min_value=1, max_value=5))):
        cap = draw(st.integers(min_value=1, max_value=5))
        spec = JobSpec(
            job_id=f"j{draw(st.integers(min_value=0, max_value=9))}{index}",
            model=draw(st.sampled_from(MODELS)),
            serial_work=100.0,
            max_parallelism=cap,
            gpu_type=draw(st.sampled_from([None, "v100", "p100", "k80"])),
        )
        jobs.append(Job(spec=spec, perf_model=perf_model))
        count = draw(st.integers(min_value=0, max_value=min(cap, len(free))))
        held.append([free.pop() for _ in range(count)])
        limits.append(draw(st.none() | st.integers(min_value=1, max_value=cap)))
        kills.append(draw(st.integers(min_value=0, max_value=7)) == 0)
    app = App("eq", 0.0, jobs)
    for job, ids, limit, kill in zip(jobs, held, limits, kills):
        job.set_allocation(0.0, Allocation(CLUSTER.gpu(i) for i in ids))
        job.parallelism_limit = limit
        if kill:
            job.kill(0.0)
    app.invalidate()
    kept = [i for ids in held for i in ids if draw(st.integers(0, 3))]
    added = free[: draw(st.integers(min_value=0, max_value=len(free)))]
    granted = Allocation(CLUSTER.gpu(i) for i in kept + added)
    return app, granted


def _seed_app(perf_model, shapes, granted_ids):
    """A hand-written scenario: (model, cap, limit, affinity, held ids) per job."""
    jobs = [
        Job(
            spec=JobSpec(
                job_id=f"j{i}", model=model, serial_work=100.0,
                max_parallelism=cap, gpu_type=affinity,
            ),
            perf_model=perf_model,
        )
        for i, (model, cap, _limit, affinity, _held) in enumerate(shapes)
    ]
    app = App("eq", 0.0, jobs)
    for job, (_m, _c, limit, _a, held) in zip(jobs, shapes):
        job.set_allocation(0.0, Allocation(CLUSTER.gpu(i) for i in held))
        job.parallelism_limit = limit
    app.invalidate()
    return app, Allocation(CLUSTER.gpu(i) for i in granted_ids)


@settings(max_examples=400, deadline=None)
@given(scenarios())
# The vgg16 pair on machine 0's first NVLink slot takes the machine's
# other slot, then declines every GPU off the machine; the resnet job,
# over its runtime cap of 2, sheds GPU 14 to the empty dcgan job; the
# alexnet job, kept whole at its cap, gets its own Allocation back; the
# rest of the grant is declined.
@example(
    _seed_app(
        None,
        [
            ("vgg16", 5, None, None, [0, 1]),
            ("resnet50", 4, 2, "p100", [12, 13, 14]),
            ("dcgan", 1, None, None, []),
            ("alexnet", 2, None, None, [8, 9]),
        ],
        [0, 1, 2, 3, 4, 8, 9, 12, 13, 14, 15, 16, 20, 24],
    )
)
# A vgg16 job already spanning two racks takes a new machine in a held
# rack (still cross-rack, so its rate keeps rising) and then a third rack.
@example(_seed_app(None, [("vgg16", 5, None, None, [0, 4])], [0, 4, 8, 12, 13]))
# A resnet50 job fills machine 0's first NVLink slot, then declines the
# rack-local slow GPU: 2.05 x S(rack) is below 2.0 x S(slot) = 2.0.
@example(_seed_app(None, [("resnet50", 4, None, None, [])], [0, 1, 27]))
# Two GPU-less jobs: the lower id prefers k80s, so on a v100 the scan
# must pass its mismatched claim and reach j1's matching one.
@example(
    _seed_app(
        None,
        [("resnet50", 2, None, "k80", []), ("resnet50", 2, None, None, [])],
        [0, 1],
    )
)
def test_distribute_matches_rescan(scenario):
    app, granted = scenario
    expected = rescan_distribute(app, granted)
    changes, declined = app.distribute(granted)
    # The delta names exactly the jobs whose allocation moves, in
    # submission order; every other job keeps its own object.
    assert changes == {
        job_id: target
        for job_id, target in expected.items()
        if target != app.job(job_id).allocation
    }
    assert list(changes) == [job_id for job_id in expected if job_id in changes]
    used = {gpu_id for target in expected.values() for gpu_id in target.gpu_ids}
    assert declined == [gpu for gpu in granted if gpu.gpu_id not in used]
