"""Property-based tests for the intra-app GPU distributor."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.cluster.topology import ClusterSpec, MachineSpec, build_cluster
from repro.workload.app import App
from repro.workload.job import Job, JobSpec

from helpers import split

CLUSTER = build_cluster(
    ClusterSpec(
        machine_specs=(
            MachineSpec(count=2, gpus_per_machine=4),
            MachineSpec(count=2, gpus_per_machine=2),
        ),
        num_racks=2,
        name="dist-prop",
    )
)

job_shapes = st.lists(
    st.tuples(
        st.sampled_from(["vgg16", "resnet50", "alexnet"]),
        st.integers(min_value=1, max_value=4),  # max parallelism
        st.floats(min_value=1.0, max_value=200.0),  # serial work
    ),
    min_size=1,
    max_size=5,
)

granted_ids = st.sets(
    st.integers(min_value=0, max_value=CLUSTER.num_gpus - 1), max_size=12
)


def build_app(shapes):
    jobs = [
        Job(
            spec=JobSpec(
                job_id=f"d{i}",
                model=model,
                serial_work=work,
                max_parallelism=cap,
            )
        )
        for i, (model, cap, work) in enumerate(shapes)
    ]
    return App("dist", 0.0, jobs)


@given(job_shapes, granted_ids)
@settings(max_examples=80, deadline=None)
def test_distribute_invariants(shapes, ids):
    app = build_app(shapes)
    granted = Allocation(CLUSTER.gpu(i) for i in ids)
    result = split(app, granted)

    # 1. Every active job appears in the mapping.
    assert set(result) == {job.job_id for job in app.active_jobs()}

    seen: set[int] = set()
    for job in app.active_jobs():
        alloc = result[job.job_id]
        # 2. Assignments come from the grant only.
        assert alloc.gpu_ids <= granted.gpu_ids
        # 3. No GPU is assigned to two jobs.
        assert not (alloc.gpu_ids & seen)
        seen |= alloc.gpu_ids
        # 4. Parallelism caps hold.
        assert alloc.size <= job.max_parallelism


@given(job_shapes, granted_ids)
@settings(max_examples=80, deadline=None)
def test_distribute_never_hurts_a_job(shapes, ids):
    """The rate-aware distributor never slows a job below its current
    allocation's rate restricted to still-granted GPUs."""
    from repro.cluster.placement import slowdown

    app = build_app(shapes)
    granted = Allocation(CLUSTER.gpu(i) for i in ids)
    result = split(app, granted)
    for job in app.active_jobs():
        alloc = result[job.job_id]
        if not alloc:
            continue
        useful = min(alloc.size, job.max_parallelism)
        rate = useful * slowdown(job.model_profile.sensitivity, alloc.gpus)
        # A job that received GPUs runs strictly faster than idle.
        assert rate > 0


@given(job_shapes, granted_ids)
@settings(max_examples=50, deadline=None)
def test_distribute_idempotent_on_stable_grant(shapes, ids):
    """Re-distributing the same grant after applying it changes nothing."""
    app = build_app(shapes)
    granted = Allocation(CLUSTER.gpu(i) for i in ids)
    first = split(app, granted)
    for job in app.active_jobs():
        job.set_allocation(0.0, first[job.job_id])
    changes, declined = app.distribute(granted)
    assert changes == {}
    assert declined == list(granted - app.allocation())
