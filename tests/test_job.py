"""Unit tests for job progress accounting."""

import math

import pytest

from repro.cluster.allocation import Allocation
from repro.workload.job import JobSpec, JobState

from helpers import make_job


def test_new_job_state(simple_app):
    job = make_job()
    assert job.state == JobState.PENDING
    assert job.remaining_work == 100.0
    assert job.rate() == 0.0
    assert math.isinf(job.eta(0.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(job_id="x", model="resnet50", serial_work=0, max_parallelism=4)
    with pytest.raises(ValueError):
        JobSpec(job_id="x", model="resnet50", serial_work=10, max_parallelism=0)
    with pytest.raises(ValueError):
        JobSpec(
            job_id="x", model="resnet50", serial_work=10, max_parallelism=2,
            total_iterations=0,
        )


def test_progress_with_colocated_gpus(one_machine_cluster):
    job = make_job(serial_work=100.0)
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:2]))
    assert job.state == JobState.RUNNING
    assert job.started_at == 0.0
    # Same NVLink slot: rate = 2 * 1.0.
    job.advance_to(10.0)
    assert job.remaining_work == pytest.approx(80.0)
    assert job.gpu_time == pytest.approx(20.0)


def test_rate_capped_at_max_parallelism(one_machine_cluster):
    job = make_job(max_parallelism=2)
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus))  # 4 GPUs
    assert job.rate() <= 2.0 * 1.0
    # But GPU time bills everything held.
    job.advance_to(5.0)
    assert job.gpu_time == pytest.approx(20.0)


def test_placement_slows_rate(small_cluster):
    job = make_job(model="vgg16")
    cross_rack = Allocation([small_cluster.gpu(0), small_cluster.gpu(4)])
    job.set_allocation(0.0, cross_rack)
    profile = job.model_profile
    assert job.rate() == pytest.approx(2 * profile.sensitivity.cluster)


def test_overhead_delays_progress(one_machine_cluster):
    job = make_job(serial_work=100.0)
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:2]), overhead=5.0)
    job.advance_to(5.0)
    assert job.remaining_work == pytest.approx(100.0)  # still checkpointing
    assert job.gpu_time == pytest.approx(10.0)  # but GPUs are billed
    job.advance_to(10.0)
    assert job.remaining_work == pytest.approx(90.0)


def test_eta_includes_overhead(one_machine_cluster):
    job = make_job(serial_work=100.0)
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:2]), overhead=3.0)
    assert job.eta(0.0) == pytest.approx(3.0 + 50.0)


def test_no_overhead_when_allocation_unchanged(one_machine_cluster):
    job = make_job()
    alloc = Allocation(one_machine_cluster.gpus[:2])
    job.set_allocation(0.0, alloc, overhead=5.0)
    job.advance_to(5.0)
    job.set_allocation(5.0, alloc, overhead=5.0)  # same set: no new penalty
    assert job.overhead_remaining == 0.0


def test_set_allocation_requires_advance(one_machine_cluster):
    job = make_job()
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:1]))
    with pytest.raises(ValueError):
        job.set_allocation(4.0, Allocation(one_machine_cluster.gpus[:2]))


def test_time_backwards_raises():
    job = make_job()
    job.advance_to(10.0)
    with pytest.raises(ValueError):
        job.advance_to(5.0)


def test_finish_lifecycle(one_machine_cluster):
    job = make_job(serial_work=10.0)
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:1]))
    job.advance_to(10.0)
    assert job.remaining_work == pytest.approx(0.0)
    job.finish(10.0)
    assert job.state == JobState.FINISHED
    assert job.finished_at == 10.0
    assert job.allocation.size == 0
    assert not job.is_active


def test_finish_with_remaining_work_raises():
    job = make_job()
    with pytest.raises(ValueError):
        job.finish(0.0)


def test_kill_lifecycle(one_machine_cluster):
    job = make_job()
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:1]))
    job.kill(3.0)
    assert job.state == JobState.KILLED
    assert not job.is_active
    with pytest.raises(ValueError):
        job.kill(4.0)


def test_iterations_and_loss_track_work(one_machine_cluster):
    job = make_job(serial_work=100.0)
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:1]))
    loss_start = job.current_loss()
    job.advance_to(50.0)
    assert job.fraction_done == pytest.approx(0.5)
    assert job.iterations_done == pytest.approx(500.0)
    assert job.current_loss() < loss_start


def test_loss_without_curve_raises():
    job = make_job(with_curve=False)
    with pytest.raises(ValueError):
        job.current_loss()


def test_parallelism_limit_clamps(one_machine_cluster):
    job = make_job(max_parallelism=4)
    job.parallelism_limit = 2
    assert job.max_parallelism == 2
    job.parallelism_limit = 99
    assert job.max_parallelism == 4
    job.parallelism_limit = None
    assert job.max_parallelism == 4


def test_mean_placement_score_time_weighted(small_cluster):
    job = make_job()
    slot_pair = Allocation([small_cluster.gpu(0), small_cluster.gpu(1)])
    cross = Allocation([small_cluster.gpu(0), small_cluster.gpu(4)])
    job.set_allocation(0.0, slot_pair)
    job.advance_to(10.0)  # 10 min at score 1.0
    job.set_allocation(10.0, cross)
    job.advance_to(20.0)  # 10 min at score 0.25
    assert job.mean_placement_score() == pytest.approx((10 * 1.0 + 10 * 0.25) / 20)


def test_attained_service_equals_gpu_time(one_machine_cluster):
    job = make_job()
    job.set_allocation(0.0, Allocation(one_machine_cluster.gpus[:3]))
    job.advance_to(7.0)
    assert job.attained_service == pytest.approx(job.gpu_time) == pytest.approx(21.0)
