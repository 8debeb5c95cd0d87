"""Unit tests for the HyperDrive app scheduler."""

import pytest

from repro.cluster.allocation import Allocation
from repro.hyperparam.base import JobClass
from repro.hyperparam.hyperdrive import HyperDrive
from repro.hyperparam.curves import LossCurve
from repro.workload.app import App, CompletionSemantics
from repro.workload.job import Job, JobSpec


def build_app(curves):
    """A FIRST_WINNER app of one resnet50 job per loss curve; a bare
    float is the ``alpha`` of a curve from 5.0 down to a floor of 0."""
    jobs = [
        Job(
            spec=JobSpec(
                job_id=f"j{i}",
                model="resnet50",
                serial_work=100.0,
                max_parallelism=4,
                total_iterations=1000,
                loss_curve=curve
                if isinstance(curve, LossCurve)
                else LossCurve(initial=5.0, floor=0.0, alpha=curve),
            )
        )
        for i, curve in enumerate(curves)
    ]
    return App("hd", 0.0, jobs, semantics=CompletionSemantics.FIRST_WINNER)


def drive(app, cluster, tuner, checkpoints):
    """Advance all jobs through several observation points, applying kills."""
    for iterations in checkpoints:
        for job in app.active_jobs():
            minutes = (iterations / 1000) * 100.0 - (
                job.fraction_done * 100.0
            )
            job.set_allocation(job.last_update, Allocation(cluster.gpus[:1]))
            job.advance_to(job.last_update + minutes)
            job.set_allocation(job.last_update, Allocation())
        for victim in tuner.step(0.0):
            victim.kill(victim.last_update)


def test_validation():
    app = build_app([0.5])
    with pytest.raises(ValueError):
        HyperDrive(app, good_factor=1.0)
    with pytest.raises(ValueError):
        HyperDrive(app, good_factor=2.0, poor_factor=1.5)


def test_no_decision_before_warmup(one_machine_cluster):
    app = build_app([0.3, 1.2])
    tuner = HyperDrive(app, target_loss=0.5, warmup_iterations=500.0)
    drive(app, one_machine_cluster, tuner, [100])
    assert all(job.is_active for job in app.jobs)


def test_poor_jobs_killed_good_jobs_full_priority(one_machine_cluster):
    # alpha 0.25 converges far slower than 1.2 -> projected iterations
    # explode past poor_factor * best.
    app = build_app([0.25, 1.1, 1.2])
    tuner = HyperDrive(app, target_loss=0.4, warmup_iterations=50.0, poor_factor=3.0)
    drive(app, one_machine_cluster, tuner, [60, 120, 200])
    victims = [job for job in app.jobs if not job.is_active]
    assert [v.job_id for v in victims] == ["j0"]
    assert tuner.classes["j0"] == JobClass.POOR
    assert tuner.classes["j2"] in (JobClass.GOOD, JobClass.PROMISING)


def test_promising_jobs_get_reduced_parallelism(one_machine_cluster):
    app = build_app([0.55, 1.2])
    tuner = HyperDrive(
        app, target_loss=0.4, warmup_iterations=50.0, good_factor=1.2, poor_factor=50.0
    )
    drive(app, one_machine_cluster, tuner, [60, 120, 200])
    slow = app.jobs[0]
    if tuner.classes["j0"] == JobClass.PROMISING:
        assert slow.max_parallelism == 2  # halved from 4
    fast = app.jobs[1]
    assert fast.max_parallelism == 4


def test_no_kills_when_all_projections_unbounded(one_machine_cluster):
    # Loss floor above the target: every projection is inf -> no finite
    # best to compare against -> HyperDrive cannot classify, kills nobody.
    app = build_app([LossCurve(initial=5.0, floor=1.0, alpha=alpha) for alpha in (0.3, 0.32)])
    tuner = HyperDrive(app, target_loss=0.5, warmup_iterations=50.0)
    drive(app, one_machine_cluster, tuner, [60, 120])
    assert len(app.active_jobs()) == 2


def test_at_least_one_job_survives_classification(one_machine_cluster):
    # One reachable job among unreachable ones: the unreachable jobs are
    # poor (killed), the finite-projection job always survives.
    app = build_app([
        LossCurve(initial=5.0, floor=1.0, alpha=0.5),  # floor above target
        1.0,  # reaches target
    ])
    tuner = HyperDrive(app, target_loss=0.5, warmup_iterations=50.0)
    drive(app, one_machine_cluster, tuner, [60, 120, 200])
    alive = app.active_jobs()
    assert len(alive) >= 1
    assert any(job.job_id == "j1" for job in alive)
