"""Unit tests for App aggregation, distribution and completion."""

import pytest

from repro.cluster.allocation import Allocation
from repro.workload.app import App, AppState, CompletionSemantics
from repro.workload.job import JobState

from helpers import make_app, make_job, split


def test_app_requires_jobs():
    with pytest.raises(ValueError):
        App(app_id="x", arrival_time=0.0, jobs=[])


def test_duplicate_job_ids_rejected():
    jobs = [make_job("same"), make_job("same")]
    with pytest.raises(ValueError):
        App(app_id="x", arrival_time=0.0, jobs=jobs)


def test_demand_sums_active_job_caps():
    app = make_app(num_jobs=3, max_parallelism=4)
    assert app.demand() == 12
    app.jobs[0].kill(0.0)
    assert app.demand() == 8


def test_unmet_demand_subtracts_holdings(one_machine_cluster):
    app = make_app(num_jobs=2, max_parallelism=2)
    app.jobs[0].set_allocation(0.0, Allocation(one_machine_cluster.gpus[:2]))
    assert app.unmet_demand() == 2


def test_allocation_union(small_cluster):
    app = make_app(num_jobs=2)
    app.jobs[0].set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    app.jobs[1].set_allocation(0.0, Allocation(small_cluster.gpus[4:6]))
    assert app.allocation().size == 4


def test_total_and_remaining_work(one_machine_cluster):
    app = make_app(num_jobs=2, serial_work=100.0)
    assert app.total_work() == 200.0
    app.jobs[0].set_allocation(0.0, Allocation(one_machine_cluster.gpus[:1]))
    app.jobs[0].advance_to(30.0)
    app.jobs[1].advance_to(30.0)
    assert app.remaining_work() == pytest.approx(170.0)


def test_completion_all_jobs():
    app = make_app(num_jobs=2, semantics=CompletionSemantics.ALL_JOBS)
    assert not app.is_complete()
    app.jobs[0].remaining_work = 0.0
    app.jobs[0].finish(5.0)
    assert not app.is_complete()
    app.jobs[1].kill(6.0)
    assert app.is_complete()


def test_completion_first_winner():
    app = make_app(num_jobs=3, semantics=CompletionSemantics.FIRST_WINNER)
    app.jobs[1].remaining_work = 0.0
    app.jobs[1].finish(5.0)
    assert app.is_complete()


def test_ideal_time_all_jobs_capacity_bound():
    # 4 jobs x 100 work, cap 4 each, tiny 2-GPU cluster: capacity bound
    # (400/2 = 200) exceeds per-job bound (100/2 = 50).
    app = make_app(num_jobs=4, serial_work=100.0, max_parallelism=4)
    assert app.ideal_running_time(2) == pytest.approx(200.0)


def test_ideal_time_all_jobs_job_bound():
    # 1 job on a big cluster: limited by its own parallelism.
    app = make_app(num_jobs=1, serial_work=100.0, max_parallelism=4)
    assert app.ideal_running_time(256) == pytest.approx(25.0)


def test_ideal_time_first_winner_takes_min():
    jobs = [make_job("a", serial_work=100.0), make_job("b", serial_work=40.0)]
    app = App("x", 0.0, jobs, semantics=CompletionSemantics.FIRST_WINNER)
    assert app.ideal_running_time(256) == pytest.approx(10.0)


def test_finish_time_fairness_for_finished_app():
    app = make_app(num_jobs=1, arrival=10.0, serial_work=100.0, max_parallelism=4)
    app.state = AppState.FINISHED
    app.finished_at = 60.0
    # t_id = 25, shared = 50 -> rho = 2.
    assert app.finish_time_fairness(999.0, 256) == pytest.approx(2.0)


def test_distribute_caps_at_max_parallelism(small_cluster):
    app = make_app(num_jobs=1, max_parallelism=2)
    result = split(app, Allocation(small_cluster.gpus[:4]))
    assert result[app.jobs[0].job_id].size == 2


def test_distribute_is_stable(small_cluster):
    app = make_app(num_jobs=2, max_parallelism=2)
    first = Allocation(small_cluster.gpus[:2])
    app.jobs[0].set_allocation(0.0, first)
    # Re-grant the same GPUs plus two more: job 0 keeps its pair.
    result = split(app, Allocation(small_cluster.gpus[:4]))
    assert result[app.jobs[0].job_id] == first


def test_distribute_prefers_colocation(small_cluster):
    app = make_app(num_jobs=2, max_parallelism=4)
    # Machine 0 has 4 GPUs, machine 2 has 4: each job should get one
    # whole machine rather than a 2+2 split.
    granted = Allocation(
        list(small_cluster.gpus_on_machine(0)) + list(small_cluster.gpus_on_machine(1))
    )
    result = split(app, granted)
    for alloc in result.values():
        assert len(alloc.machine_ids) == 1


def test_distribute_drops_excess(small_cluster):
    app = make_app(num_jobs=1, max_parallelism=2)
    granted = Allocation(small_cluster.gpus[:4])
    result = split(app, granted)
    used = sum(alloc.size for alloc in result.values())
    assert used == 2


def test_distribute_skips_inactive_jobs(small_cluster):
    app = make_app(num_jobs=2, max_parallelism=2)
    app.jobs[0].kill(0.0)
    result = split(app, Allocation(small_cluster.gpus[:2]))
    assert app.jobs[0].job_id not in result
    assert result[app.jobs[1].job_id].size == 2


def test_mean_placement_score_requires_history():
    app = make_app()
    assert app.mean_placement_score() == 0.0


def test_elapsed_clamped_at_zero():
    app = make_app(arrival=50.0)
    assert app.elapsed(10.0) == 0.0
    assert app.elapsed(60.0) == 10.0


def test_ideal_time_invalid_cluster():
    app = make_app()
    with pytest.raises(ValueError):
        app.ideal_running_time(0)


def test_ideal_running_time_follows_a_cap_change():
    """T_id is memoised on the job caps: a lowered cap moves it."""
    app = make_app(num_jobs=1, serial_work=100.0, max_parallelism=4)
    assert app.ideal_running_time(8) == pytest.approx(25.0)
    app.jobs[0].parallelism_limit = 2
    app.invalidate()
    assert app.ideal_running_time(8) == pytest.approx(50.0)


def test_ideal_running_time_survives_an_allocation_only_epoch_bump(
    one_machine_cluster, monkeypatch
):
    """An install bumps the epoch but moves no cap: T_id is not recomputed."""
    import repro.workload.app as app_module

    computed = []
    real = app_module.as_capacity
    monkeypatch.setattr(
        app_module, "as_capacity", lambda capacity: computed.append(capacity) or real(capacity)
    )
    app = make_app(num_jobs=2, max_parallelism=4)
    t_id = app.ideal_running_time(8)
    epoch = app.epoch
    app.jobs[0].set_allocation(0.0, Allocation(one_machine_cluster.machines[0].gpus[:2]))
    assert app.epoch > epoch
    assert app.ideal_running_time(8) == t_id
    assert computed == [8]


def _ids(jobs):
    return [job.job_id for job in jobs]


def test_active_jobs_memo_follows_the_dirty_tracking_contract():
    """``finish``, ``kill`` and ``invalidate()`` each refresh the memoised view."""
    app = make_app(num_jobs=4)
    a, b, c, d = app.jobs
    assert _ids(app.active_jobs()) == _ids([a, b, c, d])
    a.remaining_work = 0.0
    a.finish(1.0)
    assert _ids(app.active_jobs()) == _ids([b, c, d])
    b.kill(2.0)
    assert _ids(app.active_jobs()) == _ids([c, d])
    # A writer outside the Job mutators (a tuner) calls invalidate().
    c.state = JobState.KILLED
    app.invalidate()
    assert _ids(app.active_jobs()) == _ids([d])


def test_active_jobs_returns_a_fresh_list():
    app = make_app(num_jobs=2)
    first = app.active_jobs()
    first.clear()
    first.append(make_job("stranger"))
    assert _ids(app.active_jobs()) == _ids(app.jobs)
    assert app.active_jobs() is not app.active_jobs()


def test_distribute_returns_unchanged_jobs_their_own_allocation(small_cluster):
    app = make_app(num_jobs=3, max_parallelism=2)
    kept, shrunk, idle = app.jobs
    kept.set_allocation(0.0, Allocation(small_cluster.gpus[:2]))
    shrunk.set_allocation(0.0, Allocation(small_cluster.gpus[2:4]))
    # Only the changed job is reported: the caller leaves the others on
    # their own allocation objects, untouched.
    changes, declined = app.distribute(Allocation(small_cluster.gpus[:3]))
    assert changes == {shrunk.job_id: Allocation(small_cluster.gpus[2:3])}
    assert declined == []
    assert split(app, Allocation(small_cluster.gpus[:3]))[kept.job_id] is kept.allocation
