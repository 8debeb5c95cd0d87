"""Unit tests for trace schema and serialisation."""

import pytest

from repro.workload.app import App, CompletionSemantics
from repro.workload.trace import Trace, TraceApp, TraceJob


def make_trace_job(job_id="j0", minutes=30.0, parallelism=4):
    return TraceJob(
        job_id=job_id,
        model="vgg16",
        duration_minutes=minutes,
        max_parallelism=parallelism,
    )


def make_trace(name="t", num_apps=2):
    apps = tuple(
        TraceApp(
            app_id=f"{name}-a{i}",
            arrival_minutes=float(i * 10),
            jobs=(make_trace_job(f"{name}-a{i}-j0"), make_trace_job(f"{name}-a{i}-j1", 60.0, 2)),
        )
        for i in range(num_apps)
    )
    return Trace(apps=apps, name=name, seed=7)


def test_trace_job_validation():
    with pytest.raises(ValueError):
        TraceJob(job_id="x", model="vgg16", duration_minutes=0, max_parallelism=4)
    with pytest.raises(KeyError):
        TraceJob(job_id="x", model="no-such-model", duration_minutes=10, max_parallelism=4)


def test_serial_work_is_duration_times_parallelism():
    job = make_trace_job(minutes=30.0, parallelism=4)
    assert job.serial_work == 120.0


def test_trace_app_needs_jobs():
    with pytest.raises(ValueError):
        TraceApp(app_id="a", arrival_minutes=0.0, jobs=())


def test_trace_sorts_apps_by_arrival():
    apps = (
        TraceApp("late", 50.0, (make_trace_job("l-j0"),)),
        TraceApp("early", 5.0, (make_trace_job("e-j0"),)),
    )
    trace = Trace(apps=apps)
    assert [a.app_id for a in trace.apps] == ["early", "late"]


def test_trace_rejects_duplicate_app_ids():
    apps = (
        TraceApp("same", 0.0, (make_trace_job("j0"),)),
        TraceApp("same", 1.0, (make_trace_job("j1"),)),
    )
    with pytest.raises(ValueError):
        Trace(apps=apps)


def test_aggregates():
    trace = make_trace(num_apps=3)
    assert trace.num_apps == 3
    assert trace.num_jobs == 6
    assert len(trace.task_durations()) == 6
    assert trace.jobs_per_app() == [2, 2, 2]
    assert trace.peak_gpu_demand() == 3 * (4 + 2)
    assert trace.total_serial_work() == pytest.approx(3 * (120.0 + 120.0))


def test_jsonl_roundtrip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    loaded = Trace.from_jsonl(path)
    assert loaded.name == trace.name
    assert loaded.seed == trace.seed
    assert loaded.apps == trace.apps


def test_instantiate_gives_fresh_state():
    trace = make_trace()
    apps_a = trace.instantiate()
    apps_b = trace.instantiate()
    assert apps_a[0] is not apps_b[0]
    apps_a[0].jobs[0].remaining_work = 0.0
    assert apps_b[0].jobs[0].remaining_work > 0.0


def test_instantiate_semantics():
    trace = make_trace()
    apps = trace.instantiate(CompletionSemantics.FIRST_WINNER)
    assert all(app.semantics is CompletionSemantics.FIRST_WINNER for app in apps)


def test_scaled_trace():
    trace = make_trace()
    scaled = trace.scaled(0.2)
    assert scaled.task_durations() == [d * 0.2 for d in trace.task_durations()]
    # Arrivals preserved (footnote 3 of the paper).
    assert [a.arrival_minutes for a in scaled.apps] == [
        a.arrival_minutes for a in trace.apps
    ]
    with pytest.raises(ValueError):
        trace.scaled(0)


# ----------------------------------------------------------------------
# Hostile input: rejected with ValueError, loader errors carry a position
# ----------------------------------------------------------------------
def test_duplicate_job_id_across_apps_rejected():
    """Accepted before; the simulator then never finished the second job."""
    apps = tuple(
        TraceApp(app_id=f"a{i}", arrival_minutes=0.0, jobs=(make_trace_job("shared"),))
        for i in range(2)
    )
    with pytest.raises(ValueError, match="duplicate job id 'shared'.*'a0' and 'a1'"):
        Trace(apps=apps)


def test_simulator_rejects_app_lists_sharing_a_job_id(one_machine_cluster):
    from repro.schedulers.registry import make_scheduler
    from repro.simulation.simulator import ClusterSimulator

    from helpers import make_job

    apps = [App(f"a{i}", 0.0, [make_job("shared")]) for i in range(2)]
    with pytest.raises(ValueError, match="job id 'shared'"):
        ClusterSimulator(one_machine_cluster, apps, make_scheduler("fifo"))


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -1.0, 0.0))
def test_non_finite_or_non_positive_duration_rejected(bad):
    with pytest.raises(ValueError, match="duration_minutes"):
        make_trace_job(minutes=bad)


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -1.0))
def test_non_finite_or_negative_arrival_rejected(bad):
    with pytest.raises(ValueError, match="arrival_minutes"):
        TraceApp(app_id="a", arrival_minutes=bad, jobs=(make_trace_job(),))


@pytest.mark.parametrize(
    "row, complaint",
    [
        ('{"app_id": "a9", "arrival_minutes": 1.0}', "missing key 'jobs'"),
        ('{"app_id": "a9", "arrival_minutes": 1.0, "jobs": [', "Expecting value"),
        ('{"app_id": "a9", "arrival_minutes": NaN, "jobs": [%s]}', "arrival_minutes"),
        ('{"app_id": "a9", "arrival_minutes": 1.0, "jobs": [7]}', "items"),
        ('[1, 2]', "list indices"),
    ],
)
def test_loader_errors_name_the_file_and_line(tmp_path, row, complaint):
    path = tmp_path / "trace.jsonl"
    make_trace().to_jsonl(path)
    good_job = path.read_text().splitlines()[1].split('"jobs": [')[1].split("}")[0] + "}"
    with path.open("a", encoding="utf-8") as handle:
        handle.write("\n" + (row % good_job if "%s" in row else row) + "\n")
    # Header, two apps, one blank line: the bad row is line 5.
    with pytest.raises(ValueError, match=rf"trace\.jsonl:5: .*{complaint}"):
        Trace.from_jsonl(path)


@pytest.mark.parametrize("field", ("max_parallelism", "total_iterations"))
@pytest.mark.parametrize("bad", (2.5, 2.0, True, False, "4", 0, -3))
def test_loader_rejects_non_integer_or_non_positive_counts(tmp_path, field, bad):
    """A fractional or boolean count used to load and crash mid-replay."""
    import json

    path = tmp_path / "trace.jsonl"
    make_trace().to_jsonl(path)
    row = json.loads(path.read_text().splitlines()[1])
    row["jobs"][0][field] = bad
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row | {"app_id": "a9"}) + "\n")
    # Header, two apps: the bad row is line 4.
    with pytest.raises(ValueError, match=rf"trace\.jsonl:4: {field} must be"):
        Trace.from_jsonl(path)


def test_int_like_counts_are_accepted_as_int():
    np = pytest.importorskip("numpy")
    job = TraceJob(
        job_id="x", model="vgg16", duration_minutes=10.0,
        max_parallelism=np.int64(4), total_iterations=np.int32(50),
    )
    assert type(job.max_parallelism) is int and job.max_parallelism == 4
    assert type(job.total_iterations) is int and job.total_iterations == 50
    assert job.to_job().max_parallelism == 4
