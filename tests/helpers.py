"""Importable test factories shared across the unit-test suite.

These used to live in ``tests/conftest.py``, but ``from conftest
import ...`` resolves against whichever conftest pytest put on
``sys.path`` first — with both ``tests/`` and ``benchmarks/`` collected
from the repo root, that was ``benchmarks/conftest.py`` and the whole
suite failed to import.  A plain module has an unambiguous name.
"""

from __future__ import annotations

import copy
import errno
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from hypothesis import event
from hypothesis import strategies as st

from repro.cluster.allocation import Allocation
from repro.cluster.topology import (
    GPU_TYPES,
    ClusterSpec,
    Gpu,
    GpuType,
    MachineSpec,
    build_cluster,
)
from repro.core.assignment import CHUNK_SIZE
from repro.core.auction import PartialAllocationAuction, rescan_fair_allocation
from repro.core.bids import Bid
from repro.core.fairness import AppValuationState, FairnessEstimator, _job_tuples
from repro.experiments.config import ScenarioConfig
from repro.hyperparam.curves import LossCurve
from repro.schedulers.registry import make_scheduler
from repro.simulation.failures import FailureInjector, MachineFailure
from repro.simulation.simulator import ClusterSimulator
from repro.workload.app import App, CompletionSemantics
from repro.workload.job import Job, JobSpec
from repro.workload.models import MODEL_FAMILIES
from repro.workload.perf import PERF_MATRIX_PRESETS, ThroughputMatrixModel
from repro.workload.trace import Trace, TraceApp, TraceJob


def make_job(
    job_id: str = "j0",
    model: str = "resnet50",
    serial_work: float = 100.0,
    max_parallelism: int = 4,
    with_curve: bool = True,
) -> Job:
    """Job factory with sensible defaults."""
    curve = LossCurve(initial=5.0, floor=0.0, alpha=0.6) if with_curve else None
    return Job(
        spec=JobSpec(
            job_id=job_id,
            model=model,
            serial_work=serial_work,
            max_parallelism=max_parallelism,
            total_iterations=1000,
            loss_curve=curve,
        )
    )


def make_app(
    app_id: str = "a0",
    arrival: float = 0.0,
    num_jobs: int = 2,
    model: str = "resnet50",
    serial_work: float = 100.0,
    max_parallelism: int = 4,
    semantics: CompletionSemantics = CompletionSemantics.ALL_JOBS,
) -> App:
    """App factory: ``num_jobs`` identical jobs."""
    jobs = [
        make_job(f"{app_id}-j{i}", model, serial_work, max_parallelism)
        for i in range(num_jobs)
    ]
    return App(app_id=app_id, arrival_time=arrival, jobs=jobs, semantics=semantics)


def trace_app(app_id, arrival, minutes, parallelism=4, model="resnet50", jobs=1) -> TraceApp:
    """An app of ``jobs`` identical jobs ``{app_id}-j0``, ``-j1``, ..."""
    return TraceApp(
        app_id,
        arrival,
        tuple(
            TraceJob(
                job_id=f"{app_id}-j{i}",
                model=model,
                duration_minutes=minutes,
                max_parallelism=parallelism,
            )
            for i in range(jobs)
        ),
    )


def trace_of(*apps: TraceApp) -> Trace:
    return Trace(apps=tuple(apps))


def uniform_cluster(machines: int, gpus_per_machine: int = 4, racks: int = 1, name: str = "custom"):
    """``machines`` identical machines of ``gpus_per_machine`` GPUs over ``racks`` racks."""
    return build_cluster(
        ClusterSpec(
            machine_specs=(MachineSpec(count=machines, gpus_per_machine=gpus_per_machine),),
            num_racks=racks,
            name=name,
        )
    )


def machine_per_type(*gpu_types: GpuType, racks: int = 1, name: str = "custom"):
    """One 4-GPU machine of each type, machine ``i`` of ``gpu_types[i]``."""
    specs = tuple(MachineSpec(count=1, gpus_per_machine=4, gpu_type=t) for t in gpu_types)
    return build_cluster(ClusterSpec(machine_specs=specs, num_racks=racks, name=name))


def simulator(scenario: ScenarioConfig, scheduler="themis", *, failures=(), obs=None):
    """``scheduler`` (a registry name or an instance) over ``scenario``,
    built as ``run_scenario`` builds it, with ``(machine, at, duration)``
    outages installed: for tests that reach into the simulator (a result
    alone comes from ``run_scenario``)."""
    sim = ClusterSimulator(
        cluster=scenario.build_cluster(),
        workload=scenario.build_trace(),
        scheduler=make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler,
        config=scenario.build_sim_config(),
        perf_model=scenario.build_perf_model(),
        obs=obs,
    )
    if failures:
        FailureInjector([MachineFailure(m, at, d) for m, at, d in failures]).install(sim)
    return sim


class RescanAuction(PartialAllocationAuction):
    """An auction whose every solve is ``rescan_fair_allocation``.

    What the equivalence suites compare the production (lazy) solver
    against — payments, leftovers and stats included.  The reference
    keeps no checkpoints, so payment re-solves start cold.
    """

    def _solve(self, pool, bids, exclude=None, resume=None, checkpoints=None, stats=None):
        if stats is not None:
            stats.solves += 1
        assignment = rescan_fair_allocation(pool, bids, exclude=exclude)
        # No solver values: every bundle is asked again.
        return assignment, [], {a: bids[a].value_of(b) for a, b in assignment.items()}


def reference_leftovers(arbiter, leftover, participants, agents, assignments) -> int:
    """The arbiter's leftover pass as it was before it looked only at apps
    with headroom (reference implementation).

    Headroom and held machines of every agent, the leftover's machines
    sorted into the drain order (fastest generation first, lower id on
    ties) on every call, candidates filtered per GPU.  Draws from and
    grants into the same ``arbiter.rng`` / ``assignments`` as
    ``Arbiter._assign_leftovers``; returns the GPUs nobody wanted.
    """
    speed_of = arbiter.cluster.machine_speeds()
    participant_set = set(participants)
    headroom = {
        app_id: max(0, agent.app.unmet_demand() - sum(assignments.get(app_id, {}).values()))
        for app_id, agent in agents.items()
    }
    machines_of = {
        app_id: set(agent.app.allocation().per_machine_counts())
        for app_id, agent in agents.items()
    }
    total_headroom = sum(headroom.values())
    granted = 0
    ordered_apps = sorted(agents)
    ordered_non_participants = [a for a in ordered_apps if a not in participant_set]
    for machine_id in sorted(leftover, key=lambda m: (-speed_of[m], m)):
        for _ in range(leftover[machine_id]):
            if total_headroom <= 0:
                break
            candidates = [
                a for a in ordered_non_participants
                if headroom[a] > 0 and machine_id in machines_of[a]
            ]
            if not candidates:
                candidates = [a for a in ordered_apps if headroom[a] > 0]
            choice = candidates[int(arbiter.rng.integers(len(candidates)))]
            bundle = assignments.setdefault(choice, {})
            bundle[machine_id] = bundle.get(machine_id, 0) + 1
            headroom[choice] -= 1
            total_headroom -= 1
            granted += 1
            machines_of[choice].add(machine_id)
    return sum(leftover.values()) - granted


# ----------------------------------------------------------------------
# The two kernels' random inputs: one generator each
# ----------------------------------------------------------------------
#: Model mix of the generated inputs, so valuations, sensitivity
#: profiles and matrix rows differ between jobs.
MODELS = ("resnet50", "vgg16", "transformer", "inceptionv3", "lstm-lm")
FLEETS = ("homogeneous", "hetero", "rate-inversion")
#: Machines offered, by pool width: below the bids'
#: ``_CLASS_MIN_POOL`` (rows scored per machine), just above it, and a
#: wide pool of many interchangeable machines (rows scored per class).
POOL_WIDTHS = {"narrow": (1, 3), "mid": (4, 12), "wide": (32, 36)}


@dataclass
class Market:
    """One auction input: the pool, the apps that may bid, the knobs."""

    pool: dict[int, int]
    apps: list[App]
    estimator: FairnessEstimator
    now: float
    noise_theta: float
    salt: int
    hidden_payments: bool

    def bids(self) -> dict[str, Bid]:
        """Fresh bids of every app with unmet demand, so two solvers
        under comparison never share warmed valuation caches."""
        return {
            app.app_id: Bid(
                app, self.estimator, self.now, self.pool,
                noise_theta=self.noise_theta, noise_salt=self.salt,
            )
            for app in self.apps
            if app.unmet_demand() > 0
        }


@st.composite
def markets(draw):
    """Auction markets: the suites' one market generator.

    Fleets are homogeneous, three GPU generations, or three generations
    under the ``rate-inversion`` matrix; the pool has a width from
    :data:`POOL_WIDTHS` over 1-3 racks, with one or two free counts, so
    a row's machine classes have several members.  Some machines are
    partly held by the apps (holdings that stay in the pool interleave
    with free machines in id order), some wholly held and not offered;
    a machine not offered may still be listed with a count of 0.
    Semantics, valuation noise and hidden payments vary too.  Each drawn
    dimension is recorded as a test event.

    The market is built from one drawn ``Random``: a wide one is
    hundreds of draws, which would cost Hypothesis more than the solve.
    """
    rng = draw(st.randoms(use_true_random=False))
    fleet = rng.choice(FLEETS)
    width = rng.choice(tuple(POOL_WIDTHS))
    semantics = rng.choice(list(CompletionSemantics))
    noise_theta = rng.choice((0.0, 0.2))
    hidden_payments = rng.random() < 0.5
    offered = rng.randint(*POOL_WIDTHS[width])
    num_machines = offered + rng.randint(0, 2)
    gpus_per = rng.randint(2, 6)
    if fleet == "homogeneous":
        specs = (MachineSpec(count=num_machines, gpus_per_machine=gpus_per),)
    else:
        split = [num_machines // 3 + (kind < num_machines % 3) for kind in range(3)]
        specs = tuple(
            MachineSpec(count=count, gpus_per_machine=gpus_per, gpu_type=GPU_TYPES[kind])
            for kind, count in zip(("v100", "p100", "k80"), split)
            if count
        )
    cluster = build_cluster(
        ClusterSpec(machine_specs=specs, num_racks=rng.randint(1, 3), name="market")
    )
    perf_model = None
    if fleet == "rate-inversion":
        perf_model = ThroughputMatrixModel(PERF_MATRIX_PRESETS["rate-inversion"])
    apps = [
        make_app(
            app_id=f"a{i}",
            arrival=rng.uniform(0.0, 60.0),
            num_jobs=rng.randint(1, 4),
            model=rng.choice(MODELS),
            serial_work=rng.uniform(20.0, 400.0),
            max_parallelism=rng.randint(1, 4),
            semantics=semantics,
        )
        for i in range(rng.randint(1, 5))
    ]
    free_counts = (rng.randint(1, gpus_per), rng.randint(1, gpus_per))
    machines = list(cluster.machines)
    rng.shuffle(machines)
    labels = [
        fleet, width, semantics.name, f"noise={noise_theta}",
        f"hidden payments {'on' if hidden_payments else 'off'}",
    ]
    pool = {}
    for index, machine in enumerate(machines):
        is_offered = index < offered
        held = 0
        if rng.random() < 0.3:
            held = rng.randint(1, gpus_per - 1 if is_offered else gpus_per)
            job = rng.choice(rng.choice(apps).jobs)
            job.set_allocation(0.0, job.allocation.union(machine.gpus[:held]), overhead=0.0)
        if is_offered:
            pool[machine.machine_id] = min(rng.choice(free_counts), gpus_per - held)
            if held:
                labels.append("an app holds GPUs on a pool machine")
        elif rng.random() < 0.3:
            pool[machine.machine_id] = 0
            labels.append("a machine listed with no free GPU")
    for label in dict.fromkeys(labels):
        event(label)
    return Market(
        pool=dict(sorted(pool.items())),
        apps=apps,
        estimator=FairnessEstimator(cluster, semantics=semantics, perf_model=perf_model),
        now=rng.uniform(60.0, 200.0),
        noise_theta=noise_theta,
        salt=rng.randint(0, 1 << 16),
        hidden_payments=hidden_payments,
    )


@dataclass
class CarveInstance:
    """One carve input, readable under every speed setup."""

    jobs: list[Job]
    counts: dict[int, int]
    rack_of: dict[int, int]
    #: The scalar speed map; ``None`` is the homogeneous model.
    speed_of: Optional[dict[int, float]]
    #: family -> machine -> speed: a throughput matrix's rows.
    family_rows: dict[str, dict[int, float]]

    def args(self, setup: str) -> tuple:
        """``_carve_fast`` / ``_carve_reference`` arguments for one setup:
        ``scalar``, ``family`` (the matrix rows), or ``degenerate`` (a
        matrix whose every row is the scalar map)."""
        head = (_job_tuples(self.jobs)[0], self.counts, self.rack_of)
        if setup == "scalar":
            return (*head, self.speed_of)
        if setup == "family":
            return (*head, None, self.family_rows.__getitem__)
        row = self.speed_of or {m: 1.0 for m in self.rack_of}
        return (*head, None, lambda family: row)


@st.composite
def carve_instances(draw):
    """Carve inputs: narrow (<= 8 machines over 3 racks, counts 0-6,
    <= 6 jobs) or wide (<= 104 machines over 8 racks, counts in {1, 2,
    4} so effective-compute ties are common, <= 40 jobs of cap <= 12).

    The bulk of an instance comes from a drawn seed: a wide one is ~1,000
    draws, which would cost Hypothesis far more than the carve."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        num_machines = rng.randint(9, 104)
        rack_of = {m: rng.randint(0, 7) for m in range(num_machines)}
        counts = {m: rng.choice((1, 2, 4)) for m in range(num_machines)}
        num_jobs, max_cap = rng.randint(1, 40), 12
    else:
        num_machines = rng.randint(1, 8)
        rack_of = {m: rng.randint(0, 2) for m in range(num_machines)}
        counts = {m: rng.randint(0, 6) for m in range(num_machines)}
        num_jobs, max_cap = rng.randint(1, 6), 6
    speed_of = None
    if rng.random() < 0.5:
        speed_of = {m: rng.choice((0.33, 0.66, 1.0)) for m in range(num_machines)}
    jobs = [
        make_job(f"j{i}", rng.choice(MODELS), rng.uniform(1.0, 300.0), rng.randint(1, max_cap))
        for i in range(num_jobs)
    ]
    family_rows = {
        family: {m: rng.choice((0.2, 0.5, 0.8, 1.0)) for m in range(num_machines)}
        for family in MODEL_FAMILIES
    }
    return CarveInstance(jobs, counts, rack_of, speed_of, family_rows)


def rescan_utility_assign(pool, utilities, caps):
    """The baselines' greedy as a full rescan after every move.

    The loop ``core/assignment.py`` ran until it went incremental,
    verbatim: what tests/test_assignment.py compares the one greedy
    solver under the additive objective against, and whose per-call
    memo sets the evaluation count that solver must not exceed.
    """
    remaining = {m: c for m, c in pool.items() if c > 0}
    assignment: dict[str, dict[int, int]] = {a: {} for a in utilities}
    granted = {a: 0 for a in utilities}
    cache: dict[tuple, float] = {}

    def evaluate(app_id, bundle) -> float:
        # Only one app's bundle grows per move, so most probes repeat
        # across iterations; memoise on (app, canonical bundle).
        key = (app_id, tuple(sorted(bundle.items())))
        if key not in cache:
            cache[key] = utilities[app_id](bundle)
        return cache[key]

    current = {a: evaluate(a, {}) for a in utilities}
    while remaining:
        best_key = None
        best_move = None
        for app_id in sorted(utilities):
            headroom = caps.get(app_id, 0) - granted[app_id]
            if headroom <= 0:
                continue
            for machine_id in sorted(remaining):
                free = remaining[machine_id]
                for step in sorted({1, min(CHUNK_SIZE, free, headroom)}):
                    if step <= 0:
                        continue
                    bundle = dict(assignment[app_id])
                    bundle[machine_id] = bundle.get(machine_id, 0) + step
                    gain = (evaluate(app_id, bundle) - current[app_id]) / step
                    if gain <= 1e-12:
                        continue
                    key = (-gain, step, app_id, machine_id)
                    if best_key is None or key < best_key:
                        best_key = key
                        best_move = (app_id, machine_id, step, bundle)
        if best_move is None:
            break
        app_id, machine_id, step, bundle = best_move
        assignment[app_id] = bundle
        granted[app_id] += step
        current[app_id] = evaluate(app_id, bundle)
        remaining[machine_id] -= step
        if remaining[machine_id] <= 0:
            del remaining[machine_id]
    return {a: b for a, b in assignment.items() if b}


def rescan_distribute(app, granted):
    """``App.distribute`` re-rating every job from scratch for every GPU.

    The distributor ``workload/app.py`` ran until it kept per-job fill
    state, verbatim: every pool GPU probes every active job with two
    full ``Job.rate_of`` calls, and every job gets a fresh
    ``Allocation``.  What tests/test_distribute_equivalence.py compares
    the production distributor against.
    """

    def rate_of(job, gpus):
        return job.rate_of(gpus, cap=job.max_parallelism)

    def pick_job_for_gpu(active, assigned, gpu):
        best_key = None
        best_job = None
        for job in active:
            current = assigned[job.job_id]
            if len(current) >= job.max_parallelism:
                continue
            gain = rate_of(job, current + [gpu]) - rate_of(job, current)
            if gain <= 1e-12:
                continue
            affinity = job.spec.gpu_type
            mismatch = 0 if affinity is None or gpu.gpu_type.name == affinity else 1
            same_machine = any(g.machine_id == gpu.machine_id for g in current)
            same_rack = any(g.rack_id == gpu.rack_id for g in current)
            key = (
                mismatch,
                0 if same_machine else (1 if same_rack else 2),
                len(current),
                job.job_id,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_job = job.job_id
        return best_job

    active = app.active_jobs()
    assigned = {job.job_id: [] for job in active}
    granted_ids = granted.gpu_ids
    taken = set()
    for job in active:
        for gpu in job.allocation:
            if gpu.gpu_id in granted_ids and len(assigned[job.job_id]) < job.max_parallelism:
                assigned[job.job_id].append(gpu)
                taken.add(gpu.gpu_id)
    pool = [gpu for gpu in granted if gpu.gpu_id not in taken]
    by_machine = {}
    for gpu in pool:
        by_machine.setdefault(gpu.machine_id, []).append(gpu)
    machine_order = sorted(
        by_machine,
        key=lambda m: (-len(by_machine[m]) * by_machine[m][0].speed, m),
    )
    for machine_id in machine_order:
        for gpu in sorted(by_machine[machine_id], key=lambda g: g.gpu_id):
            best_job = pick_job_for_gpu(active, assigned, gpu)
            if best_job is not None:
                assigned[best_job].append(gpu)
    return {job_id: Allocation(gpus) for job_id, gpus in assigned.items()}


def split(app, granted):
    """``App.distribute``'s delta spelled out: every active job's allocation.

    Jobs absent from the reported changes keep ``job.allocation``, in
    submission order — the full mapping ``rescan_distribute`` returns.
    """
    changes, _declined = app.distribute(granted)
    return {job.job_id: changes.get(job.job_id, job.allocation) for job in app.active_jobs()}


def full_install(sim, now, app, granted):
    """``ClusterSimulator._install_app_allocation`` as a pass over every job.

    The install the simulator ran until it installed deltas, verbatim
    but for the split, which comes from :func:`rescan_distribute`: every
    active job, changed or not, re-leases whichever of its GPUs lack an
    unexpired lease of its app, and every granted GPU no job took is
    released.  No memo, no renewal set, no counters.  What
    tests/test_install_equivalence.py compares the production install
    against.
    """
    job_allocs = rescan_distribute(app, granted)
    used_ids: set[int] = set()
    for job in app.active_jobs():
        target = job_allocs[job.job_id]
        used_ids.update(target.gpu_ids)
        if target == job.allocation:
            sim._refresh_leases(now, app, job, target)
            continue
        overhead = sim.config.restart_overhead_minutes if target.size > 0 else 0.0
        job.advance_to(now)
        job.set_allocation(now, target, overhead=overhead)
        sim._track_held_job(job)
        sim._emit_job_state(now, app, job, "running")
        sim._refresh_leases(now, app, job, target)
        sim._reschedule_job_finish(job)
    for gpu in granted:
        if gpu.gpu_id not in used_ids:
            sim.leases.release(gpu)
    if sim.config.record_timeline:
        sim.timeline.append((now, app.app_id, app.allocation().size))


# ----------------------------------------------------------------------
# Frozen replays: the one committed contract for deterministic gates
# ----------------------------------------------------------------------
#: Per replay cell, three kinds of frozen value: ``digests``
#: (``SimulationResult.digest()``), ``carves`` (the whole replay's
#: ``estimator.carve_count``) and ``counts`` (other exact work counters
#: of the four ``sim-*`` profiles, see tests/test_replay_gates.py).
#: The 108 digests and 3 carve counts of the small cells were frozen at
#: e0dc2ec — the last commit that still had the rebuild-everything
#: simulator mode, where every cell's digest was checked equal with the
#: mode on and off; the ``sim-*`` cells are, byte for byte, the values
#: the ``repro bench`` baseline file carried until it was folded in
#: here; the 13 ``figure/<id>`` digests (a registry figure's ``rows`` on
#: a small cell, tests/test_experiments.py) were frozen at eb86818 from
#: the per-figure functions the registry replaced.  A deliberate
#: behaviour change re-freezes them:
#: ``PYTHONPATH=src python tests/refreeze_golden.py``.
GOLDEN_PATH = Path(__file__).with_name("golden_sim.json")
GOLDEN: dict = json.loads(GOLDEN_PATH.read_text())

#: What this session's tests computed, same layout as :data:`GOLDEN`.
#: ``refreeze_golden.py`` writes it out; tests/test_golden_coverage.py
#: checks that no committed cell is missing from it.
SEEN: dict = {kind: {} for kind in ("digests", "carves", "counts")}
#: Set by ``conftest.py`` when a selection option deselected tests.
SUITE_NARROWED = False


def _pin(kind: str, cell: str, value) -> None:
    """Record ``value`` for the cell, then hold it to the frozen one.

    In that order: ``refreeze_golden.py`` makes :data:`GOLDEN` the very
    dict recorded into, which turns the comparison into ``value == value``.
    """
    SEEN[kind][cell] = value
    frozen = GOLDEN[kind][cell]
    assert value == frozen, f"{cell}: {kind} moved — got {value!r}, frozen {frozen!r}"


def assert_golden(cell: str, result) -> None:
    """``result`` replays byte-identically to the frozen digest of ``cell``."""
    _pin("digests", cell, result.digest())


def assert_golden_rows(cell: str, rows: list) -> None:
    """A figure's ``rows`` — values, column names and column order — as one digest."""
    _pin("digests", cell, hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest())


def assert_golden_carves(cell: str, carves: int) -> None:
    """A replay's total carve count (``estimator.carve_count``) is frozen too."""
    _pin("carves", cell, carves)


def assert_golden_counts(cell: str, counts: dict) -> None:
    """Exact integer work counters of a replay, by name."""
    _pin("counts", cell, counts)


# ----------------------------------------------------------------------
# Grouped pools rebuilt from scratch
# ----------------------------------------------------------------------
def group_pool(gpus: Iterable[Gpu]) -> dict[int, list[Gpu]]:
    """Machine id -> GPUs sorted by ``(slot_id, gpu_id)``, machines ascending.

    The grouping ``LeaseManager.pool_for_auction`` maintains, rebuilt
    by one sort: the audits' reference and the way unit tests hand a
    policy a pool.
    """
    grouped: dict[int, list[Gpu]] = {}
    for gpu in sorted(gpus, key=lambda g: (g.machine_id, g.slot_id, g.gpu_id)):
        grouped.setdefault(gpu.machine_id, []).append(gpu)
    return grouped


def grouped_ids(grouped: Mapping[int, Sequence[Gpu]]) -> list[tuple[int, list[int]]]:
    """``[(machine id, [gpu ids])]`` in the mapping's own order, empty machines
    dropped: equal for two grouped pools only if machine and slot order agree."""
    return [(m, [gpu.gpu_id for gpu in gpus]) for m, gpus in grouped.items() if gpus]


# ----------------------------------------------------------------------
# Per-round freshness audit
# ----------------------------------------------------------------------
def holdings_value(state: AppValuationState, now: float) -> float:
    """What ``state``'s kernel makes of the app's holdings at ``now``,
    refreshed first: Gandiva's packing utility, else the rho."""
    if state.packing:
        state.refresh()
        return state.kernel_of(state.base_key)
    return state.current_rho(now)


def audit_freshness(sim) -> list[float]:
    """Check every dirty-tracked cache of ``sim`` against a recompute, each round.

    Wraps the bound scheduler's ``assign`` (the one call every round
    makes after jobs advanced and tuners stepped) and asserts that

    * the pool ``assign`` receives, and the lease manager's
      ``pool_for_auction``, equal the rescan (``unleased_gpus`` +
      ``expired_gpus``, down GPUs dropped) regrouped from scratch, in
      machine order and slot order; the free index equals the unleased
      set grouped the same way;
    * the per-machine free counts the fragmentation sample reads equal
      a recount of the unleased in-service GPUs, in machine order;
    * ``_held_jobs`` is exactly the active jobs holding GPUs;
    * every lease names a job of an active app that holds the GPU (the
      install renews an unchanged job's expired leases by that name);
    * each active app's epoch-memoised aggregates equal those of a
      shadow ``App`` built from copies of its jobs (no cache survives
      the copy);
    * a Themis scheduler's AGENTs are keyed by exactly the active apps,
      in their order (its ``assign`` offers them unfiltered);
    * after the round's policy ran, the scheduler holds a valuation
      state (which a Themis AGENT wraps) for exactly the active apps,
      and each one, refreshed, reports the value of the app's holdings
      — its rho, or Gandiva's packing utility — that a fresh
      ``AppValuationState`` of the same kernel over the shadow app and
      a fresh estimator reports.

    A failure names the round, the app and the stale cache.  Returns
    the list the audited round times are appended to.
    """
    scheduler = sim.scheduler
    inner = scheduler.assign
    gpus = sim.cluster.gpus
    estimator = FairnessEstimator(
        sim.cluster, semantics=sim.config.semantics, perf_model=sim.perf_model
    )
    audited: list[float] = []

    def assign(now, pool):
        where = f"round {sim.num_rounds} t={now:.3f}"
        leases = sim.leases
        down = sim._down_gpu_ids
        rescan = leases.unleased_gpus(gpus) + leases.expired_gpus(now)
        expected = grouped_ids(group_pool(g for g in rescan if g.gpu_id not in down))
        assert grouped_ids(pool) == expected, f"{where}: pool"
        in_service = [
            (m, [gpu_id for gpu_id in ids if gpu_id not in down])
            for m, ids in grouped_ids(leases.pool_for_auction(now))
        ]
        assert [row for row in in_service if row[1]] == expected, f"{where}: pool_for_auction"
        unleased = leases.unleased_gpus(gpus)
        assert grouped_ids(leases.free_by_machine) == grouped_ids(
            group_pool(unleased)
        ), f"{where}: free index"
        recount = group_pool(gpu for gpu in unleased if gpu.gpu_id not in down)
        assert [count for count in sim._free_counts() if count] == [
            len(free) for free in recount.values()
        ], f"{where}: fragmentation counts"
        holding = {
            job.job_id
            for app in sim.apps
            for job in app.jobs
            if job.is_active and job.allocation.size > 0
        }
        assert set(sim._held_jobs) == holding, f"{where}: _held_jobs"
        for gpu in gpus:
            lease = leases.lease_of(gpu)
            if lease is not None:
                holder = sim.active_apps[lease.app_id].job(lease.job_id)
                assert gpu in holder.allocation, f"{where}: lease on GPU {gpu.gpu_id}"
        shadows = {}
        for app_id, app in sim.active_apps.items():
            shadow = App(
                app_id, app.arrival_time, [copy.copy(j) for j in app.jobs], app.semantics
            )
            shadows[app_id] = shadow
            for name in ("allocation", "demand", "unmet_demand"):
                assert getattr(app, name)() == getattr(shadow, name)(), (
                    f"{where}: {app_id}.{name}() is stale"
                )
            assert [job.job_id for job in app.active_jobs()] == [
                job.job_id for job in shadow.active_jobs()
            ], f"{where}: {app_id}.active_jobs() is stale"
            assert app.ideal_running_time(sim.capacity) == shadow.ideal_running_time(
                sim.capacity
            ), f"{where}: {app_id}.ideal_running_time() is stale"
        agents = getattr(scheduler, "agents", None)
        if agents is not None:
            assert list(agents) == list(sim.active_apps), f"{where}: agents {sorted(agents)}"
        assignment = inner(now, pool)
        states = getattr(scheduler, "states", None)
        if states is not None:
            assert set(states) == set(shadows), f"{where}: states {sorted(states)}"
            for app_id, state in states.items():
                fresh = AppValuationState(shadows[app_id], estimator, state.packing)
                reported, expected = holdings_value(state, now), holdings_value(fresh, now)
                assert reported == expected, (
                    f"{where}: {app_id} valuation state reports {reported}, "
                    f"a fresh one {expected}"
                )
        audited.append(now)
        return assignment

    scheduler.assign = assign
    return audited


class FaultyWal:
    """A shim over a ``DurableStore``'s WAL handle (``store._fh``) for
    full-disk drills: each of the next ``failed_writes`` writes lands half
    its bytes and then fails with ENOSPC, and each of the next
    ``failed_truncates`` truncates fails with ENOSPC and cuts nothing.
    Everything else goes to the real handle."""

    def __init__(self, fh, *, failed_writes: int = 0, failed_truncates: int = 0) -> None:
        self._fh = fh
        self.failed_writes = failed_writes
        self.failed_truncates = failed_truncates

    def write(self, data: bytes) -> int:
        if self.failed_writes:
            self.failed_writes -= 1
            self._fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def truncate(self, size: int) -> int:
        if self.failed_truncates:
            self.failed_truncates -= 1
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.truncate(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)
