"""Mutation runner: which hand-written mutants of ``src/repro`` does the suite kill?

Run from anywhere; the repo is the one this file sits in::

    python tests/mutants/run.py                       # run all, print the kill table
    python tests/mutants/run.py --check --jobs 2
    python tests/mutants/run.py --only auction-payment-ratio

A mutant is ``(id, path, old, new)``: ``path`` is relative to
``src/repro`` and ``old`` must occur exactly once in that file.  Each
mutant is applied to a temporary copy of ``src/`` and ``tests/`` — never
to the working tree — and then ``pytest -x`` runs over the test files
that import the mutated module (those naming it as ``repro.core.auction``
and so on, and those importing ``tests/helpers.py`` when it does), with
a fixed Hypothesis seed and an empty example database so a kill table
is reproducible.  A failing, erroring or timed-out run kills the
mutant.

The run prints one row per mutant (the first test that failed on it)
and the score per module.  ``--check`` exits 1 when any mutant
survives, so deleting the only test that caught one fails.  Mutants
listed in :data:`EQUIVALENT` cannot change behaviour and are not run;
the row carries the reason.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: The full solve's checkpoint, taken as an app's first move is popped.
_CHECKPOINT = (
    "        if checkpoints is not None and app_id not in checkpoints:\n"
    "            checkpoints[app_id] = _Checkpoint(\n"
    "                heap[:], dict(remaining), dict(assignment), dict(bundle_keys),\n"
    "                dict(values), dict(granted), dict(app_moved_at),\n"
    "                dict(machine_moved_at), tuple(moves),\n"
    "            )\n"
)

#: ``(id, path under src/repro, old, new)``; production lines only,
#: never a reference implementation the tests compare against.
MUTANTS = [
    # core/auction.py: the one greedy solver, the Nash objective's keys; the payments
    ("auction-gain-tiebreak-step", "core/auction.py", "return (1, -gain, step,", "return (1, -gain, -step,"),
    ("auction-gain-tiebreak-ids", "core/auction.py",
     "return (1, -gain, step, app_id, machine_id)", "return (1, -gain, step, machine_id, app_id)"),
    ("auction-rescue-tiebreak-free", "core/auction.py",
     "step, -free * bid.machine_speed", "step, free * bid.machine_speed"),
    ("auction-rescue-largest-value", "core/auction.py", "return (0, -value, step,", "return (0, value, step,"),
    ("auction-gain-steps", "core/auction.py", "(1,) if chunk <= 1 else (1, chunk)", "(1,)"),
    ("auction-payment-ratio", "core/auction.py",
     "math.log(v_with) - math.log(v_without)", "math.log(v_without) - math.log(v_with)"),
    ("auction-payment-keep-floor", "core/auction.py", "math.floor(fraction", "math.ceil(fraction"),
    ("auction-shrink-order", "core/auction.py", "(shrunk[m], m)", "(-shrunk[m], m)"),
    # the payment re-solves' resume: checkpoint at the first win, before
    # the move, and the excluded app's entries dropped
    ("auction-resume-first-win", "core/auction.py",
     "if checkpoints is not None and app_id not in checkpoints:", "if checkpoints is not None:"),
    ("auction-checkpoint-after-move", "core/auction.py",
     _CHECKPOINT + "        apply(*move)\n", "        apply(*move)\n" + _CHECKPOINT),
    ("auction-resume-keeps-excluded", "core/auction.py",
     "heap = [entry for entry in resume.heap if entry[1][0] != exclude]",
     "heap = list(resume.heap)"),
    ("auction-class-rescue-free", "core/auction.py",
     "cap = math.inf if current_value <= objective.rescue_at else min(", "cap = min("),
    ("auction-memo-chunk", "core/auction.py",
     "memo_key = (machine_id, current_key, chunk)",
     "memo_key = (machine_id, current_key, min(CHUNK_SIZE, headroom))"),
    ("auction-successor-skips-touched", "core/auction.py",
     "if machine_moved_at.get(members[successor], 0) <= built_at:", "if True:"),
    ("auction-stale-row", "core/auction.py",
     "app_moved_at[app_id] > built_at", "app_moved_at[app_id] >= built_at"),
    ("auction-overallocation-unchecked", "core/auction.py",
     "if left < 0:", "if False:"),
    # the one offer vector and the sparse machine clock
    ("auction-offer-identity-any-dict", "core/auction.py",
     "if type(pool) is OfferCounts:", "if isinstance(pool, dict):"),
    ("auction-sparse-clock-default", "core/auction.py",
     "if machine_moved_at.get(machine_id, 0) > built_at:",
     "if machine_moved_at.get(machine_id, 1) > built_at:"),
    # the values the solves hand back: each bidder's last move, and a
    # shrunk winner's kept bundle asked again
    ("auction-values-first-move", "core/auction.py",
     "    return assignment, moves, values\n",
     "    return assignment, moves, {**values, **{m[0]: m[3] for m in reversed(moves)}}\n"),
    ("auction-kept-value-unshrunk", "core/auction.py",
     "kept_values[app_id] = bids[app_id].value_of(shrunk)", "pass"),
    ("auction-merged-key-order", "core/fairness.py", "machine > machine_id", "machine < machine_id"),
    # core/fairness.py: the carve kernel and the valuation cache
    ("fairness-carve-rack-preference", "core/fairness.py",
     "if entry[4] in used_racks:", "if entry[4] not in used_racks:"),
    ("fairness-carve-insort-start", "core/fairness.py",
     "                    pick,\n", "                    pick + 1,\n"),
    ("fairness-carve-slot-level", "core/fairness.py",
     "first_count <= NVLINK_GROUP_SIZE", "first_count < NVLINK_GROUP_SIZE"),
    ("fairness-carve-rack-level", "core/fairness.py",
     "elif len(used_racks) == 1:", "elif len(used_racks) == 2:"),
    ("fairness-carve-single-gpu-factor", "core/fairness.py",
     "CLUSTER\n        factor = 1.0 if total <= 1", "CLUSTER\n        factor = 1.0 if total <= 0"),
    ("fairness-carve-family-rekey", "core/fairness.py", "if job_row is not row:", "if False:"),
    ("fairness-value-ceiling", "core/fairness.py",
     "return VALUE_CEILING\n    return", "return 0.0\n    return"),
    ("fairness-rate-signature", "core/fairness.py",
     "if signature != self.rate_signature:", "if self.rate_signature is None:"),
    ("fairness-drift-tie", "core/fairness.py", " or job.job_id < prev_job.job_id", ""),
    ("fairness-drift-total", "core/fairness.py", "snap.total_remaining = total", "pass"),
    ("fairness-held-app-reuse", "core/fairness.py",
     "(bumped or self.base_counts) and not self._walk", "bumped and not self._walk"),
    # the walk after an epoch bump, and the kernel signature it keeps
    ("fairness-walk-skips-activity", "core/fairness.py",
     "if not job.is_active or job.max_parallelism != job_tuple[1]:",
     "if job.max_parallelism != job_tuple[1]:"),
    ("fairness-walk-skips-cap", "core/fairness.py",
     "if not job.is_active or job.max_parallelism != job_tuple[1]:", "if not job.is_active:"),
    ("fairness-first-winner-signature-id-free", "core/fairness.py",
     "if self.first_winner:\n            return tuple(item[1:] for item in tuples)",
     "if False:\n            return tuple(item[1:] for item in tuples)"),
    ("fairness-resort-keeps-any-shapes", "core/fairness.py",
     "        if self._signature(tuples) != self.rate_signature:\n"
     "            self._rebuild_snapshot(tuples, jobs)\n            return\n", ""),
    ("fairness-first-winner-min", "core/fairness.py",
     "if per_job < delta:", "if per_job > delta:"),
    # new holdings keep the base shape; another family set's machine reads
    ("fairness-base-kernel-kept", "core/fairness.py",
     "                )\n                self._base_kernel = None\n        return self.snapshot",
     "                )\n        return self.snapshot"),
    ("fairness-machine-reads-any-families", "core/fairness.py",
     "reads = self._reads_by_families.get(families)",
     "reads = next(iter(self._reads_by_families.values()), None)"),
    # a reorder keeps the state's kernel cache (rate, pairs or packing)
    ("fairness-kernel-cache-kept", "core/fairness.py",
     "            self._kernel_cache = {}\n", ""),
    # the round's probe: reused by the bid only until a refresh
    ("fairness-probe-kept-on-refresh", "core/fairness.py",
     "        self._probe = None\n        app = self.app\n", "        app = self.app\n"),
    ("fairness-probe-reuse-ignores-epoch", "core/fairness.py",
     "probe[0] == now and self.epoch == self.app.epoch", "probe[0] == now"),
    # the row tables: slot key and lifetime
    ("row-table-key-drops-position", "core/fairness.py",
     "slot = (position, label, speeds, step)", "slot = (label, speeds, step)"),
    ("row-table-key-drops-rack-label", "core/fairness.py",
     "slot = (position, label, speeds, step)", "slot = (position, speeds, step)"),
    ("row-table-survives-signature", "core/fairness.py",
     "            self._row_tables = {}\n", ""),
    # the machine shape class both Themis' and Gandiva's bidders use
    ("shape-class-position", "core/fairness.py",
     "            position,\n            rack_index", "            0,\n            rack_index"),
    ("shape-class-step-cap", "core/fairness.py",
     "            speeds,\n            free if free < cap else cap,\n", "            speeds,\n"),
    # the canonical key merge under every total-key probe
    ("fairness-merge-sum", "core/fairness.py", "count_a + count_b", "count_a"),
    ("fairness-merge-order", "core/fairness.py", "machine_a < machine_b", "machine_a > machine_b"),
    # core/arbiter.py: the 1 - f filter and the leftovers
    ("arbiter-filter-count", "core/arbiter.py", "max(1, math.ceil(", "max(1, math.floor("),
    ("arbiter-filter-order", "core/arbiter.py", "(-rhos[a], a)", "(rhos[a], a)"),
    ("arbiter-probes-every-agent", "core/arbiter.py",
     "for app_id in eligible}", "for app_id in agents}"),
    ("arbiter-leftover-colocated", "core/arbiter.py",
     "if held.count_on(machine_id)]", "if not held.count_on(machine_id)]"),
    ("arbiter-leftover-forgets-grants", "core/arbiter.py", "insort(local, choice)", "pass"),
    ("arbiter-leftover-non-participants", "core/arbiter.py",
     "if app_id not in participant_set\n", "if app_id in participant_set\n"),
    ("arbiter-leftover-fastest-first", "core/arbiter.py",
     "self._drain_order = sorted(speed_of, key=lambda m: (-speed_of[m], m))",
     "self._drain_order = sorted(speed_of, key=lambda m: (speed_of[m], m))"),
    ("arbiter-leftover-rank-walk", "core/arbiter.py",
     "for machine_id in sorted(leftover, key=self._drain_rank.__getitem__):",
     "for machine_id in leftover:"),
    ("arbiter-leftover-no-early-stop", "core/arbiter.py",
     "                    if not headroom:\n                        return unassigned\n", ""),
    # core/bids.py: the offer check and the noise
    ("bids-offer-check", "core/bids.py",
     "self.offered_counts.get(machine_id, 0):", "self.offered_counts.get(machine_id, 0) + 1:"),
    ("bids-noise-range", "core/bids.py", "(2.0 * fraction - 1.0)", "fraction"),
    ("bids-rho-cache-coarse-key", "core/bids.py",
     "cached = self._rho_cache.get(key)", "cached = self._rho_cache.get(key[:1])"),
    ("auction-noisy-rows-grouped", "core/bids.py", " or self.noise_theta > 0.0:", ":"),
    ("bids-class-probe-zero-kernel", "core/bids.py",
     "                elif kernel <= 0:\n                    delta = math.inf\n", ""),
    # core/leases.py; README M4: a release does not refill the free index.
    ("M4-release-keeps-free", "core/leases.py",
     "self._free[gpu.machine_id] = free[:at] + (gpu,) + free[at:]", "pass"),
    ("leases-grant-keeps-free", "core/leases.py",
     "self._free[gpu.machine_id] = free[:at] + free[at + 1 :]", "pass"),
    ("leases-release-out-of-slot-order", "core/leases.py",
     "free[:at] + (gpu,) + free[at:]", "free + (gpu,)"),
    ("leases-expired-dropped-on-full-machine", "core/leases.py",
     "if free or machine_id in expired", "if free"),
    ("leases-renewal-keeps-old-expiry", "core/leases.py",
     "        else:\n            self._drop_expiry(old)\n", ""),
    ("leases-expiry-edge", "core/leases.py", "now >= self.expiry - 1e-9", "now > self.expiry"),
    ("leases-revocation-tally", "core/leases.py", "get(reason, 0) + 1", "get(reason, 0) or 1"),
    # core/assignment.py: concretise, the additive objective and its bidder, take_packed
    ("assignment-concretise-largest-first", "core/assignment.py",
     "(-item[1], item[0])", "(item[1], item[0])"),
    ("assignment-additive-threshold", "core/assignment.py", "if gain > 1e-12 else", "if gain > 0.0 else"),
    ("assignment-additive-step-tiebreak", "core/assignment.py",
     "return (-gain, step, app_id", "return (-gain, -step, app_id"),
    ("assignment-bundle-sorted-order", "core/assignment.py",
     "            bundle = dict(held)\n", "            bundle = dict(key)\n"),
    ("assignment-class-probe-uncached", "core/assignment.py",
     "value = values[key, machine_id, step] = probe(", "value = probe("),
    ("assignment-packed-preferred-first", "core/assignment.py",
     "preferred + rest:", "rest + preferred:"),
    # schedulers/: each policy's states, built with its kernel, dropped on finish
    ("gandiva-states-rate-kernel", "schedulers/gandiva.py",
     "    packing = True\n", "    packing = False\n"),
    ("themis-keeps-finished-state", "schedulers/themis.py",
     "        super().on_app_finish(now, app)\n", ""),
    # schedulers/slaq.py: the effective-compute class of SLAQ and Optimus
    ("slaq-class-step-cap", "schedulers/slaq.py",
     "(speed_of.get(machine_id, 1.0), free if free < cap else cap)",
     "(speed_of.get(machine_id, 1.0),)"),
    ("slaq-class-held-as-new", "schedulers/slaq.py", "if machine_id in bundle:", "if False:"),
    ("optimus-base-ignores-held", "schedulers/optimus.py",
     "base = bases.get(held)", "base = next(iter(bases.values()), None)"),
    # README's dirty-tracking mutants outside core/
    ("M1-tuner-step-without-invalidate", "simulation/simulator.py",
     "app.invalidate()\n            for job in victims:", "for job in victims:"),
    ("M3-failure-path-untracked", "simulation/simulator.py",
     "overhead=0.0)\n                self._track_held_job(job)", "overhead=0.0)"),
    ("M5-allocation-ignores-epoch", "workload/app.py",
     "_alloc_cache\n        if cached is not None and cached[0] == self._epoch:",
     "_alloc_cache\n        if cached is not None:"),
    ("M6-demand-ignores-epoch", "workload/app.py",
     "cached[0] != self._epoch:\n            cached = self._count_demand()\n        return cached[3]",
     "False:\n            cached = self._count_demand()\n        return cached[3]"),
    ("M7-kill-without-on-mutate", "workload/job.py",
     "            self.on_mutate()\n\n    # ---", "            pass\n\n    # ---"),
    ("M9-install-untracked", "simulation/simulator.py",
     "self._track_held_job(job)\n            self._emit_job_state", "self._emit_job_state"),
    ("M10-ideal-cache-kept", "workload/app.py", "self._ideal_cache.clear()", "pass"),
    ("ideal-key-ignores-caps", "workload/app.py",
     "[job.max_parallelism for job", "[job.spec.max_parallelism for job"),
    # obs/: the bounded series and the two per-round metrics
    ("reservoir-thin-keeps-odd", "obs/reservoir.py", "self._items[::2]", "self._items[1::2]"),
    ("reservoir-cap-check", "obs/reservoir.py",
     "len(self._items) > self.cap", "len(self._items) >= self.cap"),
    ("metrics-fragmentation-square", "obs/metrics.py", "acc += share * share", "acc += share"),
    ("metrics-percentile-rank", "obs/metrics.py", "math.ceil(q", "math.floor(q"),
    ("simulator-guard-ignores-pool", "simulation/simulator.py",
     "last[0] == now and _same_gpus(last[1], pool)", "last[0] == now"),
    ("simulator-retained-keeps-expired", "simulation/simulator.py",
     "[gpu for gpu in held if gpu.gpu_id not in expired] if expired else list(held)",
     "list(held)"),
    # simulation/simulator.py + workload/app.py: the delta install
    ("install-memo-ignores-epoch", "simulation/simulator.py",
     "noop[0] == epoch and noop[1] == granted_ids", "noop[1] == granted_ids"),
    ("install-skips-expired-renewal", "simulation/simulator.py",
     "                for gpu in renewals[job_id]:\n"
     "                    self._grant_lease(now, app_id, job_id, gpu)\n", ""),
    ("distribute-empty-scan-ignores-mismatch", "workload/app.py",
     "                    if not key[0]:\n                        break",
     "                    break"),
    ("simulator-starvation-count", "simulation/simulator.py",
     "rounds = since.get(app_id, 0) + 1", "rounds = since.get(app_id, 0)"),
    # service/daemon.py: transition records carry only what their move set;
    # the report's token fence, the admission gate, the result encode check
    ("daemon-report-ignores-token", "service/daemon.py",
     "elif job.token is None or job.token != token.to_json():", "elif job.token is None:"),
    ("daemon-claim-ignores-admission", "service/daemon.py",
     "if not self.admission.may_admit(job, usage):\n                    continue",
     "if False:\n                    continue"),
    ("daemon-self-execute-ignores-admission", "service/daemon.py",
     "if not self.admission.may_admit(job, usage):\n                continue",
     "if False:\n                continue"),
    ("daemon-complete-skips-encode", "service/daemon.py",
     "if outcome.ok and outcome.result is not None:", "if False:"),
    ("daemon-finish-keeps-worker", "service/daemon.py",
     "token=None, result=outcome.result, worker=None,", "token=None, result=outcome.result,"),
    ("daemon-replay-skips-token", "service/daemon.py",
     '"token", "result", "worker", "started_at",', '"result", "worker", "started_at",'),
    ("daemon-record-without-changes", "service/daemon.py",
     "at=now,\n            **changes,\n", "at=now,\n"),
    # service/daemon.py: the tick's reapers (stalled claims, deadlines) and
    # the flush of records buffered while the store was down
    ("daemon-stalled-dispatch-ignores-age", "service/daemon.py",
     "                and job.worker is not None\n"
     "                and now - job.updated_at > self.dispatch_timeout\n",
     "                and job.worker is not None\n"),
    ("daemon-stalled-dispatch-edge", "service/daemon.py",
     "now - job.updated_at > self.dispatch_timeout", "now - job.updated_at >= self.dispatch_timeout"),
    ("daemon-stalled-dispatch-reaps-running", "service/daemon.py",
     "                job.state is JobState.DISPATCHED\n                and job.worker is not None\n",
     "                job.state in (JobState.DISPATCHED, JobState.RUNNING)\n"
     "                and job.worker is not None\n"),
    ("daemon-deadline-edge", "service/daemon.py",
     "if now - started > job.max_runtime_s:", "if now - started >= job.max_runtime_s:"),
    ("daemon-deadline-any-state", "service/daemon.py",
     "if job.state is not JobState.RUNNING or job.max_runtime_s is None:",
     "if job.max_runtime_s is None:"),
    ("daemon-deadline-fatal", "service/daemon.py",
     "                        FailureKind.TRANSIENT,\n                        detail=(\n"
     "                            \"deadline exceeded",
     "                        FailureKind.FATAL,\n                        detail=(\n"
     "                            \"deadline exceeded"),
    ("daemon-flush-stays-degraded", "service/daemon.py",
     "        self.degraded = False\n        logger.info(", "        logger.info("),
    ("daemon-flush-drops-failed-record", "service/daemon.py",
     "            kind, fields = self._pending[0]\n", "            kind, fields = self._pending.popleft()\n"),
    ("daemon-flush-newest-first", "service/daemon.py",
     "kind, fields = self._pending[0]", "kind, fields = self._pending[-1]"),
    # service/store.py: the WAL is cut in place, at compaction and after a failed append
    ("store-reset-skips-header", "service/store.py",
     "if not length and self._fh.write(_HEADER)", "if False and self._fh.write(_HEADER)"),
    ("store-append-no-rollback", "service/store.py",
     "self._cut(self._wal_bytes)\n            raise", "pass\n            raise"),
    # experiments/figures.py: fig05-07's one "ideal" for every scheduler
    ("figure-ideal-per-cell", "experiments/figures.py",
     "distance_from_ideal(result.rhos(), peak)",
     "distance_from_ideal(result.rhos(), result.peak_contention)"),
    # experiments/config.py: the one preset dispatch; cli/: bound types, the service wrapper
    ("preset-hetero-to-sim", "experiments/config.py",
     '"hetero": hetero_scenario}', '"hetero": sim_scenario}'),
    ("preset-base-beats-given-knob", "experiments/config.py",
     "knobs.items() if value is not None)",
     "knobs.items() if value is not None and name not in applied)"),
    ("preset-scale-across-kinds", "experiments/config.py",
     "if kind == base.cluster_kind:", "if True:"),
    ("cli-positive-int-accepts-0", "cli/args.py",
     "lambda value: value >= 1,", "lambda value: value >= 0,"),
    ("cli-positive-float-accepts-0", "cli/args.py",
     "math.isfinite(value) and value > 0", "math.isfinite(value) and value >= 0"),
    ("cli-service-error-exits-0", "cli/service.py",
     "file=sys.stderr)\n            return 1", "file=sys.stderr)\n            return 0"),
]

#: Mutants that cannot change any observable behaviour, with the reason.
EQUIVALENT = {
    "fairness-carve-single-gpu-factor": (
        "a one-GPU allotment sits on one machine inside one NVLink group "
        "(NVLINK_GROUP_SIZE >= 1), whose SLOT factor is 1.0 for every profile"
    ),
}

#: Seconds one mutant's pytest run may take before it counts as a hang.
DEFAULT_TIMEOUT = 600


def importers(path: str, tests: Path) -> list[list[str]]:
    """Test files to run, in rounds: the files naming the module
    (``core/auction.py`` -> ``repro.core.auction``), the ones named after
    it first; then, if ``helpers.py`` names it, the other test files that
    import ``helpers``.  Empty rounds are dropped."""
    module = "repro." + path[: -len(".py")].replace("/", ".")
    pattern = re.compile(rf"\b{re.escape(module)}\b")
    sources = {f.name: f.read_text() for f in sorted(tests.glob("test_*.py"))}
    direct = [name for name, text in sources.items() if pattern.search(text)]
    direct.sort(key=lambda name: Path(path).stem not in name)
    via_helpers = []
    if pattern.search((tests / "helpers.py").read_text()):
        uses = re.compile(r"^(?:from helpers |import helpers)", re.MULTILINE)
        via_helpers = [n for n, text in sources.items() if n not in direct and uses.search(text)]
    return [files for files in (direct, via_helpers) if files]


def check_mutants(src: Path) -> None:
    """Every mutant's ``old`` occurs exactly once; ids are unique."""
    ids = [mutant[0] for mutant in MUTANTS]
    if len(set(ids)) != len(ids):
        raise SystemExit("duplicate mutant ids")
    for mutant_id, path, old, _new in MUTANTS:
        count = (src / "repro" / path).read_text().count(old)
        if count != 1:
            raise SystemExit(f"{mutant_id}: 'old' occurs {count} times in {path}")


def make_workdir() -> Path:
    """A scratch copy of ``src/``, ``tests/``, ``pyproject.toml`` and the
    sources some tests read besides (``examples/``, ``benchmarks/``)."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-mutant-"))
    ignore = shutil.ignore_patterns(
        "__pycache__", ".hypothesis", "*.pyc", "results", ".work", "traces", "out"
    )
    for top in ("src", "tests", "examples", "benchmarks"):
        shutil.copytree(ROOT / top, workdir / top, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", workdir / "pyproject.toml")
    return workdir


def run_mutant(mutant, workdir: Path, timeout: float) -> dict:
    """Apply one mutant in ``workdir``, run its tests, restore the file."""
    mutant_id, path, old, new = mutant
    row: dict = {"module": path}
    if mutant_id in EQUIVALENT:
        return {**row, "status": "equivalent", "reason": EQUIVALENT[mutant_id]}
    rounds = importers(path, workdir / "tests")
    if not rounds:
        return {**row, "status": "survived", "by": "no test file imports the module"}
    target = workdir / "src" / "repro" / path
    original = target.read_text()
    target.write_text(original.replace(old, new, 1))
    # No bytecode: a mutant and its restore can land in one second with
    # one size, which a timestamp-checked .pyc would not notice.
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        # A later round runs only for a mutant the earlier ones left alive.
        for files in rounds:
            # From an empty example database: the examples an earlier
            # mutant's failing run saved would be replayed first, so which
            # test kills a mutant would depend on the mutants before it.
            shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
            command = [
                sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *[f"tests/{name}" for name in files],
            ]
            done = subprocess.run(
                command, cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout
            )
            if done.returncode != 0:
                # The summary line names a test; a captured log line
                # ("ERROR repro.service.daemon: ...") must not.
                failed = re.search(r"^(?:FAILED|ERROR) (tests/\S+)", done.stdout, re.MULTILINE)
                by = failed.group(1) if failed else done.stdout[-200:]
                return {**row, "status": "killed", "by": by}
    except subprocess.TimeoutExpired:
        return {**row, "status": "killed", "by": f"timeout after {timeout:g} s"}
    finally:
        target.write_text(original)
    return {**row, "status": "survived", "by": None}


def run_all(mutants, jobs: int, timeout: float) -> dict[str, dict]:
    """Kill table, in mutant order; ``jobs`` scratch copies run side by side."""

    def run_share(share) -> dict[str, dict]:
        workdir = make_workdir()
        rows = {}
        try:
            for mutant in share:
                rows[mutant[0]] = row = run_mutant(mutant, workdir, timeout)
                print(f"{mutant[0]:40s} {row['status']:10s} {row.get('by') or row.get('reason', '')}", flush=True)
            return rows
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    table: dict[str, dict] = {}
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(run_share, [mutants[i::jobs] for i in range(jobs)]):
            table.update(part)
    return {mutant[0]: table[mutant[0]] for mutant in mutants}


def print_scores(table: dict[str, dict]) -> None:
    """``killed/killable`` per module (equivalent mutants excluded)."""
    per_module: dict[str, list[int]] = {}
    for row in table.values():
        if row["status"] == "equivalent":
            continue
        tally = per_module.setdefault(row["module"], [0, 0])
        tally[0] += row["status"] == "killed"
        tally[1] += 1
    for module, (killed, total) in sorted(per_module.items()):
        print(f"{module:40s} {killed}/{total}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="ID", help="run just these mutants")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run side by side")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    parser.add_argument("--check", action="store_true", help="exit 1 if any mutant survives")
    args = parser.parse_args(argv)
    check_mutants(ROOT / "src")
    mutants = [m for m in MUTANTS if not args.only or m[0] in args.only]
    table = run_all(mutants, max(1, args.jobs), args.timeout)
    print_scores(table)
    survivors = [mutant_id for mutant_id, row in table.items() if row["status"] == "survived"]
    if args.check and survivors:
        print(f"surviving: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
