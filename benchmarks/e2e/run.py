#!/usr/bin/env python3
"""One end-to-end benchmark: six workloads, end-to-end and per-layer metrics.

    python benchmarks/e2e/run.py                      # everything, R=3 + one traced pass
    python benchmarks/e2e/run.py --workload sim-wide --repeats 5 --json out.json
    python benchmarks/e2e/run.py --selfcheck          # two sets, differences vs bounds
    python benchmarks/e2e/run.py --smoke              # ~1/10 size, seconds
    python benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1

The last form is the one a driver calls; it ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
root of the checkout; this file only measures.  Every pass runs in a
fresh child interpreter (``worker.py``, ``PYTHONHASHSEED=0``), one at a
time; with several workloads the repeats interleave A B C ... A B C so
slow drift of the box hits all of them alike.  README.md says what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from speed import REFERENCE_KERNEL_S  # noqa: E402 - sibling module

#: Simulated metrics: absent on service-drain, which simulates nothing.
#: The driver's line must still carry every end-to-end metric for every
#: workload and none may be 0, so there it holds this neutral constant.
SIM_ONLY = ("max_rho", "avg_jct_min", "gpu_time_h")
NOT_SIMULATED = 1.0

#: Every workload is one closed loop on one thread (the service.api
#: probe: one client thread), so one core is all the load there is.
LOAD_GENERATORS = 1

CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, traced: bool, smoke: bool, trace_out) -> dict:
    """One pass in a fresh interpreter; returns its record."""
    spec = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "trace_out": str(Path(trace_out) / f"{workload}.spans.jsonl")
        if traced and trace_out
        else None,
    }
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def provenance(seed: int, repeats: int, numpy_version: str, loadavg: float) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():  # a driver's checkout is not a repository
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
            ).stdout.strip() or commit
        except OSError:
            pass
    cpu = platform.processor() or "unknown"
    try:
        match = re.search(r"model name\s*:\s*(.+)", Path("/proc/cpuinfo").read_text())
        cpu = match.group(1) if match else cpu
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "load_generators": LOAD_GENERATORS,
        "loadavg_1m_at_start": loadavg,
        "seed": seed,
        "repeats": repeats,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure(contract: dict, workloads: list[str], args, traced: bool, untraced: int) -> dict:
    """``untraced`` interleaved rounds of passes, then one traced pass each."""
    passes: dict[str, list[dict]] = {w: [] for w in workloads}
    started = time.monotonic()
    longest = 0.0
    for round_no in range(untraced):
        elapsed = time.monotonic() - started
        if args.seconds is not None and round_no and elapsed + longest > args.seconds:
            break
        for workload in workloads:
            passes[workload].append(
                run_child(workload, args.seed, False, args.smoke, None)
            )
        longest = max(longest, time.monotonic() - started - elapsed)
    if args.trace_out and traced:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    results = {}
    for workload in workloads:
        runs = passes[workload]
        traced_run = (
            run_child(workload, args.seed, True, args.smoke, args.trace_out)
            if traced
            else None
        )
        results[workload] = summarise_workload(contract, units, runs, traced_run)
    return results


def summarise_workload(contract: dict, units: dict, runs: list[dict], traced_run) -> dict:
    """Medians over the untraced passes, the traced pass's layer table, checks.

    The passes already read every host timing off their reference
    clock (speed.py), so values from different passes are comparable.
    """
    every = runs + ([traced_run] if traced_run else [])
    failures = [msg for run in every for msg in run["failures"]]
    # Simulated output is deterministic: any two passes of one
    # invocation, traced or not, must agree to the last bit.
    digests = {run["digest"] for run in every if "digest" in run}
    if len(digests) > 1:
        failures.append(f"result_digest differs between passes: {sorted(digests)}")
    end_to_end = {}
    for metric in contract["end_to_end"]:
        name = metric["name"]
        values = [run["end_to_end"][name] for run in runs if name in run["end_to_end"]]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        if name in SIM_ONLY and len(set(values)) > 1:
            failures.append(f"{name} differs between passes: {values}")
        end_to_end[name] = {
            "value": median, "unit": units[name], "q1": q1, "q3": q3, "n": len(values)
        }
    attempted = sum(run["ops"] for run in every)
    failed = min(len(failures), attempted)
    summary = {
        "ops_per_pass": every[0]["ops"],
        "untraced_passes": len(runs),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": min(digests) if digests else None,
        "cells": every[0].get("cells", []),
        "numpy": every[0]["numpy"],
        # > 1: the box ran slower than the reference while measuring.
        "speed_factor": statistics.median(
            run["kernel_s"] / REFERENCE_KERNEL_S for run in every
        ),
        "end_to_end": end_to_end,
    }
    if traced_run:
        produced = dict(traced_run["per_layer"])
        produced["bench.speed_factor"] = traced_run["kernel_s"] / REFERENCE_KERNEL_S
        produced["failed_frac"] = failed / attempted
        names = [metric["name"] for metric in contract["per_layer"]]
        unknown = sorted(set(produced) - set(names))
        if unknown:
            raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload never enters reports 0 for each of its metrics.
        summary["per_layer"] = {
            name: {"value": produced.get(name, 0), "unit": units[name]} for name in names
        }
        if runs:
            # Informational: the two passes ran minutes apart on a box
            # that drifts; bench.trace_overhead is the steadier number.
            summary["traced_over_untraced_wall"] = (
                traced_run["end_to_end"]["wall_s"] / end_to_end["wall_s"]["value"]
            )
    return summary


def report(contract: dict, workload: str, summary: dict, seed: int) -> None:
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    traced = "per_layer" in summary
    print(
        f"## {workload}  seed={seed}  ops/pass={summary['ops_per_pass']}  "
        f"result_digest={summary['digest']}"
    )
    for cell in summary["cells"]:
        print(
            f"   {cell['cell']}: {cell['rounds']} rounds, {cell['wall_s']:.3f} s, "
            f"digest {cell['digest'][:16]}"
        )
    print(
        f"   box speed while measuring: {summary['speed_factor']:.2f}x the reference "
        "kernel time; host timings are read off the reference clock (speed.py)"
    )
    for name, m in summary["end_to_end"].items():
        print(
            f"  {name} = {m['value']:.6g} {m['unit']}  "
            f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']} passes; "
            f"bound {bounds[name]:.1%})"
        )
    for name in SIM_ONLY:
        if name not in summary["end_to_end"] and summary["end_to_end"]:
            print(f"   ({name}: not simulated on {workload})")
    if traced:
        for name, m in summary["per_layer"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if "traced_over_untraced_wall" in summary:
        print(
            "   traced wall_s / untraced median wall_s: "
            f"{summary['traced_over_untraced_wall']:.3f}"
        )
    for failure in summary["failures"]:
        print(f"  FAILED CHECK: {failure}")
    print(
        f"   checks: {summary['failed']} failed of {summary['attempted']} ops"
        + ("" if traced else " (per-layer metrics need the traced pass)")
    )


def selfcheck(contract: dict, workloads: list[str], args) -> int:
    """Two complete sets of untraced runs; differences next to the bounds."""
    sets = [measure(contract, workloads, args, False, args.repeats) for _ in range(2)]
    worst = 0
    print(f"{'workload':<20}{'metric':<14}{'set A':>12}{'set B':>12}{'diff':>9}{'bound':>8}")
    for workload in workloads:
        first, second = (s[workload]["end_to_end"] for s in sets)
        for metric in contract["end_to_end"]:
            name = metric["name"]
            if name not in first:
                continue
            a, b = first[name]["value"], second[name]["value"]
            diff = abs(b - a) / a
            over = diff > metric["bound"]
            worst += over
            print(
                f"{workload:<20}{name:<14}{a:>12.6g}{b:>12.6g}{diff:>9.2%}"
                f"{metric['bound']:>8.1%}{'  EXCEEDS' if over else ''}"
            )
        failed = sum(s[workload]["failed"] for s in sets)
        if sets[0][workload]["digest"] != sets[1][workload]["digest"]:
            print(f"{workload:<20}result_digest differs between the sets")
            failed += 1
        worst += failed
    print("selfcheck: " + ("FAILED" if worst else "every difference within its bound"))
    return 1 if worst else 0


def driver_line(contract: dict, summary: dict, trace: int) -> str:
    if trace:
        metrics = summary["per_layer"]
    else:
        metrics = {
            m["name"]: summary["end_to_end"].get(
                m["name"], {"value": NOT_SIMULATED, "unit": m["unit"]}
            )
            for m in contract["end_to_end"]
        }
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in metrics.items()
            },
        }
    )


def main(argv=None) -> int:
    loadavg = os.getloadavg()[0]
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all six")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help="untraced passes (default 3)")
    parser.add_argument(
        "--seconds",
        type=float,
        help="add untraced passes only while the next should end within this",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="driver mode: 0 = untraced passes only, 1 = the traced pass only; "
        "the last line of output is the driver's JSON object",
    )
    parser.add_argument("--json", metavar="OUT", help="write every number here")
    parser.add_argument("--trace-out", metavar="DIR", help="span JSONL per workload")
    parser.add_argument("--smoke", action="store_true", help="about 1/10 size")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if LOAD_GENERATORS > (os.cpu_count() or 1):
        parser.error("more load generators than cores")
    workloads = [args.workload] if args.workload else names
    if args.repeats is None:
        # Under a time budget the budget decides; 16 is only a backstop.
        args.repeats = 16 if args.seconds else 3

    if args.selfcheck:
        return selfcheck(contract, workloads, args)
    results = measure(
        contract, workloads, args, args.trace != 0, 0 if args.trace == 1 else args.repeats
    )
    for workload, summary in results.items():
        report(contract, workload, summary, args.seed)
    first = results[workloads[0]]
    info = provenance(args.seed, first["untraced_passes"], first["numpy"], loadavg)
    print("   " + json.dumps(info))
    if args.json:
        Path(args.json).write_text(
            json.dumps({"provenance": info, "workloads": results}, indent=1) + "\n"
        )
    failed = sum(summary["failed"] for summary in results.values())
    if args.trace is not None:
        print(driver_line(contract, results[args.workload], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
