"""Benchmark for the repro NoC simulator: end-to-end and per-layer timing.

Usage (from the repository root):

    python3 perf/run.py [--workload NAME[,NAME...]] [--seed N]
                        [--seconds S] [--trace 0|1] [--json OUT]

Each job runs in a fresh child process (``perf/child.py``), strictly one
at a time, and jobs repeat until ``--seconds`` have passed; every metric
is the median over the run's jobs.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` pairs each traced job (layer entry points wrapped
from outside, see ``layers.py``) with an untraced job on the same input
and reports the per-layer metrics plus ``trace_overhead``.

Every job's result digest is checked: against ``digests.json`` for the
pinned seeds, and against the other jobs of the run on the same input.
A mismatch fails the job's operations and the command exits 1.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import GROUPS, LAYERS
from workloads import WORKLOADS

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
DIGESTS = PERF / "digests.json"
#: Working space for the figure grid's artifacts and caches, inside the
#: repository and removed when the run ends.
WORK_DIR = ROOT / ".perf_work"

#: A seed expands into this many job inputs, which a run's jobs cycle
#: through, so a median averages over inputs as well as over host noise.
INPUTS_PER_SEED = 4
CHILD_TIMEOUT_S = 120
#: A job that got less CPU than this per wall second ran on a noisy host.
NOISY_CPU_UTIL = 0.9
#: Largest share of a traced run that may fall outside every layer.
UNATTRIBUTED_LIMIT = 0.05

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("peak_rss_mb", "MB"),
)

ACTIVITY = ("channel_visits", "router_visits", "ni_eject_visits", "ni_inject_visits")

#: Layers that do no work on at least one workload.  Their times are
#: printed and written to --json, but only their call counts go into the
#: result line: a time that reads 0.0 on every run cannot be told apart
#: from a broken timer.
IDLE_SOMEWHERE = (
    "traffic.synthesize", "faults.hardfaults", "faults.sensors",
    "faults.softerrors", "core.scrub", "campaign.pretrain",
    "campaign.artifact_io", "sweep.cell", "sweep.cache_io",
    "baselines.cart", "report",
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    names = [(f"{layer}.calls", "count") for layer, _ in LAYERS]
    for layer, _ in LAYERS:
        if layer not in IDLE_SOMEWHERE:
            names += [(f"{layer}.self_s", "s"), (f"{layer}.share", "ratio")]
    names += [(f"group.{group}.share", "ratio") for group in GROUPS]
    names += [
        ("unattributed.share", "ratio"),
        ("sim.epoch.p50_ms", "ms"),
        ("sim.epoch.p90_ms", "ms"),
        ("sim.epoch.samples", "count"),
    ]
    names += [(f"noc.activity.{key}", "count") for key in ACTIVITY]
    names += [
        ("noc.router.busy_fraction", "ratio"),
        ("host.cpu_util", "ratio"),
        ("trace_overhead", "ratio"),
    ]
    return tuple(names)


PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# Running jobs
# ----------------------------------------------------------------------
def input_seed(seed: int, index: int) -> int:
    """Input of a run's ``index``-th job pair."""
    return seed * INPUTS_PER_SEED + index % INPUTS_PER_SEED


def run_job(workload: str, seed: int, traced: bool) -> Dict[str, object]:
    """One job in a child process; an ``error`` key says why it failed."""
    command = [
        sys.executable, str(PERF / "child.py"),
        workload, str(seed), "1" if traced else "0", str(WORK_DIR),
    ]
    job: Dict[str, object] = {"seed": seed, "traced": traced}
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        job["error"] = f"timed out after {CHILD_TIMEOUT_S} s"
        return job
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        reason = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        job["error"] = f"exit code {proc.returncode}: {reason}"
        return job
    job.update(json.loads(lines[-1]))
    return job


def collect(workload: str, seed: int, seconds: float, traced: bool) -> List[Dict]:
    """Run jobs one after another until ``seconds`` have passed.

    A traced run pairs each traced job with an untraced one on the same
    input, alternating which of the two goes first.
    """
    jobs: List[Dict] = []
    started = time.monotonic()
    index = 0
    while not jobs or time.monotonic() - started < seconds:
        order = (False, True) if index % 2 == 0 else (True, False)
        for flag in order if traced else (False,):
            jobs.append(run_job(workload, input_seed(seed, index), flag))
        index += 1
    return jobs


# ----------------------------------------------------------------------
# Checking and summarizing
# ----------------------------------------------------------------------
def check(jobs: Sequence[Dict], pins: Dict[str, str], operations: int) -> List[str]:
    """Set each job's ``failed`` operation count; one line per problem.

    A job's digest must equal the pinned digest of its input, or (for an
    unpinned input) the first digest the run saw for that input, so
    traced and untraced jobs must agree too.
    """
    problems = []
    seen: Dict[int, str] = {}
    for number, job in enumerate(jobs):
        seed = job["seed"]
        expected = pins.get(str(seed), seen.get(seed))
        if "error" in job:
            job["failed"] = operations
            problems.append(f"FAILED job {number} (input {seed}): {job['error']}")
        elif expected is not None and job["digest"] != expected:
            job["failed"] = operations
            problems.append(
                f"FAILED job {number} (input {seed}): digest {job['digest'][:16]} "
                f"!= expected {expected[:16]}"
            )
        else:
            job["failed"] = int(job["failed_operations"])
            seen.setdefault(seed, job["digest"])
            if job["failed"]:
                problems.append(
                    f"FAILED job {number} (input {seed}): "
                    f"{job['failed']} of {operations} operations failed"
                )
    return problems


def flags(jobs: Sequence[Dict]) -> List[str]:
    """Host-noise flags, attribution-check misses and missing targets."""
    lines = []
    for number, job in enumerate(jobs):
        if "error" in job:
            continue
        if job["cpu_util"] < NOISY_CPU_UTIL:
            lines.append(
                f"NOISY HOST: job {number} got cpu_util {job['cpu_util']:.3f} "
                f"< {NOISY_CPU_UTIL}"
            )
        if job["traced"]:
            share = layer_values(job)["unattributed.share"]
            if share > UNATTRIBUTED_LIMIT:
                lines.append(
                    f"ATTRIBUTION: job {number} leaves {share:.1%} of run_s outside "
                    f"every layer (limit {UNATTRIBUTED_LIMIT:.0%})"
                )
    missing = sorted({line for job in jobs for line in job.get("missing", [])})
    lines += [f"MISSING layer target, skipped: {line}" for line in missing]
    return lines


def layer_values(job: Dict) -> Dict[str, float]:
    """Per-layer metrics of one traced job."""
    layers = job["layers"]
    window = layers["run"]
    run_s = job["run_s"]
    self_s = window["self_s"]
    values: Dict[str, float] = {}
    for layer, _ in LAYERS:
        values[f"{layer}.calls"] = window["calls"].get(layer, 0)
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.share"] = self_s.get(layer, 0.0) / run_s
    for group, members in GROUPS.items():
        values[f"group.{group}.share"] = sum(self_s.get(m, 0.0) for m in members) / run_s
    values["unattributed.share"] = 1.0 - sum(self_s.values()) / run_s
    for key in ACTIVITY:
        values[f"noc.activity.{key}"] = job["activity"].get(key, 0)
    values["noc.router.busy_fraction"] = (
        job["activity"].get("router_visits", 0) / job["node_cycles"]
        if job["node_cycles"] else 0.0
    )
    values["host.cpu_util"] = job["cpu_util"]
    # Layer time outside the timed run: trace synthesis during set-up,
    # the cache reads of the figure grid's warm rerun.
    for window_name in ("setup", "after"):
        for layer, seconds in layers.get(window_name, {}).get("self_s", {}).items():
            values[f"{window_name}.{layer}.self_s"] = seconds
    return values


def _medians(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({key for row in rows for key in row})
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}


def end_to_end(jobs: Sequence[Dict]) -> Dict[str, float]:
    """Medians over the untraced jobs."""
    rows = []
    for job in jobs:
        row = {
            "setup_s": job["setup_s"],
            "run_s": job["run_s"],
            "sim_cycles_per_s": job["sim_cycles"] / job["run_s"],
            "peak_rss_mb": job["peak_rss_mb"],
        }
        if "warm_rerun_s" in job:
            row["sweep.warm_rerun_s"] = job["warm_rerun_s"]
        rows.append(row)
    return _medians(rows)


def per_layer(jobs: Sequence[Dict]) -> Dict[str, float]:
    """Medians over the finished traced jobs, pooled epoch percentiles, and
    the traced/untraced run-time ratio over each pair that finished."""
    traced = [job for job in jobs if job["traced"] and "error" not in job]
    metrics = _medians([layer_values(job) for job in traced])
    samples = sorted(
        s for job in traced for s in job["layers"]["run"]["samples_s"].get("sim.epoch", [])
    )
    metrics["sim.epoch.samples"] = len(samples)
    metrics["sim.epoch.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
    metrics["sim.epoch.p90_ms"] = (
        statistics.quantiles(samples, n=10)[-1] * 1e3 if len(samples) > 1
        else metrics["sim.epoch.p50_ms"]
    )
    ratios = []
    for pair in zip(jobs[0::2], jobs[1::2]):
        if not any("error" in job for job in pair):
            wrapped, plain = sorted(pair, key=lambda job: not job["traced"])
            ratios.append(wrapped["run_s"] / plain["run_s"])
    metrics["trace_overhead"] = statistics.median(ratios) if ratios else 0.0
    return metrics


def summarize(
    workload: str, jobs: List[Dict], traced: bool, pins: Dict[str, str]
) -> Dict[str, object]:
    """Check every job and reduce the run to its metrics and result line."""
    operations = WORKLOADS[workload].operations
    problems = check(jobs, pins, operations)
    finished = [job for job in jobs if "error" not in job]
    metrics: Dict[str, float] = {}
    if any(not job["traced"] for job in finished):
        metrics.update(end_to_end([job for job in finished if not job["traced"]]))
    if traced and any(job["traced"] for job in finished):
        metrics.update(per_layer(jobs))
    attempted = operations * len(jobs)
    failed = sum(job["failed"] for job in jobs)
    reported = PER_LAYER if traced else END_TO_END
    return {
        "problems": problems,
        "flags": flags(finished),
        "metrics": metrics,
        "failed_fraction": failed / attempted,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in reported if name in metrics
            },
        },
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_summary(workload: str, seed: int, traced: bool, jobs, summary, loadavg) -> None:
    print(
        f"== {workload}  seed {seed}  trace {int(traced)}  {len(jobs)} jobs  "
        f"load average at start {loadavg[0]:.2f} {loadavg[1]:.2f} {loadavg[2]:.2f}"
    )
    print(f"   {'job':>3} {'input':>5} {'traced':>6} {'setup_s':>8} {'run_s':>8} "
          f"{'cpu_util':>8} {'rss_MB':>7}  digest")
    for number, job in enumerate(jobs):
        if "error" in job:
            print(f"   {number:>3} {job['seed']:>5} {int(job['traced']):>6}  error")
            continue
        print(
            f"   {number:>3} {job['seed']:>5} {int(job['traced']):>6} "
            f"{job['setup_s']:>8.4f} {job['run_s']:>8.4f} {job['cpu_util']:>8.3f} "
            f"{job['peak_rss_mb']:>7.1f}  {job['digest'][:16]}"
        )
    metrics = dict(summary["metrics"])
    layers = [layer for layer, _ in LAYERS if f"{layer}.self_s" in metrics]
    if layers:
        print(f"   {'layer':<24} {'calls':>10} {'self_s':>10} {'share':>7}")
        for layer in sorted(layers, key=lambda name: -metrics[f"{name}.self_s"]):
            print(
                f"   {layer:<24} {metrics.pop(f'{layer}.calls'):>10.0f} "
                f"{metrics.pop(f'{layer}.self_s'):>10.4f} "
                f"{metrics.pop(f'{layer}.share'):>7.1%}"
            )
    units = dict(END_TO_END + PER_LAYER)
    for name, value in metrics.items():
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"   {name:<40} {value:>16.6f} {unit}")
    result = summary["result"]
    print(
        f"   {'failed_fraction':<40} {summary['failed_fraction']:>16.6f} ratio "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    for line in summary["flags"] + summary["problems"]:
        print(f"   {line}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default=",".join(WORKLOADS),
        help="comma-separated workloads (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="write every job and metric here")
    args = parser.parse_args(argv)
    names = [name.strip() for name in args.workload.split(",") if name.strip()]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or not names:
        parser.error(f"unknown workload {unknown}; pick from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pins = json.loads(DIGESTS.read_text())
    traced = bool(args.trace)
    report = {}
    WORK_DIR.mkdir(exist_ok=True)
    try:
        for name in names:
            loadavg = os.getloadavg()
            jobs = collect(name, args.seed, args.seconds, traced)
            summary = summarize(name, jobs, traced, pins.get(name, {}))
            report[name] = {
                "seed": args.seed, "trace": args.trace, "loadavg": loadavg,
                "jobs": jobs, **summary,
            }
            print_summary(name, args.seed, traced, jobs, summary, loadavg)
            print(json.dumps(summary["result"]), flush=True)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(entry["result"]["correct"] for entry in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
