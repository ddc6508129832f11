"""Command-line interface: run experiments without writing Python.

Seven subcommands:

``run``
    One (design, benchmark) measurement with the full phase structure,
    pre-training in place on the measured platform (so its dt and rl
    numbers differ from ``compare`` / ``campaign``, which measure a
    clone of a policy pre-trained on a throwaway platform).
    ``--checkpoint FILE --checkpoint-every N`` snapshots the whole
    simulation every N cycles so a killed run can be continued.
    ``--profile`` wraps the run in cProfile and prints the hottest
    functions plus the cycle kernel's activity counters to stderr.
``resume``
    Continue a checkpointed ``run`` from its snapshot file; the final
    metrics are bit-identical to an uninterrupted run.
``compare``
    All four designs on one benchmark, normalized to CRC:
    ``compare --benchmark B`` is ``campaign --benchmarks B`` (same
    handler, same output, same artifacts and cell cache).
``sweep``
    The classic NoC load sweep: latency vs offered load for one design,
    showing where the saturation knee falls.
``chaos``
    Graceful-degradation campaigns.  By default open loop: routing
    policies on a bare network crossed with hard-fault schedules
    (link/router kills, error bursts), reporting delivered fraction,
    reroutes, drops, and post-fault latency.  A ``--sensor-spec``
    and/or ``--soft-error-spec`` makes it closed loop: full control
    designs run under every fault family given at once — hard faults
    from ``--fault-specs``, corrupted telemetry (stuck-at, dropout,
    noise, staleness) and SEUs in the Q-table SRAM and mode registers —
    and one row reports what each defense layer absorbed (rejects,
    holds, quarantines; ECC corrections, detections, TMR votes; or,
    with ``--no-sensor-defenses`` / ``--no-ecc``, what the faults did
    unopposed).
``trace``
    Inspect a JSONL event trace written by ``run/resume/chaos --trace``:
    per-category summary, ``--tail N`` events, the canonical stream
    digest, or a filtered JSON dump.
``campaign``
    The paper-figure grid (benchmarks x designs) behind Figs 6-10.
    Each trainable design is pre-trained exactly once and persisted as
    a versioned, CRC-guarded artifact under ``--artifact-dir`` (default
    ``<cache-dir>/artifacts``); every grid cell clones a fresh policy
    from that artifact, so results are bit-identical across benchmark
    orderings and ``--jobs`` settings.  Every figure is normalized to
    crc, so ``--designs`` must include it.
    Emits the normalized per-benchmark + geomean tables as Markdown
    (default), ``--json``, or to ``--report-json`` / ``--report-md``
    files — the exact tables EXPERIMENTS.md embeds.

``compare``, ``sweep``, ``chaos``, and ``campaign`` are grids of independent
simulations, so all go through :mod:`repro.sim.sweep`: ``--jobs N`` fans
points out over supervised worker processes (``--jobs 1`` runs the
identical code serially), and every finished point is cached under
``--cache-dir`` (default ``.sweep_cache/``) so re-runs and interrupted
grids resume without re-simulating.  ``--no-cache`` forces fresh
simulations; ``--point-timeout`` bounds each point's wall clock and
``--retries`` bounds how often a crashed/hung point is relaunched before
it is quarantined (reported, result slot skipped, sweep continues).

Examples::

    python -m repro.cli run --design rl --benchmark canneal
    python -m repro.cli run --design rl --checkpoint rl.ckpt --checkpoint-every 5000
    python -m repro.cli resume rl.ckpt
    python -m repro.cli compare --benchmark x264 --width 4 --height 4
    python -m repro.cli sweep --design arq_ecc --pattern transpose --jobs 4
    python -m repro.cli chaos --routings xy,adaptive --fault-specs 'link@500:5E'
    python -m repro.cli run --design rl --fault-spec 'router@20000:5' --trace run.jsonl
    python -m repro.cli chaos --routings adaptive --trace chaos.jsonl
    python -m repro.cli chaos --sensor-spec 'drop@0.2:util;stuck@r5.temp=0.9'
    python -m repro.cli run --design rl --sensor-spec 'noise@0.05:nack' --hysteresis 2
    python -m repro.cli chaos --soft-error-spec 'qtable@1e-5;burst@800:4'
    python -m repro.cli chaos --fault-specs 'link@300:5E' --sensor-spec 'drop@0.2:util' --soft-error-spec 'qtable@2e-5'
    python -m repro.cli run --design rl --soft-error-spec 'qtable@1e-5' --no-ecc
    python -m repro.cli trace run.jsonl --tail 10
    python -m repro.cli campaign --jobs 4 --report-md tables.md
    python -m repro.cli campaign --benchmarks canneal,x264 --designs crc,rl
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional, Sequence

from repro.sim import (
    DESIGN_ORDER,
    CampaignSpec,
    SweepRunner,
    SweepSpec,
    campaign_report,
    render_report_markdown,
    run_campaign,
    scaled_config,
    stderr_progress,
)
from repro.faults import parse_fault_spec, parse_sensor_spec, parse_soft_error_spec
from repro.faults.hardfaults import check_fault_targets
from repro.faults.specs import check_routers
from repro.noc.routing import ROUTING_FUNCTIONS
from repro.noc.topology import MeshTopology
from repro.obs import (
    CATEGORIES as TRACE_CATEGORIES,
    MetricRegistry,
    TraceBuffer,
    parse_categories,
    read_trace_jsonl,
    trace_digest,
    write_metrics_csv,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.sim.checkpoint import CheckpointError, ResumableRun, read_checkpoint_meta
from repro.sim.sweep import DEFAULT_CACHE_DIR, _eval_chaos, _eval_control_chaos
from repro.traffic import PARSEC_PROFILES

__all__ = ["main", "build_parser"]


@contextlib.contextmanager
def _bad_arguments(prefix: str = ""):
    """Build the objects that come from command-line values inside this
    block: the ValueError a constructor or parser raises for a bad value
    becomes a one-line exit, never a traceback.  Never run a simulation
    inside it — a ValueError raised mid-run is a bug and keeps its
    traceback."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"{prefix}{exc}") from None


def _validate_specs(args, fault_specs: Sequence[str], fault_flag: str) -> None:
    """Fail fast, before anything runs, on a malformed spec or one naming
    a router or link the ``--width`` x ``--height`` mesh lacks: one line
    naming the flag and the bad clause."""
    with _bad_arguments():
        topology = MeshTopology(args.width, args.height)
    for spec in fault_specs:
        with _bad_arguments(f"{fault_flag}: "):
            check_fault_targets(parse_fault_spec(spec), topology)
    routers = topology.num_nodes
    with _bad_arguments("--sensor-spec: "):
        check_routers(parse_sensor_spec(args.sensor_spec), "sensor", routers)
    with _bad_arguments("--soft-error-spec: "):
        check_routers(parse_soft_error_spec(args.soft_error_spec), "soft-error", routers)


def _config_from_args(args) -> "SimulationConfig":
    return scaled_config(
        width=args.width,
        height=args.height,
        epoch_cycles=args.epoch,
        pretrain_cycles=args.pretrain,
        warmup_cycles=args.warmup,
        fault_spec=getattr(args, "fault_spec", "") or "",
        sensor_spec=getattr(args, "sensor_spec", "") or "",
        sensor_defenses=not getattr(args, "no_sensor_defenses", False),
        mode_hysteresis_epochs=getattr(args, "hysteresis", 0) or 0,
        soft_error_spec=getattr(args, "soft_error_spec", "") or "",
        ecc_protect=not getattr(args, "no_ecc", False),
        scrub_every=getattr(args, "scrub_every", 1),
    )


def _add_platform_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=int, default=4, help="mesh width (paper: 8)")
    parser.add_argument("--height", type=int, default=4, help="mesh height (paper: 8)")
    parser.add_argument("--epoch", type=int, default=250, help="control epoch cycles (paper: 1000)")
    parser.add_argument("--pretrain", type=int, default=60_000, help="pre-training cycles (paper: 1e6)")
    parser.add_argument("--warmup", type=int, default=2_000, help="warm-up cycles (paper: 3e5)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_trace_cycles_arg(parser: argparse.ArgumentParser) -> None:
    """For the subcommands that replay a benchmark trace."""
    parser.add_argument("--trace-cycles", type=int, default=3_000, help="trace injection span")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for grid points (1 = serial, identical results)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="result cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="do not read or write the result cache",
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry a point running longer than this (parallel only)",
    )
    parser.add_argument(
        "--retries", type=int, default=2,
        help="relaunches per failing point before quarantine (default: %(default)s)",
    )


def _add_sensor_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sensor-spec", default="", metavar="SPEC",
        help="telemetry corruption applied to the observation path, e.g. "
        "'drop@0.2:util;stuck@r5.temp=0.9;noise@0.05:nack;stale@r7+400:8' "
        "('' = clean sensors)",
    )
    parser.add_argument(
        "--hysteresis", type=int, default=0, metavar="EPOCHS",
        help="minimum epochs between mode switches per router "
        "(0 = switch freely; debounces noise-driven flapping)",
    )


def _add_soft_error_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--soft-error-spec", default="", metavar="SPEC",
        help="SEU campaign applied to the learning state, e.g. "
        "'qtable@1e-5;mode@r3+500;burst@800:4' ('' = upset-free SRAM)",
    )
    parser.add_argument(
        "--scrub-every", type=int, default=1, metavar="EPOCHS",
        help="epochs between ECC scrub passes (0 = never scrub; "
        "default: %(default)s)",
    )
    parser.add_argument(
        "--no-ecc", action="store_true",
        help="store Q-tables as raw words and mode registers without "
        "TMR: upsets land directly in the learning state",
    )


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record an event trace and write it to FILE as JSONL",
    )
    parser.add_argument(
        "--trace-filter", default=None, metavar="CATS",
        help="comma-separated categories to record (default: all): "
        + ", ".join(TRACE_CATEGORIES),
    )
    parser.add_argument(
        "--trace-capacity", type=int, default=65536, metavar="EVENTS",
        help="trace ring-buffer capacity; oldest events are dropped "
        "beyond this (default: %(default)s)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the per-epoch metric timeline (CSV if FILE ends in "
        ".csv, else JSON snapshot + timeline)",
    )


def _make_tracer(args) -> Optional[TraceBuffer]:
    if getattr(args, "trace", None) is None:
        if getattr(args, "trace_filter", None):
            raise SystemExit("--trace-filter requires --trace FILE")
        return None
    with _bad_arguments():
        categories = parse_categories(args.trace_filter)
        return TraceBuffer(capacity=args.trace_capacity, categories=categories)


def _export_observability(args, tracer, registry) -> None:
    """Write the ``--trace`` / ``--metrics`` outputs after a run."""
    if getattr(args, "trace", None) and tracer is not None:
        count = write_trace_jsonl(tracer, args.trace)
        print(
            f"[trace] {count} event(s) -> {args.trace} "
            f"(digest {tracer.digest()[:12]}, dropped {tracer.dropped}, "
            f"filtered {tracer.filtered})",
            file=sys.stderr,
        )
    if getattr(args, "metrics", None) and registry is not None:
        if args.metrics.endswith(".csv"):
            rows = write_metrics_csv(registry, args.metrics)
            print(f"[metrics] {rows} timeline row(s) -> {args.metrics}", file=sys.stderr)
        else:
            write_metrics_json(registry, args.metrics)
            print(f"[metrics] snapshot + timeline -> {args.metrics}", file=sys.stderr)


def _make_runner(config, points, args) -> SweepRunner:
    return SweepRunner(
        config,
        points,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=stderr_progress,
        point_timeout=args.point_timeout,
        max_retries=args.retries,
    )


def _run_grid(runner: SweepRunner, tag: str) -> list:
    """Run a ``sweep`` or ``chaos`` grid; print its simulated / cached
    counts and any quarantined points on stderr."""
    results = runner.run()
    report = runner.report
    print(
        f"[{tag}] {report.executed} point(s) simulated, "
        f"{report.from_cache} from cache",
        file=sys.stderr,
    )
    if report.quarantined:
        print(
            f"[sweep] {len(report.quarantined)} point(s) quarantined: "
            + ", ".join(report.quarantined),
            file=sys.stderr,
        )
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RL-based fault-tolerant NoC (DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one (design, benchmark) measurement")
    run.add_argument("--design", default="rl", help=f"one of {', '.join(DESIGN_ORDER)}")
    run.add_argument("--benchmark", default="canneal", help="PARSEC benchmark name")
    run.add_argument(
        "--checkpoint", default=None, metavar="FILE",
        help="snapshot the run to FILE so it can be resumed after a crash",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=5_000, metavar="CYCLES",
        help="cycles between snapshots (default: %(default)s)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="profile the run; print hot functions + kernel activity counters",
    )
    run.add_argument(
        "--fault-spec", default="", metavar="SPEC",
        help="hard-fault campaign applied during the run, e.g. "
        "'router@20000:5' ('' = healthy platform)",
    )
    _add_sensor_args(run)
    run.add_argument(
        "--no-sensor-defenses", action="store_true",
        help="disable the hardened observation path (raw corrupted "
        "telemetry reaches the control policy; may crash on dropout)",
    )
    _add_soft_error_args(run)
    _add_platform_args(run)
    _add_trace_cycles_arg(run)
    _add_trace_args(run)

    resume = sub.add_parser(
        "resume", help="continue a checkpointed run (bit-identical result)"
    )
    resume.add_argument("snapshot", help="checkpoint file written by 'run --checkpoint'")
    resume.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="CYCLES",
        help="override the snapshot cadence (default: keep the original)",
    )
    resume.add_argument("--json", action="store_true", help="emit JSON instead of text")
    resume.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write the snapshot's event trace (if the original run was "
        "traced) to FILE as JSONL after the run completes",
    )
    resume.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write the metric timeline (CSV if FILE ends in .csv, else JSON)",
    )

    comp = sub.add_parser(
        "compare",
        help="all four designs on one benchmark (= campaign --benchmarks B)",
    )
    comp.add_argument("--benchmark", default="canneal")
    _add_platform_args(comp)
    _add_trace_cycles_arg(comp)
    _add_sweep_args(comp)

    sweep = sub.add_parser("sweep", help="latency vs offered load for one design")
    sweep.add_argument("--design", default="crc")
    sweep.add_argument("--pattern", default="uniform", help="synthetic traffic pattern")
    sweep.add_argument(
        "--rates",
        default="0.005,0.01,0.02,0.03,0.04",
        help="comma-separated packet injection rates",
    )
    sweep.add_argument("--span", type=int, default=3_000, help="injection cycles per point")
    _add_platform_args(sweep)
    _add_sweep_args(sweep)

    chaos = sub.add_parser(
        "chaos", help="routing policies under hard-fault campaigns "
        "(with --sensor-spec and/or --soft-error-spec: closed-loop control "
        "designs under every given fault family at once)"
    )
    chaos.add_argument(
        "--routings", default=None,
        help="comma-separated routing policies for open-loop campaigns "
        f"({', '.join(sorted(ROUTING_FUNCTIONS))}; default: xy,adaptive)",
    )
    chaos.add_argument(
        "--fault-specs", default=None,
        help="'|'-separated campaign specs, e.g. "
        "'link@500:5E|router@800:7;burst@300+200:0.2' ('' = healthy "
        "baseline; default: link@500:0E, which every mesh has, or '' for "
        "a closed-loop campaign)",
    )
    chaos.add_argument(
        "--designs", default=None,
        help="comma-separated control designs for closed-loop campaigns "
        f"({', '.join(DESIGN_ORDER)}; default: rl)",
    )
    _add_sensor_args(chaos)
    chaos.add_argument(
        "--no-sensor-defenses", action="store_true",
        help="run the sensor campaign without the hardened observation path",
    )
    _add_soft_error_args(chaos)
    chaos.add_argument(
        "--rate", type=float, default=0.1,
        help="per-cycle uniform packet injection probability",
    )
    chaos.add_argument("--span", type=int, default=3_000, help="injection cycles per point")
    _add_platform_args(chaos)
    _add_sweep_args(chaos)
    _add_trace_args(chaos)

    camp = sub.add_parser(
        "campaign",
        help="paper-figure grid (Figs 6-10): pretrain-once artifacts, "
        "cached benchmarks x designs cells, normalized report tables",
    )
    camp.add_argument(
        "--benchmarks", default=None,
        help="comma-separated PARSEC benchmarks (default: all "
        f"{len(PARSEC_PROFILES)}, sorted)",
    )
    camp.add_argument(
        "--designs", default=",".join(DESIGN_ORDER),
        help="comma-separated designs (default: %(default)s)",
    )
    camp.add_argument(
        "--artifact-dir", default=None,
        help="pretrained-policy artifact store (default: <cache-dir>/artifacts)",
    )
    camp.add_argument(
        "--refresh-artifacts", action="store_true",
        help="re-pretrain even when a matching artifact exists",
    )
    camp.add_argument(
        "--report-json", default=None, metavar="FILE",
        help="also write the normalized report as JSON to FILE",
    )
    camp.add_argument(
        "--report-md", default=None, metavar="FILE",
        help="also write the normalized report as Markdown to FILE",
    )
    _add_platform_args(camp)
    _add_trace_cycles_arg(camp)
    _add_sweep_args(camp)
    _add_trace_args(camp)
    # compare runs as a one-benchmark campaign: every campaign setting
    # it has no flag for keeps campaign's default.
    comp.set_defaults(**{
        name: value
        for name, value in vars(camp.parse_args([])).items()
        if name not in vars(comp.parse_args([]))
    })

    trace = sub.add_parser("trace", help="inspect a JSONL event trace")
    trace.add_argument("file", help="trace file written by run/resume/chaos --trace")
    trace.add_argument(
        "--filter", default=None, metavar="CATS", dest="categories",
        help="comma-separated categories to keep: " + ", ".join(TRACE_CATEGORIES),
    )
    trace.add_argument(
        "--digest", action="store_true",
        help="print the canonical stream digest (checkpoint events "
        "excluded) and exit",
    )
    trace.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="also print the last N (filtered) events",
    )
    trace.add_argument(
        "--json", action="store_true",
        help="dump the (filtered) events as a JSON array",
    )

    return parser


def _check_benchmark(name: str) -> None:
    if name not in PARSEC_PROFILES:
        raise SystemExit(
            f"unknown benchmark {name!r}; pick one of {', '.join(sorted(PARSEC_PROFILES))}"
        )


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        for key, value in result.as_dict().items():
            print(f"{key:26s} {value}")


def _print_profile(profiler, network) -> None:
    """Hot-function table plus the kernel's activity counters (stderr).

    ``channel_visits`` counts channels with a due delivery per cycle
    (the naive kernel: every channel of every cycle).
    """
    import io
    import pstats

    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(20)
    print(buf.getvalue(), file=sys.stderr)
    print(f"[profile] cycle kernel: {network.kernel}", file=sys.stderr)
    for name, value in network.activity.counters().items():
        print(f"[profile] {name:24s} {value}", file=sys.stderr)


def cmd_run(args) -> int:
    _check_benchmark(args.benchmark)
    if args.design not in DESIGN_ORDER:
        raise SystemExit(
            f"unknown design {args.design!r}; pick one of {', '.join(DESIGN_ORDER)}"
        )
    _validate_specs(args, [args.fault_spec], "--fault-spec")
    tracer = _make_tracer(args)
    with _bad_arguments():
        run = ResumableRun(
            _config_from_args(args), args.design, args.benchmark,
            seed=args.seed, trace_cycles=args.trace_cycles,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
        )
    if tracer is not None:
        run.sim.attach_tracer(tracer)
    snapshots = ""
    if args.checkpoint is not None:
        snapshots = (
            f", snapshotting to {args.checkpoint} every "
            f"{args.checkpoint_every} cycles"
        )
    print(f"running {args.design} on {args.benchmark}{snapshots} ...", file=sys.stderr)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    result = run.run()
    if profiler is not None:
        profiler.disable()
        _print_profile(profiler, run.sim.network)
    _export_observability(args, tracer, run.sim.metrics)
    _print_result(result, args.json)
    return 0


def cmd_resume(args) -> int:
    try:
        meta = read_checkpoint_meta(args.snapshot)
        with _bad_arguments():
            run = ResumableRun.resume(
                args.snapshot, checkpoint_every=args.checkpoint_every
            )
    except CheckpointError as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"resuming {meta['design']} on {meta['benchmark']} from cycle "
        f"{meta['cycle']} ({meta['phase']}) ...",
        file=sys.stderr,
    )
    result = run.run()
    # The tracer (if the interrupted run had one) travelled inside the
    # snapshot; --trace here only names where to write it afterwards.
    if args.trace and run.sim.tracer is None:
        print(
            "[trace] snapshot carries no tracer (original run was not "
            "traced); nothing to export",
            file=sys.stderr,
        )
    _export_observability(args, run.sim.tracer, run.sim.metrics)
    _print_result(result, args.json)
    return 0


def cmd_compare(args) -> int:
    """``compare --benchmark B`` is ``campaign --benchmarks B``."""
    _check_benchmark(args.benchmark)
    args.benchmarks = args.benchmark
    return cmd_campaign(args)


def cmd_sweep(args) -> int:
    with _bad_arguments():
        config = _config_from_args(args)
        rates = tuple(float(r) for r in args.rates.split(",") if r)
        if not rates:
            raise SystemExit("no injection rates given")
        points = SweepSpec(
            config=config,
            kind="load",
            designs=(args.design,),
            traffics=(args.pattern,),
            rates=rates,
            seeds=(args.seed,),
            cycles=args.span,
        ).expand()
        runner = _make_runner(config, points, args)
    rows = [
        # a quarantined point keeps its row, marked unusable
        {"rate": point.rate, "latency": None, "throughput": None}
        if p is None else p.ledger
        for point, p in zip(points, _run_grid(runner, "sweep"))
    ]
    if args.json:
        print(json.dumps([
            {**row, "quarantined": row["latency"] is None} for row in rows
        ], indent=2))
        return 0 if runner.report.succeeded else 1
    print(f"{'rate':>8s} {'latency':>10s} {'throughput':>11s}")
    for row in rows:
        if row["latency"] is None:
            print(f"{row['rate']:>8.3f} {'-':>10s} {'-':>11s}  (quarantined)")
        else:
            print(f"{row['rate']:>8.3f} {row['latency']:>10.1f} {row['throughput']:>11.3f}")
    return 0 if runner.report.succeeded else 1


def _names(raw: str) -> tuple:
    """Split a comma-separated list flag (``--designs``, ``--routings``,
    ``--benchmarks``)."""
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def cmd_campaign(args) -> int:
    if args.benchmarks:
        benchmarks = _names(args.benchmarks)
    else:
        benchmarks = tuple(sorted(PARSEC_PROFILES))
    designs = _names(args.designs)
    with _bad_arguments():
        config = _config_from_args(args)
        spec = CampaignSpec(
            config=config,
            benchmarks=benchmarks,
            designs=designs,
            seed=args.seed,
            trace_cycles=args.trace_cycles,
        )
        # run_campaign builds its runner after pre-training; check the
        # sweep flags before any of it runs.
        _make_runner(config, (), args)
    if "crc" not in designs:
        raise SystemExit(
            "campaign: --designs must include crc, the baseline every "
            "figure is normalized to"
        )
    tracer = _make_tracer(args)
    registry = MetricRegistry() if args.metrics else None
    print(
        f"campaign: {len(benchmarks)} benchmark(s) x {len(designs)} design(s), "
        f"seed {args.seed} ...",
        file=sys.stderr,
    )
    result = run_campaign(
        spec,
        jobs=args.jobs,
        artifact_dir=args.artifact_dir,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        refresh_artifacts=args.refresh_artifacts,
        progress=stderr_progress,
        point_timeout=args.point_timeout,
        max_retries=args.retries,
        registry=registry,
        tracer=tracer,
    )
    counters = result.counters()
    print(
        f"[campaign] {int(counters['artifacts_built'])} artifact(s) built, "
        f"{int(counters['artifacts_reused'])} reused; "
        f"{int(counters['cells_executed'])} cell(s) simulated, "
        f"{int(counters['cells_cached'])} from cache",
        file=sys.stderr,
    )
    if result.report.quarantined:
        print(
            f"[campaign] {len(result.report.quarantined)} cell(s) quarantined: "
            + ", ".join(result.report.quarantined),
            file=sys.stderr,
        )
    report = campaign_report(result.suite, designs=list(designs))
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[campaign] report JSON -> {args.report_json}", file=sys.stderr)
    if args.report_md:
        with open(args.report_md, "w", encoding="utf-8") as fh:
            fh.write(render_report_markdown(report))
        print(f"[campaign] report Markdown -> {args.report_md}", file=sys.stderr)
    _export_observability(args, tracer, registry)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report_markdown(report))
    return 0 if result.succeeded else 1


def _print_routing_table(points, ledgers) -> int:
    """Open-loop rows; returns 1 if any point tripped the watchdog."""
    print(
        f"{'routing':>9s} {'fault spec':>28s} {'delivered':>10s} {'dropped':>8s} "
        f"{'reroutes':>9s} {'post-lat':>9s}  status"
    )
    worst = 0
    for point, c in zip(points, ledgers):
        spec_text = point.fault_spec or "(healthy)"
        if c is None:
            print(
                f"{point.design:>9s} {spec_text:>28s} {'-':>10s} {'-':>8s} "
                f"{'-':>9s} {'-':>9s}  quarantined"
            )
            continue
        diagnosis = c.get("diagnosis")
        if diagnosis:
            worst = 1
        print(
            f"{c['routing']:>9s} {spec_text:>28s} {c['delivered_fraction']:>10.3f} "
            f"{c['messages_dropped']:>8d} {c['reroutes']:>9d} "
            f"{c['post_fault_latency']:>9.1f}  "
            f"{diagnosis['error'] if diagnosis else 'ok'}"
        )
    return worst


#: closed-loop table: (header, width, cell of a control_chaos ledger)
_CONTROL_COLUMNS = (
    ("delivered", 10, lambda c: f"{c['delivered_fraction']:.3f}"),
    ("applied", 8, lambda c: len(c["applied"])),
    ("rejected", 9, lambda c: c["rejected_observations"]),
    ("holds", 6, lambda c: c["sensor_holds"]),
    ("quar", 5, lambda c: len(c["quarantined_routers"])),
    ("ecc", 4, lambda c: "on" if c["ecc"] else "off"),
    ("corr", 5, lambda c: c["corrected"]),
    ("det", 4, lambda c: c["detected"]),
    ("votes", 6, lambda c: c["mode_votes"]),
    ("switches", 9, lambda c: c["mode_switches"]),
)


def _print_control_table(points, ledgers) -> int:
    """Closed-loop rows: the three specs, then what each defense layer
    absorbed.  Returns 1 if any point tripped the watchdog."""
    specs = [
        (p.fault_spec or "-", p.sensor_spec or "-", p.soft_error_spec or "-")
        for p in points
    ]
    headers = ("fault spec", "sensor spec", "soft-error spec")
    widths = [
        max([len(header)] + [len(row[i]) for row in specs])
        for i, header in enumerate(headers)
    ]

    def line(design, texts, cells, status):
        spec_text = " ".join(f"{t:>{w}s}" for t, w in zip(texts, widths))
        cell_text = " ".join(
            f"{str(v):>{col[1]}s}" for v, col in zip(cells, _CONTROL_COLUMNS)
        )
        print(f"{design:>7s} {spec_text} {cell_text}  {status}")

    line("design", headers, [col[0] for col in _CONTROL_COLUMNS], "status")
    worst = 0
    for point, texts, c in zip(points, specs, ledgers):
        if c is None:
            line(point.design, texts, ["-"] * len(_CONTROL_COLUMNS), "quarantined")
            continue
        diagnosis = c.get("diagnosis")
        if diagnosis:
            worst = 1
        line(
            c["design"], texts, [col[2](c) for col in _CONTROL_COLUMNS],
            diagnosis["error"] if diagnosis else "ok",
        )
    return worst


def cmd_chaos(args) -> int:
    """Open loop (routings on a bare network under hard faults) by
    default; closed loop (full control designs under any composition of
    hard faults, sensor faults and SEUs) once a control-plane spec is
    given.  Every spec is validated before any point runs."""
    closed_loop = bool(args.sensor_spec or args.soft_error_spec)
    if closed_loop and args.routings is not None:
        raise SystemExit(
            "--routings selects open-loop routings; a closed-loop campaign "
            "(--sensor-spec/--soft-error-spec) takes --designs"
        )
    if not closed_loop and args.designs is not None:
        raise SystemExit(
            "--designs selects closed-loop designs; it needs --sensor-spec "
            "or --soft-error-spec (open-loop campaigns take --routings)"
        )
    raw_specs = args.fault_specs
    if raw_specs is None:
        # A closed-loop campaign defaults to a hard-fault-free platform
        # so the control-plane faults it names are the only stressor.
        raw_specs = "" if closed_loop else "link@500:0E"
    fault_specs = tuple(s.strip() for s in raw_specs.split("|"))
    _validate_specs(args, fault_specs, "--fault-specs")
    if closed_loop:
        kind, names = "control_chaos", "rl" if args.designs is None else args.designs
        evaluator, table = _eval_control_chaos, _print_control_table
    else:
        kind, names = "chaos", "xy,adaptive" if args.routings is None else args.routings
        evaluator, table = _eval_chaos, _print_routing_table
    tracer = _make_tracer(args)
    with _bad_arguments():
        config = _config_from_args(args)
        points = SweepSpec(
            config=config,
            kind=kind,
            designs=_names(names),
            traffics=("uniform",),
            seeds=(args.seed,),
            rates=(args.rate,),
            fault_specs=fault_specs,
            sensor_specs=(args.sensor_spec,),
            soft_error_specs=(args.soft_error_spec,),
            cycles=args.span,
        ).expand()
        runner = _make_runner(config, points, args) if tracer is None else None
    if runner is not None:
        ledgers = [None if p is None else p.ledger for p in _run_grid(runner, "chaos")]
        succeeded = runner.report.succeeded
    else:
        # A tracer cannot cross the worker-process boundary and events
        # are invisible to the result cache, so a traced run is a single
        # point, evaluated in-process with the cache bypassed.
        if len(points) != 1:
            raise SystemExit(
                "chaos --trace requires a single-point grid "
                "(one routing or design, one fault spec, one seed)"
            )
        ledgers = [evaluator(config, points[0], tracer=tracer)["ledger"]]
        print(
            "[chaos] 1 point simulated in-process (traced; cache bypassed)",
            file=sys.stderr,
        )
        _export_observability(args, tracer, None)
        succeeded = True
    if args.json:
        print(json.dumps(ledgers, indent=2))
        return 0 if succeeded else 1
    worst = table(points, ledgers)
    return 0 if succeeded and not worst else 1


def cmd_trace(args) -> int:
    try:
        events = read_trace_jsonl(args.file)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.file}") from None
    except ValueError as exc:
        raise SystemExit(f"{args.file} is not a JSONL trace: {exc}") from None
    if args.categories:
        with _bad_arguments():
            wanted = parse_categories(args.categories)
        events = [ev for ev in events if ev.category in wanted]
    if args.digest:
        print(trace_digest(events))
        return 0
    if args.json:
        print(json.dumps([ev.as_dict() for ev in events], indent=2))
        return 0
    by_kind: dict = {}
    for ev in events:
        key = f"{ev.category}/{ev.kind}"
        by_kind[key] = by_kind.get(key, 0) + 1
    span = f"cycles {events[0].cycle}..{events[-1].cycle}" if events else "empty"
    print(f"{len(events)} event(s), {span}")
    for key in sorted(by_kind):
        print(f"  {key:28s} {by_kind[key]}")
    safe_entries = by_kind.get("mode/degrade", 0)
    rejects = by_kind.get("sensor/reject", 0)
    debounced = by_kind.get("sensor/debounce", 0)
    if safe_entries or rejects or debounced:
        print(
            f"degradation: {safe_entries} safe-mode entr"
            f"{'y' if safe_entries == 1 else 'ies'}, "
            f"{rejects} rejected observation(s), "
            f"{debounced} debounced switch(es)"
        )
    print(f"digest {trace_digest(events)}")
    if args.tail > 0:
        print()
        for ev in events[-args.tail:]:
            subject = "-" if ev.subject is None else ev.subject
            data = " ".join(f"{k}={v}" for k, v in sorted(ev.data.items()))
            print(f"  @{ev.cycle:<8d} {ev.category}/{ev.kind:<20s} [{subject}] {data}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "resume": cmd_resume,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "chaos": cmd_chaos,
        "trace": cmd_trace,
        "campaign": cmd_campaign,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # pragma: no cover - e.g. `repro trace f | head`
        # Point stdout at devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
