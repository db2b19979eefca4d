"""Command-line entry point.

Subcommands:
  run       drive a simulation (replay | masb | metaheuristic)
  bench     benchmark the centralized strategies on the bundled fixture
  synth     write a synthetic workload as a parseable trace directory
  snapshot  inspect or validate a snapshot file

Exit codes: 0 success, 1 configuration error, 2 trace error, 3 infeasible
workload detected.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from ..metaheuristics import SCENARIOS, STRATEGIES, StrategyConfig, benchmark_state
from ..metaheuristics.problem import InfeasibleError
from ..metaheuristics.strategies import SearchSpaceCapExceeded
from ..workload.synth import SynthConfig
from .config import ConfigError, RunConfig, read_config_file
from .runner import InfeasibleWorkloadError, SimulationRunner, TraceError
from .scaling import ALLOWED_FACTORS
from .snapshot import SnapshotError, load_snapshot
from .tracewriter import write_synthetic_trace

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRACE = 2
EXIT_INFEASIBLE = 3


def _add_run_parser(subparsers) -> None:
    p = subparsers.add_parser("run", help="run a simulation")
    p.add_argument("--mode", required=True, choices=("replay", "masb", "metaheuristic"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--run-name", default="run")
    source = p.add_mutually_exclusive_group(required=False)
    source.add_argument("--trace-dir", type=Path, help="trace directory (six CSV groups)")
    source.add_argument("--synth-config", type=Path, help="synthetic workload config (JSON)")
    p.add_argument("--ticks", type=int, default=None, help="simulated ticks to run")
    p.add_argument("--tick-seconds", type=int, default=60)
    p.add_argument("--rounds-per-tick", type=int, default=6)
    p.add_argument("--scale-factor", type=int, default=1, choices=ALLOWED_FACTORS)
    p.add_argument("--compaction", type=float, default=0.0,
                   help="fraction of nodes removed at the compaction tick")
    p.add_argument("--compaction-tick", type=int, default=1)
    p.add_argument("--brokers", type=int, default=1)
    p.add_argument("--initial-scorer", default="sias_gain",
                   choices=("sias", "sias_gain"))
    p.add_argument("--realloc-scorer", default="sras",
                   choices=("sras", "sras_gain"))
    p.add_argument("--strategy", default="greedy", choices=sorted(STRATEGIES))
    p.add_argument("--strategy-budget", type=int, default=20_000)
    p.add_argument("--migration-profile", default="apache")
    p.add_argument("--profile-file", type=Path, default=None,
                   help="JSON file with extra migration profiles")
    p.add_argument("--no-time-shift", action="store_true",
                   help="disable the ten-minute trace time re-base")
    p.add_argument("--usage-dump-every", type=int, default=100)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--resume-from", type=Path, default=None)
    p.add_argument("--message-trace", action="store_true")
    p.add_argument("--audit", action="store_true")


def _run_config(args) -> RunConfig:
    synth = (read_config_file(SynthConfig.from_file, args.synth_config, "synth config")
             if args.synth_config else None)
    return RunConfig(
        mode=args.mode,
        seed=args.seed,
        output_dir=args.out,
        run_name=args.run_name,
        trace_dir=args.trace_dir,
        synth=synth,
        ticks=args.ticks,
        tick_length_us=args.tick_seconds * 1_000_000,
        rounds_per_tick=args.rounds_per_tick,
        scale_factor=args.scale_factor,
        compaction_fraction=args.compaction,
        compaction_tick=args.compaction_tick,
        broker_count=args.brokers,
        initial_scorer=args.initial_scorer,
        realloc_scorer=args.realloc_scorer,
        strategy=args.strategy,
        strategy_budget=args.strategy_budget,
        migration_profile=args.migration_profile,
        profile_file=args.profile_file,
        gcd_time_shift=not args.no_time_shift,
        usage_dump_every=args.usage_dump_every,
        snapshot_every=args.snapshot_every,
        resume_from=args.resume_from,
        message_trace=args.message_trace,
        audit=args.audit,
    )


def cmd_run(args) -> int:
    try:
        config = _run_config(args)
        runner = SimulationRunner(config)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceError, SnapshotError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    try:
        return runner.run()
    except SearchSpaceCapExceeded as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TraceError, OSError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    except (InfeasibleWorkloadError, InfeasibleError) as exc:
        print(f"infeasible workload: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def cmd_bench(args) -> int:
    try:
        names = args.strategies.split(",")
        unknown = [n for n in names if n not in STRATEGIES]
        if unknown:
            raise ConfigError(f"unknown strategies: {unknown}")
        state = benchmark_state(args.scenario)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    for name in names:
        for offset in range(args.repeats):
            cfg = StrategyConfig(
                seed=args.seed + offset,
                max_candidates=args.budget,
                full_scan_leaf_cap=args.full_scan_cap,
            )
            try:
                result = STRATEGIES[name](state, cfg)
            except SearchSpaceCapExceeded as exc:
                print(f"{name}: refused: {exc}", file=sys.stderr)
                continue
            stats = result.stats
            rows.append([
                args.scenario, name, args.seed + offset,
                int(result.stable),
                f"{result.stc_mb:.3f}" if result.stc_mb is not None else "",
                stats["runs"], stats["candidates_examined"], stats["cache_hits"],
                f"{stats['elapsed_s']:.3f}",
            ])
            print(f"{args.scenario} {name} seed={args.seed + offset} "
                  f"stable={result.stable} stc={result.stc_mb} "
                  f"candidates={stats['candidates_examined']}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "strategy", "seed", "stable", "best_stc_mb",
                         "runs", "candidates_examined", "cache_hits", "elapsed_s"])
        writer.writerows(rows)
    return EXIT_OK


def cmd_synth(args) -> int:
    try:
        config = read_config_file(SynthConfig.from_file, args.config, "synth config")
        config.validate()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    counts = write_synthetic_trace(config, args.out)
    for group, count in sorted(counts.items()):
        print(f"{group}: {count} rows")
    return EXIT_OK


def cmd_snapshot(args) -> int:
    try:
        data = load_snapshot(args.file)
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return EXIT_TRACE
    print(f"mode: {data['mode']}")
    print(f"seed: {data['seed']}")
    print(f"tick: {data['tick']}")
    cell = data["cell"]
    print(f"nodes: {len(cell.nodes)}")
    print(f"tasks: {len(cell.tasks)} ({len(cell.pending)} pending)")
    print(f"accumulated_stc_mb: {data['accumulated_stc']:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cellsim",
                                     description="cloud-cell simulator and load balancers")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)

    bench = subparsers.add_parser("bench", help="benchmark centralized strategies")
    bench.add_argument("--scenario", default="test1", choices=sorted(SCENARIOS))
    bench.add_argument("--strategies", default="greedy,tabu,sa,ga,sga")
    bench.add_argument("--budget", type=int, default=20_000)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--seed", required=True, type=int)
    bench.add_argument("--full-scan-cap", type=float, default=1e8)
    bench.add_argument("--out", required=True, type=Path)

    synth = subparsers.add_parser("synth", help="write a synthetic trace directory")
    synth.add_argument("--config", required=True, type=Path)
    synth.add_argument("--out", required=True, type=Path)

    snapshot = subparsers.add_parser("snapshot", help="inspect a snapshot file")
    snapshot.add_argument("file", type=Path)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which is our trace-error code;
        # bad flags are configuration errors (0 stays 0 for --help)
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    if args.command == "run":
        if not args.trace_dir and not args.synth_config:
            print("config error: one of --trace-dir/--synth-config required",
                  file=sys.stderr)
            return EXIT_CONFIG
        return cmd_run(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "synth":
        return cmd_synth(args)
    if args.command == "snapshot":
        return cmd_snapshot(args)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
