"""Scenario loading, single-run and sweep execution, CSV emission.

The sweep subcommand reproduces the two experiment grids: attacker count
{5,10,15,20,25} and pause time {10..50} with 5 attackers, each crossed
with both protocols and a seed list, plus per-point seed-mean rows.
"""

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

from . import protocol, simnet
from .eventlog import format_log
from .metrics import MetricsReport
from .simnet import ScenarioConfig, ScenarioError

# a row is these ScenarioConfig fields, then these MetricsReport fields
CONFIG_COLUMNS = (
    "protocol", "seed", "node_count", "attacker_count", "attacker_kind",
    "pause_time", "sim_time", "flow_count", "flow_rate")
REPORT_COLUMNS = (
    "data_sent", "data_delivered", "data_dropped", "data_lost",
    "data_in_flight", "control_packets",
    "pdr", "avg_delay", "control_overhead",
    "hop_tag_checks", "hop_tag_checks_at_dest")
CSV_COLUMNS = [*CONFIG_COLUMNS, *REPORT_COLUMNS]

# the report fields mean_report averages as they are; it rounds the mean of
# each other field and leaves drops_by_reason empty
RATIOS = ("pdr", "avg_delay", "control_overhead")

ATTACKER_POINTS = [5, 10, 15, 20, 25]
PAUSE_POINTS = [10.0, 20.0, 30.0, 40.0, 50.0]
DEFAULT_SEEDS = [1, 2, 3, 4, 5]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_row(config: ScenarioConfig, report: MetricsReport,
            seed_label=None) -> list[str]:
    values = ([getattr(config, c) for c in CONFIG_COLUMNS]
              + [getattr(report, c) for c in REPORT_COLUMNS])
    if seed_label is not None:
        values[CONFIG_COLUMNS.index("seed")] = seed_label
    return [_fmt(v) for v in values]


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def run_single(scenario_path, seed: int | None = None, output_path=None,
               event_log_path=None) -> MetricsReport:
    config = simnet.load_scenario(scenario_path)
    if seed is not None:
        config = replace(config, seed=seed)
    report, records = simnet.run(config, keep_log=event_log_path is not None)
    if output_path is not None:
        write_csv(output_path, [csv_row(config, report)])
    if event_log_path is not None:
        with open(event_log_path, "w", encoding="utf-8") as fh:
            fh.write(format_log(records))
    return report


def _run_one(config: ScenarioConfig) -> MetricsReport:
    report, _ = simnet.run(config)
    return report


def sweep_configs(experiment: str, base: ScenarioConfig,
                  seeds) -> list[ScenarioConfig]:
    """Cartesian product of sweep points x protocols x seeds, in the
    deterministic order the CSV rows are written."""
    if experiment == "attackers":
        points = [replace(base, attacker_count=a) for a in ATTACKER_POINTS]
    elif experiment == "pausetime":
        points = [replace(base, pause_time=p, attacker_count=5)
                  for p in PAUSE_POINTS]
    else:
        raise ScenarioError(f"unknown experiment {experiment!r}")
    configs = []
    for point in points:
        for proto in protocol.PROTOCOLS:
            for seed in seeds:
                configs.append(replace(point, protocol=proto, seed=seed))
    return configs


def _mean(values):
    present = [v for v in values if v is not None]
    if len(present) != len(values) or not values:
        return None
    return sum(present) / len(present)


def mean_report(reports) -> MetricsReport:
    n = len(reports)
    means = {}
    for f in fields(MetricsReport):
        values = [getattr(r, f.name) for r in reports]
        if f.name in RATIOS:
            means[f.name] = _mean(values)
        elif f.name != "drops_by_reason":
            means[f.name] = round(sum(values) / n)
    return MetricsReport(**means)


def run_sweep(experiment: str, base: ScenarioConfig, seeds=None,
              output_path=None, workers: int | None = None):
    """Run a full sweep; returns (configs, reports, mean_rows).

    Individual runs may execute in parallel; output order is fixed by
    sweep_configs regardless of completion order.
    """
    seeds = list(seeds) if seeds is not None else list(DEFAULT_SEEDS)
    configs = sweep_configs(experiment, base, seeds)
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one, configs))
    else:
        reports = [_run_one(c) for c in configs]

    rows = [csv_row(c, r) for c, r in zip(configs, reports)]
    per_seed = len(seeds)
    mean_rows = []
    for i in range(0, len(configs), per_seed):
        group = reports[i:i + per_seed]
        mean_rows.append(csv_row(configs[i], mean_report(group),
                                 seed_label="mean"))
    if output_path is not None:
        write_csv(output_path, rows + mean_rows)
    return configs, reports, mean_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lararp",
        description="Authenticated MANET routing simulator and sweep runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("scenario", help="scenario file (key=value lines)")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--output", "-o", required=True, help="CSV output path")
    p_run.add_argument("--event-log", default=None,
                       help="also write the full event log here")
    p_run.add_argument("--verbose", "-v", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run an experiment grid")
    p_sweep.add_argument("experiment", choices=["attackers", "pausetime"])
    p_sweep.add_argument("--scenario", default=None,
                         help="base scenario file; defaults to Table-1 defaults")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=None)
    p_sweep.add_argument("--output", "-o", required=True)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.add_argument("--verbose", "-v", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run_single(args.scenario, seed=args.seed,
                                output_path=args.output,
                                event_log_path=args.event_log)
            if args.verbose:
                print(f"pdr={_fmt(report.pdr)} "
                      f"avg_delay={_fmt(report.avg_delay)} "
                      f"control_overhead={_fmt(report.control_overhead)}")
        else:
            base = (simnet.load_scenario(args.scenario)
                    if args.scenario else ScenarioConfig())
            configs, _, _ = run_sweep(args.experiment, base, seeds=args.seeds,
                                      output_path=args.output,
                                      workers=args.workers)
            if args.verbose:
                print(f"{len(configs)} runs written to {args.output}")
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
