#!/usr/bin/env python3
"""Benchmark of the lararp simulator: host cost and simulated outcome.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

A workload is a fixed batch of independent scenario runs made one at a
time from this process: a closed loop of one client, so the load never
exceeds one core. The batch's scenario seeds derive from --seed, and the
library is driven only through its public API (ScenarioConfig,
Simulation(...), Simulation.run()).

--trace 0 repeats the batch for --seconds and prints the end-to-end
metrics of BENCHMARK.json as medians over the repetitions. Set-up and run
times are CPU seconds of this process (time.process_time), scaled to a
reference host speed by the probe in probe.py, which runs between the
scenario runs (not on scale-1000, see WORKLOADS); the raw times, wall times
and probe times are kept in the result file. --trace 1 runs the batch once
untraced, then traced (see spans.py) for --seconds, and prints the
per-layer metrics in wall seconds. "Host" metrics are the simulator's own
time and memory; "simulated" metrics (sim_*) are what the modelled network
does, and repeat exactly for a given seed.

Every scenario run is checked: packet conservation, identical reports on
every repetition, traced equal to untraced, and one event-log round trip
per workload through the independent parser in lararp.eventlog. A failed
check counts in fail_ratio and makes the exit code 1. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. --workload all runs every workload of BENCHMARK.json, each in a
fresh process, so that peak RSS covers that workload alone.

Each run also writes .bench_out/<workload>-seed<N>-trace<0|1>.json (the
result, scenario seeds, digest and per-repetition times) and, traced, the
raw spans of the batch's first scenario run to
.bench_out/<workload>-seed<N>-spans.npz.
"""

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# Each config is built until SETUP_SECONDS of builds are timed, at most
# SETUP_BUILDS times, and the median build time is kept. One build takes
# ~0.02 s at 50 nodes and ~0.06 s at 100, too little work to time once
# (it swings by +-15 %), but ~1.5 s at 1000 nodes.
SETUP_BUILDS = 10
SETUP_SECONDS = 0.2
# After each config the host speed probe (probe.py) runs for this share of
# the config's CPU time, at least once, so that long configs get as many
# speed samples per second as short ones.
PROBE_SHARE = 0.1
SIMULATED = {"sim_pdr", "sim_delay_s", "sim_overhead"}
PROTOCOLS = ("lararp", "baseline")


# -- workloads ----------------------------------------------------------------

def paper_default(seed):
    """The paper's default scenario, once per protocol."""
    from lararp import ScenarioConfig
    return [ScenarioConfig(attacker_count=5, protocol=p, seed=seed)
            for p in PROTOCOLS]


def scale_1000(seed):
    """1000 nodes at the paper's density (100 nodes per km^2)."""
    from lararp import ScenarioConfig
    return [ScenarioConfig(node_count=1000, area_width=3162.0,
                           area_height=3162.0, sim_time=10.0,
                           attacker_count=5, seed=seed)]


def static_cbr(seed):
    """A static, connected data plane: 50 nodes at the paper's density."""
    from lararp import ScenarioConfig
    return [ScenarioConfig(node_count=50, area_width=707.1, area_height=707.1,
                           sim_time=60.0, pause_time=60.0, flow_count=30,
                           flow_rate=20.0, seed=seed)]


def smoke(seed):
    """A tiny scenario for the benchmark's own smoke test."""
    from lararp import ScenarioConfig
    return [ScenarioConfig(node_count=10, area_width=400.0, area_height=400.0,
                           sim_time=2.0, flow_count=2, attacker_count=1,
                           protocol=p, seed=seed)
            for p in PROTOCOLS]


# name -> (configs for one scenario seed, scenario seeds per batch, whether
# host times are scaled by the speed probe). The counts average out the
# seed-to-seed spread of the simulated metrics and of the work per batch (one
# default run makes 1.5-5.8k control packets). scale-1000 is not scaled: its
# runs hold ~200 MB and do not speed up and slow down with the cache-resident
# probe. Over ten seeds (quartile distance / median) scaling widened its
# run_s spread from 0.10 to 0.15, while it narrowed paper-default's from 0.11
# to 0.07 and static-cbr's from 0.06 to 0.05.
WORKLOADS = {
    "paper-default": (paper_default, 8, True),
    "scale-1000": (scale_1000, 3, False),
    "static-cbr": (static_cbr, 12, True),
    "smoke": (smoke, 2, True),
}


def batch(workload, seed):
    """The workload's configs, in a fixed order, for a benchmark seed."""
    build, count, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    scenario_seeds = rng.sample(range(1, 2 ** 31), count)
    return scenario_seeds, [c for s in scenario_seeds for c in build(s)]


# -- checks -------------------------------------------------------------------

class Ledger:
    """Counts scenario runs and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def start(self, label):
        self.attempted += 1
        return label

    def fail(self, label, message):
        self.failures.setdefault(label, []).append(message)
        print(f"CHECK FAILED {label}: {message}", file=sys.stderr)

    def check_report(self, label, report, expected=None):
        r = report
        if r.data_in_flight < 0:
            self.fail(label, f"data_in_flight {r.data_in_flight} < 0")
        if r.data_sent != (r.data_delivered + r.data_dropped + r.data_lost
                           + r.data_in_flight):
            self.fail(label, "packet conservation violated")
        if r.pdr is None or r.avg_delay is None or r.control_overhead is None:
            self.fail(label, "no data packet was delivered")
        if expected is not None and report != expected:
            self.fail(label, "report differs from the first run")

    @property
    def failed(self):
        return len(self.failures)


def label_of(config):
    return f"{config.protocol}/seed={config.seed}"


def timed_run(config, builds=1, keep_log=False):
    """Build the Simulation up to `builds` times (see SETUP_SECONDS), timing
    each build, and run the last one. Returns (median set-up CPU s, run CPU
    s, run wall s, report, records)."""
    from lararp import Simulation
    setups = []
    sim = None
    while not setups or (len(setups) < builds
                         and sum(setups) < SETUP_SECONDS):
        sim = None                      # never hold two simulations at once
        gc.collect()
        t0 = time.process_time()
        sim = Simulation(config, keep_log=keep_log)
        setups.append(time.process_time() - t0)
    t0, w0 = time.process_time(), time.perf_counter()
    report = sim.run()
    run_wall_s = time.perf_counter() - w0
    run_s = time.process_time() - t0
    return (statistics.median(setups), run_s, run_wall_s, report,
            sim.records)


def log_round_trip(ledger, config, expected):
    """Re-derive the report of one run from its event log through the
    independent parser. Returns (format s, parse s)."""
    from lararp import fold
    from lararp.eventlog import format_log, parse_log
    label = ledger.start(label_of(config) + "/keep_log")
    try:
        _, _, _, report, records = timed_run(config, keep_log=True)
        t0 = time.perf_counter()
        text = format_log(records)
        t1 = time.perf_counter()
        parsed = parse_log(text)
        t2 = time.perf_counter()
    except Exception:
        ledger.fail(label, traceback.format_exc())
        return 0.0, 0.0
    ledger.check_report(label, report, expected)
    if fold(parsed) != report:
        ledger.fail(label, "fold(parse_log(format_log(records))) != report")
    return t1 - t0, t2 - t1


def csv_digest(configs, reports):
    """sha256 over the cli.csv_row rows of the batch, as CSV bytes."""
    from lararp.cli import csv_row
    buf = io.StringIO()
    csv.writer(buf).writerows(csv_row(c, r) for c, r in zip(configs, reports))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# -- untraced run: end-to-end metrics -----------------------------------------

def run_passes(seconds, one_pass):
    """Call one_pass(index) until another pass would end after `seconds`
    (at least once) or a pass returns None. Returns the pass results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        durations.append(time.perf_counter() - t0)
        if results[-1] is None or (time.perf_counter() - start
                                   + statistics.mean(durations) > seconds):
            return results


def measure_end_to_end(ledger, configs, seconds, probed):
    from probe import REFERENCE_S, probe
    first, probes = [], [probe()] if probed else None

    def sample_speed(cpu_s):
        spent = 0.0
        while probed and (not spent or spent < PROBE_SHARE * cpu_s):
            probes.append(probe())
            spent += probes[-1]

    def one_pass(index):
        setup_total = run_total = wall_total = 0.0
        for i, config in enumerate(configs):
            label = ledger.start(label_of(config))
            try:
                setup_s, run_s, wall_s, report, _ = timed_run(config,
                                                              SETUP_BUILDS)
            except Exception:
                ledger.fail(label, traceback.format_exc())
                return None
            ledger.check_report(label, report,
                                first[i] if index else None)
            if not index:
                first.append(report)
            setup_total += setup_s
            run_total += run_s
            wall_total += wall_s
            sample_speed(setup_s + run_s)
        return setup_total, run_total, wall_total

    passes = run_passes(seconds, one_pass)
    gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if passes[-1] is None:
        return None, first, passes, probes
    # Host times at the reference host speed (see probe.py). The mean, not
    # the median: probe times are often bimodal, and the median jumps
    # between the modes.
    speed = REFERENCE_S / statistics.mean(probes) if probed else 1.0
    lararp = [r for c, r in zip(configs, first) if c.protocol == "lararp"]
    metrics = {
        "setup_s": speed * statistics.median(p[0] for p in passes),
        "run_s": speed * statistics.median(p[1] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "sim_pdr": statistics.mean(r.pdr for r in lararp),
        "sim_delay_s": statistics.mean(r.avg_delay for r in lararp),
        "sim_overhead": statistics.mean(r.control_overhead for r in lararp),
    }
    return metrics, first, passes, probes


# -- traced run: per-layer metrics --------------------------------------------

def layer_metrics(summaries, counters, reports, run_s):
    """Per-layer metrics of one traced pass over the batch, split into host
    seconds and counts (counts repeat exactly for a given seed)."""
    from spans import RUN_ROOT, SETUP_ROOT
    calls, secs, setup_secs = {}, {}, {}
    for summary in summaries:
        for name, (n, s) in summary[RUN_ROOT].items():
            calls[name] = calls.get(name, 0) + n
            secs[name] = secs.get(name, 0.0) + s
        for name, (_, s) in summary[SETUP_ROOT].items():
            setup_secs[name] = setup_secs.get(name, 0.0) + s
    # Self times within Simulation.run(); with the residual they add up to
    # the traced run_s.
    times = {
        "simnet.mobility.neighbors_s": secs["simnet.mobility.neighbors"],
        "simnet.mobility.step_s": secs["simnet.mobility.step"],
        "protocol.rreq_s": secs["protocol.rreq"],
        "protocol.rrep_s": secs["protocol.rrep"],
        "protocol.data_s": secs["protocol.data"],
        "protocol.discovery_s": secs["protocol.discovery"],
        "messages.validate_s": secs["messages.validate"],
        "messages.wire_size_s": secs["messages.wire_size"],
        "messages.digest_s": secs["messages.digest"],
        "crypto.tag_s": secs["crypto.tag"],
        "crypto.reveal_s": secs["crypto.reveal"],
        "adversary.s": secs["adversary"],
        "metrics.observe_s": secs["metrics.observe"],
        "simnet.engine.self_s": (secs[RUN_ROOT]
                                 + secs["simnet.engine.arrival"]),
    }
    times["trace.residual_s"] = run_s - sum(times.values())
    times["trace.run_s"] = run_s
    times["crypto.keytable_s"] = setup_secs["crypto.keytable"]
    times["crypto.keychain_s"] = setup_secs["crypto.keychain"]
    counts = {
        "simnet.mobility.neighbor_queries": calls["simnet.mobility.neighbors"],
        "simnet.mobility.queries_per_tick": (
            calls["simnet.mobility.neighbors"]
            / max(calls["simnet.mobility.step"], 1)),
        "simnet.arrivals": calls["simnet.engine.arrival"],
        "protocol.rreq_calls": calls["protocol.rreq"],
        "protocol.rreq_useful_ratio": (counters["protocol.rreq_useful"]
                                       / max(calls["protocol.rreq"], 1)),
        "protocol.data_calls": calls["protocol.data"],
        "protocol.tag_checks": sum(r.hop_tag_checks for r in reports),
        "protocol.tag_checks_at_dest": sum(r.hop_tag_checks_at_dest
                                           for r in reports),
        "protocol.charged": counters["protocol.charged"],
        "messages.validate_calls": calls["messages.validate"],
        "messages.wire_size_calls": calls["messages.wire_size"],
        "crypto.keytable_entries": counters["crypto.keytable_entries"],
        "crypto.tag_calls": calls["crypto.tag"],
        "adversary.calls": calls["adversary"],
        "metrics.observe_calls": calls["metrics.observe"],
    }
    return times, counts


def measure_layers(ledger, configs, seconds, spans_path):
    import numpy as np
    from spans import Tracer
    from lararp import Simulation

    untraced = []
    untraced_run_s = 0.0
    for config in configs:
        label = ledger.start(label_of(config))
        try:
            _, _, run_s, report, _ = timed_run(config)
        except Exception:
            ledger.fail(label, traceback.format_exc())
            return None, untraced
        ledger.check_report(label, report)
        untraced.append(report)
        untraced_run_s += run_s

    tracer = Tracer()

    def one_pass(index):
        summaries, reports = [], []
        counters = dict.fromkeys(tracer.counters, 0)
        run_total = 0.0
        for i, config in enumerate(configs):
            label = ledger.start(label_of(config) + "/traced")
            tracer.clear()
            originals = tracer.install()
            try:
                sim = Simulation(config)
                t0 = time.perf_counter()
                report = sim.run()
                run_total += time.perf_counter() - t0
            except Exception:
                ledger.fail(label, traceback.format_exc())
                return None
            finally:
                tracer.uninstall(originals)
                sim = None
            ledger.check_report(label, report, untraced[i])
            summaries.append(tracer.summary())
            reports.append(report)
            for key, value in tracer.counters.items():
                counters[key] += value
            if index == 0 and i == 0:
                spans_path.parent.mkdir(exist_ok=True)
                np.savez(spans_path, run_id=label,
                         names=np.array(tracer.names), **tracer.spans())
            tracer.clear()
        return layer_metrics(summaries, counters, reports, run_total)

    passes = run_passes(seconds, one_pass)
    if passes[-1] is None:
        return None, untraced
    metrics = {key: statistics.median(p[0][key] for p in passes)
               for key in passes[0][0]}
    for key, value in passes[0][1].items():
        values = [p[1][key] for p in passes]
        if any(v != value for v in values):
            ledger.fail("traced", f"{key} differs between passes: {values}")
        metrics[key] = value
    metrics["trace_overhead"] = metrics["trace.run_s"] / untraced_run_s
    return metrics, untraced


# -- reporting ----------------------------------------------------------------

def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "system": platform.system()}


def reference_digest(workload, seed):
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)["digests"].get(workload)
    except (OSError, ValueError, KeyError):
        return None
    if ref is None or ref["seed"] != seed:
        return None
    return ref["sha256"]


def format_value(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, spec):
    scenario_seeds, configs = batch(args.workload, args.seed)
    ledger = Ledger()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
    if args.trace:
        metrics, first = measure_layers(ledger, configs, args.seconds,
                                        spans_path)
        passes = probes = None
    else:
        metrics, first, passes, probes = measure_end_to_end(
            ledger, configs, args.seconds, WORKLOADS[args.workload][2])
    if len(first) == len(configs):
        # The first LARARP config's run, re-derived from its event log.
        format_s, parse_s = log_round_trip(ledger, configs[0], first[0])
        digest = csv_digest(configs, first)
    else:
        format_s = parse_s = 0.0
        digest = None
    if metrics is not None and args.trace:
        metrics["eventlog.format_s"] = format_s
        metrics["eventlog.parse_s"] = parse_s

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  scenario seeds "
          f"{scenario_seeds}  configs {len(configs)}  trace {args.trace}"
          + (f"  repetitions {len(passes)}" if passes else ""))
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    fail_ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'fail_ratio':34s} {format_value(fail_ratio):>12s} ratio  "
          f"({ledger.failed} of {ledger.attempted} scenario runs failed)")
    reference = reference_digest(args.workload, args.seed)
    if digest is not None:
        verdict = ("no reference for this seed" if reference is None
                   else "matches reference" if digest == reference
                   else "DIFFERS from reference")
        print(f"  {'sim_digest':34s} sha256:{digest} ({verdict})")
    out = {}
    if metrics is not None:
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise SystemExit(f"error: metrics not computed: {missing}")
        for m in wanted:
            value = metrics[m["name"]]
            kind = ("" if args.trace else "simulated"
                    if m["name"] in SIMULATED else "host")
            print(f"  {m['name']:34s} {format_value(value):>12s} "
                  f"{m['unit']:10s} {kind:9s} better {m['better']}")
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = metrics is not None and ledger.failed == 0
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": out}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  scenario_seeds=scenario_seeds, sim_digest=digest,
                  passes=passes, probes=probes, environment=env,
                  failures=ledger.failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n",
                                encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec):
    """Every workload of BENCHMARK.json, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        merged["correct"] &= proc.returncode == 0 and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def import_lararp():
    """Import lararp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lararp
    except ImportError as exc:
        raise SystemExit(f"error: cannot import lararp from {src}: {exc}")
    if Path(lararp.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: lararp imported from {lararp.__file__}, "
                         f"not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {SPEC_PATH}: {exc}")
    import_lararp()
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
