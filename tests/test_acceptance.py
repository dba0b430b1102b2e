"""End-to-end acceptance checks.

Each test prints one pass/fail line on the terminal (bypassing capture)
so a plain pytest run shows the verdict per criterion.
"""

import copy
import hashlib
import random
import time

import pytest

from conftest import World
from lararp import crypto
from lararp.adversary import mutate_field
from lararp.cli import csv_row, run_sweep
from lararp.eventlog import format_log, id_list
from lararp.messages import decode, encode, hop_digest
from lararp.simnet import ScenarioConfig, run

from test_messages import make_data, make_rrep, make_rreq

SEEDS = [1, 2, 3, 4, 5]

# authentication failures; liveness drops (stale replies after timeout,
# broken adjacency) are counted separately and are not security events
SECURITY_REASONS = {"bad-verifier", "bad-source-mac", "bad-hop-tag",
                    "bad-dest-tag", "prohibited-node", "malformed"}


def announce(capsys, num, name, ok):
    with capsys.disabled():
        print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def group_means(configs, reports, point_attr):
    """Mean metrics per (sweep point, protocol), averaged over seeds."""
    groups = {}
    for cfg, rep in zip(configs, reports):
        groups.setdefault((getattr(cfg, point_attr), cfg.protocol),
                          []).append(rep)
    means = {}
    for key, reps in groups.items():
        means[key] = {
            "pdr": sum(r.pdr for r in reps) / len(reps),
            "delay": sum(r.avg_delay for r in reps) / len(reps),
            "overhead": sum(r.control_overhead for r in reps) / len(reps),
        }
    return means


# sha256 of the CSVs that `lararp sweep attackers` and `lararp sweep
# pausetime` write at the default settings; the fixtures below run exactly
# those sweeps, so the CSVs are byte-identical from commit to commit unless
# a change to behaviour is meant and recorded
SWEEP_CSV_SHA256 = {
    "attackers":
        "11a409009a88d480927e13a1b8212ff6e2de9a766a3eddb7954a6e2848cad582",
    "pausetime":
        "714affe18b628e05ee268f558c7cac9665ab8230d3a61bb293ebae779ac0ed70",
}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


@pytest.fixture(scope="module")
def attacker_sweep(sweep_dir):
    base = ScenarioConfig()
    start = time.perf_counter()
    configs, reports, _ = run_sweep("attackers", base, seeds=SEEDS,
                                    output_path=sweep_dir / "attackers.csv")
    elapsed = time.perf_counter() - start
    return configs, reports, elapsed


@pytest.fixture(scope="module")
def pause_sweep(sweep_dir):
    base = ScenarioConfig()
    configs, reports, _ = run_sweep("pausetime", base, seeds=SEEDS,
                                    output_path=sweep_dir / "pausetime.csv")
    return configs, reports


def _sweep_csv_sha256(sweep_dir, experiment):
    return hashlib.sha256(
        (sweep_dir / f"{experiment}.csv").read_bytes()).hexdigest()


def test_default_attacker_sweep_csv_is_pinned(attacker_sweep, sweep_dir):
    assert (_sweep_csv_sha256(sweep_dir, "attackers")
            == SWEEP_CSV_SHA256["attackers"])


def test_default_pause_sweep_csv_is_pinned(pause_sweep, sweep_dir):
    assert (_sweep_csv_sha256(sweep_dir, "pausetime")
            == SWEEP_CSV_SHA256["pausetime"])


def test_criterion_1_pdr_vs_attackers(attacker_sweep, capsys):
    configs, reports, elapsed = attacker_sweep
    means = group_means(configs, reports, "attacker_count")
    points = sorted({c.attacker_count for c in configs})

    dominance = all(means[(p, "lararp")]["pdr"] >= means[(p, "baseline")]["pdr"]
                    for p in points)
    series = [means[(p, "lararp")]["pdr"] for p in points]
    monotone = all(b <= a + 0.03 for a, b in zip(series, series[1:]))
    per_run = elapsed / len(configs)
    budget = per_run <= 10.0 and elapsed <= 600.0

    announce(capsys, 1, "delivery ratio vs attacker count",
             dominance and monotone and budget)


def test_criterion_2_delay_vs_attackers(attacker_sweep, capsys):
    configs, reports, _ = attacker_sweep
    means = group_means(configs, reports, "attacker_count")
    points = sorted({c.attacker_count for c in configs})
    ok = all(means[(p, "lararp")]["delay"] <= means[(p, "baseline")]["delay"]
             for p in points)
    announce(capsys, 2, "end-to-end delay vs attacker count", ok)


def test_criterion_3_overhead_vs_attackers(attacker_sweep, capsys):
    configs, reports, _ = attacker_sweep
    means = group_means(configs, reports, "attacker_count")
    points = sorted({c.attacker_count for c in configs})
    ratio_ok = all(
        means[(p, "lararp")]["overhead"] <= means[(p, "baseline")]["overhead"]
        for p in points)

    # mechanism check: selective verification performs strictly fewer
    # destination-side hop-tag checks than verify-everything routing
    checks = {}
    for proto in ("lararp", "baseline"):
        rep, _ = run(ScenarioConfig(protocol=proto, attacker_count=0))
        checks[proto] = rep.hop_tag_checks_at_dest
    mechanism_ok = checks["lararp"] < checks["baseline"]

    announce(capsys, 3, "control overhead vs attacker count",
             ratio_ok and mechanism_ok)


def test_criterion_4_pause_time_sweep(pause_sweep, capsys):
    configs, reports = pause_sweep
    means = group_means(configs, reports, "pause_time")
    points = sorted({c.pause_time for c in configs})
    ok = all(
        means[(p, "lararp")]["pdr"] >= means[(p, "baseline")]["pdr"]
        and means[(p, "lararp")]["delay"] <= means[(p, "baseline")]["delay"]
        and means[(p, "lararp")]["overhead"]
        <= means[(p, "baseline")]["overhead"]
        for p in points)
    announce(capsys, 4, "pause-time sweep orderings", ok)


def _tamper_outcomes():
    """Each mutable field corrupted one at a time on a scripted 5-node
    line; yields (field, drop reason or None)."""
    rng = random.Random(99)

    rreq_fields = ["request_id", "source_tag", "verifier_index",
                   "verifier_secret", "node_list", "hop_tags"]
    for fieldname in rreq_fields:
        # hop-digest fields need the verify-everything pipeline; a
        # destination that trusts every hop skips those tags by design
        full = fieldname in ("node_list", "hop_tags")
        world = World.line(5, full_verification=full)
        out = world.discover(
            0, 4, [1, 2, 3],
            mutate_rreq=(1, lambda m, f=fieldname: mutate_field(m, f, rng)))
        yield fieldname, out.get("drop")

    def flip_first(tags):
        tags[0] = bytes([tags[0][0] ^ 1]) + tags[0][1:]

    rrep_mutations = {
        "request_id_tag": lambda m: mutate_field(m, "request_id_tag", rng),
        "route": lambda m: mutate_field(m, "route", rng),
        "dest_tags": lambda m: flip_first(m.dest_tags),
        "reverse_hop_tags": lambda m: flip_first(m.reverse_hop_tags),
    }
    for fieldname, fn in rrep_mutations.items():
        world = World.line(5)
        out = world.discover(0, 4, [1, 2, 3], mutate_rrep=(0, fn))
        yield fieldname, out.get("drop")


def test_criterion_5_security_properties(capsys):
    # 5a: every tampered field is rejected somewhere along the path
    tamper_ok = True
    for fieldname, drop in _tamper_outcomes():
        if drop is None:
            tamper_ok = False

    # 5b: a recorded route reply re-injected after acceptance is rejected
    world = World.line(5)
    captured = {}

    def record_copy(msg):
        captured["rrep"] = copy.deepcopy(msg)

    out = world.discover(0, 4, [1, 2, 3], mutate_rrep=(2, record_copy))
    replay_ok = out.get("drop") is None and "rrep" in captured
    if replay_ok:
        result = world.nodes[0].handle_rrep_at_source(captured["rrep"], 1, 1.0)
        replay_ok = result.drop == "replay"

    # 5c: forged verifier reveal rejected at the first honest hop
    world = World.line(5)
    rreq = world.nodes[0].initiate_route_discovery(4, 0.0, world.rng)
    idx, secret = rreq.verifier
    rreq.verifier = (idx, bytes(16))
    forged_ok = world.nodes[1].handle_rreq(rreq, 0, 0.0).drop == "bad-verifier"

    # 5d: zero false rejections over 25 attacker-free seeds
    false_rejections = 0
    for seed in range(1, 26):
        _, records = run(ScenarioConfig(node_count=40, sim_time=15.0,
                                        flow_count=5, seed=seed),
                         keep_log=True)
        for r in records:
            if r.kind == "drop" and r.details["reason"] in SECURITY_REASONS:
                false_rejections += 1
            if r.kind == "credit" and r.details["event"] == "misbehaved":
                false_rejections += 1

    announce(capsys, 5, "security properties",
             tamper_ok and replay_ok and forged_ok and false_rejections == 0)


def _check_credit_ledger(config):
    """Recompute every final credit counter from the raw event log and
    verify no accepted route contains a node the issuer distrusted."""
    _, records = run(config, keep_log=True)
    punish = config.punish_delta
    threshold = config.credit_threshold

    recomputed = {}
    for r in records:
        if r.kind == "credit":
            key = (r.node, r.details["neighbor"])
            delta = 1 if r.details["event"] == "forwarded" else -punish
            recomputed[key] = recomputed.get(key, config.initial_credit) + delta

    finals = {(r.node, r.details["neighbor"]): r.details["cc"]
              for r in records if r.kind == "ntt-final"}
    if recomputed != finals:
        return False

    # replay credits in time order; at each route issue, every listed hop
    # known to the issuer must be at or above the threshold
    running = {}
    for r in records:
        if r.kind == "credit":
            key = (r.node, r.details["neighbor"])
            delta = 1 if r.details["event"] == "forwarded" else -punish
            running[key] = running.get(key, config.initial_credit) + delta
        elif r.kind == "rrep-issued":
            for hop in id_list(r.details["route"]):
                if running.get((r.node, hop), config.initial_credit) < threshold:
                    return False
    return True


def test_criterion_6_credit_ledger(capsys):
    scenarios = [
        ScenarioConfig(node_count=40, sim_time=15.0, flow_count=5, seed=2),
        ScenarioConfig(node_count=40, sim_time=15.0, flow_count=5, seed=3,
                       attacker_count=5, attacker_kind="blackhole"),
        ScenarioConfig(node_count=40, sim_time=15.0, flow_count=5, seed=4,
                       attacker_count=5, attacker_kind="tamper",
                       full_verification=True),
    ]
    ok = all(_check_credit_ledger(cfg) for cfg in scenarios)
    announce(capsys, 6, "credit-ledger oracle", ok)


def test_criterion_7_crypto_suite(capsys):
    rng = random.Random(77)

    # key-chain soundness and forgery resistance
    chain = crypto.generate_keychain(b"\x05" * 16, 64, owner=1)
    sound = all(
        crypto.verify_reveal(chain.publics, *crypto.reveal_next(chain))
        for _ in range(64))
    forgeries = sum(
        crypto.verify_reveal(chain.publics, rng.randrange(64),
                             rng.randbytes(16))
        for _ in range(10_000))

    # tag bit-flip rejection
    key, msg = rng.randbytes(16), rng.randbytes(48)
    tag = crypto.compute_tag(key, msg)
    flips_rejected = True
    for bit in range(len(msg) * 8):
        bad = bytearray(msg)
        bad[bit // 8] ^= 1 << (bit % 8)
        if crypto.verify_tag(key, bytes(bad), tag):
            flips_rejected = False

    # encode/decode round trip on 10^3 generated messages
    round_trips = all(
        decode(encode(m)) == m
        for i in range(1000)
        for m in [(make_rreq, make_rrep, make_data)[i % 3](rng, hops=i % 5)])

    # hop-digest prefix stability
    m = make_rreq(rng, hops=3)
    before = [hop_digest(m, k) for k in range(3)]
    m.node_list.append(99)
    m.hop_tags.append(rng.randbytes(16))
    stable = before == [hop_digest(m, k) for k in range(3)]

    announce(capsys, 7, "cryptographic suite",
             sound and forgeries == 0 and flips_rejected
             and round_trips and stable)


def test_criterion_8_determinism(capsys):
    cfg = ScenarioConfig(attacker_count=5)
    rep1, log1 = run(cfg, keep_log=True)
    rep2, log2 = run(ScenarioConfig(attacker_count=5), keep_log=True)
    logs_equal = format_log(log1).encode() == format_log(log2).encode()
    rows_equal = csv_row(cfg, rep1) == csv_row(cfg, rep2)
    announce(capsys, 8, "bitwise determinism", logs_equal and rows_equal)
