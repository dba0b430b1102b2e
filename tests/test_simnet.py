import hashlib
import math
import random
from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from lararp.eventlog import format_log
from lararp.messages import DataPacket
from lararp.simnet import (MobilityState, ScenarioConfig, ScenarioError,
                           Simulation, parse_scenario, run, step_mobility)

PER_HOP_DELAY = 512 * 8 / 2_000_000 + 0.001    # serialization + processing


def small_config(**kwargs):
    defaults = dict(node_count=30, sim_time=10.0, flow_count=4, seed=5)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


# -- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(node_count=1).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(speed_min=9, speed_max=5).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(attacker_count=100).validate()
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="dsr").validate()


def test_scenario_parse_round_trip():
    text = """
# comment
node_count = 40
sim_time = 12.5
protocol = baseline
full_verification = true
attacker_kind = grayhole
"""
    config = parse_scenario(text)
    assert config.node_count == 40
    assert config.sim_time == 12.5
    assert config.protocol == "baseline"
    assert config.full_verification is True
    assert config.attacker_kind == "grayhole"
    # every key written at its default value parses back to the defaults
    defaults = ScenarioConfig()
    text = "".join(
        f"{f.name} = {str(getattr(defaults, f.name)).lower()}\n"
        if f.type is bool else f"{f.name} = {getattr(defaults, f.name)}\n"
        for f in fields(ScenarioConfig) if f.name not in ("flows", "positions"))
    assert parse_scenario(text) == defaults


def test_scenario_parse_unknown_key_names_line():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("node_count = 40\nbogus_key = 1\n")
    assert "line 2" in str(exc.value)
    assert "bogus_key" in str(exc.value)


def test_scenario_parse_bad_value_names_key():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("node_count = plenty\n")
    assert "node_count" in str(exc.value)


def test_scenario_parse_rejects_unknown_tamper_field():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("tamper_field = bogus\n")
    assert "bogus" in str(exc.value)


# -- determinism ------------------------------------------------------------

def test_same_seed_identical_log_and_report():
    cfg = small_config(attacker_count=3)
    r1, log1 = run(cfg, keep_log=True)
    r2, log2 = run(small_config(attacker_count=3), keep_log=True)
    assert format_log(log1) == format_log(log2)
    assert r1 == r2


def test_different_seeds_differ():
    r1, _ = run(small_config(seed=1))
    r2, _ = run(small_config(seed=2))
    assert r1 != r2


# sha256 of format_log: the criterion-8 run, a 300-node run at the default
# density with nodes that never pause, the criterion-8 run under the
# baseline, 40-node runs with replay, request_id-tampering (malformed
# RREQs beside duplicates), rushing (zero processing delay, so arrival
# times tie) and control-flood attackers, and a static 50-node data plane
# (route-accept flushes and origination on a known route)
GOLDEN_40 = dict(node_count=40, area_width=632.0, area_height=632.0,
                 sim_time=20.0, attacker_count=3, seed=4)
GOLDEN_LOGS = [
    (dict(attacker_count=5),
     "08f8fdade645c324183556ea80fba31b045aa087ce3540715f175616086d858c"),
    (dict(node_count=300, area_width=1732.0, area_height=1732.0,
          sim_time=10.0, pause_time=0.0, attacker_count=5, seed=5),
     "6e814accdba14f7cdcf3955b30a3d1bcc61aa693707215d7eb54195df38cd0a5"),
    (dict(attacker_count=5, protocol="baseline"),
     "6a167c25329d4eb85788d49d49c57b1b31c189f5e03d08ec242b5c7f24b0d517"),
    (dict(GOLDEN_40, attacker_kind="replay"),
     "54bd50d4fb2542e54795c0d0b560c2d01e18e7440e32e045172ee3395e9bbbcc"),
    (dict(GOLDEN_40, attacker_kind="tamper", tamper_field="request_id"),
     "8eceaf42323508ae57bf6572299782658db16ce1f5e53824f55e61af9167e69e"),
    (dict(GOLDEN_40, attacker_kind="rushing"),
     "02f9daa3b9c933e7dd7563151ce04a6cc9ceffecfde4fde5e4cff4c3225cf449"),
    (dict(GOLDEN_40, attacker_kind="controlflood"),
     "5e283854988820cdc344f9ee661361bf6f56bee3d646515ba8687561f6ce9898"),
    (dict(node_count=50, area_width=707.1, area_height=707.1, sim_time=10.0,
          pause_time=10.0, flow_count=30, flow_rate=20.0, seed=1),
     "e31f69e19cd343c7558a27f2a7ae548b5da9d5753cc9d311357249dadaa6dd12"),
]


@pytest.mark.parametrize("kwargs,digest", GOLDEN_LOGS)
def test_golden_event_log(kwargs, digest):
    _, records = run(ScenarioConfig(**kwargs), keep_log=True)
    assert hashlib.sha256(format_log(records).encode()).hexdigest() == digest


# -- radio ------------------------------------------------------------------

def static_pair(distance):
    return ScenarioConfig(node_count=2, positions=[(0, 0), (distance, 0)],
                          flows=[(0, 1)], flow_count=1, pause_time=100.0,
                          sim_time=5.0)


def test_neighbor_boundary():
    sim = Simulation(static_pair(249.9))
    assert sim.mobility.neighbors(0) == [1]
    sim = Simulation(static_pair(250.1))
    assert sim.mobility.neighbors(0) == []


def test_neighbor_symmetry_random_placements():
    cfg = small_config()
    sim = Simulation(cfg)
    mob = sim.mobility
    # pairwise distance oracle
    for a in range(cfg.node_count):
        for b in range(cfg.node_count):
            if a == b:
                continue
            expected = mob.in_range(a, b)
            assert (b in mob.neighbors(a)) == expected
            assert (a in mob.neighbors(b)) == (b in mob.neighbors(a))


@st.composite
def placements(draw):
    """(radio_range, positions): free points plus, for some of them, a
    partner exactly radio_range away or on the same spot."""
    k = draw(st.integers(1, 80))
    r = 5.0 * k
    a, b = 3.0 * k, 4.0 * k               # a**2 + b**2 == r**2 exactly
    grid = st.integers(0, 1000).map(float)
    free = st.floats(0.0, 1000.0, allow_nan=False)
    points = draw(st.lists(st.tuples(st.one_of(grid, free),
                                     st.one_of(grid, free)),
                           min_size=2, max_size=12))
    positions = []
    for x, y in points:
        positions.append((x, y))
        partner = draw(st.sampled_from(
            [None, (x, y), (x + r, y), (x, y + r), (x + a, y + b)]))
        if partner is not None and x.is_integer() and y.is_integer():
            positions.append(partner)
    return r, positions


def oracle_neighbors(mob, i, r):
    # Python floats; dx * dx rounds as numpy's square does, while
    # math.hypot can disagree with the squared test at the boundary
    out = []
    for j in range(len(mob.x)):
        dx, dy = mob.x[i] - mob.x[j], mob.y[i] - mob.y[j]
        if j != i and dx * dx + dy * dy <= r ** 2:
            out.append(j)
    return out


@settings(max_examples=60, deadline=None)
@given(placements(), st.sampled_from([0.0, 0.25, 100.0]),
       st.integers(0, 2 ** 16))
@example((250.0, [(0.0, 0.0), (250.0, 0.0), (150.0, 200.0), (0.0, 0.0)]),
         100.0, 0)
def test_neighbors_match_pairwise_oracle(placed, pause_time, seed):
    r, positions = placed
    cfg = ScenarioConfig(node_count=len(positions), positions=positions,
                         radio_range=r, pause_time=pause_time)
    mob = MobilityState(cfg, random.Random(seed))
    rng = random.Random(seed + 1)
    n = cfg.node_count
    for _ in range(4):
        rows = [mob.neighbors(i) for i in range(n)]
        assert rows == [oracle_neighbors(mob, i, r) for i in range(n)]
        frozen = all(p > mob.now + 0.1 for p in mob.paused_until)
        step_mobility(mob, 0.1, rng)
        if frozen:
            assert all(mob.neighbors(i) is rows[i] for i in range(n))
    assert [mob.neighbors(i) for i in range(n)] == [
        oracle_neighbors(mob, i, r) for i in range(n)]


def test_one_hop_static_flow_is_lossless():
    report, _ = run(static_pair(100.0))
    assert report.pdr == 1.0
    assert report.data_sent > 0


def test_one_hop_delay_arithmetic():
    # 512-byte packet at 2 Mbps plus 1 ms processing = 3.048 ms
    report, records = run(static_pair(100.0), keep_log=True)
    # skip the first packets, which sat buffered during route discovery
    delays = [r.details["delay"] for r in records
              if r.kind == "data-delivered" and r.details["seq"] > 2]
    assert delays
    assert all(abs(d - PER_HOP_DELAY) < 1e-12 for d in delays)


def test_k_hop_delay_is_linear():
    # static 4-node line: routed packets take 3 identical hops
    cfg = ScenarioConfig(node_count=4,
                         positions=[(i * 200.0, 0.0) for i in range(4)],
                         flows=[(0, 3)], flow_count=1, pause_time=100.0,
                         sim_time=10.0)
    _, records = run(cfg, keep_log=True)
    steady = [r.details["delay"] for r in records
              if r.kind == "data-delivered" and r.details["seq"] > 5]
    assert steady
    assert all(abs(d - 3 * PER_HOP_DELAY) < 1e-12 for d in steady)


def test_broadcast_reaches_all_neighbors():
    cfg = ScenarioConfig(node_count=4,
                         positions=[(0, 0), (100, 0), (0, 100), (100, 100)],
                         flows=[(0, 1)], flow_count=1, pause_time=100.0,
                         sim_time=1.0)
    sim = Simulation(cfg)
    rreq = sim.nodes[0].initiate_route_discovery(1, 0.0, sim.rng_protocol)
    before = len(sim._heap)
    sim._broadcast(0, rreq, 0.0)
    # one transmission is one event, naming every receiver
    assert len(sim._heap) - before == 1
    _, _, handler, (sender, receivers, message) = max(sim._heap,
                                                     key=lambda e: e[1])
    assert handler == sim._transmission
    assert (sender, list(receivers), message) == (0, [1, 2, 3], rreq)


def test_range_checked_per_receiver_at_arrival():
    # a queued broadcast names the receivers in range when it was sent, but
    # each one is checked against the radio range when it arrives
    cfg = ScenarioConfig(node_count=4,
                         positions=[(0, 0), (100, 0), (0, 100), (100, 100)],
                         flows=[(1, 2)], flow_count=1, pause_time=100.0,
                         sim_time=0.01)
    sim = Simulation(cfg, keep_log=True)
    rreq = sim.nodes[0].new_rreq(3, sim.rng_protocol)
    sim._broadcast(0, rreq, 0.0)
    (arrival, *_), = sim._heap
    sim.mobility.x[3] = 500.0    # node 3 leaves range before the arrival
    sim.mobility._nbr_cache = None
    sim.run()
    at_arrival = [r for r in sim.records if r.time == arrival]
    lost = [r for r in at_arrival if r.kind == "control-lost"]
    assert [(r.node, r.details["msg"]) for r in lost] == [(3, "rreq")]
    # nodes 1 and 2 still get the request, and each rebroadcasts it
    assert {r.node for r in at_arrival if r not in lost} == {1, 2}
    assert sorted(r.node for r in at_arrival
                  if r.kind == "control-send") == [1, 2]


@pytest.mark.parametrize("far,neighbor", [
    ((213.57313264865948, 129.94813200134163), True),
    ((91.67962296439045, 232.58298891601513), False)])
def test_arrival_range_agrees_with_neighbor_rows(far, neighbor):
    # both points lie within an ulp of radio_range from the origin, where
    # math.hypot and the squared test of the neighbour rows disagree
    cfg = ScenarioConfig(node_count=2, positions=[(0.0, 0.0), far],
                         flows=[(0, 1)], flow_count=1, pause_time=100.0,
                         sim_time=5.0)
    sim = Simulation(cfg, keep_log=True)
    packet = DataPacket(flow_id=0, seq=0, source_id=0, dest_id=1,
                        payload_size=512, route=[], created_at=0.0)
    sim._arrival(0, 1, packet, 0.01)
    delivered = [r.kind for r in sim.records].count("data-delivered") == 1
    assert (1 in sim.mobility.neighbors(0)) == neighbor
    assert delivered == neighbor
    if neighbor:
        report, _ = run(cfg)
        assert report.data_sent > 0 and report.pdr == 1.0


def test_in_flight_loss_when_receiver_moves_away():
    sim = Simulation(static_pair(100.0), keep_log=True)
    packet = DataPacket(flow_id=0, seq=0, source_id=0, dest_id=1,
                        payload_size=512, route=[], created_at=0.0)
    sim.mobility.x[1] = 500.0    # receiver out of range before arrival
    sim.mobility._nbr_cache = None
    sim._arrival(0, 1, packet, 0.01)
    assert any(r.kind == "data-lost" for r in sim.records)


# -- mobility ---------------------------------------------------------------

def test_static_when_pause_covers_run():
    cfg = small_config(pause_time=100.0)
    sim = Simulation(cfg)
    initial = list(zip(sim.mobility.x, sim.mobility.y))
    rng = random.Random(0)
    for _ in range(100):
        step_mobility(sim.mobility, 0.1, rng)
    assert list(zip(sim.mobility.x, sim.mobility.y)) == initial


def test_mobility_respects_speed_and_area_bounds():
    cfg = ScenarioConfig(node_count=20, pause_time=0.5, sim_time=50.0,
                         speed_min=5.0, speed_max=10.0)
    mob = MobilityState(cfg, random.Random(3))
    rng = random.Random(4)
    prev = list(zip(mob.x, mob.y))
    for _ in range(500):
        step_mobility(mob, 0.1, rng)
        for i in range(cfg.node_count):
            assert 0 <= mob.x[i] <= cfg.area_width
            assert 0 <= mob.y[i] <= cfg.area_height
            moved = math.hypot(mob.x[i] - prev[i][0], mob.y[i] - prev[i][1])
            # one tick's travel never exceeds max speed * dt
            assert moved <= cfg.speed_max * 0.1 + 1e-9
        prev = list(zip(mob.x, mob.y))
        for i in range(cfg.node_count):
            if mob.waypoint[i] is not None:
                assert cfg.speed_min <= mob.speed[i] <= cfg.speed_max


def test_step_mobility_rejects_nonpositive_dt():
    cfg = small_config()
    mob = MobilityState(cfg, random.Random(0))
    with pytest.raises(ValueError):
        step_mobility(mob, 0.0, random.Random(0))


# -- traffic ----------------------------------------------------------------

def test_cbr_send_count():
    # 50 s at 4 packets/s: 200 send attempts per flow
    cfg = ScenarioConfig(node_count=2, positions=[(0, 0), (100, 0)],
                         flows=[(0, 1)], flow_count=1, pause_time=100.0,
                         sim_time=50.0, flow_rate=4.0)
    report, _ = run(cfg)
    assert report.data_sent == 200


def test_unroutable_destination_counts_sends():
    cfg = ScenarioConfig(node_count=2, positions=[(0, 0), (900, 0)],
                         flows=[(0, 1)], flow_count=1, pause_time=100.0,
                         sim_time=5.0)
    report, _ = run(cfg)
    assert report.data_sent > 0
    assert report.data_delivered == 0
    assert report.pdr == 0.0
    assert report.drops_by_reason.get("no-route", 0) > 0


# -- global invariants ------------------------------------------------------

@pytest.mark.parametrize("attackers,kind", [(0, "blackhole"),
                                            (3, "blackhole"),
                                            (3, "grayhole")])
def test_packet_conservation(attackers, kind):
    report, _ = run(small_config(attacker_count=attackers,
                                 attacker_kind=kind))
    accounted = (report.data_delivered + report.data_dropped
                 + report.data_lost + report.data_in_flight)
    assert accounted == report.data_sent
    assert report.data_in_flight >= 0


def test_causality_log_times_nondecreasing():
    _, records = run(small_config(attacker_count=2), keep_log=True)
    times = [r.time for r in records]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_no_honest_node_punished_without_attackers():
    _, records = run(small_config(), keep_log=True)
    assert not any(r.kind == "credit" and r.details["event"] == "misbehaved"
                   for r in records)
    # every credit counter is at or above its starting value
    for r in records:
        if r.kind == "ntt-final":
            assert r.details["cc"] >= 0
