import copy
import hashlib
import heapq
import math
import random
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from lararp import crypto, protocol, simnet
from lararp.adversary import KINDS, TAMPER_FIELDS
from lararp.eventlog import format_log
from lararp.messages import DataPacket, Rreq, wellformed
from lararp.metrics import MetricsCollector, fold
from lararp.protocol import DROPPED, DUPLICATE, NodeState
from lararp.simnet import (MAX_CHAIN_LENGTH, MobilityState, ScenarioConfig,
                           ScenarioError, Simulation, parse_scenario, run,
                           step_mobility)

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


@pytest.mark.parametrize("overrides", [
    dict(flows=[(0, 50)]), dict(flows=[(3, 3)]), dict(flows=[(-1, 3)]),
    dict(positions=[(0.0, 0.0)] * 9)],
    ids=["flow-to-node-50", "flow-to-itself", "flow-from-node-minus-1",
         "positions-for-9-nodes"])
def test_validate_rejects_flows_and_positions_outside_the_network(overrides):
    # each of these passed validate: the flows then crashed the run with a
    # KeyError, and the positions were refused only when it was built
    with pytest.raises(ScenarioError):
        ScenarioConfig(node_count=10, **overrides).validate()


@pytest.mark.parametrize("overrides", [
    dict(node_count=2, flow_count=3),
    dict(node_count=10, flow_count=5, attacker_count=9),
    dict(node_count=10, flows=[(0, 1), (2, 3)], attacker_count=7)],
    ids=["3-flows-at-2-nodes", "9-attackers-at-10-nodes",
         "7-attackers-besides-4-endpoints"])
def test_validate_rejects_what_the_engine_cannot_build(overrides):
    # each of these passed validate, and Simulation refused it only when
    # it drew the flows or the attackers
    with pytest.raises(ScenarioError):
        ScenarioConfig(**overrides).validate()


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
    # a removed key is rejected by name like any other unknown one
    for key, value in (("bogus_key", "1"), ("credit_data_forwarding", "true")):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(f"node_count = 40\n{key} = {value}\n")
        assert "line 2" in str(exc.value)
        assert key in str(exc.value)


def test_scenario_parse_bad_value_names_key():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("node_count = plenty\n")
    assert "node_count" in str(exc.value)


def test_scenario_parse_rejects_a_line_without_a_value():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("node_count = 40\nsim_time\n")
    assert "line 2: expected key=value" in str(exc.value)


def test_scenario_parse_rejects_unknown_tamper_field():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("tamper_field = bogus\n")
    assert "bogus" in str(exc.value)


@pytest.mark.parametrize("key,value", [
    ("grayhole_drop_prob", 1.5), ("grayhole_drop_prob", -0.1),
    ("flood_rate", 0), ("replay_delay", -1),
    ("grayhole_drop_prob", "nan"), ("flood_rate", "nan"),
    ("replay_delay", "nan"), ("sim_time", "nan"),
    ("sim_time", "inf"), ("flow_rate", "inf"), ("flood_rate", "inf"),
    ("area_width", "inf"), ("flow_rate", "1e9"), ("mobility_tick", "1e-9"),
    ("packet_size", 0), ("flow_count", 0), ("chain_length", 0),
    ("chain_length", MAX_CHAIN_LENGTH + 1),
    ("rreq_retries", -1), ("full_verification", "yes"),
    pytest.param("flood_rate",
                 "1e9\nattacker_kind = controlflood\nattacker_count = 1",
                 id="flood_rate-1e9-controlflood"),
    pytest.param("mobility_tick",
                 "1e-5\nnode_count = 1000\narea_width = 3162\n"
                 "area_height = 3162\npause_time = 0\nsim_time = 50",
                 id="mobility_tick-1e-5-1000-nodes"),
    pytest.param("rreq_retries", "100000000\nrreq_timeout = 0",
                 id="rreq_retries-1e8-timeout-0"),
    pytest.param("rreq_retries", "100000000\nrreq_timeout = 1e-6",
                 id="rreq_retries-1e8-timeout-1e-6"),
    pytest.param("rreq_retries", "1000\nrreq_timeout = 0",
                 id="rreq_retries-1000-timeout-0"),
    pytest.param("flood_rate",
                 "1000\nattacker_kind = controlflood\nattacker_count = 10",
                 id="flood_rate-1000-controlflood-10-attackers"),
    pytest.param("node_count", "1000000000\nsim_time = 0.0001",
                 id="node_count-1e9-sim_time-1e-4")])
def test_scenario_parse_rejects_unusable_value(key, value):
    # attacker values are rejected even with no attackers, where
    # Simulation would not use them; a NaN or infinite sim_time, flow_rate
    # or flood_rate never ends a run, nor does a rate or tick that
    # schedules billions of timer events (the flood only with a flooding
    # attacker, set by the lines after flood_rate), nor 5 M ticks that each
    # step 1000 nodes, nor a discovery retried without end, nor a thousand
    # instant retries that each flood every node, nor 10,000 flood requests
    # a second that every node forwards, and an infinite area places nodes
    # at infinity; a billion nodes fit the timer budget at a tiny sim_time
    # but set-up alone would need terabytes, and a source's first reveal
    # hashes its whole key chain. Only the parser runs here
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(f"attacker_count = 0\n{key} = {value}\n")
    assert key in str(exc.value)


def test_zero_rreq_timeout_with_default_retries_runs():
    config = parse_scenario("rreq_timeout = 0\nnode_count = 10\n"
                            "sim_time = 5\nflow_count = 3\n")
    report, _ = run(config)
    assert report.data_sent > 0


def test_setup_hashes_no_key_chain_element(monkeypatch):
    calls = []
    real_owf = crypto.owf

    def counting_owf(label, data):
        calls.append(label)
        return real_owf(label, data)

    monkeypatch.setattr(crypto, "owf", counting_owf)
    Simulation(ScenarioConfig(node_count=200, area_width=1414.2,
                              area_height=1414.2))
    assert len(calls) == 0


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
# times tie), control-flood and gray-hole attackers (one draw per data
# packet a gray hole would forward), and a static 50-node data plane
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
     "28475bb92b8bdaf279f5bbbfab254e89c6d5968d1f3861f8bebb943b3882faca"),
    (dict(GOLDEN_40, attacker_kind="rushing"),
     "02f9daa3b9c933e7dd7563151ce04a6cc9ceffecfde4fde5e4cff4c3225cf449"),
    (dict(GOLDEN_40, attacker_kind="controlflood"),
     "5e283854988820cdc344f9ee661361bf6f56bee3d646515ba8687561f6ce9898"),
    (dict(node_count=50, area_width=707.1, area_height=707.1, sim_time=10.0,
          pause_time=10.0, flow_count=30, flow_rate=20.0, seed=1),
     "e31f69e19cd343c7558a27f2a7ae548b5da9d5753cc9d311357249dadaa6dd12"),
    (dict(GOLDEN_40, attacker_count=8, attacker_kind="grayhole",
          pause_time=0.0),
     "b124e8bb7dce1d13f5b8f8a74e6fc8c83b699d9189980137f73b0da762fc059a"),
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
    n = cfg.node_count
    # the link test is exactly row membership, a == b included
    for a in range(n):
        for b in range(n):
            assert mob.in_range(a, b) == (b in mob.neighbors(a))
            assert (a in mob.neighbors(b)) == (b in mob.neighbors(a))
        # ids outside the network, as a tampered route can name them
        for x in (-1, n, 0x7FFF0000):
            assert mob.in_range(a, x) is False


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


@settings(max_examples=60, deadline=None, derandomize=True)
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
    _, _, handler, (sender, receivers, message, _) = max(
        sim._heap, key=lambda e: e[1])
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


def test_one_validation_per_transmission(monkeypatch):
    # a malformed broadcast is validated once, not once per receiver, and
    # every receiver still drops it as it arrives; a replay attacker among
    # them captures it first
    cfg = ScenarioConfig(node_count=4,
                         positions=[(0, 0), (100, 0), (0, 100), (100, 100)],
                         flows=[(0, 1)], flow_count=1, pause_time=100.0,
                         attacker_count=1, attacker_kind="replay",
                         sim_time=1.0)
    sim = Simulation(cfg, keep_log=True)
    (attacker_id, attacker), = sim.attackers.items()
    assert attacker_id in (2, 3)
    rreq = sim.nodes[0].new_rreq(3, sim.rng_protocol)
    rreq.node_list = [1]       # one id, no hop tag
    calls = []
    real_validate = Rreq.validate

    def counting_validate(message):
        calls.append(message)
        return real_validate(message)

    monkeypatch.setattr(Rreq, "validate", counting_validate)
    sim._broadcast(0, rreq, 0.0)
    assert len(sim._heap) == 1
    at, _, handler, args = heapq.heappop(sim._heap)
    handler(*args, at)
    assert len(calls) == 1
    drops = [(r.node, r.details) for r in sim.records if r.kind == "drop"]
    assert drops == [(n, {"msg": "rreq", "reason": "malformed"})
                     for n in (1, 2, 3)]
    assert attacker._replayed == [rreq]
    assert [(h.__name__, a) for _, _, h, a in sim._heap] == [
        ("_broadcast", (attacker_id, rreq))]


# every attack, with every tamper_field, under both protocols
PROTOCOLS = pytest.mark.parametrize("protocol", ["lararp", "baseline"])
ATTACKS = pytest.mark.parametrize("kind,field", [
    (kind, field) for kind in KINDS
    for field in (TAMPER_FIELDS if kind == "tamper" else ("node_list",))])


def attack_config(kind, field, protocol):
    return ScenarioConfig(node_count=20, area_width=447.0, area_height=447.0,
                          sim_time=10.0, flow_count=4, attacker_count=4,
                          attacker_kind=kind, tamper_field=field,
                          protocol=protocol, seed=1)


@PROTOCOLS
@ATTACKS
def test_messages_on_the_air_are_never_mutated(monkeypatch, kind, field,
                                               protocol):
    # every receiver of a transmission shares one message object, and the
    # radio validates it once when it goes on the air; that verdict holds
    # only if nothing changes the message between its send and its arrival
    sent = {}
    arrived = []
    real_send = Simulation._send
    real_transmission = Simulation._transmission
    real_hop = Simulation._hop

    def send(self, sender, receivers, message, now):
        # the first send: a data packet is sent again, unchanged, per hop
        sent.setdefault(id(message), (message, copy.deepcopy(message)))
        return real_send(self, sender, receivers, message, now)

    def transmission(self, sender, receivers, message, *args):
        assert message == sent[id(message)][1]
        arrived.append(type(message))
        return real_transmission(self, sender, receivers, message, *args)

    def hop(self, prev_hop, node_id, packet, *args):
        # a data packet's arrival; the source calls _hop before any send
        if prev_hop is not None:
            assert packet == sent[id(packet)][1]
            arrived.append(type(packet))
        return real_hop(self, prev_hop, node_id, packet, *args)

    monkeypatch.setattr(Simulation, "_send", send)
    monkeypatch.setattr(Simulation, "_transmission", transmission)
    monkeypatch.setattr(Simulation, "_hop", hop)
    run(attack_config(kind, field, protocol))
    assert Rreq in arrived and DataPacket in arrived


@PROTOCOLS
@ATTACKS
def test_radio_drops_as_duplicate_only_what_admit_would(monkeypatch, kind,
                                                        field, protocol):
    # the radio drops a seen request without calling the receiver's handler
    # or shim; at that receiver's turn in the transmission, the handler's
    # admission would have dropped it as a duplicate, and an attacker's shim
    # would have passed that drop through untouched
    skipped = []
    pending = []    # receivers of the transmission in progress, in turn
    real_transmission = Simulation._transmission
    real_arrival = Simulation._arrival

    def pass_over(sim, message, upto):
        # every receiver ahead of upto (None: all left) got no _arrival
        while pending and pending[0] != upto:
            receiver = pending.pop(0)
            assert type(message) is Rreq
            attacker = sim.attackers.get(receiver)
            if attacker is not None:
                assert attacker.kind != "replay"
                state = attacker.rng.getstate()
                assert (attacker.transform(DROPPED[DUPLICATE])
                        is DROPPED[DUPLICATE])
                assert attacker.rng.getstate() == state
            assert sim.nodes[receiver]._admit(message) is DROPPED[DUPLICATE]
            skipped.append(receiver)
        if pending:
            pending.pop(0)

    def transmission(self, sender, receivers, message, *args):
        pending[:] = receivers
        real_transmission(self, sender, receivers, message, *args)
        pass_over(self, message, None)

    def arrival(self, sender, receiver, message, *args):
        pass_over(self, message, receiver)
        return real_arrival(self, sender, receiver, message, *args)

    monkeypatch.setattr(Simulation, "_transmission", transmission)
    monkeypatch.setattr(Simulation, "_arrival", arrival)
    run(attack_config(kind, field, protocol))
    assert skipped


def test_seen_request_reaches_no_handler(monkeypatch):
    # one discovery on a static line 0-1-2-3-4: each rebroadcast also
    # reaches the hop it came from, which has seen the request, and the
    # radio drops that copy without calling a handler
    arrivals, calls = [], []
    real_transmission = Simulation._transmission

    def transmission(self, sender, receivers, message, *args):
        if type(message) is Rreq:
            arrivals.extend(receivers)
        return real_transmission(self, sender, receivers, message, *args)

    def counting(real):
        def handler(self, rreq, prev_hop, now):
            calls.append(self.id)
            return real(self, rreq, prev_hop, now)
        return handler

    monkeypatch.setattr(Simulation, "_transmission", transmission)
    for name in ("handle_rreq", "handle_rreq_at_destination"):
        monkeypatch.setattr(NodeState, name,
                            counting(getattr(NodeState, name)))
    cfg = ScenarioConfig(node_count=5,
                         positions=[(i * 200.0, 0.0) for i in range(5)],
                         flows=[(0, 4)], flow_count=1, pause_time=100.0,
                         sim_time=2.0)
    report, records = run(cfg, keep_log=True)
    assert report.pdr == 1.0
    assert arrivals == [1, 0, 2, 1, 3, 2, 4]
    assert calls == [1, 2, 3, 4]
    assert [(r.node, r.details) for r in records if r.kind == "drop"] == [
        (n, {"msg": "rreq", "reason": "duplicate"}) for n in (0, 1, 2)]
    assert report.drops_by_reason == {"duplicate": 3}


def every_copy_to_its_handler(sim, sender, receivers, message, rows, now):
    """A radio that settles nothing itself: each receiver's _arrival tests
    the range and calls the handler."""
    valid = wellformed(message)
    for receiver in receivers:
        sim._arrival(sender, receiver, message, valid, now)


@PROTOCOLS
@pytest.mark.parametrize("kind,mobile", [
    ("blackhole", False), ("tamper", False), ("rushing", False),
    ("controlflood", False), (None, True), ("replay", True)])
def test_no_duplicate_reaches_a_handler_but_a_replay_attackers(
        monkeypatch, kind, mobile, protocol):
    # the radio settles every seen request at a receiver in range, at an
    # attacker and after a move too; only a replay attacker's shim keeps
    # what it is handed, so only its handler still sees duplicates, and it
    # captures what a radio that drops nothing would hand it. A mobile run
    # moves every node each 10 ms, so many requests arrive after a move
    duplicates = []

    def counting(real):
        def handler(self, rreq, prev_hop, now):
            result = real(self, rreq, prev_hop, now)
            if result.drop == DUPLICATE:
                duplicates.append(self.id)
            return result
        return handler

    for name in ("handle_rreq", "handle_rreq_at_destination"):
        monkeypatch.setattr(NodeState, name,
                            counting(getattr(NodeState, name)))
    cfg = replace(attack_config(kind or "blackhole", "node_list", protocol),
                  attacker_count=4 if kind else 0)
    if mobile:
        cfg = replace(cfg, pause_time=0.0, mobility_tick=0.01)
    sim = Simulation(cfg, keep_log=True)
    sim.run()
    replayers = {i for i, a in sim.attackers.items() if a.kind == "replay"}
    assert set(duplicates) <= replayers
    if replayers:
        assert duplicates
        monkeypatch.setattr(Simulation, "_transmission",
                            every_copy_to_its_handler)
        reference = Simulation(cfg, keep_log=True)
        reference.run()
        assert ({i: a._replayed for i, a in sim.attackers.items()}
                == {i: a._replayed for i, a in reference.attackers.items()})
        assert format_log(sim.records) == format_log(reference.records)


@PROTOCOLS
@pytest.mark.parametrize("kind,field", [
    ("tamper", "node_list"), ("tamper", "route"), ("replay", "node_list")])
def test_a_control_handler_sends_one_message_or_drops(monkeypatch, kind,
                                                      field, protocol):
    # _arrival settles a control result by its drop, else by its send, else
    # as an accepted route: a forwarder or a destination returns exactly one
    # of send and drop, and the source never sends and holds a route to the
    # destination whenever it does not drop
    outcomes = set()

    def checked(real):
        def handler(self, message, prev_hop, now):
            result = real(self, message, prev_hop, now)
            if real.__name__ == "handle_rrep_at_source":
                assert result.send is None
                assert (result.drop is not None
                        or message.dest_id in self.routes)
            else:
                assert (result.send is None) != (result.drop is None)
            outcomes.add((real.__name__, result.drop is None))
            return result
        return handler

    names = ("handle_rreq", "handle_rreq_at_destination", "handle_rrep",
             "handle_rrep_at_source")
    for name in names:
        monkeypatch.setattr(NodeState, name, checked(getattr(NodeState, name)))
    Simulation(ScenarioConfig(sim_time=20.0, attacker_count=10,
                              attacker_kind=kind, tamper_field=field,
                              protocol=protocol)).run()
    # every handler sent or accepted, and some handler dropped
    assert {(name, True) for name in names} < outcomes


def test_unicast_out_of_range_is_lost_at_send():
    # a unicast to a node out of range logs one loss at the send time it
    # is given and puts nothing on the air
    sim = Simulation(static_pair(500.0), keep_log=True)
    rreq = sim.nodes[0].new_rreq(1, sim.rng_protocol)
    heap = list(sim._heap)
    del sim.records[:]
    sim._unicast(0, 1, rreq, 0.01)
    assert [(r.time, r.node, r.kind, r.details) for r in sim.records] == [
        (0.01, 0, "control-lost", {"msg": "rreq"})]
    assert sim._heap == heap


@pytest.mark.parametrize("x,logged", [(100.0, "drop"),
                                      (500.0, "control-lost")])
def test_seen_request_after_a_move_is_range_tested_at_the_radio(
        monkeypatch, x, logged):
    # after a move the radio drops a seen request only at a receiver still
    # in range, without a handler call; a copy to one that left is lost
    calls = []
    monkeypatch.setattr(NodeState, "handle_rreq_at_destination",
                        lambda *args: calls.append(args))
    sim = Simulation(static_pair(100.0), keep_log=True)
    rreq = sim.nodes[0].new_rreq(1, sim.rng_protocol)
    sim.nodes[1]._accept(rreq)
    sim.mobility.x[1] = x
    sim.mobility._nbr_cache = None
    del sim.records[:]
    sim._transmission(0, (1,), rreq, None, 0.01)
    assert [r.kind for r in sim.records] == [logged]
    assert calls == []


@pytest.mark.parametrize("case,duplicate", [
    ("again", True), ("older", True), ("respent", True), ("newer", False),
    ("rolled-over", False)])
def test_radio_tests_the_record_as_admit_does(monkeypatch, case, duplicate):
    # a receiver that accepted a source's request drops at the radio that
    # request again, an older one, and an older element under a fresh id,
    # all without a handler call; a newer request goes on to the handler,
    # and so does a rolled-over chain's first one, at its higher index
    calls = []
    real = NodeState.handle_rreq_at_destination
    monkeypatch.setattr(NodeState, "handle_rreq_at_destination",
                        lambda *args: calls.append(args) or real(*args))
    sim = Simulation(static_pair(100.0), keep_log=True)
    source, receiver = sim.nodes[0], sim.nodes[1]
    older = source.new_rreq(1, sim.rng_protocol)
    accepted = source.new_rreq(1, sim.rng_protocol)
    receiver._accept(accepted)
    if case == "rolled-over":
        sim.chains[0].next_index = sim.chains[0].length
    if case == "again":
        sent = accepted
    elif case == "older":
        sent = older
    elif case == "respent":
        sent = copy.deepcopy(older)
        sent.request_id = bytes(len(older.request_id))
    else:
        sent = source.new_rreq(1, sim.rng_protocol)
    assert (receiver._admit(sent) is DROPPED[DUPLICATE]) == duplicate
    del sim.records[:]
    sim._transmission(0, (1,), sent, None, 0.01)
    assert (calls == []) == duplicate
    assert [r.details for r in sim.records if r.kind == "drop"] == (
        [{"msg": "rreq", "reason": DUPLICATE}] if duplicate else [])


@PROTOCOLS
@ATTACKS
def test_origination_on_a_valid_route_finds_an_empty_buffer(
        monkeypatch, kind, field, protocol):
    # a packet originated on a valid route goes out at once, ahead of any
    # buffered packet; that keeps the order only because every accepted
    # route flushes the buffer
    originated = []
    real_originate = Simulation._originate

    def originate(self, src, packet, now):
        if packet.dest_id in self.nodes[src].routes:
            assert not self.buffers[src].get(packet.dest_id)
            originated.append(packet)
        return real_originate(self, src, packet, now)

    monkeypatch.setattr(Simulation, "_originate", originate)
    run(attack_config(kind, field, protocol))
    assert originated


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
    sim._hop(0, 1, packet, None, 0.01)
    delivered = [r.kind for r in sim.records].count("data-delivered") == 1
    assert (1 in sim.mobility.neighbors(0)) == neighbor
    assert delivered == neighbor
    if neighbor:
        report, _ = run(cfg)
        assert report.data_sent > 0 and report.pdr == 1.0


def test_arrival_skips_range_test_while_rows_are_current(monkeypatch):
    # no node moves on a static run, so the neighbour rows a transmission
    # or a data hop was sent with are still current when it arrives, and
    # every receiver is known to be in range; a data packet's next hop and
    # control unicasts are still range-tested when they are sent
    callers = []
    real_in_range = MobilityState.in_range

    def in_range(self, a, b):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_in_range(self, a, b)

    monkeypatch.setattr(MobilityState, "in_range", in_range)
    cfg = ScenarioConfig(node_count=5,
                         positions=[(i * 200.0, 0.0) for i in range(5)],
                         flows=[(0, 4), (4, 0)], flow_count=2,
                         pause_time=100.0, sim_time=5.0)
    report, _ = run(cfg)
    assert report.data_delivered > 0
    assert "_unicast" in callers and "forward_data" in callers
    assert callers.count("_arrival") == callers.count("_hop") == 0


def test_a_data_hop_is_one_event(monkeypatch):
    # on a static line 0-1-2-3 a packet costs its flow tick and one heap
    # event per hop, the _hop that _send pushes; no data packet goes
    # through the control radio
    radio = []
    for name in ("_transmission", "_arrival"):
        real = getattr(Simulation, name)

        def control_only(self, sender, receiver, message, *args, real=real):
            radio.append(type(message))
            return real(self, sender, receiver, message, *args)

        monkeypatch.setattr(Simulation, name, control_only)
    events = []
    real_heappop = heapq.heappop

    def heappop(heap):
        events.append(real_heappop(heap))
        return events[-1]

    monkeypatch.setattr(heapq, "heappop", heappop)
    cfg = ScenarioConfig(node_count=4,
                         positions=[(i * 200.0, 0.0) for i in range(4)],
                         flows=[(0, 3)], flow_count=1, pause_time=100.0,
                         sim_time=5.0)
    report, _ = run(cfg)
    assert report.pdr == 1.0
    assert radio and DataPacket not in radio
    # the loop handles every event it pops up to sim_time
    handled = [(handler.__name__, args) for time, _, handler, args in events
               if time <= cfg.sim_time]
    assert ([name for name, _ in handled].count("_flow_tick")
            == report.data_sent)
    carried = {}
    for name, args in handled:
        for arg in args:
            if type(arg) is DataPacket:
                carried.setdefault(id(arg), []).append((name, args[:2]))
    assert len(carried) == report.data_delivered
    assert all(hops == [("_hop", (0, 1)), ("_hop", (1, 2)), ("_hop", (2, 3))]
               for hops in carried.values())


def test_a_data_hop_calls_no_node_logger_without_a_log(monkeypatch):
    # without a kept log a node's logger is protocol._noop_log, and a data
    # hop does not call it; with a log, every forward_data call from a hop
    # logs exactly its one credit record
    calls = []

    def noop_log(kind, **details):
        calls.append((kind, any(frame.f_code.co_name == "_hop"
                                for frame in stack())))

    def stack():
        frame = sys._getframe(1)
        while frame is not None:
            yield frame
            frame = frame.f_back

    monkeypatch.setattr(protocol, "_noop_log", noop_log)
    cfg = ScenarioConfig(node_count=4,
                         positions=[(i * 200.0, 0.0) for i in range(4)],
                         flows=[(0, 3)], flow_count=1, pause_time=100.0,
                         sim_time=5.0)
    report, _ = run(cfg)
    assert report.pdr == 1.0 and calls
    assert not [kind for kind, on_hop in calls if on_hop]

    monkeypatch.undo()
    sim = Simulation(cfg, keep_log=True)
    real_forward = NodeState.forward_data
    forwards = []

    def forward_data(self, packet, prev_hop, now):
        before = len(sim.records)
        hop = real_forward(self, packet, prev_hop, now)
        added = [(r.node, r.kind, r.details) for r in sim.records[before:]]
        if prev_hop is None:
            assert added == []
        else:
            cc = self.credits.get(prev_hop, self.config.initial_credit)
            assert added == [(self.id, "credit", {
                "neighbor": prev_hop, "event": "forwarded", "cc": cc})]
            forwards.append(prev_hop)
        return hop

    monkeypatch.setattr(NodeState, "forward_data", forward_data)
    report = sim.run()
    assert len(forwards) == 3 * report.data_delivered


def test_a_data_packet_is_counted_and_sized_in_place(monkeypatch):
    # the engine counts a packet's send and delivery itself and sizes it by
    # its payload, so neither record kind reaches observe and no packet
    # reaches wire_size; with a log, fold of the records still agrees
    kinds, types = [], []
    real_observe, real_wire_size = MetricsCollector.observe, simnet.wire_size

    def observe(self, kind, details):
        kinds.append(kind)
        real_observe(self, kind, details)

    def wire_size(message):
        types.append(type(message))
        return real_wire_size(message)

    monkeypatch.setattr(MetricsCollector, "observe", observe)
    monkeypatch.setattr(simnet, "wire_size", wire_size)
    cfg = ScenarioConfig(node_count=4,
                         positions=[(i * 200.0, 0.0) for i in range(4)],
                         flows=[(0, 3)], flow_count=1, pause_time=100.0,
                         sim_time=5.0)
    report, _ = run(cfg)
    assert report.data_sent > 0 and report.pdr == 1.0
    assert "data-sent" not in kinds and "data-delivered" not in kinds
    assert types and DataPacket not in types

    logged, records = run(cfg, keep_log=True)
    assert logged == report == fold(records)


@PROTOCOLS
def test_only_a_broadcast_builds_a_neighbour_row(monkeypatch, protocol):
    # a unicast hop (a data packet, a reply, a reply's first hop at the
    # source) tests its one link with in_range; rows are for broadcasts
    callers = set()
    real_neighbors = MobilityState.neighbors

    def neighbors(self, node):
        callers.add(sys._getframe(1).f_code.co_name)
        return real_neighbors(self, node)

    monkeypatch.setattr(MobilityState, "neighbors", neighbors)
    cfg = ScenarioConfig(node_count=20, area_width=447.0, area_height=447.0,
                         sim_time=4.0, pause_time=0.0, flow_count=4,
                         attacker_count=4, attacker_kind="blackhole",
                         protocol=protocol, seed=1)
    report, _ = run(cfg)
    assert report.data_delivered > 0
    assert callers == {"_broadcast"}


def test_losses_on_a_fast_mobile_run():
    # at 50-100 m/s receivers leave range between a send and its arrival;
    # the counts are those a range test at every arrival gives
    cfg = ScenarioConfig(node_count=40, area_width=632.0, area_height=632.0,
                         sim_time=10.0, pause_time=0.0, flow_count=10,
                         flow_rate=20.0, speed_min=50.0, speed_max=100.0,
                         seed=2)
    _, records = run(cfg, keep_log=True)
    kinds = [r.kind for r in records]
    assert (kinds.count("data-lost"), kinds.count("control-lost")) == (5, 62)


def test_in_flight_loss_when_receiver_moves_away():
    sim = Simulation(static_pair(100.0), keep_log=True)
    packet = DataPacket(flow_id=0, seq=0, source_id=0, dest_id=1,
                        payload_size=512, route=[], created_at=0.0)
    sim.mobility.x[1] = 500.0    # receiver out of range before arrival
    sim.mobility._nbr_cache = None
    sim._hop(0, 1, packet, None, 0.01)
    assert any(r.kind == "data-lost" for r in sim.records)


def line_run_with_move(node, x):
    """The log of a static 4-node line carrying flow 0 -> 3, in which node
    moves to (x, 0) at t = 2 s, after the route is in use."""
    cfg = ScenarioConfig(node_count=4,
                         positions=[(i * 200.0, 0.0) for i in range(4)],
                         flows=[(0, 3)], flow_count=1, pause_time=100.0,
                         sim_time=4.0)
    sim = Simulation(cfg, keep_log=True)

    def move(now):
        sim.mobility.x[node] = x
        sim.mobility._nbr_cache = None

    sim._push(2.0, move)
    sim.run()
    return sim.records


def link_breaks_and_invalidations(records):
    breaks = [r for r in records if r.kind == "data-dropped"
              and r.details["reason"] == "link-break"]
    invalidated = [r for r in records if r.kind == "route-invalidated"]
    return breaks, invalidated


def test_link_break_at_relay_invalidates_the_source_route():
    records = line_run_with_move(3, 5000.0)
    (drop,), (invalidated,) = link_breaks_and_invalidations(records)
    assert drop.node == 2
    assert (invalidated.node, invalidated.details) == (
        0, {"dest": 3, "reason": "link-break"})
    # the source hears of the break at once, before any other record
    assert records.index(invalidated) == records.index(drop) + 1


def test_link_break_at_source_notifies_no_other_node():
    records = line_run_with_move(1, 5000.0)
    (drop,), (invalidated,) = link_breaks_and_invalidations(records)
    assert drop.node == invalidated.node == 0
    assert invalidated.details == {"dest": 3, "reason": "link-break"}
    assert records.index(drop) == records.index(invalidated) + 1


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


def test_discovery_timer_fires_once_per_request(monkeypatch):
    # every request sent, first or retried, pushes one wake-up for its own
    # expiry, and nothing else wakes the timer
    calls = []
    timer = Simulation._timer

    def counting_timer(self, node_id, now):
        calls.append(node_id)
        timer(self, node_id, now)

    monkeypatch.setattr(Simulation, "_timer", counting_timer)
    config = ScenarioConfig(node_count=40, area_width=1500, area_height=1500,
                            sim_time=20, pause_time=0, speed_min=10,
                            speed_max=30, flow_count=8, seed=2,
                            rreq_timeout=0.03, rreq_retries=3)
    _, records = run(config, keep_log=True)
    starts = sum(r.kind == "discovery-start" for r in records)
    assert 0 < len(calls) <= starts


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


@PROTOCOLS
@pytest.mark.parametrize("kind", KINDS)
def test_report_without_log_equals_fold_of_log(kind, protocol):
    # without a kept log nodes log nothing, which is sound only because the
    # live collector folds no kind a node logs
    cfg = attack_config(kind, "node_list", protocol)
    report, _ = run(cfg)
    logged, records = run(cfg, keep_log=True)
    assert report == logged == fold(records)


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
