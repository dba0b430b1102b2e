import copy
import functools
import random
from types import SimpleNamespace

import pytest

from conftest import World
from lararp import adversary, protocol
from lararp.adversary import (AttackConfig, Attacker, KINDS, TAMPER_FIELDS,
                              mutate_field)
from lararp.messages import DataPacket, Rreq
from lararp.protocol import DROPPED, DUPLICATE
from lararp.simnet import ScenarioConfig, run


def line_positions(n, spacing=200.0):
    return [(i * spacing, 10.0) for i in range(n)]


def line_config(n=3, **kwargs):
    defaults = dict(node_count=n, positions=line_positions(n),
                    flows=[(0, n - 1)], flow_count=1,
                    pause_time=100.0, sim_time=50.0, seed=3)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def test_profile_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(attacker_kind="wormhole").validate()
    with pytest.raises(ValueError):
        ScenarioConfig(attacker_kind="grayhole",
                       grayhole_drop_prob=1.5).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(attacker_kind="controlflood", flood_rate=0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(attacker_kind="tamper", tamper_field="bogus").validate()


def test_tamper_fields_are_what_mutate_field_accepts():
    rng = random.Random(0)
    for name in TAMPER_FIELDS:
        message = SimpleNamespace(
            source_id=1, dest_id=2, request_id=b"r" * 8, source_tag=b"s" * 8,
            request_id_tag=b"q" * 8, verifier=(0, b"v" * 16),
            node_list=[3, 4], route=[3, 4], hop_tags=[b"h" * 8],
            dest_tags=[b"d" * 8], reverse_hop_tags=[b"b" * 8])
        before = repr(message)
        mutate_field(message, name, rng)
        assert repr(message) != before
    with pytest.raises(ValueError):
        mutate_field(SimpleNamespace(), "bogus", rng)


def test_blackhole_on_only_path_zeroes_pdr():
    report, _ = run(line_config(3, attacker_count=1, attacker_kind="blackhole"))
    assert report.data_sent > 0
    assert report.data_delivered == 0
    assert report.pdr == 0.0


def test_grayhole_drop_fraction_binomial():
    # ~1250 packets through a p=0.5 gray hole; drop fraction 0.5 +/- 0.05
    report, _ = run(line_config(3, attacker_count=1, attacker_kind="grayhole",
                                grayhole_drop_prob=0.5, flow_rate=25.0))
    forwarded_or_dropped = report.data_delivered + \
        report.drops_by_reason.get("grayhole", 0)
    assert forwarded_or_dropped >= 1000
    fraction = report.drops_by_reason["grayhole"] / forwarded_or_dropped
    assert abs(fraction - 0.5) <= 0.05


def test_tamper_always_detected_at_destination():
    # scripted scenario oracle: honest destination rejects the tampered
    # RREQ in 100% of attempts (full verification pipeline)
    for attempt in range(20):
        world = World.line(4, full_verification=True, seed=attempt)
        config = AttackConfig(attacker_kind="tamper", tamper_field="node_list")
        attacker = Attacker(config, world.nodes[2], random.Random(attempt))

        def tamper(msg, attacker=attacker):
            mutate_field(msg, attacker.config.tamper_field, attacker.rng)

        out = world.discover(0, 3, [1, 2], mutate_rreq=(1, tamper))
        assert out["drop"] in ("bad-hop-tag", "bad-source-mac")


def test_transform_leaves_its_input_alone():
    # dropping a data packet changes neither the handler's verdict nor the
    # packet, and no attack changes the shared drop results
    world = World.line(3)
    attacker = Attacker(AttackConfig(attacker_kind="blackhole"),
                        world.nodes[1], random.Random(0))
    packet = DataPacket(flow_id=0, seq=0, source_id=0, dest_id=2,
                        payload_size=512, route=[1], created_at=0.0)
    assert world.nodes[1].forward_data(packet, 0, 0.0) == 2
    before = copy.deepcopy(packet)
    assert attacker.drops_data(packet)
    assert packet == before
    shared = copy.deepcopy(protocol.DROPPED)
    for kind in ("blackhole", "tamper"):
        run(line_config(4, attacker_count=1, attacker_kind=kind,
                        sim_time=10.0))
    assert protocol.DROPPED == shared


@pytest.mark.parametrize("field", ["source_id", "dest_id"])
def test_tamperer_corrupts_what_it_broadcasts_and_what_it_unicasts(field):
    # a forwarded request goes to every neighbour and a forwarded reply to
    # one; a tamperer corrupts either before it goes on the air and leaves
    # its receiver and the billed checks alone. A drop sends nothing, so it
    # comes back as the same object, with no draw from rng
    out = World.line(4).discover(0, 3, [1, 2])
    forwarded = [out["forward_results"][0], out["reverse_results"][0]]
    assert [result.to for result in forwarded] == [None, 1]
    attacker = Attacker(AttackConfig(attacker_kind="tamper",
                                     tamper_field=field),
                        None, random.Random(0))
    for result in forwarded:
        sent = copy.deepcopy(result.send)
        to, charged = result.to, result.charged
        assert attacker.transform(result) is result
        assert getattr(result.send, field) == getattr(sent, field) + 1
        assert (result.to, result.charged) == (to, charged)
    state = attacker.rng.getstate()
    for dropped in (DROPPED[protocol.BAD_HOP_TAG],
                    protocol.HandlerResult(drop=protocol.BAD_HOP_TAG,
                                           charged=2)):
        assert attacker.transform(dropped) is dropped
        assert dropped.send is None
    assert attacker.rng.getstate() == state


def test_rushing_attacker_has_zero_processing_delay():
    config = AttackConfig(attacker_kind="rushing")
    attacker = Attacker(config, None, random.Random(0))
    assert attacker.processing_delay(0.001) == 0.0
    honest = Attacker(AttackConfig(attacker_kind="blackhole"), None,
                      random.Random(0))
    assert honest.processing_delay(0.001) == 0.001


def test_replay_capture_schedules_injection():
    world = World.line(3)
    config = AttackConfig(attacker_kind="replay", replay_delay=0.5)
    attacker = Attacker(config, world.nodes[1], random.Random(0))
    rreq = world.nodes[0].initiate_route_discovery(2, 0.0, world.rng)
    injections = attacker.capture(rreq, now=1.0)
    assert len(injections) == 1
    at, copy_msg = injections[0]
    assert at == 1.5
    assert isinstance(copy_msg, Rreq)
    assert copy_msg == rreq and copy_msg is not rreq


def test_replay_buffer_bounded(monkeypatch):
    monkeypatch.setattr(adversary, "REPLAY_BUFFER", 2)
    world = World.line(3)
    config = AttackConfig(attacker_kind="replay")
    attacker = Attacker(config, world.nodes[1], random.Random(0))
    for i in range(5):
        world.nodes[0].pending.clear()
        rreq = world.nodes[0].initiate_route_discovery(2, 0.0, world.rng)
        attacker.capture(rreq, now=float(i))
    assert len(attacker._replayed) == 2


def test_replayed_rrep_never_accepted():
    # run a full simulation with a replay attacker; the source never
    # installs a route from a stale reply (every replay is dropped)
    config = line_config(4, node_count=4, positions=line_positions(4),
                         flows=[(0, 3)], attacker_count=1,
                         attacker_kind="replay", sim_time=20.0)
    report, records = run(config, keep_log=True)
    replay_drops = [r for r in records if r.kind == "drop"
                    and r.details.get("reason") == "replay"]
    accepts = [r for r in records if r.kind == "route-accept"]
    issued = {tuple([d.details["src"]] + list(_route(d)))
              for d in records if d.kind == "rrep-issued"}
    for acc in accepts:
        assert (acc.node, *_route(acc)) in issued
    # the attacker did replay something
    assert report.data_delivered > 0


def _route(record):
    from lararp.eventlog import id_list
    return id_list(record.details["route"])


def test_controlflood_increases_overhead_with_rate():
    base = line_config(5, node_count=5, positions=line_positions(5, 150.0),
                       flows=[(0, 4)], sim_time=20.0)
    reports = []
    for rate in (1.0, 4.0, 16.0):
        cfg = ScenarioConfig(**{**base.__dict__, "attacker_count": 1,
                                "attacker_kind": "controlflood",
                                "flood_rate": rate})
        report, _ = run(cfg)
        reports.append(report)
    overheads = [r.control_overhead for r in reports]
    assert overheads[0] < overheads[1] < overheads[2]


def test_mutate_field_unknown_target():
    world = World.line(3)
    rreq = world.nodes[0].initiate_route_discovery(2, 0.0, world.rng)
    with pytest.raises(ValueError):
        mutate_field(rreq, "nonexistent", random.Random(0))


ATTACKS = [(kind, field) for kind in KINDS
           for field in (TAMPER_FIELDS if kind == "tamper"
                         else ("node_list",))]


@pytest.mark.parametrize("kind,field", ATTACKS)
def test_shim_passes_a_duplicate_drop_through(kind, field):
    # the radio drops a seen request at every attacker but a replay one
    # without calling its shim, which relies on this: the duplicate drop
    # comes back as it is, with no packet dropped and no draw from the
    # attacker's rng, and only a replay attacker's capture keeps anything
    world = World.line(3)
    attacker = Attacker(AttackConfig(attacker_kind=kind, tamper_field=field),
                        world.nodes[1], random.Random(0))
    rreq = world.nodes[0].initiate_route_discovery(2, 0.0, world.rng)
    sent = copy.deepcopy(rreq)
    state = attacker.rng.getstate()
    assert attacker.transform(DROPPED[DUPLICATE]) is DROPPED[DUPLICATE]
    assert attacker.rng.getstate() == state
    assert rreq == sent
    assert (attacker.capture(rreq, 0.0) == []) == (kind != "replay")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("protocol", ["lararp", "baseline"])
@pytest.mark.parametrize("kind,field", ATTACKS)
def test_every_attack_runs_to_completion(kind, field, protocol, seed):
    # attackers never crash a run, never lose a packet from the books, never
    # get a fabricated id into an issued or accepted route, and never get
    # one into a trust table
    config = ScenarioConfig(node_count=20, area_width=447.0, area_height=447.0,
                            sim_time=4.0, flow_count=4, attacker_count=4,
                            attacker_kind=kind, tamper_field=field,
                            protocol=protocol, seed=seed)
    report, records = run(config, keep_log=True)
    assert report.data_in_flight >= 0
    assert report.data_sent == (report.data_delivered + report.data_dropped
                                + report.data_lost + report.data_in_flight)
    for record in records:
        if record.kind in ("rrep-issued", "route-accept"):
            assert set(_route(record)) <= set(range(20))
        elif record.kind in ("credit", "ntt-final"):
            assert record.details["neighbor"] in range(20)


@functools.cache
def _attacker_free_control_packets(protocol):
    report, _ = run(ScenarioConfig(sim_time=5.0, protocol=protocol))
    return report.control_packets


@pytest.mark.parametrize("protocol", ["lararp", "baseline"])
@pytest.mark.parametrize("kind,field", ATTACKS)
def test_attack_work_stays_in_budget_at_paper_scale(kind, field, protocol):
    # at the paper's 100 nodes, 5 attackers may not multiply the control
    # traffic: a run sends at most twice the attacker-free run's control
    # packets plus, for a control flood, its own requests, each weighted by
    # node_count as validate weighs them. A bound on work, not on results
    config = ScenarioConfig(sim_time=5.0, attacker_count=5, attacker_kind=kind,
                            tamper_field=field, protocol=protocol)
    budget = _attacker_free_control_packets(protocol)
    if kind == adversary.CONTROL_FLOOD:
        budget += (config.node_count * config.attacker_count
                   * config.flood_rate * config.sim_time)
    report, _ = run(config)
    assert report.control_packets <= 2 * budget
