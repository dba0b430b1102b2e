import pytest

from lararp.eventlog import Record, format_log, id_list, parse_log
from lararp.metrics import MetricsCollector, fold
from lararp.simnet import ScenarioConfig, run


def synthetic_records(sent, delivered, control, delay=0.01):
    records = []
    t = 0.0
    for i in range(sent):
        records.append(Record(t, 0, "data-sent", {"flow": 0, "seq": i,
                                                  "dst": 1}))
        t += 0.001
    for i in range(delivered):
        records.append(Record(t, 1, "data-delivered",
                              {"flow": 0, "seq": i, "delay": delay}))
        t += 0.001
    for i in range(control):
        records.append(Record(t, 0, "control-send", {"msg": "rreq",
                                                     "src": 0, "dst": 1}))
        t += 0.001
    return records


def test_pdr_simple_ratio():
    report = fold(synthetic_records(sent=200, delivered=150, control=0))
    assert report.pdr == 150 / 200
    assert report.data_in_flight == 50


def test_control_overhead_ratio():
    report = fold(synthetic_records(sent=300, delivered=200, control=100))
    assert report.control_overhead == 100 / 200


def test_average_delay_excludes_drops():
    records = synthetic_records(sent=4, delivered=2, control=0, delay=0.004)
    records.append(Record(1.0, 2, "data-dropped",
                          {"flow": 0, "seq": 2, "reason": "blackhole"}))
    report = fold(records)
    assert report.avg_delay == pytest.approx(0.004)
    assert report.data_dropped == 1


def test_empty_denominators_are_none():
    report = fold([])
    assert report.pdr is None
    assert report.avg_delay is None
    assert report.control_overhead is None


def test_fold_ratios_on_synthetic_records():
    report = fold(synthetic_records(sent=10, delivered=5, control=4))
    assert report.pdr == 0.5
    assert report.control_overhead == 0.8


def test_one_hop_delay_oracle_from_simulation():
    # 512 B at 2 Mbps plus 1 ms of processing: 3.048 ms per hop
    cfg = ScenarioConfig(node_count=2, positions=[(0, 0), (100, 0)],
                         flows=[(0, 1)], flow_count=1, pause_time=100.0,
                         sim_time=20.0)
    _, records = run(cfg, keep_log=True)
    steady = [r.details["delay"] for r in records
              if r.kind == "data-delivered" and r.details["seq"] > 5]
    for d in steady:
        assert d == pytest.approx(0.003048, abs=1e-12)


def test_multi_hop_delay_composes_linearly():
    spacing = 200.0
    for hops in (2, 3):
        n = hops + 1
        cfg = ScenarioConfig(node_count=n,
                             positions=[(i * spacing, 0.0) for i in range(n)],
                             flows=[(0, n - 1)], flow_count=1,
                             pause_time=100.0, sim_time=20.0)
        _, records = run(cfg, keep_log=True)
        steady = [r.details["delay"] for r in records
                  if r.kind == "data-delivered" and r.details["seq"] > 5]
        assert steady
        for d in steady:
            assert d == pytest.approx(hops * 0.003048, abs=1e-12)


def test_streaming_collector_matches_fold():
    _, records = run(ScenarioConfig(node_count=25, sim_time=10.0,
                                    flow_count=3, attacker_count=2, seed=9),
                     keep_log=True)
    collector = MetricsCollector()
    for record in records:
        collector.observe(record.kind, record.details)
    assert collector.report() == fold(records)


def test_log_round_trip_preserves_metrics():
    # serialize the event log, parse it back with the independent parser,
    # and refold: the report must match exactly
    report, records = run(ScenarioConfig(node_count=25, sim_time=10.0,
                                         flow_count=3, attacker_count=2,
                                         attacker_kind="grayhole", seed=9),
                          keep_log=True)
    text = format_log(records)
    assert fold(parse_log(text)) == report


def test_request_ids_round_trip_as_text():
    # a request id is 16 hex characters, which can read as a number: in
    # this run "3e27941960784963" would parse as inf and "2695919936254074"
    # as an int
    _, records = run(ScenarioConfig(attacker_count=5, seed=4), keep_log=True)
    starts = [r for r in records if r.kind == "discovery-start"]
    parsed = parse_log(format_log(starts))
    assert "3e27941960784963" in [r.details["request_id"] for r in starts]
    assert ([r.details["request_id"] for r in parsed]
            == [r.details["request_id"] for r in starts])


@pytest.mark.parametrize("route", [[], [5], [1, 2, 3]])
def test_route_lists_round_trip(route):
    # a list is written ;-joined, so one id reads back as a scalar and no
    # id as empty text; id_list restores the list either way
    records = [Record(0.5, 0, "route-accept", {"dest": 4, "route": route})]
    (parsed,) = parse_log(format_log(records))
    assert parsed.details["dest"] == 4
    assert id_list(parsed.details["route"]) == route
