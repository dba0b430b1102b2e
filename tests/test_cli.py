import csv
import hashlib

import pytest

from lararp.cli import (ATTACKER_POINTS, CSV_COLUMNS, PAUSE_POINTS, csv_row,
                        main, mean_report, run_single, run_sweep,
                        sweep_configs)
from lararp.metrics import MetricsReport
from lararp.simnet import ScenarioConfig, ScenarioError, load_scenario, run

SCENARIO = """
node_count = 25
sim_time = 8.0
flow_count = 3
seed = 7
attacker_count = 2
attacker_kind = grayhole
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    return str(path)


def test_csv_header_is_pinned():
    assert CSV_COLUMNS == [
        "protocol", "seed", "node_count", "attacker_count", "attacker_kind",
        "pause_time", "sim_time", "flow_count", "flow_rate",
        "data_sent", "data_delivered", "data_dropped", "data_lost",
        "data_in_flight", "control_packets",
        "pdr", "avg_delay", "control_overhead",
        "hop_tag_checks", "hop_tag_checks_at_dest",
    ]


def test_run_single_writes_matching_row(scenario_file, tmp_path):
    out = tmp_path / "out.csv"
    report = run_single(scenario_file, output_path=str(out))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert row["protocol"] == "lararp"
    assert int(row["data_sent"]) == report.data_sent
    assert int(row["data_delivered"]) == report.data_delivered
    assert float(row["pdr"]) == report.pdr


def test_run_single_rerun_is_byte_identical(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log1, log2 = tmp_path / "a.log", tmp_path / "b.log"
    run_single(scenario_file, output_path=str(out1), event_log_path=str(log1))
    run_single(scenario_file, output_path=str(out2), event_log_path=str(log2))
    assert out1.read_bytes() == out2.read_bytes()
    assert log1.read_bytes() == log2.read_bytes()
    assert log1.stat().st_size > 0


def test_run_single_seed_override(scenario_file, tmp_path):
    r1 = run_single(scenario_file, seed=1)
    r2 = run_single(scenario_file, seed=2)
    assert r1 != r2


def test_main_run_subcommand(scenario_file, tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main(["run", scenario_file, "--output", str(out)])
    assert rc == 0
    assert out.exists()


def test_main_rejects_bad_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("node_count = 25\nwarp_drive = on\n")
    rc = main(["run", str(bad), "--output", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "warp_drive" in err


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "attackers", "--scenario"]], ids=["run", "sweep"])
def test_main_rejects_a_scenario_that_is_not_utf8(tmp_path, capsys, command):
    # load_scenario used to die with a UnicodeDecodeError traceback
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    rc = main([*command, str(bad), "--output", str(tmp_path / "o.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err


def test_main_rejects_missing_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "absent.txt"),
               "--output", str(tmp_path / "o.csv")])
    assert rc == 1


def test_main_run_reports_a_config_refused_at_set_up(tmp_path, capsys):
    # validate accepts it; the attackers outnumber the nodes the drawn flows
    # leave free, which only the simulation's set-up can count
    scenario = tmp_path / "crowded.txt"
    scenario.write_text("node_count = 10\nflow_count = 5\n"
                        "attacker_count = 8\nsim_time = 1.0\n")
    out = tmp_path / "o.csv"
    assert main(["run", str(scenario), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-endpoint" in err
    assert not out.exists()


def test_sweep_configs_attacker_grid():
    base = ScenarioConfig(node_count=40)
    configs = sweep_configs("attackers", base, seeds=[1, 2])
    # 5 points x 2 protocols x 2 seeds
    assert len(configs) == 20
    assert [c.attacker_count for c in configs[:4]] == [5, 5, 5, 5]
    assert {c.protocol for c in configs} == {"lararp", "baseline"}
    assert sorted({c.attacker_count for c in configs}) == ATTACKER_POINTS


def test_sweep_configs_pausetime_fixes_attackers():
    base = ScenarioConfig(node_count=40, attacker_count=0)
    configs = sweep_configs("pausetime", base, seeds=[1])
    assert sorted({c.pause_time for c in configs}) == PAUSE_POINTS
    assert all(c.attacker_count == 5 for c in configs)


def test_sweep_configs_rejects_an_unknown_experiment():
    with pytest.raises(ScenarioError, match="unknown experiment"):
        sweep_configs("speed", ScenarioConfig(), seeds=[1])


def test_csv_row_leaves_a_missing_ratio_empty():
    # a run that sent nothing has no pdr, delay or overhead
    report = MetricsReport(pdr=None, avg_delay=None, control_overhead=None)
    row = dict(zip(CSV_COLUMNS, csv_row(ScenarioConfig(), report)))
    assert row["pdr"] == row["avg_delay"] == row["control_overhead"] == ""
    assert row["data_sent"] == "0"


def test_mean_report_averages():
    a = MetricsReport(pdr=0.8, avg_delay=0.01, control_overhead=1.0,
                      data_sent=100, data_delivered=80, data_dropped=10,
                      data_lost=5, data_in_flight=5, control_packets=80)
    b = MetricsReport(pdr=0.6, avg_delay=0.03, control_overhead=3.0,
                      data_sent=100, data_delivered=60, data_dropped=30,
                      data_lost=5, data_in_flight=5, control_packets=180)
    m = mean_report([a, b])
    assert m.pdr == pytest.approx(0.7)
    assert m.avg_delay == pytest.approx(0.02)
    assert m.control_overhead == pytest.approx(2.0)
    assert m.data_delivered == 70
    # None in any input propagates to None in the mean
    b2 = MetricsReport(pdr=None, avg_delay=None, control_overhead=None,
                       data_sent=0, data_delivered=0, data_dropped=0,
                       data_lost=0, data_in_flight=0, control_packets=0)
    assert mean_report([a, b2]).pdr is None


def test_run_sweep_row_counts_and_order(tmp_path):
    base = ScenarioConfig(node_count=40, sim_time=5.0, flow_count=3)
    out = tmp_path / "sweep.csv"
    configs, reports, mean_rows = run_sweep("attackers", base, seeds=[1, 2],
                                            output_path=str(out))
    assert len(configs) == len(reports) == 20
    assert len(mean_rows) == 10
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 20 + 10
    seed_col = CSV_COLUMNS.index("seed")
    assert all(r[seed_col] == "mean" for r in rows[-10:])
    # the CSV is byte-identical from commit to commit unless a change to
    # behaviour is meant and recorded
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "124daa6a08a264334ffb6e13e3f99bcd31983ec03ae51c96d7612a2c8c73b08c")
    # per-run rows reproduce an independent execution of the same config
    report, _ = run(configs[0])
    assert rows[1] == csv_row(configs[0], report)


def test_parallel_sweep_writes_the_serial_csv(tmp_path):
    # runs finish in any order across worker processes; the CSV is written
    # in sweep_configs order all the same
    base = ScenarioConfig(node_count=20, sim_time=2.0, flow_count=2)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    run_sweep("pausetime", base, seeds=[1], output_path=str(serial))
    run_sweep("pausetime", base, seeds=[1], output_path=str(parallel),
              workers=2)
    assert parallel.read_bytes() == serial.read_bytes()


def test_main_sweep_and_a_verbose_run_say_what_they_wrote(tmp_path, capsys):
    scenario = tmp_path / "base.txt"
    scenario.write_text("node_count = 12\nsim_time = 1\nflow_count = 2\n")
    out, direct = tmp_path / "sweep.csv", tmp_path / "direct.csv"
    assert main(["sweep", "pausetime", "--scenario", str(scenario),
                 "--seeds", "1", "-o", str(out), "-v"]) == 0
    assert capsys.readouterr().out == f"10 runs written to {out}\n"
    run_sweep("pausetime", load_scenario(str(scenario)), seeds=[1],
              output_path=str(direct))
    assert out.read_bytes() == direct.read_bytes()
    assert main(["run", str(scenario), "-o", str(tmp_path / "run.csv"),
                 "-v"]) == 0
    assert capsys.readouterr().out.startswith("pdr=")
