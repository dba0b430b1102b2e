"""Smoke test of the benchmark on a tiny scenario (10 nodes, 2 s).

    python3 -m pytest perfbench/test_smoke.py -q

It is kept out of the package's test suite (pyproject's testpaths), so it
never slows the tier-1 run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, check=False)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.split()[:3] == ["fail_ratio", "0", "ratio"]
               for line in lines)
    assert any(line.split()[0] == "sim_digest" for line in lines[:-1])
    return lines[:-1], result["metrics"]


def assert_metrics(lines, metrics, spec_metrics):
    assert list(metrics) == [m["name"] for m in spec_metrics]
    printed = {line.split()[0]: line.split() for line in lines}
    for m in spec_metrics:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
        assert printed[m["name"]][2] == m["unit"], printed[m["name"]]


def test_end_to_end_metrics_printed_with_units():
    lines, metrics = result_of(bench("--seed", "3", "--trace", "0"))
    assert_metrics(lines, metrics, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["value"] > 0


def test_per_layer_metrics_and_counts_repeat():
    first_lines, first = result_of(bench("--seed", "3", "--trace", "1"))
    _, second = result_of(bench("--seed", "3", "--trace", "1"))
    assert_metrics(first_lines, first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace_overhead"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
