"""The demos' printed output, pinned byte for byte.

Each demo runs in its own interpreter with a temporary working directory,
because sweep_to_csv.py writes sweep_demo.csv into the current directory.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT = {
    "attack_resilience.py":
        "b7e89a91a518a0510b53b4b6f9709747c85314e8785db2dcd4e9aa1a5244d3ca",
    "mobility_and_pause_time.py":
        "3e4e43e1275bfbb28f5e3b6fed23ae0c1516b00b37063eee4f07643c19fbdb33",
    "route_discovery_walkthrough.py":
        "5eb2a217c0f875efa4b99ae074225b1ab58e5c380f5b951f027482c30675ab32",
    "sweep_to_csv.py":
        "2f2211566825c36bddb5bdcc289fa2c41593e18f69ddc23dbb1213ba661e843b",
}


def test_every_demo_is_pinned():
    assert sorted(DEMO_STDOUT) == sorted(
        p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_output(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True,
                         check=True, timeout=300).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT[demo]
