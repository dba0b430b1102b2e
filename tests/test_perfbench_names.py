"""The benchmark (perfbench/run.py) builds configs through the public API,
and its traced run (--trace 1) patches program functions by name; a
renamed or moved function, or a config that validate() rejects, would only
fail there."""

import collections
import importlib.util
from pathlib import Path

from conftest import World
from lararp import Simulation, protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_where_it_is_patched():
    patches = load("spans")._patches()
    assert patches
    for owner, attr, _, _ in patches:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_every_result_field_a_traced_hook_reads_is_defined():
    # the hooks on the control handlers read fields of the HandlerResult;
    # a renamed field would fail only the traced run
    class Result:
        def __init__(self):
            self.read = set()

        def __getattr__(self, name):
            self.read.add(name)
            return 0

    read = set()
    for owner, attr, _, hook in load("spans")._patches():
        if owner is protocol.NodeState and hook is not None:
            result = Result()
            hook(collections.defaultdict(int), result)
            read |= result.read
    assert read
    assert read <= set(protocol.HandlerResult._fields)


def test_every_benchmark_config_validates():
    bench = load("run")
    for name in bench.WORKLOADS:
        _, configs = bench.batch(name, 1)
        assert configs, name
        for config in configs:
            config.validate()


def test_admit_checks_a_reveal_through_the_traced_name(monkeypatch):
    # the traced run times chain checks by patching protocol.verify_reveal;
    # a check made any other way would read zero in the crypto.reveal layer
    calls = []
    real = protocol.verify_reveal
    monkeypatch.setattr(protocol, "verify_reveal",
                        lambda *args: calls.append(args) or real(*args))
    world = World.line(3)
    rreq = world.nodes[0].new_rreq(2, world.rng)
    assert world.nodes[1].handle_rreq(rreq, 0, 0.0).drop is None
    assert len(calls) == 1


def test_scale_1000_digest_matches_the_benchmark_reference():
    # the benchmark prints a digest mismatch as text only, and this is the
    # one check of a 1000-node run: recompute the seed-1 scale-1000 digest
    bench = load("run")
    _, configs = bench.batch("scale-1000", 1)
    reports = [Simulation(config).run() for config in configs]
    reference = bench.reference_digest("scale-1000", 1)
    assert reference is not None
    assert bench.csv_digest(configs, reports) == reference
