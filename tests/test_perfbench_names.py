"""The benchmark (perfbench/run.py) builds configs through the public API,
and its traced run (--trace 1) patches program functions by name; a
renamed or moved function, or a config that validate() rejects, would only
fail there."""

import importlib.util
from pathlib import Path

from conftest import World
from lararp import protocol

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
