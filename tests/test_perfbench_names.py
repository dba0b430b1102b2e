"""The traced benchmark run (perfbench/run.py --trace 1) patches program
functions by name; a renamed or moved one would only fail there."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_is_defined_where_it_is_patched():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patches = spans._patches()
    assert patches
    for owner, attr, _, _ in patches:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
