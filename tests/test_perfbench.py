"""The benchmark's per-layer tracer against the package it wraps."""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # the tracer swaps each name in its owner's namespace; a name renamed or
    # deleted in the package would make `perfbench/run.py --trace 1` fail
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, name, *_ in (*tracing.TARGETS, *tracing.COUNTED):
        assert name in owner.__dict__, f"{owner.__name__}.{name}"
