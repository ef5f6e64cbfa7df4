"""The benchmark's per-layer tracer against the package it wraps."""
import importlib.util
from collections import Counter
from pathlib import Path

from flexmarket import benchmark, market, verify_fixed_point, verify_nash

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # the tracer swaps each name in its owner's namespace; a name renamed or
    # deleted in the package would make `perfbench/run.py --trace 1` fail
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, name, *_ in (*tracing.TARGETS, *tracing.COUNTED):
        assert name in owner.__dict__, f"{owner.__name__}.{name}"


def test_certification_clears_pass_the_traced_names(tri3, tri3_run, tri3_central, monkeypatch):
    # the tracer times the certification clears at these two names; a check
    # that cleared some other way would leave their spans reading 0
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {(owner, name) for owner, name, *_ in tracing.TARGETS}
    calls = Counter()
    for owner, name in ((benchmark, "clear_area_fn"), (market.AreaProblem, "clear")):
        assert (owner, name) in traced
        original = owner.__dict__[name]

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    areas = len(tri3.areas)
    verify_fixed_point(tri3, tri3_central)
    assert calls == {"clear_area_fn": areas, "clear": areas}
    calls.clear()
    result, _ = tri3_run
    verify_nash(tri3, result.state, result.clearings)
    assert calls == {"clear": areas}
