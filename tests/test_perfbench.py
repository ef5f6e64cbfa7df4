"""The benchmark's per-layer tracer against the package it wraps."""
import importlib.util
from collections import Counter
from pathlib import Path

from flexmarket import (ChanceConstrainedClearing, MechanismConfig, benchmark, clear,
                        comparison_report, grid, load_bundled, market, optimal_terms_of_trade,
                        qp, run, solve_centralized, trace_to_csv, verify_fixed_point,
                        verify_nash)

from conftest import BUNDLED_RUN_CONFIG, PassThroughEngine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _count_calls(monkeypatch, names, calls: Counter):
    """Count the calls through each (owner, name), which the tracer must wrap."""
    traced = {(owner, name) for owner, name, *_ in _tracing().TARGETS}
    for owner, name in names:
        assert (owner, name) in traced
        original = owner.__dict__[name]

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def test_every_traced_name_resolves():
    # the tracer swaps each name in its owner's namespace; a name renamed or
    # deleted in the package would make `perfbench/run.py --trace 1` fail
    tracing = _tracing()
    for owner, name, *_ in (*tracing.TARGETS, *tracing.COUNTED):
        assert name in owner.__dict__, f"{owner.__name__}.{name}"


def test_certification_clears_pass_the_traced_names(tri3, tri3_run, tri3_central, monkeypatch):
    # the tracer times the certification clears at these two names; a check
    # that cleared some other way would leave their spans reading 0
    calls = Counter()
    _count_calls(monkeypatch, ((benchmark, "clear_area_fn"), (market.AreaProblem, "clear")),
                 calls)
    areas = len(tri3.areas)
    verify_fixed_point(tri3, tri3_central)
    assert calls == {"clear_area_fn": areas, "clear": areas}
    calls.clear()
    result, _ = tri3_run
    verify_nash(tri3, result.state, result.clearings)
    assert calls == {"clear": areas}


def test_a_report_passes_the_traced_check_names(tri3, tri3_run, tri3_central, monkeypatch):
    # the tracer times the report's KKT and feasibility checks at these names
    calls = Counter()
    _count_calls(monkeypatch, ((benchmark, "verify_kkt_equivalence"),
                               (benchmark, "check_limit_feasibility")), calls)
    result, _ = tri3_run
    benchmark.comparison_report(tri3, result.state, result.clearings, tri3_central)
    assert calls == {"verify_kkt_equivalence": 1, "check_limit_feasibility": 1}


def test_each_program_is_built_once_per_network(monkeypatch):
    # the engine, the certification checks and the report share the network's
    # area and joint programs; only the autarky probe builds a program of its own
    builds = Counter()
    build = qp.QuadraticProgram

    def counted(*args, **kwargs):
        program = build(*args, **kwargs)
        labels = " ".join(program.var_labels)
        builds["joint" if "dT[" in labels else "area" if "dT+[" in labels else "autarky"] += 1
        return program

    monkeypatch.setattr(qp, "QuadraticProgram", counted)
    net = load_bundled("tri3")
    assert grid.validate(net) == []
    result = run(net, MechanismConfig(max_rounds=20))
    central = solve_centralized(net)
    terms = optimal_terms_of_trade(net, central)
    verify_fixed_point(net, central, terms)
    clearings = {a.id: clear(net, a.id, terms[a.id]) for a in net.areas}
    comparison_report(net, result.state, clearings, central)
    areas = len(net.areas)
    assert builds == {"area": areas, "autarky": areas, "joint": 1}


def test_traced_runs_keep_the_default_engine_on_its_array_round(toy2, toy2_run, monkeypatch):
    # the tracer rebinds coupling.ChanceConstrainedClearing to a plain function;
    # a default engine, built by run or outside the tracer, must still take the
    # array round, reproduce the untraced trace and count the same solves.
    # Each clear is answered by its active set's response map or by a solve
    calls = Counter()
    for name in ("respond", "clear_area"):
        def counted(self, *args, _original=getattr(ChanceConstrainedClearing, name),
                    _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(ChanceConstrainedClearing, name, counted)

    def by_map(self, *args, _original=market.AreaProblem._by_map):
        answer = _original(self, *args)
        calls["by map"] += answer is not None
        return answer
    monkeypatch.setattr(market.AreaProblem, "_by_map", by_map)
    untraced, _ = toy2_run
    clears = untraced.rounds * len(toy2.areas)
    outside = ChanceConstrainedClearing(toy2)
    metrics = {}
    for label, engine in (("outside", outside), ("built by run", None),
                          ("plugged in", PassThroughEngine(toy2))):
        calls.clear()
        tracer = _tracing().Tracer()
        with tracer.installed():
            result = run(toy2, BUNDLED_RUN_CONFIG, engine=engine)
        assert trace_to_csv(result.trace) == trace_to_csv(untraced.trace), label
        metrics[label] = {k: tracer.metrics()[k] for k in ("qp.solves", "qp.hint_hits")}
        by_map = calls.pop("by map")
        if engine is None or engine is outside:
            assert calls == {"respond": clears}, label
        else:
            assert calls == {"respond": clears, "clear_area": clears}, label
        assert metrics[label]["qp.solves"] + by_map == clears, label
    assert metrics["outside"] == metrics["built by run"] == metrics["plugged in"]
    assert 0 < metrics["outside"]["qp.solves"] < clears
