"""Acceptance criteria, one test per criterion, each printing a PASS line.

Quantitative targets come from (a) the closed-form optima of the two-area
cases, worked out by equalizing marginal costs, and (b) independent oracles:
numerically-integrated normal quantiles and brute-force active-set
enumeration for the QP layer.
"""
import time

import numpy as np
import pytest

from flexmarket import (ScenarioModifiers, apply_scenario, efficiency_gap, normal_quantile,
                        run, verify_fixed_point, verify_nash)
from flexmarket.cli import main as cli_main
from flexmarket.qp import QuadraticProgram, solve

from conftest import BUNDLED_RUN_CONFIG
from oracles import active_set_enumeration, quantile_bisection


def _ok(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def bundled(toy2, toy2_run, toy2_central, toy2_congested, toy2_congested_run,
            toy2_congested_central, tri3, tri3_run, tri3_central):
    return {
        "toy2": (toy2, *toy2_run, toy2_central),
        "toy2-congested": (toy2_congested, *toy2_congested_run, toy2_congested_central),
        "tri3": (tri3, *tri3_run, tri3_central),
    }


def test_criterion_01_efficiency(bundled):
    """Decentralized limit matches the centralized benchmark on every case."""
    for name, (net, result, elapsed, central) in bundled.items():
        assert result.rounds <= 5000, name
        assert elapsed <= 60.0, f"{name} took {elapsed:.1f}s"
        gap = efficiency_gap(net, result.clearings, central)
        assert gap.objective_gap <= 1e-3, name
        assert gap.flow_deviation <= 1e-2, name
    _ok("criterion 1: efficiency vs centralized benchmark")


def test_criterion_02_consensus(bundled):
    """Both sides of every tie agree on the physical flow at the limit."""
    for name, (net, result, _, _) in bundled.items():
        for tie_id, tie in result.trace[-1].ties.items():
            assert tie.consensus <= 1e-3, (name, tie_id, tie.consensus)
    _ok("criterion 2: flow consensus on every tie")


def test_criterion_03_limiting_slackness(bundled):
    """Capacity price times the capacity surrogate vanishes in the limit."""
    for name, (net, result, _, _) in bundled.items():
        for tie_id, tie in result.trace[-1].ties.items():
            assert abs(tie.slackness) <= 1e-3, (name, tie_id, tie.slackness)
    _ok("criterion 3: limiting complementary slackness")


def test_criterion_04_shadow_price_recovery(bundled):
    """Half the limiting capacity price equals the centralized congestion rent."""
    net, result, _, central = bundled["toy2-congested"]
    mu = result.state.mu["AB"]
    assert mu / 2 == pytest.approx(15.0, abs=0.1)
    pair = central.tie_capacity["AB"]
    assert mu / 2 == pytest.approx(pair.upper - pair.lower, abs=0.1)
    _ok("criterion 4: shadow price recovery", f"mu/2 = {mu / 2:.4f}")


def test_criterion_05_uncongested_ties_free(bundled):
    """Ties the benchmark leaves slack by >= 1 MW carry no capacity price."""
    checked = 0
    for name, (net, result, _, central) in bundled.items():
        for t in net.active_ties():
            if abs(central.tie_flows[t.id]) < t.capacity - 1.0:
                assert result.state.mu[t.id] <= 1e-4, (name, t.id)
                checked += 1
    assert checked >= 6
    _ok("criterion 5: uncongested ties stay free", f"{checked} ties")


def test_criterion_06_fixed_point(bundled):
    """Optimal terms of trade reproduce the benchmark area by area."""
    for name, (net, _, _, central) in bundled.items():
        report = verify_fixed_point(net, central)
        assert report.max_deviation <= 1e-4, (name, report.deviations)
    _ok("criterion 6: terms-of-trade fixed point")


def test_criterion_07_nash(bundled):
    """No area can improve on its limit decision against frozen terms."""
    for name, (net, result, _, _) in bundled.items():
        for area_id, gap in verify_nash(net, result.state, result.clearings).items():
            assert gap.passed, (name, area_id, gap)
    _ok("criterion 7: Nash equilibrium at the limit")


def test_criterion_08_qp_oracle_equivalence():
    """200 random strictly convex QPs match brute-force enumeration."""
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    matched = 0
    while matched < 200:
        n = int(rng.integers(1, 7))
        mi = int(rng.integers(0, 4))
        me = int(rng.integers(0, min(3, n)))
        m = rng.normal(size=(n, n))
        q = m @ m.T + 0.3 * np.eye(n)
        c = 2.0 * rng.normal(size=n)
        x0 = rng.normal(size=n)
        a = rng.normal(size=(me, n))
        g = rng.normal(size=(mi, n))
        h = g @ x0 + rng.uniform(-0.3, 1.0, size=mi)
        qp = QuadraticProgram(q, c, a, a @ x0, g, h)
        oracle = active_set_enumeration(q, c, a, a @ x0, g, h)
        if oracle is None:
            continue
        x_star, _, z_star = oracle
        sol = solve(qp)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.x - x_star)) <= 1e-6
        slack = h - g @ x_star if mi else np.zeros(0)
        for i in range(mi):
            if slack[i] > 1e-6 or z_star[i] > 1e-6:  # nondegenerate rows
                assert abs(sol.z[i] - z_star[i]) <= 1e-6
        assert sol.residuals.max() <= 1e-8
        matched += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    _ok("criterion 8: QP active-set oracle equivalence", f"200 instances in {elapsed:.1f}s")


def test_criterion_09_quantile_accuracy():
    """Quantiles match the bisection-on-quadrature oracle to 1e-6."""
    grid = [0.01] + [round(0.05 * k, 2) for k in range(1, 20)] + [0.95]
    for p in sorted(set(grid)):
        assert abs(normal_quantile(p) - quantile_bisection(p)) <= 1e-6, p
    _ok("criterion 9: normal quantile accuracy", f"{len(set(grid))} probabilities")


@pytest.fixture(scope="module")
def tri3_scenarios(tri3):
    tightened = apply_scenario(tri3, ScenarioModifiers(tie_capacity_overrides={"BC1": 1.0}))
    ramped = apply_scenario(tri3, ScenarioModifiers(ramp_scale=0.75))
    autarkic = apply_scenario(tri3, ScenarioModifiers(
        tie_capacity_overrides={t.id: 0.0 for t in tri3.tie_lines}))
    return {
        "tightened": run(tightened, BUNDLED_RUN_CONFIG),
        "ramped": run(ramped, BUNDLED_RUN_CONFIG),
        "autarkic": run(autarkic, BUNDLED_RUN_CONFIG),
    }


def test_criterion_10a_single_congested_tie(tri3_scenarios):
    """Tightening one tie until it binds prices exactly that tie."""
    result = tri3_scenarios["tightened"]
    last = result.trace[-1]
    assert last.ties["BC1"].mu > 0.5
    for tie_id in ("AB1", "AB2", "AC1", "BC2"):
        assert last.ties[tie_id].mu <= 1e-4, tie_id
    _ok("criterion 10a: congested tie priced, others free",
        f"mu[BC1] = {last.ties['BC1'].mu:.4f}")


def test_criterion_10b_tighter_ramps_raise_reliability_prices(bundled, tri3_scenarios):
    baseline = bundled["tri3"][1].trace[-1]
    ramped = tri3_scenarios["ramped"].trace[-1]
    for area_id in ("A", "B", "C"):
        assert ramped.areas[area_id].reliability_price >= \
            baseline.areas[area_id].reliability_price - 1e-6, area_id
    # and strictly so where ramps actually bind
    assert ramped.areas["B"].reliability_price > baseline.areas["B"].reliability_price + 0.1
    _ok("criterion 10b: tighter ramps raise reliability prices")


def test_criterion_10c_trade_lowers_reliability_prices(bundled, tri3_scenarios):
    coupled = bundled["tri3"][1].trace[-1]
    autarkic = tri3_scenarios["autarkic"].trace[-1]
    for area_id in ("A", "B", "C"):
        assert coupled.areas[area_id].reliability_price <= \
            autarkic.areas[area_id].reliability_price + 1e-6, area_id
    assert coupled.areas["B"].reliability_price < autarkic.areas["B"].reliability_price - 0.1
    _ok("criterion 10c: trading lowers reliability prices")


def test_criterion_11_determinism(tmp_path):
    """Identical configurations produce byte-identical traces."""
    traces = []
    for tag in ("first", "second"):
        trace_path = tmp_path / f"{tag}.csv"
        report_path = tmp_path / f"{tag}.json"
        code = cli_main(["run", "--case", "toy2-congested", "--mode", "compare",
                         "--trace", str(trace_path), "--report", str(report_path),
                         "--tol", "1e-9"])
        assert code == 0
        traces.append(trace_path.read_bytes())
    assert traces[0] == traces[1]
    _ok("criterion 11: byte-identical traces for identical configs")
