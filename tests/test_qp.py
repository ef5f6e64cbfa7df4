import warnings
from pathlib import Path

import numpy as np
import pytest

from flexmarket import load_case, optimal_terms_of_trade, solve_centralized
from flexmarket.market import clear
from flexmarket.qp import (DEFAULT_TOL, QpDimensionError, QuadraticProgram, kkt_residuals,
                           solve)

from oracles import active_set_enumeration


def _qp(q, c, a=None, b=None, g=None, h=None, **kw):
    n = len(c)
    return QuadraticProgram(
        np.asarray(q, float), np.asarray(c, float),
        np.zeros((0, n)) if a is None else np.asarray(a, float),
        np.zeros(0) if b is None else np.asarray(b, float),
        np.zeros((0, n)) if g is None else np.asarray(g, float),
        np.zeros(0) if h is None else np.asarray(h, float), **kw)


def test_single_inequality_hand_kkt():
    # min x^2 s.t. x >= 1: stationarity 2x - z = 0 at the binding bound
    sol = solve(_qp([[2.0]], [0.0], g=[[-1.0]], h=[-1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.z[0] == pytest.approx(2.0, abs=1e-8)


def test_equality_dual_is_shadow_price():
    # min 0.5(x1^2+x2^2) s.t. x1+x2 = 2: by symmetry x = (1,1), dV/db = 1
    sol = solve(_qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0]], b=[2.0]))
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-9)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-9)


def test_unconstrained_optimum_feasible():
    sol = solve(_qp([[2.0]], [0.0], a=[[1.0]], b=[0.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.0, abs=1e-10)
    assert sol.y[0] == pytest.approx(0.0, abs=1e-10)


def test_inconsistent_equalities_certified_infeasible():
    sol = solve(_qp([[2.0]], [0.0], a=[[1.0], [1.0]], b=[0.0, 1.0]))
    assert sol.status == "infeasible"
    y, z = sol.certificate
    assert np.max(np.abs(sol.x[0] * 0 + np.array([[1.0], [1.0]]).T @ y)) < 1e-8
    assert y @ np.array([0.0, 1.0]) > 1e-10


def test_contradictory_inequalities_certified_infeasible():
    # x <= -1 and x >= 1
    qp = _qp([[2.0]], [0.0], g=[[1.0], [-1.0]], h=[-1.0, -1.0])
    sol = solve(qp)
    assert sol.status == "infeasible"
    y, z = sol.certificate
    assert np.min(z) >= -1e-9
    assert np.max(np.abs(qp.g_ineq.T @ z)) < 1e-6  # Farkas ray: G'z = 0
    assert qp.h_ineq @ z < -1e-8  # ... with h'z < 0


def test_duplicate_binding_rows_get_symmetric_split():
    # min x^2 - 4x s.t. x <= 1 stated twice: total multiplier 2, split evenly
    sol = solve(_qp([[2.0]], [-4.0], g=[[1.0], [1.0]], h=[1.0, 1.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.z == pytest.approx([1.0, 1.0], abs=1e-7)


def test_dimension_validation():
    with pytest.raises(QpDimensionError):
        QuadraticProgram(np.eye(2), np.zeros(3), np.zeros((0, 3)), np.zeros(0),
                         np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(QpDimensionError):
        _qp([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])  # asymmetric Q
    with pytest.raises(QpDimensionError):
        _qp([[2.0]], [0.0], var_labels=("x", "x"))


def test_kkt_residuals_of_solver_output_meet_tolerance():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    qp = _qp(m @ m.T + np.eye(4), rng.normal(size=4),
             a=rng.normal(size=(1, 4)), b=[1.0],
             g=rng.normal(size=(2, 4)), h=[5.0, 5.0])
    sol = solve(qp)
    assert sol.status == "optimal"
    res = kkt_residuals(qp, sol.x, sol.y, sol.z)
    assert res.max() <= DEFAULT_TOL
    assert np.min(sol.z, initial=0.0) >= -DEFAULT_TOL


def test_kkt_residuals_flag_primal_violation():
    qp = _qp([[2.0]], [0.0], g=[[-1.0]], h=[-1.0])
    res = kkt_residuals(qp, np.zeros(1), np.zeros(0), np.zeros(1))
    assert res.primal_ineq == pytest.approx(1.0)


def test_stationarity_residual_linear_in_free_perturbation():
    # min 0.5 x1^2 + 0.5 x2^2 s.t. x1 >= 1: perturb along the free axis
    qp = _qp(np.eye(2), [0.0, 0.0], g=[[-1.0, 0.0]], h=[-1.0])
    sol = solve(qp)
    ratios = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        x = sol.x.copy()
        x[1] += eps
        res = kkt_residuals(qp, x, sol.y, sol.z)
        ratios.append(res.dual_stationarity / eps)
    assert np.allclose(ratios, 1.0, rtol=1e-3)


def test_duality_gap_at_optimum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = rng.normal(size=(n, n))
        q = m @ m.T + 0.5 * np.eye(n)
        c = rng.normal(size=n)
        x0 = rng.normal(size=n)
        g = rng.normal(size=(3, n))
        h = g @ x0 + rng.uniform(0.05, 1.0, size=3)
        a = rng.normal(size=(1, n))
        b = a @ x0
        qp = _qp(q, c, a=a, b=b, g=g, h=h)
        sol = solve(qp)
        assert sol.status == "optimal"
        primal = qp.objective(sol.x)
        # Lagrangian dual value at the returned multipliers
        u = c - qp.a_eq.T @ sol.y + qp.g_ineq.T @ sol.z
        x_hat = np.linalg.solve(q, -u)
        dual = (0.5 * x_hat @ q @ x_hat + c @ x_hat
                - sol.y @ (qp.a_eq @ x_hat - qp.b_eq)
                + sol.z @ (qp.g_ineq @ x_hat - qp.h_ineq))
        assert abs(primal - dual) <= 10 * DEFAULT_TOL * (1 + abs(primal))


def _random_instance(rng):
    n = int(rng.integers(1, 7))
    mi = int(rng.integers(0, 4))
    me = int(rng.integers(0, min(3, n)))
    m = rng.normal(size=(n, n))
    q = m @ m.T + 0.3 * np.eye(n)
    c = rng.normal(size=n) * 2.0
    x0 = rng.normal(size=n)
    a = rng.normal(size=(me, n))
    b = a @ x0
    g = rng.normal(size=(mi, n))
    h = g @ x0 + rng.uniform(-0.3, 1.0, size=mi)  # some rows bind, some don't
    return _qp(q, c, a=a, b=b, g=g, h=h)


def test_matches_active_set_enumeration_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 60:
        qp = _random_instance(rng)
        oracle = active_set_enumeration(qp.q, qp.c, qp.a_eq, qp.b_eq, qp.g_ineq, qp.h_ineq)
        if oracle is None:
            continue  # infeasible draw
        x_star, _, z_star = oracle
        sol = solve(qp)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx(x_star, abs=1e-6)
        slack = qp.h_ineq - qp.g_ineq @ x_star
        for i in range(len(qp.h_ineq)):
            if slack[i] > 1e-6 or z_star[i] > 1e-6:  # skip degenerate touching rows
                assert sol.z[i] == pytest.approx(z_star[i], abs=1e-6)
        checked += 1


def test_parametric_continuity_under_objective_perturbation():
    # a fixed, well-conditioned instance with one active constraint
    qp0 = _qp([[2.0, 0.0], [0.0, 2.0]], [-2.0, 0.0], g=[[1.0, 1.0]], h=[0.5])
    base = solve(qp0)
    ratios = []
    for scale in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        delta = np.array([0.7, -0.3]) * scale
        qp1 = _qp(qp0.q, qp0.c + delta, g=qp0.g_ineq, h=qp0.h_ineq)
        sol = solve(qp1)
        moved = np.concatenate([sol.x - base.x, sol.z - base.z])
        ratios.append(np.linalg.norm(moved) / np.linalg.norm(delta))
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() <= 100.0  # empirically bounded sensitivity
    assert ratios.max() <= 10.0 * max(ratios.min(), 1e-12)  # no blow-up as delta -> 0


def test_initial_point_hint_is_accepted():
    qp = _qp([[2.0]], [-4.0], g=[[1.0]], h=[1.0])
    cold = solve(qp)
    warm = solve(qp, initial=np.array([0.9]))
    assert warm.status == "optimal"
    assert warm.x == pytest.approx(cold.x, abs=1e-9)
    assert warm.z == pytest.approx(cold.z, abs=1e-8)


def test_deterministic_given_identical_inputs():
    rng = np.random.default_rng(5)
    qp = _random_instance(rng)
    a = solve(qp)
    b = solve(qp)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z) and np.array_equal(a.y, b.y)


def test_dump_mentions_labels():
    qp = _qp([[2.0]], [1.0], g=[[1.0]], h=[3.0],
             var_labels=("power",), ineq_labels=("cap",))
    text = qp.dump()
    assert "power" in text and "cap" in text and "<=" in text


def test_refinement_overflow_stays_silent():
    # a cold interior-point clear of A03 meets a near-singular Newton system
    # whose refinement step goes non-finite; the solver retries with more
    # regularization instead of leaking a numpy warning
    net = load_case((Path(__file__).parent / "data" / "ladder_4x8_s0.json").read_text())
    terms = optimal_terms_of_trade(net, solve_centralized(net))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = clear(net, "A03", terms["A03"])
    assert res.status == "optimal"
