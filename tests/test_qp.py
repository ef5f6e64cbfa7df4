import json
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flexmarket import (MechanismConfig, RhoSchedule, load_bundled, load_case,
                        optimal_terms_of_trade, run, solve_centralized, trace_to_csv)
from flexmarket import qp as qpmod
from flexmarket.benchmark import _CentralProblem
from flexmarket.market import AreaProblem, clear
from flexmarket.qp import (DEFAULT_TOL, QpDimensionError, QuadraticProgram, kkt_residuals,
                           solve)

from oracles import active_set_enumeration, dual_active_set_reference
from test_random_networks import _valid_networks

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("kw, message", [
    ({"a": np.zeros((2, 1)), "b": np.zeros(1)}, "A and b row counts differ"),
    ({"g": np.zeros((1, 1)), "h": np.zeros(2)}, "G and h row counts differ"),
    ({"g": np.ones((2, 1)), "h": np.ones(2), "ineq_labels": ("r", "r")},
     "duplicate ineq labels"),
])
def test_program_shape_errors_are_named(kw, message):
    with pytest.raises(QpDimensionError) as err:
        _qp([[2.0]], [0.0], **kw)
    assert str(err.value) == message


def test_kkt_residuals_reject_a_point_of_the_wrong_size():
    program = _qp([[2.0]], [0.0], g=[[-1.0]], h=[-1.0])
    with pytest.raises(QpDimensionError) as err:
        kkt_residuals(program, np.zeros(1), np.zeros(0), np.zeros(2))
    assert str(err.value) == "candidate point dimensions do not match the program"


def test_solve_rejects_a_non_finite_tol_and_too_few_iterations():
    # tol = nan would fail every comparison (iteration_limit on a solvable
    # program), tol = inf would pass every validation
    program = _qp(np.eye(2), [-1.0, -1.0], g=[[1.0, 1.0]], h=[1.0])
    assert solve(program).status == "optimal"
    for tol in (float("nan"), float("inf"), -float("inf"), 0.0):
        with pytest.raises(ValueError, match="tol"):
            solve(program, tol=tol)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            solve(program, max_iter=max_iter)


def test_q_must_be_positive_definite():
    # a singular positive semidefinite Q: the program is convex, not strictly
    with pytest.raises(QpDimensionError, match="Cholesky"):
        _qp([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    with pytest.raises(QpDimensionError, match="Cholesky"):
        _qp(np.zeros((2, 2)), [1.0, 0.0], g=[[-1.0, 0.0]], h=[0.0])


def test_structure_is_frozen_without_freezing_the_callers_arrays():
    q, g = np.eye(2), np.array([[1.0, 1.0]])
    a = np.array([[1.0, -1.0]])
    h = np.array([1.0])
    qp = _qp(q, [0.0, 0.0], a=a, b=[0.0], g=g, h=h)
    for name in ("q", "a_eq", "g_ineq"):
        with pytest.raises(ValueError):
            getattr(qp, name)[0, 0] = 5.0
    for mine, stored in ((q, qp.q), (a, qp.a_eq), (g, qp.g_ineq)):
        assert mine.flags.writeable and stored is not mine
        mine[0, 0] = 5.0  # the caller may keep editing its own copy
        assert stored[0, 0] == 1.0
    # h is structure too: rebind never changes it, so its tolerance is fixed
    with pytest.raises(ValueError):
        qp.h_ineq[0] = 5.0
    assert h.flags.writeable and qp.h_ineq is not h
    h[0] = 5.0
    assert qp.h_ineq[0] == 1.0
    rebound = qp.rebind([1.0, 0.0], [0.5])
    assert rebound.h_ineq is qp.h_ineq and rebound._feas_tol == qp._feas_tol
    assert rebound.binding_rows([0.5, 0.5]) == (0,)


def test_rebind_converts_checks_and_shares():
    # c and b come back as float64 vectors of the program's shapes, whatever
    # their type; a float64 vector is taken as it is
    program = _qp(np.eye(3), [0.0, 0.0, 0.0], a=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                  b=[1.0, 0.0], g=[[1.0, 0.0, 0.0]], h=[2.0])
    c, b = [1.0, 2.0, 3.0], [4.0, 5.0]
    for kind in (list, lambda v: np.array(v, dtype=np.int64),
                 lambda v: np.array(v, dtype=np.float32)):
        rebound = program.rebind(kind(c), kind(b))
        for got, want in ((rebound.c, c), (rebound.b_eq, b)):
            assert type(got) is np.ndarray and got.dtype == np.float64
            assert got.shape == (len(want),) and got.tolist() == want
        assert rebound._memo is program._memo and rebound._l_inv_t is program._l_inv_t
    c64, b64 = np.array(c), np.array(b)
    rebound = program.rebind(c64, b64)
    assert rebound.c is c64 and rebound.b_eq is b64
    assert solve(rebound).x.tobytes() == solve(program.rebind(c, b)).x.tobytes()
    # a wrong length, or a second dimension, is refused whatever the type
    for bad_c, bad_b in ((c[:2], b), (c, b + [6.0]), (np.array([c]), b64), (c64, np.array([b])),
                         (np.array(c[:2]), b64), (c64, np.array(b[:1]))):
        with pytest.raises(QpDimensionError):
            program.rebind(bad_c, bad_b)


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


def _reference_residuals(qp, x, y, z):
    """The KKT residuals restated with np.max(..., initial=0.0) on every block."""
    slack = qp.h_ineq - qp.g_ineq @ x
    r_stat = qp.q @ x + qp.c - qp.a_eq.T @ y + qp.g_ineq.T @ z
    return {"primal_eq": float(np.max(np.abs(qp.a_eq @ x - qp.b_eq), initial=0.0)),
            "primal_ineq": float(np.max(-slack, initial=0.0)),
            "dual_stationarity": float(np.max(np.abs(r_stat), initial=0.0)),
            "complementarity": float(np.max(np.abs(z * slack), initial=0.0))}


def _bits(values):
    return {name: float(v).hex() for name, v in values.items()}


def test_residual_pass_matches_kkt_residuals_bit_for_bit():
    # solver outputs of this file's programs, cold and re-solved from their own
    # active set; a hinted answer carries the residuals of the polish's pass
    rng = np.random.default_rng(2024)
    programs = [_random_instance(rng) for _ in range(40)]
    programs += [_qp([[2.0]], [-4.0], g=[[1.0], [1.0]], h=[1.0, 1.0]),
                 _qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0]], b=[2.0]),
                 _qp(np.eye(2), [0.0, 0.0], g=[[-1.0, 0.0]], h=[-1.0])]
    compared = 0
    for qp in programs:
        cold = solve(qp)
        if cold.status != "optimal":
            continue
        for sol in (cold, solve(qp, active_hint=cold.active_set)):
            ref = _bits(_reference_residuals(qp, sol.x, sol.y, sol.z))
            slack = qp.h_ineq - qp.g_ineq @ sol.x
            assert _bits(asdict(qpmod._residuals(qp, sol.x, sol.y, sol.z, slack))) == ref
            assert _bits(asdict(kkt_residuals(qp, sol.x, sol.y, sol.z))) == ref
            assert _bits(asdict(sol.residuals)) == ref
            compared += 1
    assert compared >= 60


def test_residual_pass_gives_zero_on_empty_blocks():
    x = np.array([1.0, -2.0])
    no_eq = _qp(np.eye(2), [0.0, 0.0], g=[[1.0, 0.0]], h=[3.0])
    no_ineq = _qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0]], b=[-1.0])
    res = qpmod._residuals(no_eq, x, np.zeros(0), np.ones(1), no_eq.h_ineq - no_eq.g_ineq @ x)
    assert res.primal_eq.hex() == (0.0).hex()
    res = qpmod._residuals(no_ineq, x, np.zeros(1), np.zeros(0),
                           no_ineq.h_ineq - no_ineq.g_ineq @ x)
    assert res.primal_ineq.hex() == res.complementarity.hex() == (0.0).hex()
    assert res.primal_eq == 0.0 and res.dual_stationarity == 2.0


def test_residual_pass_keeps_nan_and_the_solver_rejects_it():
    qp = _qp(np.eye(2), [0.0, 0.0], a=[[1.0, -1.0]], b=[0.0], g=[[1.0, 1.0]], h=[1.0])
    x = np.array([np.nan, 0.0])
    res = qpmod._residuals(qp, x, np.zeros(1), np.zeros(1), qp.h_ineq - qp.g_ineq @ x)
    assert all(np.isnan(v) for v in asdict(res).values())
    assert np.isnan(res.max())
    # the builtin max would skip a NaN that is not its first argument
    assert np.isnan(qpmod.KktResiduals(0.0, float("nan"), 1.0, 0.0).max())
    # a NaN cost reaches x on every path; none may call the point optimal
    for program in (qp, _qp(np.eye(2), [0.0, 0.0], g=[[1.0, 1.0]], h=[1.0])):
        bad = program.rebind([np.nan, 0.0], program.b_eq)
        for hint in (None, (), (0,)):
            assert solve(bad, active_hint=hint).status != "optimal"


def test_hint_first_keeps_inconsistent_equalities_certified():
    # x1 = 0 and x1 = 1 contradict; a hint is walked first, so no walk from it
    # may validate, and the dual method's certificate must not change
    qp = _qp(np.eye(2), [0.0, 0.0], a=[[1.0, 0.0], [1.0, 0.0]], b=[0.0, 1.0],
             g=[[0.0, 1.0], [0.0, -1.0]], h=[1.0, 1.0])
    cold = solve(qp)
    assert cold.status == "infeasible"
    for hint in ((), (0,), (0, 1)):
        sol = solve(qp, active_hint=hint)
        assert sol.status == "infeasible"
        assert np.array_equal(sol.x, cold.x)
        for mine, ref in zip(sol.certificate, cold.certificate):
            assert np.array_equal(mine, ref)
    y, _ = cold.certificate
    assert y @ qp.b_eq > 1e-10 and np.max(np.abs(qp.a_eq.T @ y)) < 1e-8


# dependent equality rows in x1 and x2, consistent as given; x3 >= 1 binds
DEPENDENT_EQUALITIES = {
    "duplicate": ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0]),
    "scaled": ([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 2.0]),
    "sum": ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [1.0, 2.0, 3.0]),
}


def _dependent_equalities(name, miss):
    """The set ``name`` with its last right-hand side moved by ``miss``."""
    a, b = DEPENDENT_EQUALITIES[name]
    return _qp(np.eye(3), [0.0, 0.0, 0.0], a=a, b=np.array(b) + np.eye(len(b))[-1] * miss,
               g=[[0.0, 0.0, -1.0]], h=[-1.0])


@pytest.mark.parametrize("miss", [1e-3, 1.0])
@pytest.mark.parametrize("name", sorted(DEPENDENT_EQUALITIES))
def test_inconsistent_equalities_are_proved_by_the_dual_methods_stop(name, miss):
    # the method stops on the first equality row it finds dependent and misses,
    # and its multipliers there are the certificate, cold or after any hint
    program = _dependent_equalities(name, miss)
    for hint in (None, (), (0,)):
        sol = solve(program, active_hint=hint)
        assert sol.status == "infeasible" and sol.path == "failed" and sol.iterations >= 1
        assert qpmod._certifies_infeasible(program, *sol.certificate)


@pytest.mark.parametrize("name", sorted(DEPENDENT_EQUALITIES))
def test_consistent_dependent_equalities_are_optimal(name):
    program = _dependent_equalities(name, 0.0)
    for hint in (None, (), (0,)):
        sol = solve(program, active_hint=hint)
        assert sol.status == "optimal" and sol.active_set == (0,)
        assert kkt_residuals(program, sol.x, sol.y, sol.z).max() <= DEFAULT_TOL
        assert sol.x == pytest.approx(np.linalg.lstsq(program.a_eq[:, :2], program.b_eq,
                                                      rcond=None)[0].tolist() + [1.0], abs=1e-12)


@pytest.mark.parametrize("miss", [5e-8, 5e-7])
def test_equalities_inconsistent_below_the_certificate_tolerance_are_left_unanswered(miss):
    # x1 = 0 and x1 = miss: below 1e-7 (1 + max|b|) the method skips the second
    # row, and no point meets both rows to tol; above it, the method stops on
    # the row, but the stop's gap, miss, is below CERTIFICATE_TOL, so nothing
    # proves the program infeasible
    program = _qp(np.eye(2), [0.0, 0.0], a=[[1.0, 0.0], [1.0, 0.0]], b=[0.0, miss],
                  g=[[0.0, 1.0]], h=[1.0])
    for hint in (None, (), (0,)):
        sol = solve(program, active_hint=hint)
        assert sol.status == "iteration_limit" and sol.certificate is None


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
    _check_against_the_oracle(np.random.default_rng(2024), _random_instance, 2000)


def _opposite_rows_instance(rng):
    """A random instance whose rows include exact copies, opposite rows (as
    tri3's joint program has x0 <= 0 beside -x0 <= 0) and copies scaled by a
    positive factor, so that rows bind in dependent groups."""
    program = _random_instance(rng)
    n = program.n
    g = rng.normal(size=(int(rng.integers(1, 3)), n))
    h = rng.uniform(-0.3, 1.0, size=len(g))
    pick = rng.integers(0, len(g), size=3)
    scale = rng.uniform(0.5, 2.0)
    sign = np.array([-1.0, 1.0, scale])[:, None]
    g = np.vstack([program.g_ineq, g, sign * g[pick]])
    h = np.concatenate([program.h_ineq, h, sign[:, 0] * h[pick]])
    return _qp(program.q, program.c, a=program.a_eq, b=program.b_eq, g=g, h=h)


def test_duplicate_and_opposite_rows_match_the_oracle():
    _check_against_the_oracle(np.random.default_rng(2025), _opposite_rows_instance, 300)


def _check_against_the_oracle(rng, draw, count):
    """Solve ``count`` draws and check each against the enumeration oracle.

    A feasible draw must be optimal at the oracle's x, with the oracle's
    multiplier on every row that is not a degenerate touching row and whose
    group of parallel rows is a single row (the split over parallel rows is
    the solver's minimum-norm choice, not the oracle's).  An infeasible draw
    must be called infeasible with a certificate that verifies on the
    program.  Returns the counts of both.
    """
    feasible = infeasible = 0
    for _ in range(count):
        qp = draw(rng)
        oracle = active_set_enumeration(qp.q, qp.c, qp.a_eq, qp.b_eq, qp.g_ineq, qp.h_ineq)
        sol = solve(qp)
        assert sol.iterations >= 1
        if oracle is None:
            assert sol.status == "infeasible"
            y, z = sol.certificate
            residual = np.max(np.abs(qp.g_ineq.T @ z - qp.a_eq.T @ y), initial=0.0)
            gap = qp.b_eq @ y - qp.h_ineq @ z
            assert np.min(z, initial=0.0) >= 0.0 and gap > 1e-6 and gap > 1e9 * residual
            infeasible += 1
            continue
        x_star, _, z_star = oracle
        assert sol.status == "optimal"
        assert sol.x == pytest.approx(x_star, abs=1e-6)
        assert kkt_residuals(qp, sol.x, sol.y, sol.z).max() <= DEFAULT_TOL
        slack = qp.h_ineq - qp.g_ineq @ x_star
        unit = qp.g_ineq / np.maximum(np.linalg.norm(qp.g_ineq, axis=1), 1e-300)[:, None]
        parallel = np.abs(unit @ unit.T) > 1.0 - 1e-12
        for i in range(len(qp.h_ineq)):
            if parallel[i].sum() > 1:
                continue
            if slack[i] > 1e-6 or z_star[i] > 1e-6:  # skip degenerate touching rows
                assert sol.z[i] == pytest.approx(z_star[i], abs=1e-6)
        feasible += 1
    assert feasible >= 60 and infeasible >= 1
    return feasible, infeasible


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


def test_deterministic_given_identical_inputs():
    rng = np.random.default_rng(5)
    qp = _random_instance(rng)
    a = solve(qp)
    b = solve(qp)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z) and np.array_equal(a.y, b.y)


def _loaded(data):
    """The program of ``QuadraticProgram.dump``'s fields, as JSON-decoded."""
    return QuadraticProgram(*(np.asarray(data[key], float) for key in
                              ("q", "c", "a_eq", "b_eq", "g_ineq", "h_ineq")),
                            *(tuple(data.get(key, ())) for key in
                              ("var_labels", "eq_labels", "ineq_labels")))


def _captured(name):
    """A program stored in ``tests/data`` as JSON with repr floats, and its stored fields."""
    data = json.loads((DATA / name).read_text())
    return _loaded(data), data


def test_dump_reads_back_bit_for_bit():
    # tri3's area programs, its joint program and an autarky program with no
    # equality rows, each bound to terms that are not all zero
    net = load_bundled("tri3")
    terms = optimal_terms_of_trade(net, solve_centralized(net))
    areas = [AreaProblem(net, a.id).assemble(terms[a.id]) for a in net.areas]
    autarky = AreaProblem(net, "B", autarky=True)._program
    assert len(autarky.b_eq) == 0
    for program in [*areas, _CentralProblem(net).program, autarky]:
        loaded = _loaded(json.loads(program.dump()))
        for key in ("q", "c", "a_eq", "b_eq", "g_ineq", "h_ineq"):
            mine, theirs = getattr(loaded, key), getattr(program, key)
            assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes(), key
        for key in ("var_labels", "eq_labels", "ineq_labels"):
            assert getattr(loaded, key) == getattr(program, key)


LADDER_4X8 = DATA / "ladder_4x8_s0.json"


def test_refinement_overflow_stays_silent():
    # a cold clear of A03 once drove the solver's Newton refinement to a
    # non-finite step; whatever route the clear takes, no numpy warning may
    # leak
    net = load_case(LADDER_4X8.read_text())
    terms = optimal_terms_of_trade(net, solve_centralized(net))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = clear(net, "A03", terms["A03"])
    assert res.kkt_residual <= DEFAULT_TOL


def _solves_silently(name):
    """Solve a stored program with every RuntimeWarning an error; it must be optimal."""
    program, data = _captured(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve(program, data["tol"])
    assert sol.status == "optimal" and sol.path == "dual"
    assert kkt_residuals(program, sol.x, sol.y, sol.z).max() <= data["tol"]


def test_refinement_overflow_on_the_captured_program_stays_silent():
    # the program of that clear, stored when it still reached the overflow:
    # the program a clear builds depends on the solver's trajectory and on the
    # BLAS thread count, the stored one does not
    _solves_silently("qp_singular_rungs.json")


@pytest.mark.parametrize("name", [
    "qp_2x4_s1_round920_a00.json", "qp_2x4_s8_round1037_a00.json",
    pytest.param("qp_4x8_s1_round1542_a00.json", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 1, Fault B: the dual method's point drifts off a "
        "degenerate vertex, and the solve returns iteration_limit"))])
def test_the_programs_that_stop_long_runs_are_solved(name):
    # area A00's program where a long run of a generated network stopped with
    # MechanismError; the hint it was solved with failed the same way
    program, data = _captured(name)
    sol = solve(program, data["tol"])
    assert sol.status == "optimal"
    assert kkt_residuals(program, sol.x, sol.y, sol.z).max() <= data["tol"]


def test_a_clamp_that_fails_validation_drops_its_rows():
    # on 2x4-s1's program the dual method stops on rows (0, 1, 3, 20, 21), and
    # their solve leaves multipliers of -7.1e-9, -2.7e-9 and -1.6e-9 on rows
    # 0, 1 and 3, inside the feasibility tolerance; clamped to 0 they fail
    # validation.  The walk must go on without those rows, not give up
    program, data = _captured("qp_2x4_s1_round920_a00.json")
    rows = (0, 1, 3, 20, 21)
    assert rows == qpmod._dual_active_set(program, qpmod.DEFAULT_MAX_ITER)[0]
    z = qpmod._solve_active(program, rows)[2]
    assert all(-program._feas_tol < z[i] < 0.0 for i in (0, 1, 3))
    x, y, z, res = qpmod._polish(program, set(rows), data["tol"], 8)
    assert res.max() <= data["tol"] and (z >= 0.0).all()


def test_polish_stops_at_first_repeated_active_set(monkeypatch):
    # each add/drop step of the polish depends only on the current set, so a
    # set that comes round again is a cycle: the walk must give up there
    # instead of spending the rest of its budget on fresh factorizations
    net = load_case(LADDER_4X8.read_text())
    solve_active, polish = qpmod._solve_active, qpmod._polish
    running, solved = [], []  # row sets solved by the open and by each finished _polish call
    failed = []  # per finished call: did it return None

    def recording_solve(program, rows):
        if running:
            running[-1].append(tuple(rows))
        return solve_active(program, rows)

    def recording_polish(*args):
        running.append([])
        try:
            result = polish(*args)
        finally:
            solved.append(running.pop())
        failed.append(result is None)
        return result

    monkeypatch.setattr(qpmod, "_solve_active", recording_solve)
    monkeypatch.setattr(qpmod, "_polish", recording_polish)
    run(net, MechanismConfig(max_rounds=80, tol=1e-300, beta=0.1, rho=RhoSchedule(1.0, 1.0, 0.6)))
    assert any(failed)  # the run meets polishes that cannot succeed
    repeats = [rows for rows in solved if len(set(rows)) != len(rows)]
    assert not repeats, f"{len(repeats)} of {len(solved)} polish calls re-solved a row set"


def _hinted_walks(full_budget=False):
    """80 rounds of ``LADDER_4X8`` with each hinted solve's polish walks recorded.

    Returns the trace CSV and, per hinted solve, ``(program, hint, walks)``:
    ``walks`` lists ``(row sets solved, result, start)`` of each ``_polish``
    call on the solved program in order: the hint's walk, then, if the hint
    missed, the polishes of the dual method's answer.  ``full_budget`` gives
    the hint's walk the cold polish's ``2 * mi + 8`` row sets, as the walk had
    before it was capped.
    """
    net = load_case(LADDER_4X8.read_text())
    solve_qp, polish, solve_active = qpmod.solve, qpmod._polish, qpmod._solve_active
    hinted = []
    walks, rows = None, None  # the open hinted solve's walks, the open walk's row sets
    solving = None

    def recording_solve(program, *args, active_hint=None, **kwargs):
        nonlocal walks, solving
        walks = None if active_hint is None else []
        solving = program
        try:
            return solve_qp(program, *args, active_hint=active_hint, **kwargs)
        finally:
            if walks is not None:
                hinted.append((program, active_hint, walks))
            walks = None

    def recording_polish(program, active, tol, *budget):
        nonlocal rows
        if full_budget and walks == []:
            budget = (2 * len(program.h_ineq) + 8,)
        rows, start = [], tuple(sorted(active))
        try:
            result = polish(program, active, tol, *budget)
        finally:
            if walks is not None and program is solving:
                walks.append((rows, result, start))
            rows = None
        return result

    def recording_solve_active(program, active):
        if rows is not None:
            rows.append(tuple(active))
        return solve_active(program, active)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpmod, "solve", recording_solve)
        patch.setattr(qpmod, "_polish", recording_polish)
        patch.setattr(qpmod, "_solve_active", recording_solve_active)
        result = run(net, MechanismConfig(max_rounds=80, tol=1e-300, beta=0.1,
                                          rho=RhoSchedule(1.0, 1.0, 0.6)))
    return trace_to_csv(result.trace), hinted


def _same_bits(mine, ref):
    assert mine.status == ref.status and mine.active_set == ref.active_set
    for a, b in ((mine.x, ref.x), (mine.y, ref.y), (mine.z, ref.z)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_hinted_walk_solves_at_most_hint_row_sets():
    # a hint that has not settled within min(n + me, HINT_ROW_SETS) row sets
    # is left to the cold path (module docstring), and no answer of this run
    # may change for it
    csv, hinted = _hinted_walks()
    cap = qpmod.HINT_ROW_SETS
    sizes = [(len(walks[0][0]), min(program.n + len(program.b_eq), cap))
             for program, _, walks in hinted if walks]
    over = [(steps, limit) for steps, limit in sizes if steps > limit]
    assert sizes and not over, f"row sets solved vs min(n + me, {cap}): {over}"
    for _, hint, walks in hinted:
        if not walks:
            continue
        # the hint is walked once, first; only if it misses does the cold
        # path polish, at most three times (the method's rows, the binding
        # rows, the support), and only after a first polish that answers
        assert walks[0][2] == tuple(sorted(hint))
        rest = walks[1:]
        assert not rest or walks[0][1] is None
        assert len(rest) <= 3 and (len(rest) <= 1 or rest[0][1] is not None)
    assert any(walks[0][1] is None for _, _, walks in hinted if walks)  # some hints miss
    reference_csv, reference = _hinted_walks(full_budget=True)
    assert csv == reference_csv
    # the cap binds: some walk stops at it where the full budget walks on
    assert len(reference) == len(hinted)
    assert any(len(walks[0][0]) == cap < len(full[0][0])
               for (_, _, walks), (_, _, full) in zip(hinted, reference) if walks)


def test_a_missed_hint_changes_nothing_but_time():
    # a hint whose walk misses gets the cold answer bit for bit
    _, hinted = _hinted_walks()
    missed = [(program, hint) for program, hint, walks in hinted if walks and walks[0][1] is None]
    assert missed
    for program, hint in missed:
        _same_bits(solve(program, active_hint=hint), solve(program))


LADDER_4X8_S4 = DATA / "ladder_4x8_s4.json"


def test_non_finite_newton_rhs_breaks_down_without_a_warning():
    # a solve in the first 20 rounds of ladder_4x8_s4 once reached slacks so
    # small that a Newton right-hand side overflowed (stored as the captured
    # program); the run and that program must pass without a numpy warning
    net = load_case(LADDER_4X8_S4.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run(net, MechanismConfig(max_rounds=20, tol=1e-300, beta=0.1,
                                          rho=RhoSchedule(1.0, 1.0, 0.6)))
    assert result.rounds == 20
    _solves_silently("qp_non_finite_rhs.json")


@pytest.fixture(scope="module")
def network_12():
    # network 12 of the randomized-network suite: its first cold program has a
    # degenerate optimal dual face
    return _valid_networks(20240951, 15)[12]


def _cold_programs(net, rounds):
    """The programs of every cold (unhinted) solve in ``rounds`` rounds of ``net``."""
    programs = []
    solve_qp = qpmod.solve

    def recording_solve(program, *args, active_hint=None, **kwargs):
        if active_hint is None:
            programs.append(program)
        return solve_qp(program, *args, active_hint=active_hint, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpmod, "solve", recording_solve)
        run(net, MechanismConfig(max_rounds=rounds, tol=1e-8, rho=RhoSchedule(1.0, 1.0, 0.6)))
    return programs


def test_solution_path_names_the_route(network_12):
    one_bound = _qp([[2.0]], [0.0], g=[[-1.0]], h=[-1.0])
    cold = solve(one_bound)
    assert cold.path == "dual" and cold.iterations > 0
    hinted = solve(one_bound, active_hint=cold.active_set)
    assert hinted.path == "hint" and hinted.iterations == 0
    _same_bits(hinted, cold)
    # no inequality rows: the method's own answer, polished
    assert solve(_qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0]], b=[2.0])).path == "dual"
    # contradictory bounds: every status but optimal
    assert solve(_qp([[2.0]], [0.0], g=[[1.0], [-1.0]], h=[-1.0, -1.0])).path == "failed"
    # the first cold program of network 12 has a degenerate optimal dual face
    assert solve(_cold_programs(network_12, 1)[0]).path == "dual"


def test_a_cold_answer_is_the_polish_of_its_own_support(network_12):
    # the first cold program of network 12 has a degenerate optimal dual
    # face: its answer binds a row with a zero multiplier.  The answer is
    # polished once more from its support, so a re-solve hinted with its
    # active set factors nothing new and returns it bit for bit
    program = _cold_programs(network_12, 1)[0]
    cold = solve(program)
    assert program.binding_rows(cold.x) != cold.active_set
    assert program._memo["active"][0] == cold.active_set
    _same_bits(solve(program, active_hint=cold.active_set), cold)


def test_the_dual_method_answers_the_joint_program_of_8x4_s7():
    # the joint program of generated network 8x4 seed 7 answers cold, with
    # KKT residuals within the default tolerance
    net = load_case((DATA / "ladder_8x4_s7.json").read_text())
    assert solve_centralized(net).kkt_residual <= DEFAULT_TOL


def _kernel_programs(seed, count, flat):
    """Random strictly convex programs for the active-set kernel.

    ``flat`` gives about 40% of the variables the 1e-9 curvature of the
    regularized ones, and appends to G a copy of its first row and a row that
    depends on two others; otherwise Q is well conditioned.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, me, mi = int(rng.integers(3, 9)), int(rng.integers(0, 3)), int(rng.integers(3, 6))
        if flat:
            curvature = rng.uniform(0.5, 2.0, n)
            curvature[rng.random(n) < 0.4] = 1e-9
            q = np.diag(curvature)
        else:
            m = rng.normal(size=(n, n))
            q = m @ m.T + np.eye(n)
        g = rng.normal(size=(mi, n))
        if flat:
            g = np.vstack([g, g[0], g[1] - 2.0 * g[2]])
        yield _qp(q, rng.normal(size=n), a=rng.normal(size=(me, n)), b=rng.normal(size=me),
                  g=g, h=rng.normal(size=len(g)))


def test_active_kkt_meets_the_penrose_conditions():
    # on duplicated and dependent rows and 1e-9 curvature.  KP and PK are the
    # orthogonal projectors on the ranges of K and K': diag(I, D Pi D) and
    # diag(I, Pi), for Pi the projector on the range of C = [-A; G] and D the
    # sign flip of the A rows.  They hold absolutely, except where C meets
    # P's null-space block, whose entries reach 1e9; those products, and
    # PKP = P, are measured against their own scale
    for program in _kernel_programs(20241019, 100, flat=True):
        n, me, mi = program.n, len(program.b_eq), len(program.h_ineq)
        kkt, pinv = qpmod._active_kkt(program, list(range(mi)))[:2]
        k, p = np.max(np.abs(kkt)), np.max(np.abs(pinv))
        rows = np.vstack([-program.a_eq, program.g_ineq])
        range_c = rows @ np.linalg.pinv(rows, rcond=1e-13)
        flip = np.concatenate([-np.ones(me), np.ones(mi)])

        def projector(block):
            matrix = np.eye(n + me + mi)
            matrix[n:, n:] = block
            return matrix

        kp_error = np.abs(kkt @ pinv - projector(flip[:, None] * range_c * flip))
        pk_error = np.abs(pinv @ kkt - projector(range_c))
        assert max(np.max(kp_error[n:, :n]), np.max(pk_error[:n, n:])) <= 1e-10 * k * p
        kp_error[n:, :n] = pk_error[:n, n:] = 0.0
        assert max(np.max(kp_error), np.max(pk_error)) <= 1e-8
        assert np.max(np.abs(pinv @ kkt @ pinv - pinv)) <= 1e-8 * p * k * p


def test_active_kkt_agrees_with_the_svd_of_the_whole_matrix():
    for program in _kernel_programs(20241020, 100, flat=False):
        kkt, pinv = qpmod._active_kkt(program, list(range(len(program.h_ineq))))[:2]
        reference = np.linalg.pinv(kkt, rcond=1e-13)
        assert np.max(np.abs(pinv - reference)) <= 1e-10 * max(1.0, np.max(np.abs(reference)))


def test_active_solve_is_the_minimum_norm_least_squares_answer():
    # rows 0 and 1 bound x0 by 1 and by 2: no point meets both, so the answer
    # is the least-squares x0 = 1.5, with the multiplier split evenly
    program = _qp(np.diag([2.0, 1.0]), [0.0, 0.0], g=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                  h=[1.0, 2.0, 0.5])
    x, _, z = qpmod._solve_active(program, [0, 1, 2])
    assert np.max(np.abs(x - [1.5, 0.5])) <= 1e-14
    assert np.max(np.abs(z - [-1.5, -1.5, -0.5])) <= 1e-14
    kkt, pinv = qpmod._active_kkt(program, [0, 1, 2])[:2]
    rhs = np.array([0.0, 0.0, 1.0, 2.0, 0.5])
    assert np.max(np.abs(pinv @ rhs - np.linalg.lstsq(kkt, rhs, rcond=None)[0])) <= 1e-14


def _exact_solution(rows):
    """One solution, free variables at zero, of the rational system ``rows``
    (each row its coefficients and then its right-hand side), or None."""
    rows = [row[:] for row in rows]
    pivots, rank = [], 0
    for col in range(len(rows[0]) - 1):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [v / rows[rank][col] for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [v - row[col] * w for v, w in zip(row, rows[rank])]
        pivots.append(col)
        rank += 1
    if any(row[-1] for row in rows[rank:]):
        return None
    solution = [Fraction(0)] * (len(rows[0]) - 1)
    for row, col in zip(rows, pivots):
        solution[col] = row[-1]
    return solution


def test_active_solve_matches_the_exact_least_squares_x_on_a_degenerate_set():
    # a binding set of a ladder pass: its rows are dependent and, in exact
    # arithmetic, inconsistent.  Every least-squares solution has the same x;
    # find it in rationals by projecting the constraint right-hand side on
    # the range of C = [-A; G], then solving the consistent system
    program, _ = _captured("qp_degenerate_active_set.json")
    n = program.n

    def exact(matrix):
        return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(matrix)]

    rows = exact(np.vstack([-program.a_eq, program.g_ineq]))
    (rhs,) = exact(np.concatenate([-program.b_eq, program.h_ineq]))
    assert _exact_solution([r + [v] for r, v in zip(rows, rhs)]) is None  # inconsistent
    normal = [[sum(r[i] * r[j] for r in rows) for j in range(n)]
              + [sum(r[i] * v for r, v in zip(rows, rhs))] for i in range(n)]
    u = _exact_solution(normal)
    projected = [sum(r[j] * u[j] for j in range(n)) for r in rows]
    q, (c,) = exact(program.q), exact(program.c)
    saddle = ([q[i] + [r[i] for r in rows] + [-c[i]] for i in range(n)]
              + [r + [Fraction(0)] * len(rows) + [v] for r, v in zip(rows, projected)])
    x_exact = np.array([float(v) for v in _exact_solution(saddle)[:n]])
    x, _, _ = qpmod._solve_active(program, list(range(len(program.h_ineq))))
    assert np.max(np.abs(x - x_exact)) <= 1e-9


def test_the_last_stage_certifies_an_infeasible_program():
    # area A00's program in round 53 of generated network 24x2-s0 is
    # infeasible; HiGHS finds its least uniform relaxation of the inequality
    # rows t* = 0.042341554046.  Cold or after a hint that misses, the solve
    # ends in the dual method's stop, whose multipliers must verify as a
    # certificate on the program itself
    program, _ = _captured("qp_24x2_s0_round53_a00.json")
    for hint in (None, (0,)):
        sol = solve(program, active_hint=hint)
        assert sol.status == "infeasible" and sol.path == "failed" and sol.iterations >= 1
        y, z = sol.certificate
        assert np.min(z) >= 0.0
        residual = np.max(np.abs(program.g_ineq.T @ z - program.a_eq.T @ y))
        gap = program.b_eq @ y - program.h_ineq @ z
        assert residual <= 1e-7 and gap > 1e-3 and gap > residual * qpmod.CERTIFICATE_RADIUS


def test_a_near_certificate_of_a_feasible_program_is_not_accepted():
    # x <= 1000 and (1 + 1e-7) x >= 1000 + 5e-5 both hold for x in
    # [999.99995, 1000].  z = (1, 1) leaves a residual G'z of 1e-7 and a gap
    # of 5e-5, each within its tolerance, but rules out only solutions of
    # size below 500, far inside CERTIFICATE_RADIUS
    program = _qp([[1.0]], [0.0], g=[[1.0], [-(1.0 + 1e-7)]], h=[1000.0, -(1000.0 + 5e-5)])
    y, z = np.zeros(0), np.array([1.0, 1.0])
    assert not qpmod._certifies_infeasible(program, y, z)


def test_duplicate_rows_answer_by_the_dual_method_with_a_symmetric_split():
    # the dual method keeps only independent rows, so it ends with one copy
    # active and the whole multiplier 2 on it; the polish of the binding rows
    # of its answer splits it evenly
    program = _qp([[2.0]], [-4.0], g=[[1.0], [1.0]], h=[1.0, 1.0])
    rows, x, _, z, _, proof = qpmod._dual_active_set(program, 10)
    assert rows == (0,) and x == pytest.approx([1.0]) and z == pytest.approx([2.0, 0.0])
    assert proof is None
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "dual" and sol.iterations > 0
    assert sol.z == pytest.approx([1.0, 1.0], abs=1e-12)
    assert sol.active_set == (0, 1)


def test_a_repeated_consistent_equality_is_skipped_not_called_infeasible():
    # x1 + x2 = 2 stated three times, once scaled by -2: the copies add no
    # primal step, and the method must skip them rather than stop on them
    program = _qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0], [1.0, 1.0], [-2.0, -2.0]],
                  b=[2.0, 2.0, -4.0], g=[[1.0, 0.0]], h=[0.5])
    rows, x, _, _, _, _ = qpmod._dual_active_set(program, 20)
    assert rows == (0,) and x == pytest.approx([0.5, 1.5])
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "dual"
    assert sol.x == pytest.approx([0.5, 1.5], abs=1e-12)
    # the minimum-norm split of the equality multiplier 1.5 over the copies
    assert sol.y == pytest.approx([0.25, 0.25, -0.5], abs=1e-12)
    assert sol.z == pytest.approx([1.0], abs=1e-12)


def _joint_program(name):
    """The joint program of a bundled case or of a stored ladder fixture."""
    if name.startswith("ladder_"):
        net = load_case((DATA / f"{name}.json").read_text())
    else:
        net = load_bundled(name)
    return _CentralProblem(net).program


JOINT_FIXTURES = ["ladder_4x8_s0", "ladder_4x8_s4", "ladder_4x8_s6", "ladder_8x4_s2",
                  "ladder_8x4_s7", "ladder_24x2_s4"]


@pytest.mark.parametrize("name", ["toy2", "toy2-congested", "tri3", *JOINT_FIXTURES])
def test_dual_methods_point_keeps_its_active_rows(name):
    # tri3's joint program has nearly dependent adds (curvature down to
    # 5.8e-12 of |J'n|^2), after which one Gram-Schmidt pass leaves the step
    # far from orthogonal to the active rows.  The ladder fixtures' joint
    # programs (n + m_eq up to 89, and 24x2-s4's n of 132 with 391 steps and
    # 123 drops) drop rows often, and each drop updates the factors in place.
    # With the step budget solve gives it, the method must end optimal with
    # every active row within the feasibility tolerance, on the rows and in the
    # steps of a reference that refactors at every step
    program = _joint_program(name)
    me, mi = len(program.b_eq), len(program.h_ineq)
    budget = min(qpmod.DEFAULT_MAX_ITER, 2 * mi + me + 8)
    rows, x, _, _, steps, _ = qpmod._dual_active_set(program, budget)
    assert rows is not None
    slack = program.h_ineq[list(rows)] - program.g_ineq[list(rows)] @ x
    assert np.max(np.abs(slack), initial=0.0) <= program._feas_tol
    assert np.max(np.abs(program.a_eq @ x - program.b_eq)) <= program._feas_tol
    reference_rows, reference_x, reference_steps = dual_active_set_reference(
        program.q, program.c, program.a_eq, program.b_eq, program.g_ineq, program.h_ineq, budget)
    assert rows == reference_rows and steps == reference_steps
    assert np.max(np.abs(x - reference_x)) <= 1e-6
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "dual" and sol.iterations == steps


@pytest.mark.parametrize("name", JOINT_FIXTURES)
def test_a_drop_rotates_the_inverse_without_inverting(name, monkeypatch):
    # a drop updates R^-1 with the rotation that re-triangularizes R's
    # trailing block, inverting nothing.  The rotation of an upper Hessenberg
    # block is itself upper Hessenberg, with exact zeros below its
    # subdiagonal, so R^-1 times it keeps exact zeros below the diagonal,
    # which an add relies on when it writes only the new last column
    program = _joint_program(name)
    qr, rotations = np.linalg.qr, []

    def recording_qr(*args, **kwargs):
        rotation, block = qr(*args, **kwargs)
        rotations.append(rotation)
        return rotation, block

    def refused_inv(*args, **kwargs):
        raise AssertionError("a drop inverted a block")

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(np.linalg, "inv", refused_inv)
    rows, *_ = qpmod._dual_active_set(program, qpmod.DEFAULT_MAX_ITER)
    assert rows is not None
    assert rotations  # a drop that is not the last active row re-triangularizes
    assert all(not np.tril(rotation, -2).any() for rotation in rotations)


def test_dual_method_matches_the_refactoring_reference():
    # small random programs, with and without duplicate and opposite rows:
    # where the reference reaches an optimum, the method ends on its rows at
    # its point
    rng = np.random.default_rng(2026)
    compared = 0
    for draw in (_random_instance, _opposite_rows_instance) * 200:
        program = draw(rng)
        reference = dual_active_set_reference(program.q, program.c, program.a_eq, program.b_eq,
                                              program.g_ineq, program.h_ineq, 100)
        if reference is None:
            continue
        rows, x, *_ = qpmod._dual_active_set(program, 100)
        assert rows == reference[0] and np.max(np.abs(x - reference[1])) <= 1e-8
        compared += 1
    assert compared >= 300


def test_the_unconstrained_minimum_counts_as_a_step():
    # a tracer counts an optimal answer with 0 iterations as a hint hit; the
    # dual method's answer is cold even when its first point is optimal
    sol = solve(_qp([[2.0]], [0.0], g=[[1.0]], h=[1.0]))
    assert sol.path == "dual" and sol.iterations == 1


def test_max_iter_caps_the_cold_steps_but_not_a_hint():
    # max_iter = 1 allows only the unconstrained minimum, which violates the
    # bound; a hint that validates answers without the method
    program = _qp(np.eye(2), [-2.0, -2.0], g=[[1.0, 1.0]], h=[1.0])
    capped = solve(program, max_iter=1)
    assert capped.status == "iteration_limit" and capped.path == "failed"
    assert capped.iterations == 1 and capped.x == pytest.approx([2.0, 2.0])
    hinted = solve(program, max_iter=1, active_hint=(0,))
    assert hinted.status == "optimal" and hinted.path == "hint"
    _same_bits(hinted, solve(program))
    assert MechanismConfig().solver_max_iter == qpmod.DEFAULT_MAX_ITER


def test_a_walk_adds_a_row_violated_beyond_tol():
    # max|h| = 1000 puts the feasibility tolerance at about 1e-6, so the
    # unconstrained minimum x0 = 1 + 5e-7 violates x0 <= 1 by less than it
    # but by more than tol.  Validation allows tol only, so the walk from no
    # rows must add the row instead of giving up on a point it cannot accept
    program = _qp(np.eye(2), [-(1.0 + 5e-7), 0.0], g=[[1.0, 0.0], [0.0, 1.0]], h=[1.0, 1000.0])
    assert 5e-7 < program._feas_tol
    sol = solve(program, active_hint=())
    assert sol.status == "optimal" and sol.path == "hint"
    assert sol.x == pytest.approx([1.0, 0.0], abs=1e-15) and sol.active_set == (0,)
    _same_bits(solve(program), sol)


def test_dual_method_certifies_an_infeasible_program():
    # area A00's program in round 2 of generated network 8x4-s0: the dual
    # method stops on a row it can neither add nor make room for, and its
    # multipliers (1 on that row, -r on the active rows) are a certificate:
    # residual 1e-12 against a gap of 0.115
    program, _ = _captured("qp_8x4_s0_round2_a00.json")
    rows, x, _, _, steps, (y_stop, z_stop) = qpmod._dual_active_set(program, 100)
    assert rows is None
    assert qpmod._certifies_infeasible(program, y_stop, z_stop)
    sol = solve(program)
    assert sol.status == "infeasible" and sol.path == "failed"
    assert sol.iterations == steps and sol.x.tobytes() == x.tobytes()
    y, z = sol.certificate
    assert y.tobytes() == y_stop.tobytes() and z.tobytes() == z_stop.tobytes()
    assert np.min(z) >= 0.0 and max(np.max(np.abs(y)), np.max(np.abs(z))) == 1.0
    assert np.max(np.abs(program.g_ineq.T @ z - program.a_eq.T @ y)) <= 1e-10
    assert program.b_eq @ y - program.h_ineq @ z > 0.1


def test_a_stop_that_does_not_certify_steps_out_to_its_row():
    # x1 <= 0 and x1 + 1e-11 x2 >= 1e-7 hold for x2 >= 1e4: the second row is
    # independent of the first by less than the method's dependence test, and
    # the multipliers of a stop there leave a gap of 1e-7, below
    # CERTIFICATE_TOL.  Its normal keeps a part outside the active span, so
    # the method steps on, out to the row, and finds the optimum
    program = _qp(np.eye(2), [-1.0, 0.0], g=[[1.0, 0.0], [-1.0, -1e-11]], h=[0.0, -1e-7])
    rows, x, _, _, _, proof = qpmod._dual_active_set(program, 10)
    assert rows == (0, 1) and proof is None
    assert x == pytest.approx([0.0, 1e4], abs=1e-6)
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "dual"
    assert sol.x == pytest.approx([0.0, 1e4], abs=1e-6)


@pytest.mark.parametrize("bound", [2e-6, 1e-5, 1e-3])
def test_a_stop_is_no_verdict_at_the_methods_own_point(bound):
    # x1 <= 0 and x1 + 1e-11 x2 >= bound hold for x2 >= bound * 1e11, out to
    # 1e8.  A stop on the second row at x = 0 would leave a gap of ``bound``
    # against a residual of 1e-11: its multipliers rule out only the
    # solutions of 1-norm below bound * 1e11, inside CERTIFICATE_RADIUS, so
    # they prove nothing.  The method steps on to the optimum instead, whose
    # multipliers (bound * 1e22) are beyond the polish's precision; the
    # program may be left unanswered but is never called infeasible
    program = _qp(np.eye(2), [-1.0, 0.0], g=[[1.0, 0.0], [-1.0, -1e-11]], h=[0.0, -bound])
    rows, x, _, _, _, proof = qpmod._dual_active_set(program, 10)
    assert rows == (0, 1) and proof is None
    assert x == pytest.approx([0.0, bound * 1e11], rel=1e-12, abs=1e-12)
    sol = solve(program)
    assert sol.status != "infeasible"
    assert sol.x == pytest.approx([0.0, bound * 1e11], rel=1e-12, abs=1e-12)
