import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flexmarket import (MechanismConfig, RhoSchedule, load_bundled, load_case,
                        optimal_terms_of_trade, run, solve_centralized, trace_to_csv)
from flexmarket import qp as qpmod
from flexmarket.benchmark import _CentralProblem
from flexmarket.coupling import MechanismError
from flexmarket.market import clear
from flexmarket.qp import (DEFAULT_TOL, QpDimensionError, QuadraticProgram, kkt_residuals,
                           solve)

from oracles import active_set_enumeration
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
            assert _bits(qpmod._residuals(qp, sol.x, sol.y, sol.z, slack).as_dict()) == ref
            assert _bits(kkt_residuals(qp, sol.x, sol.y, sol.z).as_dict()) == ref
            assert _bits(sol.residuals.as_dict()) == ref
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
    assert all(np.isnan(v) for v in res.as_dict().values())
    assert np.isnan(res.max())
    # the builtin max would skip a NaN that is not its first argument
    assert np.isnan(qpmod.KktResiduals(0.0, float("nan"), 1.0, 0.0).max())
    # a NaN cost reaches x on every path; none may call the point optimal
    for program in (qp, _qp(np.eye(2), [0.0, 0.0], g=[[1.0, 1.0]], h=[1.0])):
        bad = program.rebind([np.nan, 0.0], program.b_eq)
        for hint in (None, (), (0,)):
            assert solve(bad, active_hint=hint).status != "optimal"


def test_hint_first_keeps_inconsistent_equalities_certified():
    # x1 = 0 and x1 = 1 contradict; a hint is tried first now, so no walk from
    # it may validate, and the least-squares certificate must not change
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
    _check_against_the_oracle()


def test_interior_point_route_matches_the_oracle(monkeypatch):
    # the same programs with the dual method switched off
    monkeypatch.setattr(qpmod, "DUAL_ORDER", 0)
    _check_against_the_oracle()


def _check_against_the_oracle():
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


def _captured(name):
    """A program stored in ``tests/data`` as JSON with repr floats, and its stored fields."""
    data = json.loads((DATA / name).read_text())
    program = QuadraticProgram(*(np.asarray(data[key], float) for key in
                                 ("q", "c", "a_eq", "b_eq", "g_ineq", "h_ineq")),
                               *(tuple(data.get(key, ())) for key in
                                 ("var_labels", "eq_labels", "ineq_labels")))
    return program, data


LADDER_4X8 = DATA / "ladder_4x8_s0.json"


def test_refinement_overflow_stays_silent():
    # a cold interior-point clear of A03 meets a near-singular Newton system
    # whose refinement step goes non-finite; the solver retries with more
    # regularization instead of leaking a numpy warning
    net = load_case(LADDER_4X8.read_text())
    terms = optimal_terms_of_trade(net, solve_centralized(net))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = clear(net, "A03", terms["A03"])
    assert res.status == "optimal"


def test_refinement_overflow_on_the_captured_program_stays_silent():
    # the program of that clear's interior-point call, stored when the clear
    # still reached the overflow: the program a clear builds depends on the
    # solver's trajectory and on the BLAS thread count, the stored one does not
    program, data = _captured("qp_singular_rungs.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qpmod._mehrotra(program, data["tol"], data["max_iter"])
        assert solve(program).status == "optimal"


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


def test_corrector_skips_the_rungs_the_predictor_found_singular(monkeypatch):
    # the interior-point call of an area clear of ladder_4x8_s0 (the fixture's
    # origin): its predictors meet Newton matrices whose LU is singular at the
    # first regularization levels.  Singularity depends on the matrix alone,
    # and the corrector shares the predictor's matrix, so no regularized
    # matrix may be factored singular twice
    program, data = _captured("qp_singular_rungs.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert solve(program).status == "optimal"
    real_solve = np.linalg.solve
    singular, repeated = set(), []

    def counting_solve(matrix, rhs):
        try:
            return real_solve(matrix, rhs)
        except np.linalg.LinAlgError:
            key = matrix.tobytes()
            if key in singular:
                repeated.append(matrix.shape)
            singular.add(key)
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        qpmod._mehrotra(program, data["tol"], data["max_iter"])
    assert singular  # the iteration climbs the regularization ladder
    assert not repeated, f"{len(repeated)} singular factorizations repeated"


def _hinted_walks(full_budget=False):
    """80 rounds of ``LADDER_4X8`` with each hinted solve's polish walks recorded.

    Returns the trace CSV and, per hinted solve, ``(program, hint, walks)``:
    ``walks`` lists ``(row sets solved, result, start, crossover)`` of each
    ``_polish`` call on the solved program in order: the hint's walk, then, if
    the hint missed, the interior point's crossover walks (``crossover`` is
    True for a walk made while ``_mehrotra`` runs), the cold polish and, if
    that misses, the dual method's polishes.  ``full_budget`` gives the
    hint's walk the cold polish's ``2 * mi + 8`` row sets, as the walk had
    before it was capped.
    """
    net = load_case(LADDER_4X8.read_text())
    solve_qp, polish, solve_active = qpmod.solve, qpmod._polish, qpmod._solve_active
    mehrotra = qpmod._mehrotra
    hinted = []
    walks, rows = None, None  # the open hinted solve's walks, the open walk's row sets
    in_ipm, solving = False, None

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

    def recording_mehrotra(*args):
        nonlocal in_ipm
        in_ipm = True
        try:
            return mehrotra(*args)
        finally:
            in_ipm = False

    def recording_polish(program, active, tol, *budget):
        nonlocal rows
        if full_budget and walks == []:
            budget = (2 * len(program.h_ineq) + 8,)
        rows, start = [], tuple(sorted(active))
        try:
            result = polish(program, active, tol, *budget)
        finally:
            if walks is not None and program is solving:
                walks.append((rows, result, start, in_ipm))
            rows = None
        return result

    def recording_solve_active(program, active):
        if rows is not None:
            rows.append(tuple(active))
        return solve_active(program, active)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpmod, "solve", recording_solve)
        patch.setattr(qpmod, "_mehrotra", recording_mehrotra)
        patch.setattr(qpmod, "_polish", recording_polish)
        patch.setattr(qpmod, "_solve_active", recording_solve_active)
        result = run(net, MechanismConfig(max_rounds=80, tol=1e-300, beta=0.1,
                                          rho=RhoSchedule(1.0, 1.0, 0.6)))
    return trace_to_csv(result.trace), hinted


def _same_bits(mine, ref):
    assert mine.status == ref.status and mine.active_set == ref.active_set
    for a, b in ((mine.x, ref.x), (mine.y, ref.y), (mine.z, ref.z)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_hinted_walk_solves_at_most_n_plus_me_row_sets(monkeypatch):
    # n + me is the order of the Newton system one cold iteration factors; a
    # hint that has not settled within that many row sets is left to the cold
    # path, and no answer of this run may change for it.  The interior-point
    # route is forced, so that its crossover walks are checked too
    monkeypatch.setattr(qpmod, "DUAL_ORDER", 0)
    csv, hinted = _hinted_walks()
    sizes = [(len(walks[0][0]), program.n + len(program.b_eq)) for program, _, walks in hinted if walks]
    over = [(steps, limit) for steps, limit in sizes if steps > limit]
    assert sizes and not over, f"row sets solved vs n + me: {over}"
    crossings = 0
    for _, hint, walks in hinted:
        if not walks:
            continue
        # the hint is walked once, first, and no later walk starts from it;
        # each crossover walk starts from a row set not walked before in this
        # solve and solves at most CROSSOVER_BUDGET row sets; outside the
        # iteration the cold polish walks once, after every crossover walk,
        # and only if it misses do the last stage's two polishes follow
        assert walks[0][2] == tuple(sorted(hint)) and not walks[0][3]
        rest = [walk for walk in walks[1:] if not walk[3]]
        assert len(rest) <= 3 and all(a is b for a, b in zip(rest, walks[len(walks) - len(rest):]))
        assert len(rest) <= 1 or rest[0][1] is None
        starts = [walks[0][2]]
        for solved, _, start, crossover in walks[1:]:
            assert start != starts[0]
            if crossover:
                assert start not in starts and len(solved) <= qpmod.CROSSOVER_BUDGET
                starts.append(start)
                crossings += 1
    assert crossings  # missed hints reach the crossover
    assert any(walks[0][1] is None for _, _, walks in hinted if walks)  # some hints miss
    reference, _ = _hinted_walks(full_budget=True)
    assert csv == reference


def test_a_missed_hint_changes_nothing_but_time():
    # a hint whose walk misses gets the cold answer bit for bit
    _, hinted = _hinted_walks()
    missed = [(program, hint) for program, hint, walks in hinted if walks and walks[0][1] is None]
    assert missed
    for program, hint in missed:
        _same_bits(solve(program, active_hint=hint), solve(program))


LADDER_4X8_S4 = DATA / "ladder_4x8_s4.json"


def test_non_finite_newton_rhs_breaks_down_without_a_warning(monkeypatch):
    # an interior-point call of an area clear in the first 20 rounds of
    # ladder_4x8_s4 reached slacks so small that (-rc + z * r_g) / s overflows
    # (stored as the captured program below).  No regularization can make
    # that right-hand side's solution finite, so the iteration breaks down at
    # the first rung, no numpy warning leaks, and the mechanism runs on
    net = load_case(LADDER_4X8_S4.read_text())
    program, data = _captured("qp_non_finite_rhs.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run(net, MechanismConfig(max_rounds=20, tol=1e-300, beta=0.1,
                                          rho=RhoSchedule(1.0, 1.0, 0.6)))
        assert solve(program).status == "optimal"
    assert result.rounds == 20
    raised = []

    class RecordedBreakdown(qpmod._NumericalBreakdown):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    monkeypatch.setattr(qpmod, "_NumericalBreakdown", RecordedBreakdown)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        *_, converged, _ = qpmod._mehrotra(program, data["tol"], data["max_iter"])
    assert raised
    assert not converged


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


def _solve_bits_and_trace(net, config, crossover):
    """Raw bytes of every qp.solve result, the trace CSV or error, and the solve paths of one run."""
    results, paths = [], []
    solve_qp = qpmod.solve

    def recording_solve(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        results.append((sol.status, sol.active_set, sol.x.tobytes(), sol.y.tobytes(),
                        sol.z.tobytes()))
        paths.append(sol.path)
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpmod, "solve", recording_solve)
        if not crossover:
            patch.setattr(qpmod, "CROSSOVER_RESIDUAL", 0.0)
        try:
            trace = trace_to_csv(run(net, config).trace)
        except MechanismError as err:
            trace = f"{type(err).__name__}: {err}"
    return results, trace, paths


def test_crossover_changes_no_answer_in_four_runs(monkeypatch, network_12):
    # the crossover returns early, from the polish of an iterate's binding
    # set; in these four runs every answer and every trace must be the one the
    # full interior-point iteration and its polish give.  That is measured,
    # not guaranteed: where the full iteration fails, the crossover can answer
    # (test_crossover_answers_where_the_full_iteration_fails).  The
    # interior-point route is forced
    monkeypatch.setattr(qpmod, "DUAL_ORDER", 0)
    config = MechanismConfig(max_rounds=80, tol=1e-300, beta=0.1, rho=RhoSchedule(1.0, 1.0, 0.6))
    runs = [(load_case(path.read_text()), config) for path in (
        LADDER_4X8, LADDER_4X8_S4, Path(__file__).parent / "data" / "ladder_8x4_s2.json")]
    runs.append((network_12, MechanismConfig(max_rounds=150, tol=1e-8,
                                             rho=RhoSchedule(1.0, 1.0, 0.6))))
    crossed = 0
    for net, cfg in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results, trace, paths = _solve_bits_and_trace(net, cfg, crossover=True)
        reference, reference_trace, reference_paths = _solve_bits_and_trace(net, cfg, crossover=False)
        assert "crossover" not in reference_paths
        assert trace == reference_trace
        assert results == reference
        crossed += paths.count("crossover")
    assert crossed


def test_crossover_guard_rejects_a_degenerate_dual_vertex(monkeypatch, network_12):
    # the first cold program of network 12: an early binding set polishes to
    # a point that validates at the optimal x, but whose multipliers sit on
    # another vertex of a degenerate dual face.  Row 1 binds there with a zero
    # multiplier, so the answer is not strictly complementary and is refused.
    # The full iteration fails on this program, and the last stage, which has
    # no guard, returns the dual method's answer on that same vertex
    monkeypatch.setattr(qpmod, "DUAL_ORDER", 0)
    program = _cold_programs(network_12, 1)[0]
    polish, validated = qpmod._polish, []

    def recording_polish(walked, active, tol, budget):
        result = polish(walked, active, tol, budget)
        if budget == qpmod.CROSSOVER_BUDGET and result is not None:
            validated.append(result)
        return result

    monkeypatch.setattr(qpmod, "_polish", recording_polish)
    sol = solve(program)
    assert len(validated) == 1
    px, _, pz, _ = validated[0]
    assert tuple((pz > 0.0).nonzero()[0].tolist()) == (0, 3, 12, 14, 16, 18)
    assert program.binding_rows(px) == (0, 1, 3, 12, 14, 16, 18)
    assert sol.path == "dual"
    assert np.max(np.abs(px - sol.x)) < 1e-9
    assert np.max(np.abs(pz - sol.z)) < 1e-9
    monkeypatch.setattr(qpmod, "CROSSOVER_RESIDUAL", 0.0)
    _same_bits(sol, solve(program))


def test_solution_path_names_the_route(monkeypatch, network_12):
    one_bound = _qp([[2.0]], [0.0], g=[[-1.0]], h=[-1.0])
    dual = solve(one_bound)
    assert dual.path == "dual" and dual.iterations > 0
    # the interior-point routes, with the dual method switched off
    monkeypatch.setattr(qpmod, "DUAL_ORDER", 0)
    cold = solve(one_bound)
    assert cold.path == "crossover" and cold.iterations > 0
    _same_bits(dual, cold)
    hinted = solve(one_bound, active_hint=cold.active_set)
    assert hinted.path == "hint" and hinted.iterations == 0
    # no inequality rows: the iteration's own answer, with nothing to polish
    assert solve(_qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0]], b=[2.0])).path == "ipm"
    # contradictory bounds: every status but optimal
    assert solve(_qp([[2.0]], [0.0], g=[[1.0], [-1.0]], h=[-1.0, -1.0])).path == "failed"
    # the interior point ends where the guard refused the only early set, and
    # the last stage's dual method answers
    assert solve(_cold_programs(network_12, 1)[0]).path == "dual"
    monkeypatch.setattr(qpmod, "CROSSOVER_RESIDUAL", 0.0)
    polished = solve(one_bound)
    assert polished.path == "ipm+polish"
    _same_bits(polished, cold)


def test_crossover_answers_where_the_full_iteration_fails(monkeypatch):
    # the joint program of generated network 4x8 seed 6: the full iteration
    # stalls far from the optimum and its polish misses.  The binding set of
    # an early iterate is the strictly complementary optimum; without the
    # crossover, the last stage's dual method answers to the same residual
    net = load_case((Path(__file__).parent / "data" / "ladder_4x8_s6.json").read_text())
    solve_qp, paths = qpmod.solve, []

    def recording_solve(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        paths.append(sol.path)
        return sol

    monkeypatch.setattr(qpmod, "solve", recording_solve)
    crossed = solve_centralized(net)
    assert crossed.kkt_residual <= DEFAULT_TOL and paths == ["crossover"]
    monkeypatch.setattr(qpmod, "CROSSOVER_RESIDUAL", 0.0)
    last = solve_centralized(net)
    assert paths[1:] == ["dual"] and last.kkt_residual == pytest.approx(crossed.kkt_residual)


def test_the_last_stage_answers_a_joint_program_the_interior_point_cannot():
    # the joint program of generated network 8x4 seed 7: the interior point,
    # its crossover and its polish all fail, and the dual method answers
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
        kkt, pinv = qpmod._active_kkt(program, list(range(mi)))
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
        kkt, pinv = qpmod._active_kkt(program, list(range(len(program.h_ineq))))
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
    kkt, pinv = qpmod._active_kkt(program, [0, 1, 2])
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


def test_the_last_stage_certifies_an_infeasible_program(monkeypatch):
    # area A00's program in round 53 of generated network 24x2-s0 is
    # infeasible; HiGHS finds its least uniform relaxation of the inequality
    # rows t* = 0.042341554046.  Every route ends in the dual method's stop,
    # whose multipliers must verify as a certificate on the program itself
    program, _ = _captured("qp_24x2_s0_round53_a00.json")
    routes = [solve(program)]
    monkeypatch.setattr(qpmod, "DUAL_ORDER", 0)
    routes.append(solve(program))
    monkeypatch.setattr(qpmod, "CROSSOVER_RESIDUAL", 0.0)
    routes.append(solve(program))
    for sol in routes:
        assert sol.status == "infeasible"
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
    rows, x, _, z, _ = qpmod._dual_active_set(program, 10)
    assert rows == (0,) and x == pytest.approx([1.0]) and z == pytest.approx([2.0, 0.0])
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "dual" and sol.iterations > 0
    assert sol.z == pytest.approx([1.0, 1.0], abs=1e-12)
    assert sol.active_set == (0, 1)


def test_a_repeated_consistent_equality_is_skipped_not_called_infeasible():
    # x1 + x2 = 2 stated three times, once scaled by -2: the copies add no
    # primal step, and the method must skip them rather than stop on them
    program = _qp(np.eye(2), [0.0, 0.0], a=[[1.0, 1.0], [1.0, 1.0], [-2.0, -2.0]],
                  b=[2.0, 2.0, -4.0], g=[[1.0, 0.0]], h=[0.5])
    rows, x, _, _, _ = qpmod._dual_active_set(program, 20)
    assert rows == (0,) and x == pytest.approx([0.5, 1.5])
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "dual"
    assert sol.x == pytest.approx([0.5, 1.5], abs=1e-12)
    # the minimum-norm split of the equality multiplier 1.5 over the copies
    assert sol.y == pytest.approx([0.25, 0.25, -0.5], abs=1e-12)
    assert sol.z == pytest.approx([1.0], abs=1e-12)


@pytest.mark.parametrize("name", ["toy2", "toy2-congested", "tri3"])
def test_dual_methods_point_keeps_its_active_rows(name):
    # the bundled joint programs: tri3's has nearly dependent adds (curvature
    # down to 5.8e-12 of |J'n|^2), after which one Gram-Schmidt pass leaves
    # the step far from orthogonal to the active rows, and the point misses
    # them by up to 3.6e-3.  The second pass keeps every active row within
    # the feasibility tolerance
    program = _CentralProblem(load_bundled(name)).program
    rows, x, _, _, _ = qpmod._dual_active_set(program, 100)
    assert rows is not None
    slack = program.h_ineq[list(rows)] - program.g_ineq[list(rows)] @ x
    assert np.max(np.abs(slack), initial=0.0) <= program._feas_tol
    assert np.max(np.abs(program.a_eq @ x - program.b_eq)) <= program._feas_tol


def test_the_unconstrained_minimum_counts_as_a_step():
    # a tracer counts an optimal answer with 0 iterations as a hint hit; the
    # dual method's answer is cold even when its first point is optimal
    sol = solve(_qp([[2.0]], [0.0], g=[[1.0]], h=[1.0]))
    assert sol.path == "dual" and sol.iterations == 1


def test_dual_method_is_skipped_above_its_order(monkeypatch):
    # n + m_eq = 41 is above DUAL_ORDER: the interior point answers
    n = qpmod.DUAL_ORDER + 1
    program = _qp(np.eye(n), -np.ones(n), g=np.ones((1, n)), h=[1.0])
    sol = solve(program)
    assert sol.status == "optimal" and sol.path == "crossover"
    monkeypatch.setattr(qpmod, "DUAL_ORDER", n)
    dual = solve(program)
    assert dual.path == "dual"
    assert np.max(np.abs(dual.x - sol.x)) <= 1e-12


def test_dual_method_falls_back_on_a_degenerate_dual_face(monkeypatch, network_12):
    # the first cold program of network 12: the dual method's polished answer
    # binds a row with a zero multiplier, so stage 0 refuses it as the
    # crossover's guard would, and the interior point runs.  It fails, and the
    # last stage returns the refused answer without running the method again
    program = _cold_programs(network_12, 1)[0]
    assert program.n + len(program.b_eq) <= qpmod.DUAL_ORDER
    answer, certificate = qpmod._dual_stage(program, DEFAULT_TOL, 100, set())
    assert certificate is None and answer.path == "dual"
    assert not qpmod._strictly_complementary(program, answer.x, answer.z)
    method, runs = qpmod._dual_active_set, []

    def counting_method(*args):
        runs.append(args)
        return method(*args)

    monkeypatch.setattr(qpmod, "_dual_active_set", counting_method)
    _same_bits(solve(program), answer)
    assert len(runs) == 1


def test_dual_method_certifies_an_infeasible_program(monkeypatch):
    # area A00's program in round 2 of generated network 8x4-s0: the dual
    # method stops on a row it can neither add nor make room for, and its
    # multipliers (1 on that row, -r on the active rows) are a certificate:
    # residual 1e-12 against a gap of 0.115.  The interior point stops short
    # of a verdict, so the certificate decides on either route
    program, _ = _captured("qp_8x4_s0_round2_a00.json")
    rows, _, y_stop, z_stop, _ = qpmod._dual_active_set(program, 100)
    assert rows is None
    assert qpmod._dual_stage(program, DEFAULT_TOL, 100, set())[1] is not None
    assert qpmod._certifies_infeasible(program, y_stop, z_stop)
    for order in (qpmod.DUAL_ORDER, 0):
        monkeypatch.setattr(qpmod, "DUAL_ORDER", order)
        sol = solve(program)
        assert sol.status == "infeasible" and sol.path == "failed"
        y, z = sol.certificate
        assert y.tobytes() == y_stop.tobytes() and z.tobytes() == z_stop.tobytes()
        assert np.min(z) >= 0.0 and max(np.max(np.abs(y)), np.max(np.abs(z))) == 1.0
        assert np.max(np.abs(program.g_ineq.T @ z - program.a_eq.T @ y)) <= 1e-10
        assert program.b_eq @ y - program.h_ineq @ z > 0.1


def test_a_stop_that_does_not_certify_is_left_to_the_interior_point():
    # x1 <= 0 and x1 + 1e-11 x2 >= 1e-7 hold for x2 >= 1e4: the second row is
    # independent of the first by less than the method can tell, so it stops
    # there, but its multipliers leave a gap of 1e-7, below
    # CERTIFICATE_TOL, and the interior point finds the optimum
    program = _qp(np.eye(2), [-1.0, 0.0], g=[[1.0, 0.0], [-1.0, -1e-11]], h=[0.0, -1e-7])
    rows, x, y, z, _ = qpmod._dual_active_set(program, 10)
    assert rows is None and not qpmod._certifies_infeasible(program, y, z)
    sol = solve(program)
    assert sol.status == "optimal" and sol.path != "dual"
    assert sol.x == pytest.approx([0.0, 1e4], abs=1e-6)


@pytest.mark.parametrize("bound", [2e-6, 1e-5, 1e-3])
def test_a_stop_is_no_verdict_at_the_methods_own_point(monkeypatch, bound):
    # x1 <= 0 and x1 + 1e-11 x2 >= bound hold for x2 >= bound * 1e11, out to
    # 1e8.  The method stops on the second row at x = 0 with a gap of
    # ``bound`` against a residual of 1e-11: its multipliers rule out only the
    # solutions of 1-norm below bound * 1e11, inside CERTIFICATE_RADIUS, and
    # its point, of norm 0, bounds none.  So they prove nothing, and no route
    # may call the program infeasible
    program = _qp(np.eye(2), [-1.0, 0.0], g=[[1.0, 0.0], [-1.0, -1e-11]], h=[0.0, -bound])
    rows, x, y, z, _ = qpmod._dual_active_set(program, 10)
    assert rows is None and np.max(np.abs(x)) == 0.0
    assert not qpmod._certifies_infeasible(program, y, z)
    for order in (qpmod.DUAL_ORDER, 0):
        monkeypatch.setattr(qpmod, "DUAL_ORDER", order)
        assert solve(program).status != "infeasible"
