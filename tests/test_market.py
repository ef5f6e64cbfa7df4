import re
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from flexmarket import (ChanceConstrainedClearing, ClearingError, MechanismConfig, TermsOfTrade,
                        TieTerms, clear, evaluate_objective, load_bundled, load_case,
                        optimal_terms_of_trade, run, solve_centralized, trace_to_csv,
                        verify_fixed_point, verify_nash)
from flexmarket.benchmark import CentralizedInfeasible
from flexmarket.market import AreaProblem, _quotes, autarky_infeasibility
from flexmarket.qp import (DEFAULT_MAX_ITER, DEFAULT_TOL, QpDimensionError, QuadraticProgram,
                           solve)
from oracles import area_dual_rows

ZERO = TieTerms(0.0, 0.0, 0.0)


def _terms(**kw):
    return TermsOfTrade({tie: TieTerms(*vals) for tie, vals in kw.items()})


def test_assemble_toy2_structure(toy2):
    problem = AreaProblem(toy2, "A")
    program = problem.assemble(TermsOfTrade({"AB": ZERO}))
    assert program.n == 4  # 1 dP + split pair + 1 theta
    assert "slack" in program.eq_labels
    assert len(problem.ties) == 1


def test_assemble_counts_on_multibus_area():
    net = load_case({
        "areas": ["X", "Y"],
        "buses": [{"id": "X1", "area": "X"}, {"id": "X2", "area": "X"},
                  {"id": "X3", "area": "X"}, {"id": "Y1", "area": "Y"}],
        "generators": [
            {"id": "G1", "bus": "X1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 50.0, "ramp_down": -10.0,
             "ramp_up": 10.0, "p_da": 10.0},
            {"id": "G2", "bus": "X2", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 50.0, "ramp_down": -10.0,
             "ramp_up": 10.0, "p_da": 10.0},
            {"id": "GY", "bus": "Y1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 50.0, "ramp_down": -10.0,
             "ramp_up": 10.0, "p_da": 10.0},
        ],
        "lines": [
            {"id": "L1", "from_bus": "X1", "to_bus": "X2", "reactance": 0.1, "capacity": 20.0},
            {"id": "L2", "from_bus": "X2", "to_bus": "X3", "reactance": 0.1, "capacity": 20.0},
        ],
        "tie_lines": [{"id": "T", "from_area": "X", "from_bus": "X3", "to_area": "Y",
                       "to_bus": "Y1", "reactance": 0.2, "capacity": 30.0, "t_da": 0.0}],
        "demand": {"buses": {"X1": {"mean": 5.0}, "X3": {"mean": 5.0}, "Y1": {"mean": 5.0}}},
        "confidence": {"X": 0.5, "Y": 0.5},
    })
    program = AreaProblem(net, "X").assemble(TermsOfTrade({"T": ZERO}))
    assert program.n == 2 + 2 + 3  # dP per generator, split pair, theta per bus
    # nodal(3) + gen boxes(4) + ramps(4) + line sides(4) + aggregate + splits(2)
    assert len(program.h_ineq) == 3 + 4 + 4 + 4 + 1 + 2
    # one tie definition, plus the default global slack (first bus of area X)
    assert program.eq_labels == ("tie_def[T]", "slack")


def test_objective_reduces_to_generation_cost_when_terms_vanish(toy2):
    problem = AreaProblem(toy2, "B")
    program = problem.assemble(TermsOfTrade({"AB": ZERO}))
    tp, tm = program.var_labels.index("dT+[AB]"), program.var_labels.index("dT-[AB]")
    assert program.c[tp] == 0.0 and program.c[tm] == 0.0
    res = clear(toy2, "B", TermsOfTrade({"AB": ZERO}))
    assert res.objective == pytest.approx(res.generation_cost, abs=1e-12)


def _label_key(label: str) -> tuple[str, str]:
    """``("dT+", "AB")`` for the label ``"dT+[AB]"``."""
    name, key = label.removesuffix("]").split("[", 1)
    return name, key


@pytest.mark.parametrize("case", ["tri3", "ladder"])
def test_primal_and_extract_read_the_columns_their_labels_name(case, tri3):
    net = tri3 if case == "tri3" else load_case(
        (Path(__file__).parent / "data" / "ladder_4x8_s0.json").read_text())
    terms = optimal_terms_of_trade(net, solve_centralized(net))
    slack_held = 0
    for a in net.areas:
        problem = AreaProblem(net, a.id)
        assert problem.ties
        price, angle, mu = _quotes(problem.ties, terms[a.id])
        program = problem.assemble(terms[a.id])
        sol = problem._solve(price, angle, mu, DEFAULT_TOL, DEFAULT_MAX_ITER, None)
        res = problem._extract(sol, price, mu)
        decision = res.decision
        parts = {"dP": decision.delta_p, "theta": decision.theta,
                 "dT+": {t: max(d, 0.0) for t, d in decision.delta_t.items()},
                 "dT-": {t: max(-d, 0.0) for t, d in decision.delta_t.items()}}
        expected = [parts[name][key] for name, key in map(_label_key, program.var_labels)]
        assert problem._primal(decision).tobytes() == np.array(expected).tobytes()

        x, y = sol.x.tolist(), sol.y.tolist()
        columns = {_label_key(label): i for i, label in enumerate(program.var_labels)}
        assert decision.delta_p == {g: x[columns["dP", g]] for g in a.generator_ids}
        assert decision.theta == {b: x[columns["theta", b]] for b in a.bus_ids}
        eq = {label: i for i, label in enumerate(program.eq_labels)}
        assert res.duals.tie_def == {v.tie_id: y[eq[f"tie_def[{v.tie_id}]"]]
                                     for v in problem.ties}
        assert res.duals.slack_angle == (y[eq["slack"]] if "slack" in eq else None)
        slack_held += "slack" in eq
        z = sol.z.tolist()
        ineq = {label: i for i, label in enumerate(program.ineq_labels)}
        for field, name, keys in area_dual_rows(a):
            assert getattr(res.duals, field) == {k: z[ineq[f"{name}[{k}]"]] for k in keys}, field
        assert res.duals.reliability_price == z[ineq["aggregate"]]
    assert slack_held == 1


def test_missing_tie_terms_rejected(toy2):
    with pytest.raises(KeyError):
        clear(toy2, "B", TermsOfTrade({}))


def test_import_clears_at_marginal_cost(toy2):
    # partner quotes 8 USD/MWh: marginal cost 4 dP meets it at dP = 2, import 8
    res = clear(toy2, "B", _terms(AB=(8.0, 0.0, 0.0)))
    assert res.decision.delta_p["GB"] == pytest.approx(2.0, abs=1e-6)
    assert res.decision.delta_t["AB"] == pytest.approx(-8.0, abs=1e-6)
    assert res.willingness_to_pay["AB"] == pytest.approx(8.0, abs=1e-6)
    assert res.kkt_residual <= 1e-8


def test_high_capacity_price_chokes_trade(toy2, tri3):
    res = clear(toy2, "B", _terms(AB=(0.0, 0.0, 1000.0)))
    assert res.decision.delta_t["AB"] == pytest.approx(0.0, abs=1e-6)
    assert res.decision.delta_p["GB"] == pytest.approx(10.0, abs=1e-6)
    terms = TermsOfTrade({v.tie_id: TieTerms(0.0, 0.0, 1000.0) for v in tri3.tie_views("B")})
    res3 = clear(tri3, "B", terms)
    for dt in res3.decision.delta_t.values():
        assert dt == pytest.approx(0.0, abs=1e-6)


def test_neighbor_angle_shift_moves_forced_flow_exactly(toy2):
    # area A's only bus is the global slack, so the tie definition pins the flow
    base = clear(toy2, "A", _terms(AB=(8.0, -0.8, 0.0)))
    shifted = clear(toy2, "A", _terms(AB=(8.0, -0.8 + 0.05, 0.0)))
    assert shifted.decision.delta_t["AB"] - base.decision.delta_t["AB"] == \
        pytest.approx(-0.05 / 0.1, abs=1e-8)


def test_willingness_is_gamma_plus_boundary_nodal_price(tri3):
    terms = TermsOfTrade({v.tie_id: TieTerms(50.0, 0.0, 0.0) for v in tri3.tie_views("B")})
    res = clear(tri3, "B", terms)
    for tie_id, value in res.willingness_to_pay.items():
        assert value == res.duals.reliability_price + res.duals.nodal_price["B1"]


def test_degenerate_dual_split_leaves_quote_invariant(toy2):
    # single-bus importer at t=0.5: nodal and aggregate rows coincide, so the
    # alpha/gamma split is arbitrary but their sum must not be
    terms = _terms(AB=(8.0, 0.0, 0.0))
    program = AreaProblem(toy2, "B").assemble(terms)
    straight = solve(program)
    # re-solve with the inequality rows in reverse order
    perm = np.arange(len(program.h_ineq))[::-1]
    from flexmarket.qp import QuadraticProgram
    permuted = QuadraticProgram(program.q, program.c, program.a_eq, program.b_eq,
                                program.g_ineq[perm], program.h_ineq[perm],
                                program.var_labels, program.eq_labels,
                                tuple(program.ineq_labels[i] for i in perm))
    reordered = solve(permuted)
    # the individual rows may split differently; only the sum is meaningful
    labels = list(program.ineq_labels)
    plabels = list(permuted.ineq_labels)
    quote = straight.z[labels.index("nodal[B1]")] + straight.z[labels.index("aggregate")]
    quote_perm = reordered.z[plabels.index("nodal[B1]")] + reordered.z[plabels.index("aggregate")]
    assert quote == pytest.approx(quote_perm, abs=1e-6)


def test_nodal_reconstruction_residual(tri3):
    engine = ChanceConstrainedClearing(tri3)
    for area in tri3.areas:
        terms = TermsOfTrade({v.tie_id: TieTerms(40.0, -0.5, 0.0)
                              for v in tri3.tie_views(area.id)})
        res = engine.clear_area(area.id, terms)
        for bus_id in area.bus_ids:
            injection = 0.0
            for g in area.generator_ids:
                gen = tri3.generator(g)
                if gen.bus_id == bus_id:
                    injection += gen.p_da + res.decision.delta_p[g]
            for lid in area.line_ids:
                line = tri3.line(lid)
                if line.from_bus == bus_id:
                    injection -= (res.decision.theta[line.from_bus]
                                  - res.decision.theta[line.to_bus]) / line.reactance
                elif line.to_bus == bus_id:
                    injection -= (res.decision.theta[line.to_bus]
                                  - res.decision.theta[line.from_bus]) / line.reactance
            for v in tri3.tie_views(area.id):
                if v.own_bus == bus_id:
                    injection -= v.t_da + res.decision.delta_t[v.tie_id]
            assert injection >= tri3.bus(bus_id).mean_net_demand - 1e-6


def test_objective_equals_direct_evaluation(toy2):
    terms = _terms(AB=(8.0, 0.0, 4.0))
    res = clear(toy2, "B", terms)
    assert res.objective == evaluate_objective(toy2, "B", terms, res.decision)


def test_capacity_price_monotonically_shrinks_trade(toy2):
    previous = np.inf
    for mu in (0.0, 2.0, 5.0, 10.0, 20.0, 40.0):
        res = clear(toy2, "B", _terms(AB=(8.0, 0.0, mu)))
        magnitude = abs(res.decision.delta_t["AB"])
        assert magnitude <= previous + 1e-9
        previous = magnitude


def test_infeasible_area_is_tagged(toy2):
    # force an impossible export through the fixed neighbor angle
    with pytest.raises(ClearingError) as err:
        clear(toy2, "A", _terms(AB=(0.0, -1e4, 0.0)))
    assert err.value.area_id == "A"
    assert err.value.status == "infeasible"


def test_autarky_probe(toy2):
    assert autarky_infeasibility(toy2, "A") is None
    assert autarky_infeasibility(toy2, "B") is None


def test_a_negative_capacity_price_is_rejected():
    with pytest.raises(ValueError) as err:
        TieTerms(0.0, 0.0, -1.0)
    assert str(err.value) == "capacity price must be >= 0"


def test_autarky_probe_names_a_solver_that_gives_no_answer(toy2, monkeypatch):
    from flexmarket import qp

    real = qp.solve
    monkeypatch.setattr(qp, "solve", lambda *args, **kwargs: replace(
        real(*args, **kwargs), status="iteration_limit"))
    assert autarky_infeasibility(toy2, "A") == "solver iteration_limit"


def _islands(y_capacity: float):
    """Two one-bus areas whose only tie has zero capacity; Y meets its 10 MW
    of demand with up to ``y_capacity`` MW of its own."""
    return load_case({
        "areas": ["X", "Y"],
        "buses": [{"id": "X1", "area": "X"}, {"id": "Y1", "area": "Y"}],
        "generators": [
            {"id": "GX", "bus": "X1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 100.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
            {"id": "GY", "bus": "Y1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": y_capacity,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
        ],
        "tie_lines": [{"id": "XY", "from_area": "X", "from_bus": "X1", "to_area": "Y",
                       "to_bus": "Y1", "reactance": 0.1, "capacity": 0.0, "t_da": 0.0}],
        "demand": {"buses": {"X1": {"mean": 0.0}, "Y1": {"mean": 10.0}}},
        "confidence": {"X": 0.5, "Y": 0.5},
    })


def test_failures_name_the_solver_path_iterations_and_residual():
    # with 6 MW of its own, area Y can cover its 10 MW neither alone nor jointly
    net = _islands(6.0)
    assert autarky_infeasibility(net, "Y") is not None
    with pytest.raises(ClearingError) as area:
        clear(net, "Y", TermsOfTrade({}))
    with pytest.raises(CentralizedInfeasible) as central:
        solve_centralized(net)
    for err in (area.value, central.value):
        assert err.status == "infeasible"
        assert re.fullmatch(r"path failed, [1-9]\d* iterations, max KKT residual \S+",
                            err.detail), err.detail
        assert str(err).endswith(f"infeasible: {err.detail}")


def test_zero_capacity_tie_is_excluded():
    net = _islands(100.0)
    assert net.tie_views("Y") == ()
    res = AreaProblem(net, "Y").clear(TermsOfTrade({}))
    assert res.decision.delta_p["GY"] == pytest.approx(10.0, abs=1e-7)
    assert res.decision.delta_t == {}


def _sweep(net):
    """Programs of toy2-congested's area A over rounds of moving terms."""
    problem = AreaProblem(net, "A")
    for k in range(30):
        # the neighbor angle flips sign every three rounds, so the flow
        # adjustment changes direction and the binding set changes with it
        angle = 0.02 if k % 6 < 3 else -0.02
        yield problem.assemble(_terms(AB=(5.0 + k, angle, 0.5 * (k % 7))))


def test_rebound_program_solves_like_a_fresh_one(toy2_congested):
    hint, seen = None, set()
    for program in _sweep(toy2_congested):
        fresh = QuadraticProgram(program.q, program.c, program.a_eq, program.b_eq,
                                 program.g_ineq, program.h_ineq, program.var_labels,
                                 program.eq_labels, program.ineq_labels)
        rebound = solve(program, active_hint=hint)
        cold = solve(fresh, active_hint=hint)
        assert rebound.status == "optimal"
        for field in ("x", "y", "z"):
            assert np.array_equal(getattr(rebound, field), getattr(cold, field))
        assert rebound.active_set == cold.active_set
        hint = rebound.active_set
        seen.add(hint)
    assert len(seen) > 1
    with pytest.raises(QpDimensionError):
        program.rebind(program.c[:-1], program.b_eq)
    with pytest.raises(QpDimensionError):
        program.rebind(program.c, np.append(program.b_eq, 0.0))


def test_memo_keeps_one_factorization_and_reuses_it(toy2_congested, monkeypatch):
    # an active set is factored by one SVD of its constraint block, through the
    # factor of Q that the structure computes once, at construction
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in ("svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    hint, reused, refactored, factor = None, 0, 0, None
    for program in _sweep(toy2_congested):
        if factor is None:
            factor = program._l_inv_t
        assert program._l_inv_t is factor  # every rebind shares it
        calls.clear()
        sol = solve(program, active_hint=hint)
        assert "cholesky" not in calls
        # one active-set factorization, however many sets the solve visited
        assert set(program._memo) == {"active"}
        if hint is not None and sol.active_set == hint and sol.iterations == 0:
            assert not calls
            reused += 1
        elif hint is not None:
            refactored += "svd" in calls
        hint = sol.active_set
    assert reused >= 15 and refactored >= 1


def _as_bytes(result) -> tuple:
    """Every decision and dual of a clear, as the bytes of its values, and the
    result's repr."""
    parts = []
    for group in (result.decision, result.duals):
        for f in fields(group):
            value = getattr(group, f.name)
            values = list(value.values()) if isinstance(value, dict) else [value]
            parts.append(np.array(values, dtype=float).tobytes())
    return (*parts, repr(result))


def test_shared_problems_carry_no_caller_state():
    # the engine and both checks clear on the network's shared area problems;
    # a clear afterwards must not see their binding sets or factorizations.
    # Here a cold clear of A05 at the optimal terms stops elsewhere on its
    # optimal face than one seeded with the fixed-point check's binding rows.
    case = (Path(__file__).parent / "data" / "ladder_8x4_s2.json").read_text()
    net, fresh = load_case(case), load_case(case)
    result = run(net, MechanismConfig(max_rounds=3))
    central = solve_centralized(net)
    verify_fixed_point(net, central)
    verify_nash(net, result.state, result.clearings)
    terms = optimal_terms_of_trade(net, central)
    for a in net.areas:
        shared, own = (clear(n, a.id, terms[a.id]) for n in (net, fresh))
        assert _as_bytes(shared) == _as_bytes(own)


class _Turns:
    """Two mechanism runs that take turns, one round of clears each."""

    def __init__(self, clears_per_round: int):
        self.cond = threading.Condition()
        self.turn = 0
        self.done = [False, False]
        self.per_round = clears_per_round

    def pass_turn(self, me: int):
        with self.cond:
            if not self.done[1 - me]:
                self.turn = 1 - me
                self.cond.notify_all()

    def finish(self, me: int):
        with self.cond:
            self.done[me] = True
            self.turn = 1 - me
            self.cond.notify_all()


class _InTurn:
    """An engine that clears only in its run's turn."""

    def __init__(self, engine, turns: _Turns, me: int):
        self.engine, self.turns, self.me, self.clears = engine, turns, me, 0

    def clear_area(self, area_id, terms):
        turns = self.turns
        with turns.cond:
            assert turns.cond.wait_for(lambda: turns.turn == self.me, timeout=60)
        out = self.engine.clear_area(area_id, terms)
        self.clears += 1
        if self.clears % turns.per_round == 0:
            turns.pass_turn(self.me)
        return out


def test_engines_sharing_a_network_keep_their_own_hints():
    # two runs at different capacity-price steps, interleaved round by round on
    # one network's shared problems, each give the trace they give alone
    configs = (MechanismConfig(max_rounds=80), MechanismConfig(max_rounds=80, beta=0.5))
    alone = [trace_to_csv(run(load_bundled("toy2-congested"), cfg).trace) for cfg in configs]
    net = load_bundled("toy2-congested")
    turns = _Turns(len(net.areas))
    engines = [_InTurn(ChanceConstrainedClearing(net), turns, me) for me in (0, 1)]
    traces = [None, None]

    def run_in_turn(me):
        try:
            traces[me] = trace_to_csv(run(net, configs[me], engine=engines[me]).trace)
        finally:
            turns.finish(me)

    threads = [threading.Thread(target=run_in_turn, args=(i,)) for i in range(len(configs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert traces == alone
