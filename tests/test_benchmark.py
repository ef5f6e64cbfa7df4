import json
from dataclasses import replace

import pytest

from flexmarket import (MechanismConfig, TermsOfTrade, aggregate_requirement,
                        check_limit_feasibility, efficiency_gap, load_case,
                        optimal_terms_of_trade, run, save_case, solve_centralized,
                        verify_fixed_point, verify_kkt_equivalence)
from flexmarket.market import clear


def test_toy2_centralized_hand_kkt(toy2_central):
    # equalize marginal costs: dP1 = 4 dP2, dP1 + dP2 = 10 -> (8, 2), V = 40
    sol = toy2_central
    assert sol.decisions["A"].delta_p["GA"] == pytest.approx(8.0, abs=1e-6)
    assert sol.decisions["B"].delta_p["GB"] == pytest.approx(2.0, abs=1e-6)
    assert sol.tie_flows["AB"] == pytest.approx(8.0, abs=1e-6)
    assert sol.objective == pytest.approx(40.0, abs=1e-6)
    pair = sol.tie_capacity["AB"]
    assert pair.lower == pytest.approx(0.0, abs=1e-8)
    assert pair.upper == pytest.approx(0.0, abs=1e-8)


def test_congested_toy2_centralized_hand_kkt(toy2_congested_central):
    # binding 5 MW cap: dP = (5, 5), nodal price gap 4*5 - 1*5 = 15
    sol = toy2_congested_central
    assert sol.tie_flows["AB"] == pytest.approx(5.0, abs=1e-6)
    assert sol.decisions["A"].delta_p["GA"] == pytest.approx(5.0, abs=1e-6)
    assert sol.decisions["B"].delta_p["GB"] == pytest.approx(5.0, abs=1e-6)
    assert sol.objective == pytest.approx(62.5, abs=1e-6)
    price_a = sol.duals["A"].reliability_price + sol.duals["A"].nodal_price["A1"]
    price_b = sol.duals["B"].reliability_price + sol.duals["B"].nodal_price["B1"]
    assert price_b - price_a == pytest.approx(15.0, abs=1e-6)
    pair = sol.tie_capacity["AB"]
    assert pair.upper - pair.lower == pytest.approx(15.0, abs=1e-6)


def test_zero_demand_network_keeps_day_ahead_dispatch(toy2):
    doc = json.loads(save_case(toy2))
    doc["demand"]["buses"]["B1"]["mean"] = 0.0
    net = load_case(doc)
    sol = solve_centralized(net)
    for area_id, dec in sol.decisions.items():
        for dp in dec.delta_p.values():
            assert dp == pytest.approx(0.0, abs=1e-7)
    assert sol.tie_flows["AB"] == pytest.approx(0.0, abs=1e-7)
    total_da_cost = sum(net.generator(g.id).cost(g.p_da) for g in net.generators)
    assert sol.objective == pytest.approx(total_da_cost, abs=1e-7)


def test_anti_symmetry_by_construction(toy2, toy2_central, tri3, tri3_central):
    # the two orientations share the same angles, so their flows must cancel
    for net, sol in ((toy2, toy2_central), (tri3, tri3_central)):
        for t in net.active_ties():
            flow_from = t.t_da + sol.decisions[t.from_area].delta_t[t.id]
            flow_to = -t.t_da + sol.decisions[t.to_area].delta_t[t.id]
            assert flow_from + flow_to == pytest.approx(0.0, abs=1e-9)


def test_capacity_complementary_slackness(toy2_congested, toy2_congested_central, tri3, tri3_central):
    for net, sol in ((toy2_congested, toy2_congested_central), (tri3, tri3_central)):
        for t in net.active_ties():
            pair = sol.tie_capacity[t.id]
            flow = sol.tie_flows[t.id]
            assert pair.lower * (flow + t.capacity) <= 1e-6
            assert pair.upper * (t.capacity - flow) <= 1e-6


def test_higher_demand_uncertainty_raises_reliability_prices(tri3, tri3_central):
    from flexmarket import ScenarioModifiers, apply_scenario
    riskier = apply_scenario(tri3, ScenarioModifiers(demand_cov_override=0.12))
    sol = solve_centralized(riskier)
    assert sol.objective > tri3_central.objective
    for area_id in ("B", "C"):
        assert sol.duals[area_id].reliability_price > \
            tri3_central.duals[area_id].reliability_price


def test_objective_invariant_under_area_relabeling(tri3, tri3_central):
    doc = json.loads(save_case(tri3))
    doc["areas"] = ["C", "B", "A"]
    doc["buses"] = doc["buses"][::-1]
    permuted = load_case(doc)
    sol = solve_centralized(permuted)
    assert sol.objective == pytest.approx(tri3_central.objective, abs=1e-6)
    assert sol.tie_flows["AB1"] == pytest.approx(tri3_central.tie_flows["AB1"], abs=1e-6)


def test_optimal_terms_uncongested_mu_is_zero(toy2, toy2_central):
    terms = optimal_terms_of_trade(toy2, toy2_central)
    assert terms["A"].for_tie("AB").capacity_price == 0.0
    assert terms["B"].for_tie("AB").capacity_price == 0.0


def test_optimal_terms_congested_mu_matches_price_gap(toy2_congested, toy2_congested_central):
    terms = optimal_terms_of_trade(toy2_congested, toy2_congested_central)
    assert terms["A"].for_tie("AB").capacity_price / 2 == pytest.approx(15.0, abs=1e-6)


def test_optimal_terms_price_formula(tri3, tri3_central):
    terms = optimal_terms_of_trade(tri3, tri3_central)
    duals_b = tri3_central.duals["B"]
    # single-bus neighbor: quoted price is its reliability price plus its
    # (only) nodal price; the angle is its optimal one
    for view in tri3.tie_views("A"):
        if view.neighbor_area == "B":
            quoted = terms["A"].for_tie(view.tie_id)
            assert quoted.price == pytest.approx(
                duals_b.reliability_price + duals_b.nodal_price["B1"], abs=1e-9)
            assert quoted.neighbor_angle == tri3_central.decisions["B"].theta["B1"]


def test_fixed_point_on_bundled_cases(toy2, toy2_central, toy2_congested,
                                      toy2_congested_central, tri3, tri3_central):
    for net, sol in ((toy2, toy2_central), (toy2_congested, toy2_congested_central),
                     (tri3, tri3_central)):
        report = verify_fixed_point(net, sol)
        assert report.max_deviation <= 1e-4, report.deviations


def test_fixed_point_breaks_under_price_perturbation(toy2, toy2_central):
    # area B re-optimizes against prices (its angle is free, unlike the
    # slack-pinned area A), so a 1 USD/MWh bump moves its import decision
    terms = optimal_terms_of_trade(toy2, toy2_central)
    bumped = TermsOfTrade({"AB": replace(terms["B"].for_tie("AB"),
                                         price=terms["B"].for_tie("AB").price + 1.0)})
    res = clear(toy2, "B", bumped)
    deviation = abs(res.decision.delta_t["AB"] - toy2_central.decisions["B"].delta_t["AB"])
    assert deviation > 0.1


def test_limit_feasibility_on_converged_runs(toy2_congested, toy2_congested_run,
                                             toy2, toy2_run):
    result, _ = toy2_congested_run
    report = check_limit_feasibility(toy2_congested, result.state, result.clearings)
    assert report.max() <= 1e-3
    assert report.tie_capacity <= 1e-3
    # uncongested case sits strictly inside the capacity bound
    result2, _ = toy2_run
    report2 = check_limit_feasibility(toy2, result2.state, result2.clearings)
    assert report2.tie_capacity == 0.0
    flow = result2.trace[-1].ties["AB"].flow_from
    assert abs(flow) < toy2.tie("AB").capacity - 1.0


def test_early_iterate_may_overshoot_capacity(toy2_congested):
    # capacity is enforced by prices, not hard-coded: the first rounds exceed
    # it and the report flags that without raising
    result = run(toy2_congested, MechanismConfig(max_rounds=3, tol=1e-12))
    report = check_limit_feasibility(toy2_congested, result.state, result.clearings)
    assert report.tie_capacity > 1e-3
    assert any("tie_capacity" in flag for flag in report.flags)


def test_limit_feasibility_sees_to_side_capacity_overshoot(toy2_congested,
                                                          toy2_congested_run):
    # the joint program bounds capacity on the stored orientation only; the
    # limit check must still test the to-side view of the flow
    result, _ = toy2_congested_run
    b = result.clearings["B"]
    moved = replace(b, decision=replace(b.decision, delta_t={**b.decision.delta_t, "AB": -6.0}))
    report = check_limit_feasibility(toy2_congested, result.state,
                                     {**result.clearings, "B": moved})
    assert report.tie_capacity == 1.0
    assert any(flag.startswith("tie_capacity[AB:B]") for flag in report.flags)


def _b1_surplus(net, dec):
    """Supply left at tri3's single-bus area B after its tie exports."""
    supply = sum(net.generator(g).p_da + dec.delta_p[g] for g in net.area("B").generator_ids)
    return supply - sum(v.t_da + dec.delta_t[v.tie_id] for v in net.tie_views("B"))


# (report field, flagged row, area, decision field, key, moved value): each
# moves one quantity of tri3's limit 2 past the bound the row states
FEASIBILITY_INJECTIONS = [
    ("nodal", "nodal[B1]", "B", "delta_p", "GB1",
     lambda net, dec: dec.delta_p["GB1"] + net.bus("B1").mean_net_demand
     - _b1_surplus(net, dec) - 2.0),
    ("generator_box", "gen_hi[GB1]", "B", "delta_p", "GB1",
     lambda net, dec: net.generator("GB1").p_max - net.generator("GB1").p_da + 2.0),
    ("ramp_box", "ramp_lo[GB1]", "B", "delta_p", "GB1",
     lambda net, dec: net.generator("GB1").ramp_down - 2.0),
    ("internal_line", "line_hi[LA]", "A", "theta", "A2",
     lambda net, dec: dec.theta["A1"] - (net.line("LA").capacity + 2.0)
     * net.line("LA").reactance),
    ("aggregate", "aggregate[B]", "B", "delta_p", "GB1",
     lambda net, dec: dec.delta_p["GB1"] + aggregate_requirement(net, "B").requirement
     - _b1_surplus(net, dec) - 2.0),
    ("tie_definition", "tie_def[BC1:B]", "B", "delta_t", "BC1",
     lambda net, dec: dec.delta_t["BC1"] + 2.0),
]


@pytest.mark.parametrize("field, label, area, quantity, key, moved", FEASIBILITY_INJECTIONS,
                         ids=[case[0] for case in FEASIBILITY_INJECTIONS])
def test_limit_feasibility_reports_each_row_group(tri3, tri3_run, field, label, area,
                                                   quantity, key, moved):
    result, _ = tri3_run
    res = result.clearings[area]
    values = {**getattr(res.decision, quantity), key: moved(tri3, res.decision)}
    clearings = {**result.clearings,
                 area: replace(res, decision=replace(res.decision, **{quantity: values}))}
    report = check_limit_feasibility(tri3, result.state, clearings)
    # the limit itself is off consensus by up to 1e-7, which may offset the 2
    assert getattr(report, field) >= 2.0 - 1e-6
    assert any(flag.startswith(f"{label}: ") for flag in report.flags), report.flags


def test_kkt_equivalence_on_bundled_cases(toy2, toy2_run, toy2_central,
                                          toy2_congested, toy2_congested_run,
                                          toy2_congested_central, tri3, tri3_run, tri3_central):
    for net, (result, _), central in ((toy2, toy2_run, toy2_central),
                                      (toy2_congested, toy2_congested_run, toy2_congested_central),
                                      (tri3, tri3_run, tri3_central)):
        report = verify_kkt_equivalence(net, result.state, result.clearings, central)
        assert report.passed
        assert report.residuals.dual_stationarity <= 1e-3
        assert report.objective_gap <= 1e-3


def test_kkt_equivalence_constructs_congestion_duals(toy2_congested, toy2_congested_run,
                                                     toy2_congested_central):
    result, _ = toy2_congested_run
    report = verify_kkt_equivalence(toy2_congested, result.state, result.clearings,
                                    toy2_congested_central)
    # positive flow at the cap: the whole limiting price lands on the upper bound
    assert report.constructed_upper["AB"] == pytest.approx(15.0, abs=0.1)
    assert report.constructed_lower["AB"] == 0.0


def test_kkt_equivalence_zero_trade(tri3):
    from flexmarket import ScenarioModifiers, apply_scenario
    dead = apply_scenario(tri3, ScenarioModifiers(
        tie_capacity_overrides={t.id: 0.0 for t in tri3.tie_lines}))
    result = run(dead, MechanismConfig(max_rounds=30, tol=1e-11))
    central = solve_centralized(dead)
    report = verify_kkt_equivalence(dead, result.state, result.clearings, central)
    assert report.passed
    assert report.constructed_upper == {} and report.constructed_lower == {}


def test_efficiency_gap_small_on_bundled_cases(toy2, toy2_run, toy2_central,
                                               tri3, tri3_run, tri3_central):
    for net, (result, _), central in ((toy2, toy2_run, toy2_central),
                                      (tri3, tri3_run, tri3_central)):
        gap = efficiency_gap(net, result.clearings, central)
        assert gap.objective_gap <= 1e-3
        assert gap.flow_deviation <= 1e-2


def test_comparison_report_shape(toy2, toy2_run, toy2_central):
    from flexmarket import comparison_report
    result, _ = toy2_run
    report = comparison_report(toy2, result.state, result.clearings, toy2_central)
    assert set(report) == {"objective_gap", "flow_deviation", "kkt_residuals",
                           "feasibility_residuals", "nash_gaps", "checks"}
    assert set(report["kkt_residuals"]) == {"primal_eq", "primal_ineq",
                                            "dual_stationarity", "complementarity"}
    assert report["checks"]["kkt"] and report["checks"]["nash"]
    json.dumps(report)  # serializable as-is


def test_efficiency_gap_zero_against_itself(toy2, toy2_central, toy2_run):
    result, _ = toy2_run
    # replace the limit by the centralized solution itself
    fake = {}
    for area_id, res in result.clearings.items():
        dec = toy2_central.decisions[area_id]
        cost = sum(toy2.generator(g).cost(toy2.generator(g).p_da + dp)
                   for g, dp in dec.delta_p.items())
        fake[area_id] = replace(res, decision=dec, generation_cost=cost)
    gap = efficiency_gap(toy2, fake, toy2_central)
    assert gap.objective_gap == pytest.approx(0.0, abs=1e-12)
    assert gap.flow_deviation == pytest.approx(0.0, abs=1e-12)
