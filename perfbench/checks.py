"""Output checks computed apart from the program.

Every check here recomputes what it needs from the case data (the plain
fields of the ``Network``) instead of calling the package's own checkers, and
raises ``CheckFailed`` with a message naming the case and the quantity.
``scipy`` serves as an independent QP reference for the centralized
optimum; it is not a dependency of the package, so the benchmark imports it
only here.
"""
from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

FEAS_TOL = 1e-6  # MW; the solver certifies KKT residuals to 1e-8
PRICE_TOL = 1e-6  # USD/MWh, for marginal cost against nodal + reliability price
GAP_TOL = 1e-3  # relative objective gap, the CLI's default threshold
FLOW_TOL = 1e-2  # MW, the acceptance suite's flow-deviation threshold
REFERENCE_TOL = 1e-5  # relative, scipy reference against the centralized optimum


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def requirement(net, area) -> float:
    """Area-wide supply requirement: mean + z * std at confidence 1 - t."""
    buses = [net.bus(b) for b in area.bus_ids]
    mean = sum(b.mean_net_demand for b in buses)
    std = math.sqrt(sum(b.demand_std ** 2 for b in buses))
    return mean + NormalDist().inv_cdf(1.0 - area.confidence_tail) * std


def _output_bounds(gen) -> tuple[float, float]:
    return max(gen.p_min, gen.p_da + gen.ramp_down), min(gen.p_max, gen.p_da + gen.ramp_up)


def area_feasible(net, area_id: str, decision, where: str):
    """One area's own constraints at a decision, from the case data.

    Tie flows are taken as the area's own adjustment plus its day-ahead
    flow; capacity is priced, not imposed, so it is checked only where the
    caller asks (``tie_capacity``).
    """
    area = net.area(area_id)
    views = net.tie_views(area_id)
    for b in area.bus_ids:
        supply = sum(g.p_da + decision.delta_p[g.id] for g in net.generators if g.bus_id == b)
        for lid in area.line_ids:
            line = net.line(lid)
            flow = (decision.theta[line.from_bus] - decision.theta[line.to_bus]) / line.reactance
            if line.from_bus == b:
                supply -= flow
            elif line.to_bus == b:
                supply += flow
        supply -= sum(v.t_da + decision.delta_t[v.tie_id] for v in views if v.own_bus == b)
        require(supply >= net.bus(b).mean_net_demand - FEAS_TOL,
                f"{where}: nodal balance short at {b}: {supply} < {net.bus(b).mean_net_demand}")
    for gid in area.generator_ids:
        gen = net.generator(gid)
        lo, hi = _output_bounds(gen)
        p = gen.p_da + decision.delta_p[gid]
        require(lo - FEAS_TOL <= p <= hi + FEAS_TOL,
                f"{where}: generator {gid} output {p} outside [{lo}, {hi}]")
    for lid in area.line_ids:
        line = net.line(lid)
        flow = (decision.theta[line.from_bus] - decision.theta[line.to_bus]) / line.reactance
        require(abs(flow) <= line.capacity + FEAS_TOL,
                f"{where}: line {lid} flow {flow} over capacity {line.capacity}")
    total = sum(net.generator(g).p_da + decision.delta_p[g] for g in area.generator_ids)
    total -= sum(v.t_da + decision.delta_t[v.tie_id] for v in views)
    require(total >= requirement(net, area) - FEAS_TOL,
            f"{where}: area {area_id} supply {total} below requirement {requirement(net, area)}")


def tie_capacity(net, decisions: dict, where: str):
    """Both sides agree on every tie flow and it is within capacity."""
    for t in net.active_ties():
        flow_from = t.t_da + decisions[t.from_area].delta_t[t.id]
        flow_to = -t.t_da + decisions[t.to_area].delta_t[t.id]
        require(abs(flow_from + flow_to) <= FEAS_TOL * 1e3,
                f"{where}: tie {t.id} sides disagree: {flow_from} vs {-flow_to}")
        require(abs(flow_from) <= t.capacity + FEAS_TOL * 1e3,
                f"{where}: tie {t.id} flow {flow_from} over capacity {t.capacity}")


def marginal_prices(net, area_id: str, clearing, where: str):
    """At a generator strictly inside its bounds, marginal cost equals the
    nodal price at its bus plus the area's reliability price."""
    duals = clearing.duals
    for gid in net.area(area_id).generator_ids:
        gen = net.generator(gid)
        lo, hi = _output_bounds(gen)
        p = gen.p_da + clearing.decision.delta_p[gid]
        if not (lo + 1e-5 < p < hi - 1e-5):
            continue
        price = duals.nodal_price[gen.bus_id] + duals.reliability_price
        mc = gen.marginal_cost(p)
        require(abs(mc - price) <= PRICE_TOL * (1.0 + abs(mc)),
                f"{where}: generator {gid} marginal cost {mc} != nodal + reliability price {price}")


def generation_cost(net, decisions: dict) -> float:
    return sum(net.generator(g).cost(net.generator(g).p_da + dp)
               for d in decisions.values() for g, dp in d.delta_p.items())


def central_flows(net, decisions: dict) -> dict[str, float]:
    return {t.id: t.t_da + decisions[t.from_area].delta_t[t.id] for t in net.active_ties()}


def matches_central(net, decisions: dict, central, where: str):
    """Objective gap and tie-flow deviation against the centralized optimum,
    both recomputed from the decisions and the case data."""
    v_star = generation_cost(net, central.decisions)
    gap = abs(generation_cost(net, decisions) - v_star) / (1.0 + abs(v_star))
    require(gap <= GAP_TOL, f"{where}: objective gap {gap} > {GAP_TOL}")
    ref = central_flows(net, central.decisions)
    dev = max((abs(f - ref[t]) for t, f in central_flows(net, decisions).items()), default=0.0)
    require(dev <= FLOW_TOL, f"{where}: flow deviation {dev} MW > {FLOW_TOL}")


def report_passes(report: dict, where: str):
    require(report["checks"]["kkt"], f"{where}: KKT equivalence check failed")
    require(report["checks"]["nash"], f"{where}: Nash check failed")


def two_area_closed_form(net, decisions: dict, where: str):
    """Two single-bus areas, one tie, no binding box or ramp limit: marginal
    costs equalize, unless the tie caps the flow from the cheap side.

    With costs a P^2 + b P the common marginal cost is
    lambda = (D + sum b/2a) / sum 1/2a, and each output is (lambda - b) / 2a.
    """
    (ga, gb), (tie,) = [net.generator(a.generator_ids[0]) for a in net.areas], net.active_ties()
    da, db = (requirement(net, a) for a in net.areas)
    slope_a, slope_b = 2 * ga.cost_quadratic, 2 * gb.cost_quadratic
    lam = (da + db + ga.cost_linear / slope_a + gb.cost_linear / slope_b) / (1 / slope_a + 1 / slope_b)
    pa = (lam - ga.cost_linear) / slope_a
    flow = max(-tie.capacity, min(tie.capacity, pa - da))  # out of the first area
    expected = {ga.id: da + flow, gb.id: db - flow}
    for d in decisions.values():
        for g, dp in d.delta_p.items():
            p = net.generator(g).p_da + dp
            require(abs(p - expected[g]) <= 1e-3,
                    f"{where}: {g} output {p} != closed form {expected[g]}")


def reference_objective(net) -> float:
    """The centralized clearing solved by scipy's SLSQP, written from the
    case data: outputs and bus angles as variables, tie flows as angle
    differences over reactance."""
    from scipy.optimize import minimize

    gens = list(net.generators)
    buses = [b.id for b in net.buses]
    col = {b: len(gens) + i for i, b in enumerate(buses)}
    n = len(gens) + len(buses)

    def flow_row(frm, to, reactance):
        row = np.zeros(n)
        row[col[frm]] += 1.0 / reactance
        row[col[to]] -= 1.0 / reactance
        return row

    rows, rhs = [], []  # rows @ x >= rhs
    lines = {l.id: flow_row(l.from_bus, l.to_bus, l.reactance) for l in net.lines}
    ties = {t.id: flow_row(t.from_bus, t.to_bus, t.reactance) for t in net.active_ties()}
    for b in net.buses:
        row = np.zeros(n)
        for i, g in enumerate(gens):
            if g.bus_id == b.id:
                row[i] = 1.0
        for l in net.lines:
            if l.from_bus == b.id:
                row -= lines[l.id]
            elif l.to_bus == b.id:
                row += lines[l.id]
        for t in net.active_ties():
            if t.from_bus == b.id:
                row -= ties[t.id]
            elif t.to_bus == b.id:
                row += ties[t.id]
        rows.append(row)
        rhs.append(b.mean_net_demand)
    for a in net.areas:
        row = np.zeros(n)
        for i, g in enumerate(gens):
            if g.id in a.generator_ids:
                row[i] = 1.0
        for t in net.active_ties():
            if t.from_area == a.id:
                row -= ties[t.id]
            elif t.to_area == a.id:
                row += ties[t.id]
        rows.append(row)
        rhs.append(requirement(net, a))
    for cap, row in [(net.line(k).capacity, r) for k, r in lines.items()] + \
            [(net.tie(k).capacity, r) for k, r in ties.items()]:
        rows += [-row, row]
        rhs += [-cap, -cap]
    g_mat, h = np.array(rows), np.array(rhs)
    scale = np.max(np.abs(g_mat), axis=1)  # unit rows: SLSQP's line search needs them
    g_mat, h = g_mat / scale[:, None], h / scale
    quad = np.array([g.cost_quadratic for g in gens])
    lin = np.array([g.cost_linear for g in gens])
    const = sum(g.cost_constant for g in gens)
    slack = np.zeros(n)
    slack[col[net.slack[1]]] = 1.0

    def cost(x):
        p = x[:len(gens)]
        return float(quad @ (p * p) + lin @ p + const)

    x0 = np.array([g.p_da for g in gens] + [0.0] * len(buses))
    unit = 1.0 + abs(cost(x0))  # SLSQP's tolerance is absolute: solve on a unit scale

    def objective(x):
        return cost(x) / unit

    def gradient(x):
        out = np.zeros(n)
        out[:len(gens)] = (2.0 * quad * x[:len(gens)] + lin) / unit
        return out

    bounds = [_output_bounds(g) for g in gens] + [(None, None)] * len(buses)
    res = minimize(objective, x0, jac=gradient, method="SLSQP", bounds=bounds,
                   constraints=[{"type": "ineq", "fun": lambda x: g_mat @ x - h,
                                 "jac": lambda x: g_mat},
                                {"type": "eq", "fun": lambda x: slack @ x,
                                 "jac": lambda x: slack[None, :]}],
                   options={"ftol": 1e-12, "maxiter": 1000})
    require(res.success, f"scipy reference did not converge: {res.message}")
    require(float(np.min(g_mat @ res.x - h)) >= -FEAS_TOL, "scipy reference is infeasible")
    return cost(res.x)


def central_reference(net, central, reference: float, where: str):
    """The centralized optimum is feasible and matches the scipy reference."""
    for a in net.areas:
        area_feasible(net, a.id, central.decisions[a.id], f"{where} centralized")
    tie_capacity(net, central.decisions, f"{where} centralized")
    v_star = generation_cost(net, central.decisions)
    require(abs(v_star - reference) <= REFERENCE_TOL * (1.0 + abs(reference)),
            f"{where}: centralized objective {v_star} != scipy reference {reference}")
