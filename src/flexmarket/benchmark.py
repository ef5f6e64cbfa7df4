"""Centralized omniscient clearing and equivalence checks.

A single operator with full knowledge minimizes total generation cost over
all areas at once, subject to every area's constraints plus explicit tie-line
capacity bounds.  Each physical tie is modeled with one directed flow
variable per endpoint area, linked through the shared angles (so the two
orientations are anti-symmetric by construction); the capacity bound is
imposed once, on the stored orientation, which keeps its shadow price unique
and equal to the full congestion rent.

From the centralized primal-dual solution one can read off the terms of
trade that make every area's own clearing reproduce the benchmark, and
conversely a converged mechanism limit can be certified against the
centralized KKT system.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import qp as qpmod
from .coupling import CouplingState
from .grid import Network
from .market import (REGULARIZATION, AreaDecision, AreaDuals, ClearingResult, Rows,
                     TermsOfTrade, TieTerms, add_area_rows, clear as clear_area_fn)
from .stochastic import aggregate_requirement

SIGN_TOL = 1e-9


def _sign(v: float) -> float:
    if v > SIGN_TOL:
        return 1.0
    if v < -SIGN_TOL:
        return -1.0
    return 0.0


class CentralizedInfeasible(RuntimeError):
    pass


@dataclass(frozen=True)
class CapacityDuals:
    lower: float  # multiplier of -(t_da + dT) <= capacity, stored orientation
    upper: float  # multiplier of  (t_da + dT) <= capacity


@dataclass(frozen=True)
class CentralSolution:
    decisions: dict[str, AreaDecision]
    duals: dict[str, AreaDuals]
    tie_capacity: dict[str, CapacityDuals]  # keyed by tie id, stored orientation
    tie_flows: dict[str, float]  # t_da + dT on the stored orientation
    objective: float  # total generation cost at the optimum
    slack_dual: float
    kkt_residual: float


class _CentralProblem:
    """Joint clearing QP: the areas' shared rows side by side, coupled by the ties."""

    def __init__(self, net: Network):
        self.net = net
        gens = [g for a in net.areas for g in a.generator_ids]
        views = {a.id: net.tie_views(a.id) for a in net.areas}
        buses = [b for a in net.areas for b in a.bus_ids]

        self.var_dp = {}
        self.var_dt = {}
        self.var_theta = {}
        labels = []
        for g in gens:
            self.var_dp[g] = len(labels)
            labels.append(f"dP[{g}]")
        for a in net.areas:
            for v in views[a.id]:
                self.var_dt[(v.tie_id, a.id)] = len(labels)
                labels.append(f"dT[{v.tie_id}:{a.id}]")
        for b in buses:
            self.var_theta[b] = len(labels)
            labels.append(f"theta[{b}]")
        nv = len(labels)

        q = np.zeros((nv, nv))
        c = np.zeros(nv)
        for g in gens:
            gen = net.generator(g)
            q[self.var_dp[g], self.var_dp[g]] = 2.0 * gen.cost_quadratic
            c[self.var_dp[g]] = gen.cost_linear + 2.0 * gen.cost_quadratic * gen.p_da
        for i in list(self.var_dt.values()) + list(self.var_theta.values()):
            q[i, i] = REGULARIZATION

        eq = Rows(nv)
        self.eq_tie_def = {}
        for a in net.areas:
            for v in views[a.id]:
                row = np.zeros(nv)
                row[self.var_dt[(v.tie_id, a.id)]] = 1.0
                row[self.var_theta[v.own_bus]] -= 1.0 / v.reactance
                row[self.var_theta[v.neighbor_bus]] += 1.0 / v.reactance
                self.eq_tie_def[(v.tie_id, a.id)] = eq.add(
                    row, -v.t_da, f"tie_def[{v.tie_id}:{a.id}]")
        row = np.zeros(nv)
        row[self.var_theta[net.slack[1]]] = 1.0
        self.eq_slack = eq.add(row, 0.0, "slack")

        ineq = Rows(nv)
        self.rows = {}
        for a in net.areas:
            flows = [(v, ((self.var_dt[(v.tie_id, a.id)], 1.0),)) for v in views[a.id]]
            self.rows[a.id] = add_area_rows(
                ineq, net, a.id, aggregate_requirement(net, a.id).requirement,
                self.var_dp, self.var_theta, flows, aggregate_label=f"aggregate[{a.id}]")

        self.ineq_cap_lo = {}
        self.ineq_cap_hi = {}
        for t in net.active_ties():
            j = self.var_dt[(t.id, t.from_area)]
            row = np.zeros(nv)
            row[j] = -1.0
            self.ineq_cap_lo[t.id] = ineq.add(row, t.capacity + t.t_da, f"cap_lo[{t.id}]")
            row = np.zeros(nv)
            row[j] = 1.0
            self.ineq_cap_hi[t.id] = ineq.add(row, t.capacity - t.t_da, f"cap_hi[{t.id}]")

        self.program = qpmod.QuadraticProgram(q, c, *eq.arrays(), *ineq.arrays(), tuple(labels),
                                              tuple(eq.labels), tuple(ineq.labels))

    def primal(self, decisions: dict[str, AreaDecision]) -> np.ndarray:
        """The joint program's x for one decision per area."""
        x = np.zeros(self.program.n)
        for a, dec in decisions.items():
            for g, v in dec.delta_p.items():
                x[self.var_dp[g]] = v
            for t, v in dec.delta_t.items():
                x[self.var_dt[(t, a)]] = v
            for b, v in dec.theta.items():
                x[self.var_theta[b]] = v
        return x

    def extract(self, sol: qpmod.QpSolution) -> CentralSolution:
        net = self.net
        x, y, z = sol.x, sol.y, sol.z
        decisions = {}
        duals = {}
        for a in net.areas:
            views = net.tie_views(a.id)
            decisions[a.id] = AreaDecision(
                delta_p={g: float(x[self.var_dp[g]]) for g in a.generator_ids},
                delta_t={v.tie_id: float(x[self.var_dt[(v.tie_id, a.id)]]) for v in views},
                theta={b: float(x[self.var_theta[b]]) for b in a.bus_ids},
            )
            duals[a.id] = self.rows[a.id].duals(
                z, tie_def={v.tie_id: float(y[self.eq_tie_def[(v.tie_id, a.id)]]) for v in views},
                slack_angle=float(y[self.eq_slack]) if net.slack[0] == a.id else None)
        tie_capacity = {t.id: CapacityDuals(float(z[self.ineq_cap_lo[t.id]]),
                                            float(z[self.ineq_cap_hi[t.id]]))
                        for t in net.active_ties()}
        tie_flows = {t.id: t.t_da + decisions[t.from_area].delta_t[t.id]
                     for t in net.active_ties()}
        total_cost = sum(net.generator(g).cost(net.generator(g).p_da + dp)
                         for a in net.areas for g, dp in decisions[a.id].delta_p.items())
        return CentralSolution(decisions, duals, tie_capacity, tie_flows, total_cost,
                               float(y[self.eq_slack]), sol.residuals.max())


def solve_centralized(net: Network, tol: float = qpmod.DEFAULT_TOL,
                      max_iter: int = qpmod.DEFAULT_MAX_ITER) -> CentralSolution:
    """Solve the omniscient joint clearing problem."""
    problem = _CentralProblem(net)
    sol = qpmod.solve(problem.program, tol=tol, max_iter=max_iter)
    if sol.status != "optimal":
        raise CentralizedInfeasible(f"centralized clearing: {sol.status}")
    return problem.extract(sol)


def optimal_terms_of_trade(net: Network, sol: CentralSolution) -> dict[str, TermsOfTrade]:
    """Terms of trade that reproduce the benchmark area by area.

    Per tie: half the capacity price is the congestion rent signed along the
    adjustment, the quoted price is the neighbor's reliability price plus its
    boundary nodal price, and the angle is the neighbor's optimal one.
    """
    mu = {}
    for t in net.active_ties():
        pair = sol.tie_capacity[t.id]
        adjustment = sol.decisions[t.from_area].delta_t[t.id]
        half = (pair.upper - pair.lower) * _sign(adjustment)
        mu[t.id] = max(2.0 * half, 0.0) + 0.0  # normalizes -0.0
    out = {}
    for a in net.areas:
        by_tie = {}
        for v in net.tie_views(a.id):
            nb = sol.duals[v.neighbor_area]
            price = nb.reliability_price + nb.nodal_price[v.neighbor_bus]
            angle = sol.decisions[v.neighbor_area].theta[v.neighbor_bus]
            by_tie[v.tie_id] = TieTerms(price, angle, mu[v.tie_id])
        out[a.id] = TermsOfTrade(by_tie)
    return out


@dataclass(frozen=True)
class FixedPointReport:
    deviations: dict[str, float]  # per area, max over dP/dT/theta
    max_deviation: float


def verify_fixed_point(net: Network, sol: CentralSolution,
                       terms: dict[str, TermsOfTrade] | None = None,
                       tol: float = qpmod.DEFAULT_TOL) -> FixedPointReport:
    """Re-clear every area at the optimal terms and compare to the benchmark."""
    terms = terms or optimal_terms_of_trade(net, sol)
    deviations = {}
    for a in net.areas:
        res = clear_area_fn(net, a.id, terms[a.id], tol=tol)
        dev = 0.0
        for g, v in res.decision.delta_p.items():
            dev = max(dev, abs(v - sol.decisions[a.id].delta_p[g]))
        for t, v in res.decision.delta_t.items():
            dev = max(dev, abs(v - sol.decisions[a.id].delta_t[t]))
        for b, v in res.decision.theta.items():
            dev = max(dev, abs(v - sol.decisions[a.id].theta[b]))
        deviations[a.id] = dev
    return FixedPointReport(deviations, max(deviations.values(), default=0.0))


@dataclass(frozen=True)
class FeasibilityReport:
    """Centralized-constraint residuals evaluated at a decentralized limit."""

    nodal: float
    generator_box: float
    ramp_box: float
    internal_line: float
    tie_definition: float
    tie_capacity: float
    aggregate: float
    flags: tuple[str, ...]  # constraints violated beyond the tolerance

    def max(self) -> float:
        return max(self.nodal, self.generator_box, self.ramp_box, self.internal_line,
                   self.tie_definition, self.tie_capacity, self.aggregate)


# report field of each joint-program row group the limit check evaluates
_FEASIBILITY_GROUPS = {"nodal": "nodal", "gen_lo": "generator_box", "gen_hi": "generator_box",
                       "ramp_lo": "ramp_box", "ramp_hi": "ramp_box",
                       "line_lo": "internal_line", "line_hi": "internal_line",
                       "aggregate": "aggregate", "tie_def": "tie_definition"}


def check_limit_feasibility(net: Network, state: CouplingState,
                            clearings: dict[str, ClearingResult],
                            tol: float = 1e-3) -> FeasibilityReport:
    """Evaluate the joint program's rows at the mechanism limit.

    Flags carry the program's row labels.  Capacity is checked on both
    endpoint views of each tie, because the joint program bounds only the
    stored one and the two views differ until the areas agree on the flow.
    Mid-run iterates may legitimately violate tie capacity (it is enforced by
    prices, not hard-coded); violations are flagged, never raised.
    """
    problem = _CentralProblem(net)
    prog = problem.program
    x = problem.primal({a.id: clearings[a.id].decision for a in net.areas})
    worst = dict.fromkeys([*_FEASIBILITY_GROUPS.values(), "tie_capacity"], 0.0)
    flags: list[str] = []

    def record(group, label, viol):
        worst[group] = max(worst[group], viol)
        if viol > tol:
            flags.append(f"{label}: {viol:.6g}")

    rows = ((prog.ineq_labels, np.maximum(prog.g_ineq @ x - prog.h_ineq, 0.0)),
            (prog.eq_labels, np.abs(prog.a_eq @ x - prog.b_eq)))
    for labels, viols in rows:
        for label, viol in zip(labels, viols.tolist()):
            group = _FEASIBILITY_GROUPS.get(label.split("[")[0])
            if group is not None:  # skips slack and cap_lo/cap_hi
                record(group, label, viol)
    for a in net.areas:
        for v in net.tie_views(a.id):
            flow = v.t_da + clearings[a.id].decision.delta_t[v.tie_id]
            record("tie_capacity", f"tie_capacity[{v.tie_id}:{a.id}]",
                   max(abs(flow) - v.capacity, 0.0))
    return FeasibilityReport(**worst, flags=tuple(flags))


@dataclass(frozen=True)
class KktEquivalenceReport:
    residuals: qpmod.KktResiduals
    objective_gap: float  # |limit generation cost - V*| / (1 + |V*|)
    constructed_lower: dict[str, float]  # kappa-bar candidate per tie
    constructed_upper: dict[str, float]  # eta-bar candidate per tie
    tolerance: float
    passed: bool


def verify_kkt_equivalence(net: Network, state: CouplingState,
                           clearings: dict[str, ClearingResult],
                           central: CentralSolution, tol: float = 1e-3) -> KktEquivalenceReport:
    """Certify the mechanism limit against the centralized KKT system.

    The candidate duals are the areas' own limit duals; the tie-capacity pair
    is built from the limiting capacity price, half of it signed along the
    flow adjustment, and the tie-definition duals absorb the neighbor quote
    that the per-area problems price through their objectives.
    """
    problem = _CentralProblem(net)
    prog = problem.program
    x = problem.primal({a.id: clearings[a.id].decision for a in net.areas})
    y = np.zeros(len(prog.b_eq))
    z = np.zeros(len(prog.h_ineq))
    k_lo: dict[str, float] = {}
    k_hi: dict[str, float] = {}
    for a in net.areas:
        dec = clearings[a.id].decision
        du = clearings[a.id].duals
        problem.rows[a.id].fill(z, du)
        for v in net.tie_views(a.id):
            own_quote = du.reliability_price + du.nodal_price[v.own_bus]
            u = 0.0
            if v.canonical:
                u = 0.5 * state.mu[v.tie_id] * _sign(dec.delta_t[v.tie_id])
                k_lo[v.tie_id] = max(-u, 0.0)
                k_hi[v.tie_id] = max(u, 0.0)
                z[problem.ineq_cap_lo[v.tie_id]] = k_lo[v.tie_id]
                z[problem.ineq_cap_hi[v.tie_id]] = k_hi[v.tie_id]
            # the tie-definition shadow price absorbs the quote the per-area
            # objective prices explicitly, plus the signed half capacity price
            y[problem.eq_tie_def[(v.tie_id, a.id)]] = own_quote + u
        if du.slack_angle is not None:
            y[problem.eq_slack] = du.slack_angle
    residuals = qpmod.kkt_residuals(prog, x, y, z)
    gap = efficiency_gap(net, clearings, central).objective_gap
    passed = residuals.max() <= tol and gap <= tol
    return KktEquivalenceReport(residuals, gap, k_lo, k_hi, tol, passed)


@dataclass(frozen=True)
class EfficiencyGap:
    objective_gap: float  # relative
    flow_deviation: float  # max over ties, MW


def efficiency_gap(net: Network, clearings: dict[str, ClearingResult],
                   central: CentralSolution) -> EfficiencyGap:
    """Distance between the mechanism limit and the centralized optimum."""
    limit_cost = sum(clearings[a.id].generation_cost for a in net.areas)
    gap = abs(limit_cost - central.objective) / (1.0 + abs(central.objective))
    dev = 0.0
    for t in net.active_ties():
        limit_flow = t.t_da + clearings[t.from_area].decision.delta_t[t.id]
        dev = max(dev, abs(limit_flow - central.tie_flows[t.id]))
    return EfficiencyGap(gap, dev)


def comparison_report(net: Network, state: CouplingState,
                      clearings: dict[str, ClearingResult], central: CentralSolution,
                      kkt_tol: float = 1e-3, nash_tol: float = 1e-4) -> dict:
    """JSON-ready comparison of a mechanism limit against the benchmark."""
    from .coupling import verify_nash  # deferred: coupling sits below benchmark

    gap = efficiency_gap(net, clearings, central)
    kkt = verify_kkt_equivalence(net, state, clearings, central, tol=kkt_tol)
    feas = check_limit_feasibility(net, state, clearings)
    nash = verify_nash(net, state, clearings, tol=nash_tol)
    return {
        "objective_gap": gap.objective_gap,
        "flow_deviation": gap.flow_deviation,
        "kkt_residuals": kkt.residuals.as_dict(),
        "feasibility_residuals": asdict(feas),
        "nash_gaps": {a: g.gap for a, g in nash.items()},
        "checks": {
            "kkt": kkt.passed,
            "nash": all(g.passed for g in nash.values()),
        },
    }
