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

from . import coupling, qp as qpmod
from .coupling import CouplingState
from .grid import Network
from .market import (AreaDecision, AreaDuals, ClearingResult, Rows, TermsOfTrade, TieTerms,
                     add_area_rows, block_duals, block_multipliers, clear as clear_area_fn,
                     cost_block, generation_cost)
from .stochastic import aggregate_requirement

SIGN_TOL = 1e-9
CHECK_TOL = 1e-3  # bound on a limit's KKT residuals, objective gap and row violations


def _sign(v: float) -> float:
    if v > SIGN_TOL:
        return 1.0
    if v < -SIGN_TOL:
        return -1.0
    return 0.0


class CentralizedInfeasible(RuntimeError):
    """Centralized clearing failed; carries the solver status and, as detail,
    its path, iterations and worst KKT residual."""

    def __init__(self, status: str, detail: str = ""):
        self.status = status
        self.detail = detail
        super().__init__(f"centralized clearing: {status}{': ' + detail if detail else ''}")


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
    kkt_residual: float


class _CentralProblem:
    """Joint clearing QP: the areas' shared rows side by side, coupled by the ties.

    The program's columns are dP per generator, then dT per tie end, then
    theta per bus, each in network order; a tie end (``ends``) is an area
    and one of its `Network.tie_views`, area by area.  Its equality rows are
    the tie definitions in tie-end order, then the slack pin.  The
    inequality rows are each area's `add_area_rows` block, in network order
    and each in the order that function's docstring states, then cap_lo and
    cap_hi side by side per active tie.
    """

    def __init__(self, net: Network):
        self.net = net
        self._gens = [net.generator(g) for a in net.areas for g in a.generator_ids]
        views = {a.id: net.tie_views(a.id) for a in net.areas}
        self.ends = [(a, v) for a, area_views in views.items() for v in area_views]
        buses = [b for a in net.areas for b in a.bus_ids]
        ng, ne = len(self._gens), len(self.ends)
        var_dp = {g.id: i for i, g in enumerate(self._gens)}
        var_dt = {(v.tie_id, a): ng + i for i, (a, v) in enumerate(self.ends)}
        var_theta = {b: ng + ne + i for i, b in enumerate(buses)}
        labels = ([f"dP[{g.id}]" for g in self._gens]
                  + [f"dT[{v.tie_id}:{a}]" for a, v in self.ends] + [f"theta[{b}]" for b in buses])
        nv = len(labels)

        q, c = cost_block(net, var_dp, nv)
        eq = Rows(nv)
        for a, v in self.ends:
            row = np.zeros(nv)
            row[var_dt[(v.tie_id, a)]] = 1.0
            row[var_theta[v.own_bus]] -= 1.0 / v.reactance
            row[var_theta[v.neighbor_bus]] += 1.0 / v.reactance
            eq.add(row, -v.t_da, f"tie_def[{v.tie_id}:{a}]")
        row = np.zeros(nv)
        row[var_theta[net.slack[1]]] = 1.0
        eq.add(row, 0.0, "slack")

        ineq = Rows(nv)
        for a in net.areas:
            flows = [(v, ((var_dt[(v.tie_id, a.id)], 1.0),)) for v in views[a.id]]
            add_area_rows(ineq, net, a.id, aggregate_requirement(net, a.id).requirement,
                          var_dp, var_theta, flows, aggregate_label=f"aggregate[{a.id}]")

        # canonical views come in tie-end order and active ties in document
        # order, so each tie keeps its cap_lo row; cap_hi is the next one
        self.cap_lo = {}
        for t in net.active_ties():
            j = var_dt[(t.id, t.from_area)]
            row = np.zeros(nv)
            row[j] = -1.0
            self.cap_lo[t.id] = ineq.add(row, t.capacity + t.t_da, f"cap_lo[{t.id}]")
            row = np.zeros(nv)
            row[j] = 1.0
            ineq.add(row, t.capacity - t.t_da, f"cap_hi[{t.id}]")

        self.program = qpmod.QuadraticProgram(q, c, *eq.arrays(), *ineq.arrays(), tuple(labels),
                                              tuple(eq.labels), tuple(ineq.labels))

    def primal(self, decisions: dict[str, AreaDecision]) -> np.ndarray:
        """The joint program's x for one decision per area."""
        areas = self.net.areas
        x = [decisions[a.id].delta_p[g] for a in areas for g in a.generator_ids]
        x += [decisions[a].delta_t[v.tie_id] for a, v in self.ends]
        x += [decisions[a.id].theta[b] for a in areas for b in a.bus_ids]
        return np.array(x, dtype=float)

    def extract(self, sol: qpmod.QpSolution) -> CentralSolution:
        net = self.net
        x, y, z = sol.x.tolist(), sol.y.tolist(), sol.z.tolist()
        ng = len(self._gens)
        # each area's dP, dT and theta are the next entries of their column
        # blocks, its tie-definition duals the next leading entries of y and
        # its block's multipliers the next leading entries of z
        dp, dt, theta, tie_def = iter(x), iter(x[ng:]), iter(x[ng + len(self.ends):]), iter(y)
        block = iter(z)
        decisions, duals = {}, {}
        for a in net.areas:
            ids = [v.tie_id for v in net.tie_views(a.id)]
            decisions[a.id] = AreaDecision(dict(zip(a.generator_ids, dp)), dict(zip(ids, dt)),
                                           dict(zip(a.bus_ids, theta)))
            duals[a.id] = block_duals(a, block, tie_def=dict(zip(ids, tie_def)),
                                      slack_angle=y[-1] if net.slack[0] == a.id else None)
        tie_capacity = {t: CapacityDuals(z[i], z[i + 1]) for t, i in self.cap_lo.items()}
        tie_flows = {t.id: t.t_da + decisions[t.from_area].delta_t[t.id]
                     for t in net.active_ties()}
        # one flat sum over every generator: per-area sums would round
        # differently; the generators' columns come first, so zip stops x after them
        total_cost = generation_cost(self._gens, x)
        return CentralSolution(decisions, duals, tie_capacity, tie_flows, total_cost,
                               sol.residuals.max())


def _central_problem(net: Network) -> _CentralProblem:
    """The joint clearing problem, built on first use and then shared by the
    solve and every check for the network's lifetime."""
    key = ("central",)
    if key not in net._programs:
        net._programs[key] = _CentralProblem(net)
    return net._programs[key]


def solve_centralized(net: Network, tol: float = qpmod.DEFAULT_TOL,
                      max_iter: int = qpmod.DEFAULT_MAX_ITER) -> CentralSolution:
    """Solve the omniscient joint clearing problem."""
    problem = _central_problem(net)
    sol = qpmod.solve(problem.program, tol=tol, max_iter=max_iter)
    # the checks share the joint program but never solve it, so the solve's
    # factorizations would only hold memory for the network's lifetime
    problem.program._memo.clear()
    if sol.status != "optimal":
        raise CentralizedInfeasible(sol.status, sol.describe())
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
    """Re-clear every area at the optimal terms and compare to the benchmark.

    Each re-clear is seeded with the rows the area's benchmark decision binds,
    so a fixed point is confirmed by the hint's walk without a cold solve, and
    a re-clear that lands elsewhere still reports its full deviation.
    """
    terms = terms or optimal_terms_of_trade(net, sol)
    deviations = {}
    for a in net.areas:
        res = clear_area_fn(net, a.id, terms[a.id], tol=tol, near=sol.decisions[a.id])
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
    flags: tuple[str, ...]  # constraints violated beyond CHECK_TOL

    def max(self) -> float:
        return max(self.nodal, self.generator_box, self.ramp_box, self.internal_line,
                   self.tie_definition, self.tie_capacity, self.aggregate)


# report field of each joint-program row group the limit check evaluates
_FEASIBILITY_GROUPS = {"nodal": "nodal", "gen_lo": "generator_box", "gen_hi": "generator_box",
                       "ramp_lo": "ramp_box", "ramp_hi": "ramp_box",
                       "line_lo": "internal_line", "line_hi": "internal_line",
                       "aggregate": "aggregate", "tie_def": "tie_definition"}


def check_limit_feasibility(net: Network,
                            clearings: dict[str, ClearingResult]) -> FeasibilityReport:
    """Evaluate the joint program's rows at the mechanism limit.

    Flags carry the program's row labels.  Capacity is checked on both
    endpoint views of each tie, because the joint program bounds only the
    stored one and the two views differ until the areas agree on the flow.
    Mid-run iterates may legitimately violate tie capacity (it is enforced by
    prices, not hard-coded); violations are flagged, never raised.
    """
    problem = _central_problem(net)
    prog = problem.program
    x = problem.primal({a.id: clearings[a.id].decision for a in net.areas})
    worst = dict.fromkeys([*_FEASIBILITY_GROUPS.values(), "tie_capacity"], 0.0)
    flags: list[str] = []

    def record(group, label, viol):
        worst[group] = max(worst[group], viol)
        if viol > CHECK_TOL:
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
    flow_deviation: float  # max over ties, MW, as efficiency_gap reports it
    constructed_lower: dict[str, float]  # kappa-bar candidate per tie
    constructed_upper: dict[str, float]  # eta-bar candidate per tie
    tolerance: float
    passed: bool


def verify_kkt_equivalence(net: Network, state: CouplingState,
                           clearings: dict[str, ClearingResult],
                           central: CentralSolution) -> KktEquivalenceReport:
    """Certify the mechanism limit against the centralized KKT system.

    The candidate duals are the areas' own limit duals; the tie-capacity pair
    is built from the limiting capacity price, half of it signed along the
    flow adjustment, and the tie-definition duals absorb the neighbor quote
    that the per-area problems price through their objectives.
    """
    gap = efficiency_gap(net, clearings, central)
    problem = _central_problem(net)
    prog = problem.program
    x = problem.primal({a.id: clearings[a.id].decision for a in net.areas})
    y = np.zeros(len(prog.b_eq))
    z = np.zeros(len(prog.h_ineq))
    # the areas' blocks lead the inequality rows, in network order
    blocks = [m for a in net.areas for m in block_multipliers(a, clearings[a.id].duals)]
    z[:len(blocks)] = blocks
    k_lo: dict[str, float] = {}
    k_hi: dict[str, float] = {}
    for a in net.areas:
        if clearings[a.id].duals.slack_angle is not None:
            y[-1] = clearings[a.id].duals.slack_angle
    # the tie definitions lead the equality rows, in tie-end order
    for i, (a, v) in enumerate(problem.ends):
        limit = clearings[a]
        u = 0.0
        if v.canonical:
            u = 0.5 * state.mu[v.tie_id] * _sign(limit.decision.delta_t[v.tie_id])
            k_lo[v.tie_id] = max(-u, 0.0)
            k_hi[v.tie_id] = max(u, 0.0)
            lo = problem.cap_lo[v.tie_id]
            z[lo], z[lo + 1] = k_lo[v.tie_id], k_hi[v.tie_id]
        # the tie-definition shadow price absorbs the quote the per-area
        # objective prices explicitly, plus the signed half capacity price
        y[i] = limit.willingness_to_pay[v.tie_id] + u
    residuals = qpmod.kkt_residuals(prog, x, y, z)
    passed = residuals.max() <= CHECK_TOL and gap.objective_gap <= CHECK_TOL
    return KktEquivalenceReport(residuals, gap.objective_gap, gap.flow_deviation, k_lo, k_hi,
                                CHECK_TOL, passed)


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
                      clearings: dict[str, ClearingResult], central: CentralSolution) -> dict:
    """JSON-ready comparison of a mechanism limit against the benchmark."""
    kkt = verify_kkt_equivalence(net, state, clearings, central)
    feas = check_limit_feasibility(net, clearings)
    nash = coupling.verify_nash(net, state, clearings)
    return {
        "objective_gap": kkt.objective_gap,
        "flow_deviation": kkt.flow_deviation,
        "kkt_residuals": asdict(kkt.residuals),
        "feasibility_residuals": asdict(feas),
        "nash_gaps": {a: g.gap for a, g in nash.items()},
        "checks": {
            "kkt": kkt.passed,
            "nash": all(g.passed for g in nash.values()),
        },
    }
