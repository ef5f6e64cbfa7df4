"""One area's intraday clearing problem.

Given terms of trade quoted by neighboring areas (a price per tie-line, the
neighbor's boundary angle, and a shared tie capacity price), an area adjusts
its generators and intertie flows to minimize

    sum_g C_g(P_da + dP)  -  sum_t price_t * dT_t  +  sum_t (mu_t / 2) |dT_t|

subject to nodal surplus, generator/ramp boxes, internal line limits, the
tie-flow definition against the *fixed* neighbor angle, and the aggregate
reliability requirement.  |dT| is handled by a nonnegative split
dT = dT+ - dT-, which keeps the program a QP.

The dual vector is mapped back to named quantities; the area's broadcast
willingness to pay for each tie is reliability_price + nodal_price at its own
endpoint bus.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from . import qp as qpmod
from .grid import Network, TieView
from .stochastic import AggregateRequirement, aggregate_requirement

# Tikhonov weight on the diagonal of the split-flow and angle blocks, which
# the generation cost leaves only PSD.  Reported objectives are evaluated
# directly from the cost data, so the perturbation never shows up downstream.
REGULARIZATION = 1e-9


class ClearingError(RuntimeError):
    """Area clearing failed; carries the area id and solver status."""

    def __init__(self, area_id: str, status: str, detail: str = ""):
        self.area_id = area_id
        self.status = status
        super().__init__(f"area[{area_id}]: clearing {status}{': ' + detail if detail else ''}")


@dataclass(frozen=True)
class TieTerms:
    """Terms quoted to this area for one tie-line."""

    price: float  # neighbor's willingness to pay, USD/MWh
    neighbor_angle: float  # rad, at the neighbor's endpoint bus
    capacity_price: float  # mu >= 0, shared across both orientations

    def __post_init__(self):
        if self.capacity_price < 0:
            raise ValueError("capacity price must be >= 0")


@dataclass(frozen=True)
class TermsOfTrade:
    by_tie: Mapping[str, TieTerms]

    def for_tie(self, tie_id: str) -> TieTerms:
        try:
            return self.by_tie[tie_id]
        except KeyError:
            raise KeyError(f"terms of trade missing tie-line {tie_id}") from None


@dataclass(frozen=True)
class AreaDecision:
    delta_p: dict[str, float]  # per generator
    delta_t: dict[str, float]  # per incident tie, own orientation
    theta: dict[str, float]  # per bus, rad


@dataclass(frozen=True)
class AreaDuals:
    nodal_price: dict[str, float]  # per bus (alpha)
    reliability_price: float  # aggregate requirement (gamma)
    gen_lower: dict[str, float]  # nu
    gen_upper: dict[str, float]  # lambda
    ramp_lower: dict[str, float]  # psi
    ramp_upper: dict[str, float]  # phi
    line_lower: dict[str, float]  # kappa
    line_upper: dict[str, float]  # eta
    tie_def: dict[str, float]  # xi, signed
    slack_angle: float | None = None  # dual of the reference-angle pin, if held here


@dataclass(frozen=True)
class ClearingResult:
    area_id: str
    decision: AreaDecision
    duals: AreaDuals
    objective: float  # trade-aware objective at the decision, USD
    generation_cost: float  # sum of C_g at the decision, USD
    willingness_to_pay: dict[str, float]  # per tie: gamma + alpha[own bus]
    status: str
    kkt_residual: float


class Rows:
    """Constraint rows under construction: coefficients, right-hand side, label."""

    def __init__(self, width: int):
        self.width = width
        self.coefs: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.labels: list[str] = []

    def add(self, row: np.ndarray, rhs: float, label: str) -> int:
        self.coefs.append(row)
        self.rhs.append(rhs)
        self.labels.append(label)
        return len(self.coefs) - 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.coefs).reshape(len(self.coefs), self.width), np.array(self.rhs)


# AreaDuals fields priced by one row per bus, generator or line
_PER_ELEMENT_DUALS = ("nodal_price", "gen_lower", "gen_upper", "ramp_lower", "ramp_upper",
                      "line_lower", "line_upper")


@dataclass(frozen=True)
class AreaRows:
    """Inequality row of each shared area constraint, named by the dual that prices it."""

    nodal_price: dict[str, int]  # per bus
    gen_lower: dict[str, int]
    gen_upper: dict[str, int]
    ramp_lower: dict[str, int]
    ramp_upper: dict[str, int]
    line_lower: dict[str, int]
    line_upper: dict[str, int]
    reliability_price: int  # the aggregate requirement

    def duals(self, z: np.ndarray, tie_def: dict[str, float],
              slack_angle: float | None) -> AreaDuals:
        """Read the area's duals out of an inequality multiplier vector."""
        per_element = {name: {key: float(z[i]) for key, i in getattr(self, name).items()}
                       for name in _PER_ELEMENT_DUALS}
        return AreaDuals(reliability_price=float(z[self.reliability_price]),
                         tie_def=tie_def, slack_angle=slack_angle, **per_element)

    def fill(self, z: np.ndarray, duals: AreaDuals) -> None:
        """Write the area's duals into an inequality multiplier vector."""
        for name in _PER_ELEMENT_DUALS:
            prices = getattr(duals, name)
            for key, i in getattr(self, name).items():
                z[i] = prices[key]
        z[self.reliability_price] = duals.reliability_price


def add_area_rows(ineq: Rows, net: Network, area_id: str, requirement: float,
                  var_dp: Mapping[str, int], var_theta: Mapping[str, int],
                  flows: Sequence[tuple[TieView, Sequence[tuple[int, float]]]],
                  aggregate_label: str = "aggregate") -> AreaRows:
    """Append one area's nodal, generator, ramp, line and aggregate rows.

    ``flows`` gives, per incident tie, the (column, coefficient) pairs whose
    sum is the area's flow adjustment on it.
    """
    area = net.area(area_id)
    gens = area.generator_ids
    nodal = {}
    for b in area.bus_ids:
        row = np.zeros(ineq.width)
        rhs = -net.bus(b).mean_net_demand
        for g in gens:
            if net.generator(g).bus_id == b:
                row[var_dp[g]] = -1.0
                rhs += net.generator(g).p_da
        for lid in area.line_ids:
            line = net.line(lid)
            if line.from_bus == b:
                row[var_theta[line.from_bus]] += 1.0 / line.reactance
                row[var_theta[line.to_bus]] -= 1.0 / line.reactance
            elif line.to_bus == b:
                row[var_theta[line.to_bus]] += 1.0 / line.reactance
                row[var_theta[line.from_bus]] -= 1.0 / line.reactance
        for v, cols in flows:
            if v.own_bus == b:
                for j, coef in cols:
                    row[j] += coef
                rhs -= v.t_da
        nodal[b] = ineq.add(row, rhs, f"nodal[{b}]")

    gen_lo, gen_hi, ramp_lo, ramp_hi = {}, {}, {}, {}
    for g in gens:
        gen = net.generator(g)
        row = np.zeros(ineq.width)
        row[var_dp[g]] = -1.0
        gen_lo[g] = ineq.add(row.copy(), gen.p_da - gen.p_min, f"gen_lo[{g}]")
        ramp_lo[g] = ineq.add(row.copy(), -gen.ramp_down, f"ramp_lo[{g}]")
        row = np.zeros(ineq.width)
        row[var_dp[g]] = 1.0
        gen_hi[g] = ineq.add(row.copy(), gen.p_max - gen.p_da, f"gen_hi[{g}]")
        ramp_hi[g] = ineq.add(row.copy(), gen.ramp_up, f"ramp_hi[{g}]")

    line_lo, line_hi = {}, {}
    for lid in area.line_ids:
        line = net.line(lid)
        row = np.zeros(ineq.width)
        row[var_theta[line.from_bus]] = 1.0 / line.reactance
        row[var_theta[line.to_bus]] = -1.0 / line.reactance
        line_hi[lid] = ineq.add(row.copy(), line.capacity, f"line_hi[{lid}]")
        line_lo[lid] = ineq.add(-row, line.capacity, f"line_lo[{lid}]")

    row = np.zeros(ineq.width)
    rhs = -requirement
    for g in gens:
        row[var_dp[g]] = -1.0
        rhs += net.generator(g).p_da
    for v, cols in flows:
        for j, coef in cols:
            row[j] += coef
        rhs -= v.t_da
    aggregate = ineq.add(row, rhs, aggregate_label)
    return AreaRows(nodal, gen_lo, gen_hi, ramp_lo, ramp_hi, line_lo, line_hi, aggregate)


@dataclass(frozen=True)
class AreaIndex:
    """Where each named quantity lives in the assembled QP."""

    gens: tuple[str, ...]
    ties: tuple[TieView, ...]
    buses: tuple[str, ...]
    var_dp: dict[str, int]
    var_tp: dict[str, int]
    var_tm: dict[str, int]
    var_theta: dict[str, int]
    eq_tie_def: dict[str, int]
    eq_slack: int | None
    rows: AreaRows


class AreaProblem:
    """Pre-assembled clearing problem; per-round terms only touch c and b."""

    def __init__(self, net: Network, area_id: str, autarky: bool = False,
                 requirement: AggregateRequirement | None = None):
        self.net = net
        self.area_id = area_id
        if requirement is not None and requirement.area_id != area_id:
            raise ValueError(f"requirement is for area {requirement.area_id}, not {area_id}")
        area = net.area(area_id)
        self.requirement = requirement or aggregate_requirement(net, area_id)
        gens = tuple(area.generator_ids)
        ties = () if autarky else net.tie_views(area_id)
        buses = tuple(area.bus_ids)
        nv = len(gens) + 2 * len(ties) + len(buses)

        var_dp = {g: i for i, g in enumerate(gens)}
        var_tp = {v.tie_id: len(gens) + 2 * i for i, v in enumerate(ties)}
        var_tm = {v.tie_id: len(gens) + 2 * i + 1 for i, v in enumerate(ties)}
        var_theta = {b: len(gens) + 2 * len(ties) + i for i, b in enumerate(buses)}
        var_labels = [f"dP[{g}]" for g in gens]
        for v in ties:
            var_labels += [f"dT+[{v.tie_id}]", f"dT-[{v.tie_id}]"]
        var_labels += [f"theta[{b}]" for b in buses]

        q = np.zeros((nv, nv))
        c = np.zeros(nv)
        for g in gens:
            gen = net.generator(g)
            q[var_dp[g], var_dp[g]] = 2.0 * gen.cost_quadratic
            c[var_dp[g]] = gen.cost_linear + 2.0 * gen.cost_quadratic * gen.p_da
        for i in range(len(gens), nv):
            q[i, i] = REGULARIZATION

        eq = Rows(nv)
        eq_tie_def = {}
        for v in ties:
            row = np.zeros(nv)
            row[var_tp[v.tie_id]] = 1.0
            row[var_tm[v.tie_id]] = -1.0
            row[var_theta[v.own_bus]] = -1.0 / v.reactance
            # rhs filled per terms: -theta_nbr/x - t_da
            eq_tie_def[v.tie_id] = eq.add(row, 0.0, f"tie_def[{v.tie_id}]")
        eq_slack = None
        if net.slack[0] == area_id:
            row = np.zeros(nv)
            row[var_theta[net.slack[1]]] = 1.0
            eq_slack = eq.add(row, 0.0, "slack")

        ineq = Rows(nv)
        flows = [(v, ((var_tp[v.tie_id], 1.0), (var_tm[v.tie_id], -1.0))) for v in ties]
        rows = add_area_rows(ineq, net, area_id, self.requirement.requirement,
                             var_dp, var_theta, flows)
        for v in ties:
            row = np.zeros(nv)
            row[var_tp[v.tie_id]] = -1.0
            ineq.add(row, 0.0, f"split_p[{v.tie_id}]")
            row = np.zeros(nv)
            row[var_tm[v.tie_id]] = -1.0
            ineq.add(row, 0.0, f"split_m[{v.tie_id}]")

        self.index = AreaIndex(gens, ties, buses, var_dp, var_tp, var_tm, var_theta,
                               eq_tie_def, eq_slack, rows)
        self._q = q
        self._c0 = c
        self._a, self._b0 = eq.arrays()
        self._g, self._h = ineq.arrays()
        self._labels = (tuple(var_labels), tuple(eq.labels), tuple(ineq.labels))
        # performance cache only: the binding set of the previous clear seeds
        # the next solve; results are KKT-validated, so it never changes them
        self._active_hint: tuple[int, ...] | None = None

    def assemble(self, terms: TermsOfTrade) -> qpmod.QuadraticProgram:
        """Bind the terms of trade into the cached structure."""
        idx = self.index
        c = self._c0.copy()
        b = self._b0.copy()
        for v in idx.ties:
            t = terms.for_tie(v.tie_id)
            c[idx.var_tp[v.tie_id]] = -t.price + 0.5 * t.capacity_price
            c[idx.var_tm[v.tie_id]] = t.price + 0.5 * t.capacity_price
            b[idx.eq_tie_def[v.tie_id]] = -t.neighbor_angle / v.reactance - v.t_da
        return qpmod.QuadraticProgram(self._q, c, self._a, b, self._g, self._h,
                                      *self._labels)

    def clear(self, terms: TermsOfTrade, tol: float = qpmod.DEFAULT_TOL,
              max_iter: int = qpmod.DEFAULT_MAX_ITER) -> ClearingResult:
        program = self.assemble(terms)
        sol = qpmod.solve(program, tol=tol, max_iter=max_iter, active_hint=self._active_hint)
        if sol.status != "optimal":
            self._active_hint = None
            raise ClearingError(self.area_id, sol.status)
        self._active_hint = sol.active_set
        return self._extract(terms, sol, tol)

    def _extract(self, terms: TermsOfTrade, sol: qpmod.QpSolution, tol: float) -> ClearingResult:
        idx = self.index
        net = self.net
        x, y, z = sol.x, sol.y, sol.z
        delta_p = {g: float(x[idx.var_dp[g]]) for g in idx.gens}
        # dT = dT+ - dT-.  An overlapping split (possible only at mu == 0)
        # changes neither the difference nor the objective, so the signed
        # flow is already the canonical decision.
        delta_t = {v.tie_id: float(x[idx.var_tp[v.tie_id]] - x[idx.var_tm[v.tie_id]])
                   for v in idx.ties}
        theta = {bus: float(x[idx.var_theta[bus]]) for bus in idx.buses}
        duals = idx.rows.duals(
            z, tie_def={t: float(y[i]) for t, i in idx.eq_tie_def.items()},
            slack_angle=float(y[idx.eq_slack]) if idx.eq_slack is not None else None)
        decision = AreaDecision(delta_p, delta_t, theta)
        gen_cost = sum(net.generator(g).cost(net.generator(g).p_da + dp)
                       for g, dp in delta_p.items())
        objective = gen_cost
        willingness = {}
        for v in idx.ties:
            t = terms.for_tie(v.tie_id)
            objective += -t.price * delta_t[v.tie_id] \
                + 0.5 * t.capacity_price * abs(delta_t[v.tie_id])
            willingness[v.tie_id] = duals.reliability_price + duals.nodal_price[v.own_bus]
        return ClearingResult(self.area_id, decision, duals, objective, gen_cost,
                              willingness, sol.status, sol.residuals.max())


def assemble(net: Network, area_id: str, terms: TermsOfTrade,
             requirement: AggregateRequirement | None = None):
    """Build one area's clearing QP. Returns (program, index map)."""
    problem = AreaProblem(net, area_id, requirement=requirement)
    return problem.assemble(terms), problem.index


def clear(net: Network, area_id: str, terms: TermsOfTrade,
          requirement: AggregateRequirement | None = None,
          tol: float = qpmod.DEFAULT_TOL, max_iter: int = qpmod.DEFAULT_MAX_ITER) -> ClearingResult:
    return AreaProblem(net, area_id, requirement=requirement).clear(terms, tol, max_iter)


def evaluate_objective(net: Network, area_id: str, terms: TermsOfTrade,
                       decision: AreaDecision) -> float:
    """Trade-aware clearing objective evaluated at an arbitrary decision."""
    total = sum(net.generator(g).cost(net.generator(g).p_da + dp)
                for g, dp in decision.delta_p.items())
    for v in net.tie_views(area_id):
        t = terms.for_tie(v.tie_id)
        dt = decision.delta_t[v.tie_id]
        total += -t.price * dt + 0.5 * t.capacity_price * abs(dt)
    return total


def autarky_infeasibility(net: Network, area_id: str) -> str | None:
    """Probe whether an area can meet local demand with zero intertie flow."""
    try:
        AreaProblem(net, area_id, autarky=True).clear(TermsOfTrade({}))
    except ClearingError as e:
        if e.status == "infeasible":
            return e.status
        return f"solver {e.status}"
    return None


class ClearingEngine(Protocol):
    """Black-box clearing contract the coupling mechanism depends on.

    Any convex internal market model may stand behind it: given the terms of
    trade for every incident tie, return the cleared flows, boundary angles,
    and willingness to pay.
    """

    def clear_area(self, area_id: str, terms: TermsOfTrade) -> ClearingResult:
        ...


class ChanceConstrainedClearing:
    """Default engine: the chance-constrained clearing above, cached per area."""

    def __init__(self, net: Network, tol: float = qpmod.DEFAULT_TOL,
                 max_iter: int = qpmod.DEFAULT_MAX_ITER):
        self.net = net
        self.tol = tol
        self.max_iter = max_iter
        self._problems = {a.id: AreaProblem(net, a.id) for a in net.areas}

    def clear_area(self, area_id: str, terms: TermsOfTrade) -> ClearingResult:
        return self._problems[area_id].clear(terms, self.tol, self.max_iter)
