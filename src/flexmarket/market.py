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

The terms enter only c (+-price + mu/2 on dT+-) and b (the tie definitions'
-theta_nbr/x - t_da), so on a fixed active set the solution is affine in
them: that set's critical region in multi-parametric QP (Bemporad, Morari,
Dua & Pistikopoulos, Automatica 38, 2002).  A round of the default engine
(`ChanceConstrainedClearing.respond`) answers an area by the response map of
its last active set (`AreaProblem._response_map`), built from the solver's
memoized pseudo-inverse the first time the set repeats, and accepts that
answer after the same KKT check as `qp.solve`.  Where the terms leave the
region or the check fails, the hinted `qp.solve` answers as it did before
the map, and its answer's set builds the next map.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import qp as qpmod
from .grid import Area, Generator, Network, TieView
from .stochastic import aggregate_requirement

# Tikhonov weight on the diagonal of the split-flow and angle blocks, which
# the generation cost leaves only PSD.  Reported objectives are evaluated
# directly from the cost data, so the perturbation never shows up downstream.
REGULARIZATION = 1e-9


class ClearingError(RuntimeError):
    """Area clearing failed; carries the area id, the solver status and, as
    detail, its path, iterations and worst KKT residual."""

    def __init__(self, area_id: str, status: str, detail: str = ""):
        self.area_id = area_id
        self.status = status
        self.detail = detail
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


def cost_block(net: Network, var_dp: Mapping[str, int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Q and c of a clearing program of ``n`` columns before any terms of trade:
    2 c_q on each dP diagonal entry and the generator's marginal cost at P_da
    in c; every other column gets REGULARIZATION on its diagonal."""
    q = np.diag(np.full(n, REGULARIZATION))
    c = np.zeros(n)
    for g, i in var_dp.items():
        gen = net.generator(g)
        q[i, i] = 2.0 * gen.cost_quadratic
        c[i] = gen.cost_linear + 2.0 * gen.cost_quadratic * gen.p_da
    return q, c


def add_area_rows(ineq: Rows, net: Network, area_id: str, requirement: float,
                  var_dp: Mapping[str, int], var_theta: Mapping[str, int],
                  flows: Sequence[tuple[TieView, Sequence[tuple[int, float]]]],
                  aggregate_label: str = "aggregate") -> None:
    """Append one area's block of inequality rows, in this order: nodal per
    bus; gen_lo, ramp_lo, gen_hi and ramp_hi per generator; line_hi and
    line_lo per line; then the aggregate row.  Buses, generators and lines
    come in the area's order.  `block_duals` reads the block's multipliers
    by this order and `block_multipliers` writes them.

    ``flows`` gives, per incident tie, the (column, coefficient) pairs whose
    sum is the area's flow adjustment on it.
    """
    area = net.area(area_id)
    gens = area.generator_ids
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
        ineq.add(row, rhs, f"nodal[{b}]")

    for g in gens:
        gen = net.generator(g)
        row = np.zeros(ineq.width)
        row[var_dp[g]] = -1.0
        ineq.add(row.copy(), gen.p_da - gen.p_min, f"gen_lo[{g}]")
        ineq.add(row.copy(), -gen.ramp_down, f"ramp_lo[{g}]")
        row = np.zeros(ineq.width)
        row[var_dp[g]] = 1.0
        ineq.add(row.copy(), gen.p_max - gen.p_da, f"gen_hi[{g}]")
        ineq.add(row.copy(), gen.ramp_up, f"ramp_hi[{g}]")

    for lid in area.line_ids:
        line = net.line(lid)
        row = np.zeros(ineq.width)
        row[var_theta[line.from_bus]] = 1.0 / line.reactance
        row[var_theta[line.to_bus]] = -1.0 / line.reactance
        ineq.add(row.copy(), line.capacity, f"line_hi[{lid}]")
        ineq.add(-row, line.capacity, f"line_lo[{lid}]")

    row = np.zeros(ineq.width)
    rhs = -requirement
    for g in gens:
        row[var_dp[g]] = -1.0
        rhs += net.generator(g).p_da
    for v, cols in flows:
        for j, coef in cols:
            row[j] += coef
        rhs -= v.t_da
    ineq.add(row, rhs, aggregate_label)


def block_duals(area: Area, z: Iterable[float], tie_def: dict[str, float],
                slack_angle: float | None) -> AreaDuals:
    """The area's duals from the multipliers of its `add_area_rows` block,
    in row order.  ``z`` may run on past the block; an iterator is left at
    the row after it, where the next block starts."""
    z = iter(z)
    gens, lines = area.generator_ids, area.line_ids
    nodal = dict(zip(area.bus_ids, z))
    g = list(islice(z, 4 * len(gens)))  # gen_lo, ramp_lo, gen_hi, ramp_hi per generator
    ln = list(islice(z, 2 * len(lines)))  # line_hi, line_lo per line
    return AreaDuals(nodal_price=nodal, reliability_price=next(z),
                     gen_lower=dict(zip(gens, g[0::4])), ramp_lower=dict(zip(gens, g[1::4])),
                     gen_upper=dict(zip(gens, g[2::4])), ramp_upper=dict(zip(gens, g[3::4])),
                     line_upper=dict(zip(lines, ln[0::2])), line_lower=dict(zip(lines, ln[1::2])),
                     tie_def=tie_def, slack_angle=slack_angle)


def block_multipliers(area: Area, duals: AreaDuals) -> list[float]:
    """The multipliers of the area's `add_area_rows` block, in row order, from its duals."""
    z = [duals.nodal_price[b] for b in area.bus_ids]
    for g in area.generator_ids:
        z += (duals.gen_lower[g], duals.ramp_lower[g], duals.gen_upper[g], duals.ramp_upper[g])
    for lid in area.line_ids:
        z += (duals.line_upper[lid], duals.line_lower[lid])
    z.append(duals.reliability_price)
    return z


class AreaProblem:
    """Pre-assembled clearing problem; per-round terms only touch c and b.

    The program's columns are dP per generator in the area's order, then dT+
    and dT- per tie in ``ties`` (`Network.tie_views`) order, then theta per
    bus in the area's order.  Its equality rows are the tie definitions in
    ``ties`` order, then the slack pin if the area holds the reference bus.
    The inequality rows are the area's `add_area_rows` block, in the order
    its docstring states, then the split signs.

    The program is validated once; each solve rebinds c and b onto its
    frozen structure, so the solver's memoized factorizations carry over,
    and a round answered by the response map rebinds nothing.  It keeps no
    caller's state: a clear's hint comes from its caller, and the memo holds
    only what the active set determines (its factorization and response
    map), so one problem can serve every caller (``_area_problem``).
    """

    def __init__(self, net: Network, area_id: str, autarky: bool = False):
        self.area_id = area_id
        self._area = area = net.area(area_id)
        self.ties = ties = () if autarky else net.tie_views(area_id)
        ng, nt = len(area.generator_ids), len(ties)
        nv = ng + 2 * nt + len(area.bus_ids)
        split = [(ng + 2 * i, ng + 2 * i + 1) for i in range(nt)]  # dT+ and dT- per tie

        var_dp = {g: i for i, g in enumerate(area.generator_ids)}
        var_theta = {b: ng + 2 * nt + i for i, b in enumerate(area.bus_ids)}
        var_labels = [f"dP[{g}]" for g in area.generator_ids]
        for v in ties:
            var_labels += [f"dT+[{v.tie_id}]", f"dT-[{v.tie_id}]"]
        var_labels += [f"theta[{b}]" for b in area.bus_ids]

        q, c = cost_block(net, var_dp, nv)
        eq = Rows(nv)
        for v, (tp, tm) in zip(ties, split):
            row = np.zeros(nv)
            row[tp] = 1.0
            row[tm] = -1.0
            row[var_theta[v.own_bus]] = -1.0 / v.reactance
            # rhs -theta_nbr/x - t_da: -t_da at zero terms, as _bind sets it per terms
            eq.add(row, -v.t_da, f"tie_def[{v.tie_id}]")
        if net.slack[0] == area_id:
            row = np.zeros(nv)
            row[var_theta[net.slack[1]]] = 1.0
            eq.add(row, 0.0, "slack")

        ineq = Rows(nv)
        flows = [(v, ((tp, 1.0), (tm, -1.0))) for v, (tp, tm) in zip(ties, split)]
        requirement = aggregate_requirement(net, area_id).requirement
        add_area_rows(ineq, net, area_id, requirement, var_dp, var_theta, flows)
        self._gamma = len(ineq.labels) - 1  # the aggregate row ends the block
        for v, (tp, tm) in zip(ties, split):
            for j, label in ((tp, "split_p"), (tm, "split_m")):
                row = np.zeros(nv)
                row[j] = -1.0
                ineq.add(row, 0.0, f"{label}[{v.tie_id}]")

        self._program = qpmod.QuadraticProgram(q, c, *eq.arrays(), *ineq.arrays(),
                                               tuple(var_labels), tuple(eq.labels),
                                               tuple(ineq.labels))
        # per tie, in `ties` order: its dT+ and dT- columns, definition row,
        # reactance, t_da and own bus's nodal row (the block leads the rows
        # with one nodal row per bus); the boundary buses' angle columns, in
        # bus order.  The terms and broadcasts of one area are a few floats,
        # which Python scalars handle faster than numpy calls.
        self._ties = [(tp, tm, i, v.reactance, v.t_da, area.bus_ids.index(v.own_bus))
                      for i, (v, (tp, tm)) in enumerate(zip(ties, split))]
        self._boundary = [var_theta[b] for b in sorted({v.own_bus for v in ties})]
        self._gens = [net.generator(g) for g in area.generator_ids]
        # how the terms, per tie price, neighbor angle and mu, then a 1, move
        # the KKT right-hand side (-c, b) of an active set (_response_map)
        self._scatter = scatter = np.zeros((nv + len(eq.labels), 3 * nt + 1))
        scatter[:, -1] = np.concatenate([-self._program.c, self._program.b_eq])
        for i, (tp, tm, row, reactance, _, _) in enumerate(self._ties):
            scatter[[tp, tm, tp, tm, nv + row], [i, i, 2 * nt + i, 2 * nt + i, nt + i]] = \
                (1.0, -1.0, -0.5, -0.5, -1.0 / reactance)

    def assemble(self, terms: TermsOfTrade) -> qpmod.QuadraticProgram:
        """Bind the terms of trade into the cached structure."""
        return self._bind(*_quotes(self.ties, terms))

    def _bind(self, price: Sequence[float], angle: Sequence[float],
              mu: Sequence[float]) -> qpmod.QuadraticProgram:
        """Scatter terms given per tie as price, neighbor angle and capacity
        price into c and b."""
        c = self._program.c.copy()
        b = self._program.b_eq.copy()
        for (tp, tm, row, reactance, t_da, _), p, a, m in zip(self._ties, price, angle, mu):
            c[tp] = -p + 0.5 * m
            c[tm] = p + 0.5 * m
            b[row] = -a / reactance - t_da
        return self._program.rebind(c, b)

    def clear(self, terms: TermsOfTrade, tol: float = qpmod.DEFAULT_TOL,
              near: AreaDecision | None = None) -> ClearingResult:
        """Clear at the terms of trade; cold unless ``near``, a decision
        expected to be close to the answer, seeds the solve with the rows
        that bind at it."""
        price, angle, mu = _quotes(self.ties, terms)
        # binding rows depend only on G and h, which every rebind shares
        hint = None if near is None else self._program.binding_rows(self._primal(near))
        sol = self._solve(price, angle, mu, tol, qpmod.DEFAULT_MAX_ITER, hint)
        return self._extract((sol.x, sol.y, sol.z, sol.residuals.max()), price, mu)

    def _solve(self, price: Sequence[float], angle: Sequence[float], mu: Sequence[float],
               tol: float, max_iter: int, hint: tuple[int, ...] | None) -> qpmod.QpSolution:
        """Solve at the terms, seeded with ``hint``, a binding set such as the
        previous solution's ``active_set``."""
        sol = qpmod.solve(self._bind(price, angle, mu), tol=tol, max_iter=max_iter,
                          active_hint=hint)
        if sol.status != "optimal":
            raise ClearingError(self.area_id, sol.status, sol.describe())
        return sol

    def response_jacobian(self, active: tuple[int, ...]) -> np.ndarray:
        """F of the active set's response (x, y, z_A) = F terms + f: one row
        per column, equality row and row of ``active``, one column per tie's
        price, then per tie's neighbor angle, then per tie's mu, each in
        ``ties`` order.  It is the derivative of the clear wherever the terms
        keep ``active`` binding."""
        return self._response_map(tuple(active))[1][:, :-1]

    def _response_map(self, active: tuple[int, ...]) -> tuple:
        """The response map of an active set.  On the set, (x, y, z_A) is the
        pseudo-inverse of its KKT matrix times the right-hand side (-c, b,
        h_A), which is B (terms, 1) for B the scatter of the terms
        (``_scatter``) with h_A below it; so (x, y, z_A) = [F f] (terms, 1)
        for [F f] = pinv B, refined once through the KKT matrix as
        ``qp._solve_active`` refines its solution.  The map of the last set
        asked is kept in the program's memo beside the set's factorization,
        as ``(active, [F f], the KKT matrix's rows above the set's, the set's
        rows)``."""
        entry = self._program._memo.get("map")
        if entry is None or entry[0] != active:
            kkt, pinv, rows, h_rows = qpmod._active_kkt(self._program, active)
            scatter = np.zeros((len(kkt), self._scatter.shape[1]))
            scatter[:len(self._scatter)], scatter[len(self._scatter):, -1] = self._scatter, h_rows
            response = pinv @ scatter
            response += pinv @ (scatter - kkt @ response)
            entry = self._program._memo["map"] = (active, response, kkt[:len(self._scatter)], rows)
        return entry

    def _by_map(self, price: Sequence[float], angle: Sequence[float], mu: Sequence[float],
                tol: float, active: tuple[int, ...]) -> tuple | None:
        """``(x, y, z, worst KKT residual, active set)`` at the terms by the
        response map of ``active``, or None where the terms leave its region
        (a row violated beyond -min(feasibility tolerance, tol), or a
        multiplier of the set negative) or the answer fails validation: as
        in ``qp.solve``, each KKT residual must be <= tol.  Stationarity and
        the equality rows' residual are read through the set's KKT matrix,
        and no multiplier is clamped."""
        _, response, kkt_rows, rows = self._response_map(active)
        terms = np.array([*price, *angle, *mu, 1.0])
        sol = response @ terms
        program, n, split = self._program, self._program.n, len(self._scatter)
        z = np.bincount(rows, sol[split:], len(program.h_ineq))  # z_A at the set's rows, else 0
        slack = program.h_ineq - program.g_ineq @ sol[:n]
        peak = np.maximum.reduce  # np.max without its wrapper, as in qp._residuals
        worst = (peak(np.abs(self._scatter @ terms - kkt_rows @ sol)),
                 peak(-slack, initial=0.0), peak(np.abs(z * slack)))
        if worst[1] > min(program._feas_tol, tol) or peak(-z) > 0.0 or not max(worst) <= tol:
            return None
        return sol[:n], sol[n:split], z, max(worst), tuple((z > 0.0).nonzero()[0].tolist())

    def _primal(self, decision: AreaDecision) -> np.ndarray:
        """The program's x for a decision; each dT splits into its positive and negative parts."""
        x = [decision.delta_p[g.id] for g in self._gens]
        for v in self.ties:
            dt = decision.delta_t[v.tie_id]
            x += (max(dt, 0.0), max(-dt, 0.0))
        x += [decision.theta[b] for b in self._area.bus_ids]
        return np.array(x, dtype=float)

    def _gather(self, x: list[float], z: list[float], price: Sequence[float],
                mu: Sequence[float], out) -> tuple[float, float, float]:
        """Write the area's broadcast at a solution's x and z, as lists, into
        ``out``, a list or an array slice: dT per tie, the boundary angles,
        then gamma + alpha[own bus] per tie.  Return gamma, the objective at
        ``price`` and ``mu``, and the generation cost."""
        gamma = z[self._gamma]
        # dT = dT+ - dT-.  An overlapping split (possible only at mu == 0)
        # changes neither the difference nor the objective, so the signed
        # flow is already the canonical decision.
        # a tie's entry leads with its dT+ and dT- columns and ends with its
        # nodal row; indexing them is cheaper than a starred unpack
        dt = [x[t[0]] - x[t[1]] for t in self._ties]
        out[:] = dt + [x[i] for i in self._boundary] + [gamma + z[t[-1]] for t in self._ties]
        # the generators' columns come first, so zip stops x after them
        cost = generation_cost(self._gens, x)
        return gamma, _objective(cost, price, mu, dt), cost

    def _extract(self, answer: tuple, price: Sequence[float],
                 mu: Sequence[float]) -> ClearingResult:
        """The result of an answer ``(x, y, z, worst KKT residual)``."""
        ids, buses = [v.tie_id for v in self.ties], self._area.bus_ids
        x, y, z = (v.tolist() for v in answer[:3])
        broadcast = []  # _gather fills it
        _, objective, cost = self._gather(x, z, price, mu, broadcast)
        decision = AreaDecision({g.id: dp for g, dp in zip(self._gens, x)},
                                dict(zip(ids, broadcast)),  # dT leads the broadcast
                                dict(zip(buses, x[len(x) - len(buses):])))
        # the tie definitions lead the equality rows and the slack pin, if
        # the area holds it, ends them; the area's block leads the inequality rows
        duals = block_duals(self._area, z, tie_def=dict(zip(ids, y)),
                            slack_angle=y[-1] if len(y) > len(ids) else None)
        return ClearingResult(self.area_id, decision, duals, objective, cost,
                              dict(zip(ids, broadcast[len(broadcast) - len(ids):])),
                              answer[3])


def _area_problem(net: Network, area_id: str) -> AreaProblem:
    """The area's clearing problem, built on first use and then shared by
    every caller for the network's lifetime."""
    key = ("area", area_id)
    if key not in net._programs:
        net._programs[key] = AreaProblem(net, area_id)
    return net._programs[key]


def clear(net: Network, area_id: str, terms: TermsOfTrade, tol: float = qpmod.DEFAULT_TOL,
          near: AreaDecision | None = None) -> ClearingResult:
    """Clear one area at the given terms of trade.

    The clear runs on the area's problem that the network shares with the
    clearing engine and the certification checks, which saves rebuilding
    it; it stays cold unless given ``near``, as no caller's binding set
    seeds it.

    ``near`` is a decision the caller expects the clearing to reproduce or
    nearly so, such as a limit or benchmark decision under certification.
    The inequality rows binding at it seed the solver's active set; the
    solver accepts that set only if it passes full KKT validation and
    otherwise solves cold.  Either answer meets the KKT tolerance, but on a
    degenerate optimal face ``near`` can pick a different point of the face,
    at the same objective to solver tolerance.
    """
    return _area_problem(net, area_id).clear(terms, tol, near)


def _quotes(ties: Sequence[TieView], terms: TermsOfTrade) -> tuple[list, list, list]:
    """The price, neighbor angle and capacity price of ``terms`` per tie of ``ties``."""
    quotes = [terms.for_tie(v.tie_id) for v in ties]
    return ([t.price for t in quotes], [t.neighbor_angle for t in quotes],
            [t.capacity_price for t in quotes])


def generation_cost(gens: Iterable[Generator], delta_p: Iterable[float]) -> float:
    """Sum of C_g(P_da + dP) over generators and their adjustments, in order."""
    return sum(g.cost(g.p_da + dp) for g, dp in zip(gens, delta_p))


def _objective(gen_cost: float, price, mu, dt) -> float:
    """The trade-aware objective at tie adjustments ``dt``: ``gen_cost`` plus,
    tie by tie in order, -price dT + (mu / 2) |dT|."""
    total = gen_cost
    for p, m, d in zip(price, mu, dt):
        total += -p * d + 0.5 * m * abs(d)
    return total


def evaluate_objective(net: Network, area_id: str, terms: TermsOfTrade,
                       decision: AreaDecision) -> float:
    """Trade-aware clearing objective evaluated at an arbitrary decision."""
    ties = net.tie_views(area_id)
    price, _, mu = _quotes(ties, terms)
    gen_cost = generation_cost(map(net.generator, decision.delta_p), decision.delta_p.values())
    return _objective(gen_cost, price, mu, [decision.delta_t[v.tie_id] for v in ties])


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
    and willingness to pay.  An engine that also has the array method
    `respond` and `last_result`, as `ChanceConstrainedClearing` does, is
    driven through those by `coupling.run`.
    """

    def clear_area(self, area_id: str, terms: TermsOfTrade) -> ClearingResult:
        ...


class ChanceConstrainedClearing:
    """Default engine: the chance-constrained clearing above, on the network's
    shared area problems, each clear answered by the response map of the
    area's previous binding set or, off its region, seeded with that set.
    `coupling.run` drives it through its array method `respond`, which builds
    no result objects; `last_result` builds an area's last one, from the
    answer its last round gave, when asked."""

    def __init__(self, net: Network, tol: float = qpmod.DEFAULT_TOL,
                 max_iter: int = qpmod.DEFAULT_MAX_ITER):
        self.tol = tol
        self.max_iter = max_iter
        self._problems = {a.id: _area_problem(net, a.id) for a in net.areas}
        # per area, the binding set of its last clear and whether the next
        # clear tries the set's response map: when the last clear kept the set
        # it was seeded with, and a solve left that set factored, so that a
        # set that changes from round to round costs no map
        self._hints: dict[str, tuple] = dict.fromkeys(self._problems, (None, False))
        self._last: dict[str, tuple] = {}  # per area: answer, price and mu of its last clear

    def respond(self, area_id: str, price: Sequence[float], angle: Sequence[float],
                mu: Sequence[float], out: np.ndarray) -> tuple[float, float]:
        """Clear an area at its terms, given as floats per incident tie in
        `Network.tie_views` order; write its broadcast into ``out`` and return
        gamma and the objective (`AreaProblem._gather`)."""
        problem, (hint, held) = self._problems[area_id], self._hints[area_id]
        answer = problem._by_map(price, angle, mu, self.tol, hint) if held else None
        if answer is None:
            self._hints[area_id] = None, False  # a clear that fails leaves no hint
            sol = problem._solve(price, angle, mu, self.tol, self.max_iter, hint)
            answer = sol.x, sol.y, sol.z, sol.residuals.max(), sol.active_set
            hint = hint if problem._program._memo["active"][0] == hint else None
        self._hints[area_id] = answer[4], answer[4] == hint
        self._last[area_id] = answer, price, mu
        return problem._gather(answer[0].tolist(), answer[2].tolist(), price, mu, out)[:2]

    def last_result(self, area_id: str) -> ClearingResult:
        return self._problems[area_id]._extract(*self._last[area_id])

    def clear_area(self, area_id: str, terms: TermsOfTrade) -> ClearingResult:
        problem = self._problems[area_id]
        self.respond(area_id, *_quotes(problem.ties, terms), [])
        return self.last_result(area_id)
