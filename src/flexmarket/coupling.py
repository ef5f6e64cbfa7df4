"""Round-based coupling mechanism between area operators.

Each round, every area clears against its neighbors' previous-round
broadcasts (flows, boundary angles, willingness to pay), the broadcast
variables are blended with an inertial step rho_k -> 0+, and the per-tie
capacity prices take a constant-step ascent on the capacity-violation
surrogate, clamped at zero.  Capacity prices move on a fast timescale, flows
and quoted prices on a slow one; the mechanism's limit is a Nash equilibrium
of the coupled clearing game, which `verify_nash` checks numerically by
re-clearing each area against the frozen limit terms.

`run` keeps the broadcasts in memory as one flat vector and its trace as
columns: one float64 row per round in a `Trace`, whose `TraceRecord` items
are built only when read.  An engine with the array method `respond`, such
as the default `ChanceConstrainedClearing`, clears each area from slices of
that vector and writes the area's broadcast into its slice of the next one,
so a round builds no terms or result objects; the run's final `clearings`
come from its `last_result`.  Any other `ClearingEngine` gets a
`TermsOfTrade` per area and round and returns a `ClearingResult`, whose
broadcast entries `run` reads back.  The wire format of `encode_message`/
`decode_message` serves a networked deployment.
"""
from __future__ import annotations

import json
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import Network
from .market import (ChanceConstrainedClearing, ClearingEngine, ClearingError,
                     ClearingResult, TermsOfTrade, TieTerms, clear as clear_area,
                     evaluate_objective)
from .qp import DEFAULT_MAX_ITER

log = logging.getLogger("flexmarket.coupling")

CONSECUTIVE = 5  # rounds below tol before declaring convergence
NASH_TOL = 1e-4  # relative objective gain that counts as a profitable deviation


class MechanismError(RuntimeError):
    def __init__(self, round_k: int, message: str):
        self.round_k = round_k
        super().__init__(f"round {round_k}: {message}")


class MessageError(ValueError):
    pass


class StaleMessageError(MessageError):
    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected round {expected}, got {got}")


@dataclass(frozen=True)
class RhoSchedule:
    """Inertial step sizes rho_k = rho0 / (k + k0)**exponent.

    Any exponent in (0.5, 1] keeps the steps square-summable but not
    summable.  The default 0.6 decays slowly enough that the damped
    iteration still tracks the moving best responses late in a run; the
    harmonic schedule (exponent 1) is admissible but needs far more rounds
    for the same accuracy.
    """

    rho0: float = 1.0
    k0: float = 1.0
    exponent: float = 0.6

    def __post_init__(self):
        if not (0.5 < self.exponent <= 1.0):
            raise ValueError("exponent must lie in (0.5, 1] so the step sums diverge "
                             "while their squares stay summable")
        if not (0 < self.rho0 < math.inf):
            raise ValueError("rho0 must be finite and > 0")
        if not (0 <= self.k0 < math.inf):
            raise ValueError("k0 must be finite and >= 0")
        if self.rho0 / (1.0 + self.k0) ** self.exponent > 1.0:
            raise ValueError("rho_1 must not exceed 1")


def step_rho(k: int, schedule: RhoSchedule) -> float:
    if k < 1:
        raise ValueError("rounds are counted from 1")
    return schedule.rho0 / (k + schedule.k0) ** schedule.exponent


@dataclass(frozen=True)
class MechanismConfig:
    max_rounds: int = 5000
    rho: RhoSchedule = field(default_factory=RhoSchedule)
    beta: float = 0.1  # capacity-price step, (0,1)
    tol: float = 1e-8  # convergence threshold on the broadcast variables
    solver_tol: float = 1e-8
    solver_max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0,1)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        for name in ("tol", "solver_tol"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0")
        if self.solver_max_iter < 1:
            raise ValueError("solver_max_iter must be >= 1")


@dataclass(frozen=True)
class AreaBroadcast:
    """One area's slice of the exchanged variables x_a."""

    delta_t: dict[str, float]  # per incident tie, own orientation
    theta: dict[str, float]  # per own boundary bus
    price: dict[str, float]  # willingness to pay per incident tie


@dataclass(frozen=True)
class CouplingState:
    k: int
    areas: dict[str, AreaBroadcast]
    mu: dict[str, float]  # shared capacity price per tie
    rho: RhoSchedule
    beta: float


@dataclass(frozen=True)
class TieQuote:
    tie_id: str
    delta_t_mw: float
    theta_rad: float
    delta_price: float


@dataclass(frozen=True)
class ExchangeMessage:
    sender: str
    round_k: int
    ties: tuple[TieQuote, ...]


@dataclass(frozen=True)
class TieTrace:
    flow_from: float  # t_da + dT seen from the stored from-side
    flow_to: float  # (-t_da) + dT seen from the to-side
    mu: float
    delta_from: float
    delta_to: float
    consensus: float  # |flow_from + flow_to|
    slackness: float  # mu * ((|dTa| + |dTb|)/2 + |t_da| - capacity)


@dataclass(frozen=True)
class AreaTrace:
    reliability_price: float
    objective: float


@dataclass(frozen=True)
class TraceRecord:
    k: int
    ties: dict[str, TieTrace]
    areas: dict[str, AreaTrace]
    dx_inf: float
    consensus: float  # largest tie consensus
    slackness: float  # tie slackness of largest magnitude, signed


class Trace(Sequence):
    """A run's rounds, read-only, as one float64 row per round.

    A row holds, per tie in `tie_ids` order, `flow_from, flow_to, mu,
    delta_from, delta_to, consensus, slackness`; then per area in `area_ids`
    order `gamma, objective`; then `dx_inf, consensus, slackness`: 8 *
    (7 * ties + 2 * areas + 3) bytes per round.  Item i is a `TraceRecord`
    view of row i, built on access; its `k` counts from 1.
    """

    def __init__(self, tie_ids: tuple[str, ...], area_ids: tuple[str, ...]):
        self.tie_ids = tie_ids
        self.area_ids = area_ids
        self._rows = np.empty((1, 7 * len(tie_ids) + 2 * len(area_ids) + 3))
        self._len = 0

    def _next_row(self) -> np.ndarray:
        """The next row, to be filled in place; the storage doubles when full."""
        if self._len == len(self._rows):
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
        self._len += 1
        return self._rows[self._len - 1]

    @property
    def rows(self) -> np.ndarray:
        """The filled rows, as a read-only view."""
        view = self._rows[:self._len]
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(self._len)))
        k = range(1, self._len + 1)[i]  # raises IndexError past either end
        values = self._rows[k - 1].tolist()  # Python floats, as the fields are typed
        n = 7 * len(self.tie_ids)
        ties = {t: TieTrace(*values[7 * j:7 * j + 7]) for j, t in enumerate(self.tie_ids)}
        areas = {a: AreaTrace(*values[n + 2 * j:n + 2 * j + 2])
                 for j, a in enumerate(self.area_ids)}
        return TraceRecord(k, ties, areas, *values[-3:])


@dataclass(frozen=True)
class MechanismRun:
    state: CouplingState
    trace: Trace
    clearings: dict[str, ClearingResult]  # most recent clear per area
    converged: bool
    rounds: int


def inertial_update(prev, fresh, rho: float):
    """Componentwise (1-rho)*prev + rho*fresh."""
    prev = np.asarray(prev, dtype=float)
    fresh = np.asarray(fresh, dtype=float)
    if prev.shape != fresh.shape:
        raise ValueError(f"shape mismatch: {prev.shape} vs {fresh.shape}")
    return (1.0 - rho) * prev + rho * fresh


def _capacity_surrogate(abs_dt_a, abs_dt_b, abs_t_da, capacity):
    """A tie's flow surrogate over its capacity, (|dTa| + |dTb|)/2 + |t_da| - capacity."""
    return 0.5 * (abs_dt_a + abs_dt_b) + abs_t_da - capacity


def update_capacity_price(mu_prev, abs_dt_a, abs_dt_b, abs_t_da, capacity, beta: float):
    """Constant-step ascent on the capacity surrogate, clamped at zero (the
    + 0.0 turns a clamped -0.0 into 0.0); scalars or arrays, elementwise."""
    return np.maximum(mu_prev + beta * _capacity_surrogate(abs_dt_a, abs_dt_b, abs_t_da, capacity),
                      0.0) + 0.0


def _fmt(v: float) -> str:
    v = float(v)
    if v != v or v in (float("inf"), float("-inf")):
        raise MessageError(f"non-finite value {v!r} cannot go on the wire")
    out = format(v, ".17g")
    if out.lstrip("-").isdigit():
        out += ".0"  # keep it a JSON double; "-0" alone would decode as int 0
    return out


def encode_message(msg: ExchangeMessage) -> bytes:
    """Fixed JSON wire format; doubles carry 17 significant digits."""
    ties = ",".join(
        f'{{"id":{json.dumps(q.tie_id)},"delta_t_mw":{_fmt(q.delta_t_mw)},'
        f'"theta_rad":{_fmt(q.theta_rad)},"delta_price":{_fmt(q.delta_price)}}}'
        for q in sorted(msg.ties, key=lambda q: q.tie_id)
    )
    return (f'{{"sender":{json.dumps(msg.sender)},"round":{msg.round_k},'
            f'"ties":[{ties}]}}').encode()


def decode_message(data: bytes, expected_round: int | None = None) -> ExchangeMessage:
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise MessageError(f"malformed payload: {e}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("sender"), str) \
            or not isinstance(doc.get("round"), int) or not isinstance(doc.get("ties"), list):
        raise MessageError("malformed payload: wrong structure")
    ties = []
    for q in doc["ties"]:
        if not isinstance(q, dict) or set(q) != {"id", "delta_t_mw", "theta_rad", "delta_price"}:
            raise MessageError("malformed payload: bad tie entry")
        if not isinstance(q["id"], str) or not all(
                isinstance(q[f], (int, float)) and not isinstance(q[f], bool)
                for f in ("delta_t_mw", "theta_rad", "delta_price")):
            raise MessageError("malformed payload: bad tie field types")
        ties.append(TieQuote(q["id"], float(q["delta_t_mw"]), float(q["theta_rad"]),
                             float(q["delta_price"])))
    if expected_round is not None and doc["round"] != expected_round:
        raise StaleMessageError(expected_round, doc["round"])
    return ExchangeMessage(doc["sender"], doc["round"], tuple(ties))


class _BroadcastIndex:
    """Slots of the flat broadcast vector x: per area, in network order,
    delta_t per incident tie, theta per boundary bus, price per incident tie.
    Capacity prices sit in a second vector, in active-tie order."""

    def __init__(self, net: Network):
        self.ties = net.active_ties()
        self.keys: list[tuple[str, str, str]] = []  # (area, field, key) per slot
        views = {a.id: net.tie_views(a.id) for a in net.areas}
        self.areas = tuple(views)
        spans = {}
        for a, vs in views.items():
            start = len(self.keys)
            self.keys += [(a, "delta_t", v.tie_id) for v in vs]
            self.keys += [(a, "theta", b) for b in sorted({v.own_bus for v in vs})]
            self.keys += [(a, "price", v.tie_id) for v in vs]
            spans[a] = slice(start, len(self.keys))
        slot = {key: i for i, key in enumerate(self.keys)}
        mu_slot = {t.id: i for i, t in enumerate(self.ties)}
        # per area: its slice of x, its incident ties and, per tie, the
        # neighbor's price and angle slots and the mu slot
        self.segments = [(a, spans[a], [v.tie_id for v in vs], *np.array(
            [(slot[v.neighbor_area, "price", v.tie_id],
              slot[v.neighbor_area, "theta", v.neighbor_bus], mu_slot[v.tie_id]) for v in vs],
            dtype=int).reshape(-1, 3).T) for a, vs in views.items()]
        # rows: delta_t of the from side, of the to side, then price of each side
        self.tie_slots = np.array([[slot[a, f, t.id] for f in ("delta_t", "price")
                                    for a in (t.from_area, t.to_area)] for t in self.ties],
                                  dtype=int).reshape(-1, 4).T
        self.t_da = np.array([t.t_da for t in self.ties], dtype=float)
        self.abs_t_da = np.abs(self.t_da)
        self.capacity = np.array([t.capacity for t in self.ties], dtype=float)

    def flatten(self, areas: dict[str, dict[str, dict[str, float]]]) -> np.ndarray:
        """The vector of broadcasts given per area as {field: {key: value}}."""
        return np.array([areas[a][f][key] for a, f, key in self.keys], dtype=float)

    def unflatten(self, x: np.ndarray, mu: np.ndarray):
        areas = {a: AreaBroadcast({}, {}, {}) for a in self.areas}
        for (a, f, key), v in zip(self.keys, x.tolist()):
            getattr(areas[a], f)[key] = v
        return areas, dict(zip([t.id for t in self.ties], mu.tolist()))

    def terms(self, x: np.ndarray, mu: np.ndarray) -> dict[str, TermsOfTrade]:
        return {a: TermsOfTrade(dict(zip(ids, map(TieTerms, x[p].tolist(), x[q].tolist(),
                                                  mu[m].tolist()))))
                for a, _, ids, p, q, m in self.segments}

    def state_terms(self, state: CouplingState) -> dict[str, TermsOfTrade]:
        areas = {a: vars(b) for a, b in state.areas.items()}
        return self.terms(self.flatten(areas), np.array([state.mu[t.id] for t in self.ties]))


def terms_for_area(net: Network, state: CouplingState, area_id: str) -> TermsOfTrade:
    """Assemble an area's terms of trade from its neighbors' broadcasts."""
    return _BroadcastIndex(net).state_terms(state)[area_id]


def _record(index: _BroadcastIndex, row: np.ndarray, x: np.ndarray, mu: np.ndarray,
            dx: float, scores: list[tuple[float, float]]) -> None:
    """Fill one round's `Trace` row; ``scores`` gives gamma and the objective per area."""
    dt_from, dt_to, price_from, price_to = x[index.tie_slots]
    flow_from = index.t_da + dt_from
    flow_to = -index.t_da + dt_to
    consensus = np.abs(flow_from + flow_to)
    slackness = mu * _capacity_surrogate(np.abs(dt_from), np.abs(dt_to), index.abs_t_da,
                                         index.capacity)
    n = 7 * len(mu)
    row[:n].reshape(-1, 7).T[:] = (flow_from, flow_to, mu, price_from, price_to,
                                   consensus, slackness)
    row[n:-3].reshape(-1, 2)[:] = scores
    # consensus is the max from 0.0; slackness keeps its first largest product's
    # sign, so a priced tie below capacity shows, and + 0.0 turns mu == 0's -0.0 into 0.0
    worst = slackness[np.abs(slackness).argmax()] + 0.0 if n else 0.0
    row[-3:] = dx, consensus.max(initial=0.0), worst


def _clear_by_terms(k: int, engine: ClearingEngine, index: _BroadcastIndex, x: np.ndarray,
                    mu: np.ndarray) -> tuple[dict[str, ClearingResult], np.ndarray]:
    """One round of an engine without `respond`: each area clears at its
    `TermsOfTrade`; returns the results and the broadcast vector they give."""
    terms = index.terms(x, mu)
    clearings = {a: engine.clear_area(a, terms[a]) for a in terms}
    broadcasts = {a: {"delta_t": c.decision.delta_t, "theta": c.decision.theta,
                      "price": c.willingness_to_pay} for a, c in clearings.items()}
    try:
        return clearings, index.flatten(broadcasts)
    except KeyError:
        a, f, key = next((a, f, key) for a, f, key in index.keys if key not in broadcasts[a][f])
        raise MechanismError(k, f"area[{a}]: no {f}[{key}] in its clearing result") from None


def run(net: Network, config: MechanismConfig | None = None,
        engine: ClearingEngine | None = None) -> MechanismRun:
    """Execute the mechanism; deterministic for identical inputs."""
    config = config or MechanismConfig()
    if engine is None:
        engine = ChanceConstrainedClearing(net, config.solver_tol, config.solver_max_iter)
    respond = getattr(engine, "respond", None)  # the array method, if the engine has one
    index = _BroadcastIndex(net)
    x = np.zeros(len(index.keys))
    mu = np.zeros(len(index.ties))
    fresh = np.empty_like(x)
    trace = Trace(tuple(t.id for t in index.ties), index.areas)
    streak = 0
    for k in range(1, config.max_rounds + 1):
        try:
            if respond is None:
                clearings, fresh = _clear_by_terms(k, engine, index, x, mu)
                scores = [(c.duals.reliability_price, c.objective) for c in clearings.values()]
            else:
                scores = [respond(a, x[price].tolist(), x[angle].tolist(), mu[tie_mu].tolist(),
                                  fresh[span]) for a, span, _, price, angle, tie_mu in index.segments]
        except ClearingError as e:
            raise MechanismError(k, str(e)) from e
        bad = np.flatnonzero(~np.isfinite(fresh))
        if bad.size:
            a, f, key = index.keys[bad[0]]
            raise MechanismError(k, f"area[{a}]: non-finite {f}[{key}] = {float(fresh[bad[0]])}")
        new = inertial_update(x, fresh, step_rho(k, config.rho))
        dx = float(np.max(np.abs(new - x), initial=0.0))
        x = new
        mu = update_capacity_price(mu, *np.abs(x[index.tie_slots[:2]]), index.abs_t_da,
                                   index.capacity, config.beta)
        _record(index, trace._next_row(), x, mu, dx, scores)
        streak = streak + 1 if dx < config.tol else 0
        if streak >= CONSECUTIVE:
            break
    if respond is not None:
        clearings = {a: engine.last_result(a) for a in index.areas}
    converged = streak >= CONSECUTIVE
    log.info("mechanism finished after %d rounds (converged=%s)", k, converged)
    state = CouplingState(k, *index.unflatten(x, mu), config.rho, config.beta)
    return MechanismRun(state, trace, clearings, converged, k)


@dataclass(frozen=True)
class NashGap:
    gap: float  # limit - best; <= tolerance at a Nash equilibrium
    tolerance: float
    passed: bool


def verify_nash(net: Network, state: CouplingState,
                clearings: dict[str, ClearingResult]) -> dict[str, NashGap]:
    """No-profitable-unilateral-deviation check at the limit state.

    Each area is re-cleared once against the frozen limit terms, seeded with
    the rows its limit decision binds; the objective of its limit decision
    must not exceed the re-cleared optimum by more than NASH_TOL * (1 + |V_a|).
    """
    terms = _BroadcastIndex(net).state_terms(state)
    out = {}
    for a in net.areas:
        best = clear_area(net, a.id, terms[a.id], near=clearings[a.id].decision)
        v_limit = evaluate_objective(net, a.id, terms[a.id], clearings[a.id].decision)
        gap = v_limit - best.objective
        tolerance = NASH_TOL * (1.0 + abs(v_limit))
        out[a.id] = NashGap(gap, tolerance, gap <= tolerance)
    return out


def trace_to_csv(trace: Trace) -> str:
    """Stable-order CSV: k, per tie (sorted) flows/mu/prices, per area (sorted)
    reliability price and objective, then the three convergence metrics."""
    if not trace:
        return ""
    n = 7 * len(trace.tie_ids)
    m = n + 2 * len(trace.area_ids)
    cols, at = ["k"], []  # the header and the row column under each name
    for t, j in sorted(zip(trace.tie_ids, range(0, n, 7))):
        cols += [f"{t}.flow_from", f"{t}.flow_to", f"{t}.mu", f"{t}.delta_from", f"{t}.delta_to"]
        at += range(j, j + 5)
    for a, j in sorted(zip(trace.area_ids, range(n, m, 2))):
        cols += [f"{a}.gamma", f"{a}.objective"]
        at += [j, j + 1]
    cols += ["dx_inf", "consensus", "slackness"]
    at += range(m, m + 3)
    lines = [",".join(cols)]
    # tolist() hands back Python floats, whose repr the CSV relies on
    for k, row in enumerate(trace.rows[:, at], 1):
        lines.append(",".join([str(k), *map(repr, row.tolist())]))
    return "\n".join(lines) + "\n"
