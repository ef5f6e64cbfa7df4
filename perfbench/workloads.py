"""The three workloads: their cases, one pass over them, and their checks.

A pass has two parts.  ``set_up`` loads or generates every case, runs
``grid.validate`` (which includes the autarky probe) and builds a fresh
clearing engine per case; engines cache the last active set, so a pass never
reuses one.  ``work`` then runs the mechanism on each case, renders and
writes its trace CSV, and certifies the result.  Everything goes through the
package's public API, as ``flexmarket run --mode compare`` does.

Synthetic networks are fixed per workload: most seeded networks of these
sizes hit the ``qp`` iteration-limit fault, and the cost of the ones that
do not spreads over 5x (see README.md).  The ``--seed`` rotates the order in
which a pass visits its cases.
"""
from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

from flexmarket import benchmark, coupling, grid, market

import checks
from gen import synthetic_case

# the tests' BUNDLED_RUN_CONFIG (tests/conftest.py), restated so that the
# benchmark does not change when the tests do
BUNDLED_RUN = dict(max_rounds=5000, tol=1e-9, beta=0.1, rho=(1.0, 1.0, 0.6))
# fixed round budgets: tol is far below what these budgets reach, so every
# run stops on max_rounds
LADDER_ROUNDS = 80
OPENING_ROUNDS = 3
FIXED_BUDGET_TOL = 1e-300

# (areas, buses per area, generator seed), screened as README.md describes
LADDER = ((2, 4, 0), (4, 8, 0), (4, 16, 1), (8, 4, 2))
COLD = ((24, 2, 1), (24, 2, 4))


def mechanism_config(max_rounds: int, tol: float, beta: float, rho: tuple):
    """A serial MechanismConfig.  The pooled path is slower and far less
    steady on two cores (README.md); asking for the serial one only while the
    ``parallel`` field exists keeps this working once the pool is removed."""
    kwargs = dict(max_rounds=max_rounds, tol=tol, beta=beta, rho=coupling.RhoSchedule(*rho))
    if "parallel" in {f.name for f in dataclasses.fields(coupling.MechanismConfig)}:
        kwargs["parallel"] = False
    return coupling.MechanismConfig(**kwargs)


@dataclass(frozen=True)
class Spec:
    name: str
    load: object  # () -> Network
    config: object  # MechanismConfig
    limit: bool  # certify the mechanism's limit, or else the centralized fixed point


@dataclass
class Case:
    spec: Spec
    net: object
    engine: object


@dataclass
class Outcome:
    spec: Spec
    net: object
    run: object = None
    csv: str = ""
    central: object = None
    clearings: dict | None = None  # the certified state's clearings
    report: dict | None = None
    run_s: float = 0.0
    certify_s: float = 0.0
    wall_s: float = 0.0
    error: str | None = None


def synthetic_spec(n_areas, buses, seed, rounds):
    def load():
        return grid.load_case(synthetic_case(n_areas, buses, seed))
    return Spec(f"{n_areas}x{buses}-s{seed}", load,
                mechanism_config(rounds, FIXED_BUDGET_TOL, 0.1, (1.0, 1.0, 0.6)), False)


def specs(workload: str, seed: int) -> list[Spec]:
    if workload == "bundled-compare":
        config = mechanism_config(**BUNDLED_RUN)
        out = [Spec(name, lambda name=name: grid.load_bundled(name), config, True)
               for name in grid.BUNDLED_CASES]
    elif workload == "ladder":
        out = [synthetic_spec(*rung, LADDER_ROUNDS) for rung in LADDER]
    elif workload == "cold-certify":
        out = [synthetic_spec(*net, OPENING_ROUNDS) for net in COLD]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    k = seed % len(out)
    return out[k:] + out[:k]


class SetupError(RuntimeError):
    pass


def set_up(workload_specs: list[Spec]) -> list[Case]:
    cases = []
    for spec in workload_specs:
        net = spec.load()
        violations = grid.validate(net)
        if violations:
            raise SetupError(f"{spec.name}: {violations}")
        engine = market.ChanceConstrainedClearing(net, spec.config.solver_tol,
                                                  spec.config.solver_max_iter)
        cases.append(Case(spec, net, engine))
    return cases


ERRORS = (coupling.MechanismError, market.ClearingError, benchmark.CentralizedInfeasible)


def _fixed_point_state(net, terms, clearings, run):
    """The coupling state whose broadcasts are the areas' responses to the
    optimal terms of trade, with the capacity prices those terms carry."""
    areas = {a: coupling.AreaBroadcast(
        dict(c.decision.delta_t), {b: c.decision.theta[b] for b in net.boundary_buses(a)},
        dict(c.willingness_to_pay)) for a, c in clearings.items()}
    mu = {t.id: terms[t.from_area].for_tie(t.id).capacity_price for t in net.active_ties()}
    return coupling.CouplingState(run.rounds, areas, mu, run.state.rho, run.state.beta)


def work(case: Case, out_dir: Path) -> Outcome:
    """Run, trace and certify one case, timing the run and the certification."""
    spec, net, cfg = case.spec, case.net, case.spec.config
    res = Outcome(spec, net)
    start = time.perf_counter()
    try:
        res.run = coupling.run(net, cfg, engine=case.engine)
        res.run_s = time.perf_counter() - start
        res.csv = coupling.trace_to_csv(res.run.trace)
        (out_dir / f"trace-{spec.name}.csv").write_text(res.csv, encoding="utf-8")
        cert_start = time.perf_counter()
        res.central = benchmark.solve_centralized(net, tol=cfg.solver_tol,
                                                  max_iter=cfg.solver_max_iter)
        terms = benchmark.optimal_terms_of_trade(net, res.central)
        benchmark.verify_fixed_point(net, res.central, terms, tol=cfg.solver_tol)
        if spec.limit:
            state, res.clearings = res.run.state, res.run.clearings
        else:
            res.clearings = {a.id: market.clear(net, a.id, terms[a.id], tol=cfg.solver_tol)
                             for a in net.areas}
            state = _fixed_point_state(net, terms, res.clearings, res.run)
        res.report = benchmark.comparison_report(net, state, res.clearings, res.central)
        res.certify_s = time.perf_counter() - cert_start
    except ERRORS as e:
        res.error = f"{spec.name}: {type(e).__name__}: {e}"
    res.wall_s = time.perf_counter() - start
    return res


def fingerprint(res: Outcome) -> tuple[str, str]:
    """What must repeat byte for byte across the passes of a run."""
    return res.csv, json.dumps(res.report, sort_keys=True)


def verify(res: Outcome, reference: float | None):
    """Check one case's outputs; raises checks.CheckFailed.

    ``reference`` is the scipy optimum, or None to skip that comparison.
    """
    net, run, where = res.net, res.run, res.spec.name
    for a in net.areas:
        checks.area_feasible(net, a.id, run.clearings[a.id].decision, f"{where} last round")
        checks.marginal_prices(net, a.id, run.clearings[a.id], f"{where} last round")
        checks.area_feasible(net, a.id, res.clearings[a.id].decision, f"{where} certified")
        checks.marginal_prices(net, a.id, res.clearings[a.id], f"{where} certified")
    decisions = {a: c.decision for a, c in res.clearings.items()}
    if res.spec.limit:
        checks.require(run.converged, f"{where}: mechanism did not converge")
        checks.tie_capacity(net, decisions, f"{where} limit")
    else:
        checks.require(run.rounds == res.spec.config.max_rounds,
                       f"{where}: ran {run.rounds} of {res.spec.config.max_rounds} rounds")
    checks.matches_central(net, decisions, res.central, where)
    checks.report_passes(res.report, where)
    if res.spec.name.startswith("toy2"):
        checks.two_area_closed_form(net, decisions, f"{where} limit")
        checks.two_area_closed_form(net, res.central.decisions, f"{where} centralized")
    if reference is not None:
        checks.central_reference(net, res.central, reference, where)
