"""Command-line front end.

    flexmarket run --case toy2 --mode compare --report report.json
    flexmarket run --case tri3 --scenario ramp_scale=0.75 --mode decentralized --trace out.csv
    flexmarket scenarios

Exit codes: 0 success, 2 configuration/parse/validation error, 3 infeasible
model, 4 convergence or threshold failure.  Failures emit one JSON object on
stderr.  FLEX_LOG_LEVEL in {error, info, debug} controls log verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import benchmark, coupling, grid
from .coupling import MechanismConfig, RhoSchedule

log = logging.getLogger("flexmarket.cli")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

# exit thresholds on the last round's broadcasts (KKT and Nash: benchmark.CHECK_TOL
# and coupling.NASH_TOL)
CONSENSUS_THRESHOLD = 1e-3
SLACKNESS_THRESHOLD = 1e-3


@dataclass(frozen=True)
class RunConfig:
    case: str  # bundled name or path to a case file
    mode: str  # decentralized | centralized | compare
    scenario: grid.ScenarioModifiers = field(default_factory=grid.ScenarioModifiers)
    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    trace_path: str | None = None
    report_path: str | None = None
    objective_gap: float = 1e-3  # relative, against the centralized optimum

    def __post_init__(self):
        if not (0 <= self.objective_gap < math.inf):
            raise ValueError("objective gap threshold must be finite and >= 0")


class _CliError(Exception):
    def __init__(self, code: int, kind: str, message: str, detail=None):
        self.code = code
        self.kind = kind
        self.detail = detail
        super().__init__(message)


def _load_network(config: RunConfig) -> grid.Network:
    if config.case in grid.BUNDLED_CASES:
        net = grid.load_bundled(config.case)
    else:
        try:  # as bytes, so that load_case reports text that does not decode
            net = grid.load_case(Path(config.case).read_bytes())
        except OSError as e:
            raise _CliError(EXIT_CONFIG, "config",
                            f"case {config.case!r} is neither bundled ({', '.join(grid.BUNDLED_CASES)}) "
                            f"nor a readable file: {e.strerror or e}") from e
        except grid.CaseError as e:
            raise _CliError(EXIT_CONFIG, "validation", f"case file {config.case!r} rejected",
                            e.violations) from e
    try:
        net = grid.apply_scenario(net, config.scenario)
    except grid.CaseError as e:
        raise _CliError(EXIT_CONFIG, "validation", "scenario rejected", e.violations) from e
    # load_case and apply_scenario reject every structural fault, so what
    # validate can still find is an area that cannot meet its demand alone
    violations = grid.validate(net)
    if violations:
        raise _CliError(EXIT_INFEASIBLE, "validation", "network validation failed", violations)
    return net


def _run_decentralized(net, config):
    try:
        return coupling.run(net, config.mechanism)
    except coupling.MechanismError as e:
        raise _CliError(EXIT_INFEASIBLE, "solver", str(e)) from e


def _run_centralized(net, config):
    try:
        return benchmark.solve_centralized(net, tol=config.mechanism.solver_tol,
                                           max_iter=config.mechanism.solver_max_iter)
    except benchmark.CentralizedInfeasible as e:
        raise _CliError(EXIT_INFEASIBLE, "solver", str(e)) from e


def _write(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _CliError(EXIT_CONFIG, "config", f"cannot write {path!r}: {e.strerror or e}") from e
    log.info("wrote %s", path)


def cmd_run(config: RunConfig) -> int:
    # an output path that names a directory or lies in a missing one fails
    # before the run rather than after it
    for path in filter(None, (config.trace_path, config.report_path)):
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise _CliError(EXIT_CONFIG, "config",
                            f"cannot write {path!r}: not a file in an existing directory")
    net = _load_network(config)
    checks: dict[str, bool] = {}
    report: dict = {"case": config.case, "mode": config.mode}

    run_result = None
    if config.mode in ("decentralized", "compare"):
        run_result = _run_decentralized(net, config)
        last = run_result.trace[-1]
        report["rounds"] = run_result.rounds
        report["converged"] = run_result.converged
        report["final"] = {
            "mu": {t: v.mu for t, v in last.ties.items()},
            "flows": {t: v.flow_from for t, v in last.ties.items()},
            "reliability_prices": {a: v.reliability_price for a, v in last.areas.items()},
            "consensus": last.consensus,
            "slackness": last.slackness,
        }
        checks["converged"] = run_result.converged
        checks["consensus"] = last.consensus <= CONSENSUS_THRESHOLD
        checks["slackness"] = abs(last.slackness) <= SLACKNESS_THRESHOLD
        if config.trace_path:
            _write(config.trace_path, coupling.trace_to_csv(run_result.trace))
        print(f"decentralized: {run_result.rounds} rounds, "
              f"converged={run_result.converged}, consensus={last.consensus:.3e}")

    central = None
    if config.mode in ("centralized", "compare"):
        central = _run_centralized(net, config)
        report["centralized"] = {
            "objective": central.objective,
            "flows": dict(central.tie_flows),
            "reliability_prices": {a: d.reliability_price for a, d in central.duals.items()},
        }
        print(f"centralized: objective={central.objective:.6f}")

    if config.mode == "compare":
        comparison = benchmark.comparison_report(net, run_result.state, run_result.clearings,
                                                 central)
        checks["objective_gap"] = comparison["objective_gap"] <= config.objective_gap
        checks["kkt"] = comparison["checks"]["kkt"]
        checks["nash"] = comparison["checks"]["nash"]
        del comparison["checks"]
        report.update(comparison)
        print(f"compare: objective_gap={comparison['objective_gap']:.3e}, "
              f"flow_deviation={comparison['flow_deviation']:.3e}, "
              f"kkt_max={max(comparison['kkt_residuals'].values()):.3e}")

    report["checks"] = checks
    if config.report_path:
        _write(config.report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not all(checks.values()):
        failed = sorted(k for k, ok in checks.items() if not ok)
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


SCENARIO_HELP = """\
available scenario modifiers (repeat --scenario KEY=VALUE):
  generator_capacity_scale=<factor>   scale every generator's maximum output
  ramp_scale=<factor>                 scale every generator's ramp limits
  tie_capacity:<TIE_ID>=<MW>          override one tie-line's capacity
  demand_cov=<fraction>               set demand std to fraction * mean per bus
"""


def cmd_scenarios() -> int:
    print(SCENARIO_HELP, end="")
    return EXIT_OK


def _parse_scenarios(pairs: list[str]) -> grid.ScenarioModifiers:
    """The modifiers named by KEY=VALUE pairs; a ValueError means an invalid value."""
    mods: dict[str, float] = {}
    overrides: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _CliError(EXIT_CONFIG, "config", f"--scenario expects KEY=VALUE, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise _CliError(EXIT_CONFIG, "config", f"--scenario {key}: {raw!r} is not a number")
        if key in ("generator_capacity_scale", "ramp_scale"):
            mods[key] = value
        elif key == "demand_cov":
            mods["demand_cov_override"] = value
        elif key.startswith("tie_capacity:"):
            overrides[key.split(":", 1)[1]] = value
        else:
            raise _CliError(EXIT_CONFIG, "config", f"unknown scenario modifier {key!r}")
    return grid.ScenarioModifiers(**mods, tie_capacity_overrides=overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flexmarket",
                                     description="Intraday market coupling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run market clearing on a case")
    p_run.add_argument("--case", required=True,
                       help=f"bundled case ({', '.join(grid.BUNDLED_CASES)}) or path to a JSON case file")
    p_run.add_argument("--mode", required=True,
                       choices=("decentralized", "centralized", "compare"))
    p_run.add_argument("--scenario", action="append", default=[], metavar="KEY=VALUE",
                       help="scenario modifier; see `flexmarket scenarios`")
    p_run.add_argument("--trace", dest="trace_path", help="write per-round trace CSV here")
    p_run.add_argument("--report", dest="report_path", help="write report JSON here")
    p_run.add_argument("--max-rounds", type=int, default=MechanismConfig.max_rounds)
    p_run.add_argument("--beta", type=float, default=MechanismConfig.beta,
                       help="capacity price step in (0,1)")
    p_run.add_argument("--rho0", type=float, default=RhoSchedule.rho0)
    p_run.add_argument("--rho-k0", type=float, default=RhoSchedule.k0)
    p_run.add_argument("--rho-exponent", type=float, default=RhoSchedule.exponent)
    p_run.add_argument("--tol", type=float, default=MechanismConfig.tol,
                       help="convergence threshold on the broadcast variables")
    p_run.add_argument("--objective-gap-threshold", type=float, default=RunConfig.objective_gap)

    sub.add_parser("scenarios", help="list available scenario modifiers")
    return parser


def _configure_logging():
    level = os.environ.get("FLEX_LOG_LEVEL", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr, level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors; keep its codes
        return int(e.code or 0)
    try:
        if args.command == "scenarios":
            return cmd_scenarios()
        try:
            mechanism = MechanismConfig(
                max_rounds=args.max_rounds,
                rho=RhoSchedule(args.rho0, args.rho_k0, args.rho_exponent),
                beta=args.beta, tol=args.tol)
            config = RunConfig(
                case=args.case, mode=args.mode,
                scenario=_parse_scenarios(args.scenario),
                mechanism=mechanism,
                trace_path=args.trace_path, report_path=args.report_path,
                objective_gap=args.objective_gap_threshold)
        except ValueError as e:
            raise _CliError(EXIT_CONFIG, "config", str(e)) from e
        return cmd_run(config)
    except _CliError as e:
        payload = {"error": e.kind, "message": str(e)}
        if e.detail is not None:
            payload["detail"] = e.detail
        print(json.dumps(payload), file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
