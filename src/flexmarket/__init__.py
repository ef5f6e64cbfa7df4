"""Decentralized intraday market coupling.

Areas clear probabilistically-constrained DC dispatch problems against terms
of trade quoted by their neighbors, exchange tie-line flows, boundary angles,
and prices each round, and converge to a Nash equilibrium that matches a
centralized omniscient benchmark.
"""

from .grid import (Area, Bus, BUNDLED_CASES, CaseError, Generator, InternalLine, Network,
                   ScenarioModifiers, TieLine, apply_scenario, load_bundled, load_case,
                   save_case, validate)
from .stochastic import AggregateRequirement, aggregate_requirement, normal_quantile
from .qp import KktResiduals, QpSolution, QuadraticProgram, kkt_residuals, solve
from .market import (AreaDecision, AreaDuals, ChanceConstrainedClearing, ClearingEngine,
                     ClearingError, ClearingResult, TermsOfTrade, TieTerms, clear,
                     evaluate_objective)
from .coupling import (CouplingState, ExchangeMessage, MechanismConfig, MechanismRun,
                       RhoSchedule, TraceRecord, decode_message, encode_message,
                       inertial_update, run, step_rho, trace_to_csv, update_capacity_price,
                       verify_nash)
from .benchmark import (CentralSolution, check_limit_feasibility, comparison_report,
                        efficiency_gap, optimal_terms_of_trade, solve_centralized,
                        verify_fixed_point, verify_kkt_equivalence)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
