"""Rare-event tail estimation for black-box responses of Gaussian inputs.

Estimates tail probabilities down to ~1e-10, tail quantiles, and expected
shortfall by adaptive Gaussian mean-shift importance sampling with a
multilevel exploration ladder, optional stratification along the optimal
shift direction, and important-variable selection for high dimensions.
"""

from .core import RngStream, std_normal_cdf, std_normal_quantile
from .cvar import CvarReport, estimate_cvar
from .dimred import SubspaceSelection, select_important, solve_shift_in_subspace
from .errors import (BudgetExhausted, ConfigError, DegenerateBatch,
                     DegenerateStratum, DomainError, MaxLevelsExceeded,
                     NonMonotoneBracket, NoSurvivors, NotConverged,
                     SimulatorError, TailshiftError, ZeroHits)
from .meanshift import (ShiftSolution, WeightedBatch, log_objective,
                        log_objective_gradient, log_objective_hessian,
                        solve_optimal_shift)
from .model import (ExternalSimulator, ModelSpec, SimulatorPool,
                    analytic_tail_prob, oriented_response, response_values)
from .multilevel import (EstimateReport, LadderConfig, LadderLevel,
                         LadderTrace, TailSample, draw_tail_sample,
                         estimate_to_precision, mc_equivalent_runs,
                         next_level, report_from_sample, run_ladder)
from .quantile import QuantileReport, estimate_quantile
from .stratified import StrataSpec, strata_from_shift, stratified_estimate

__version__ = "0.1.0"
