"""Constrained batch policy learning toolkit.

A primal-dual game between a best-response policy player (fitted Q
iteration, LSPI, or exact tabular planning) and a no-regret dual player
(exponentiated gradient or projected gradient), with fitted Q evaluation
for constraint certification, exact tabular oracles, and importance-
sampling off-policy evaluation baselines. The learner's LSPI flavor is
policy iteration on the dataset's empirical MDP, which differs from
iterative tabular LSPI only at the ridge's scale. FQI, LSPI and the exact
oracle share one tie rule (funcapprox.greedy_actions), so exact value ties
go to the lowest action in every solver.
"""

from .batchrl import (CostSelector, EmpiricalModel, FittedRun, LspiResult,
                      fqe, fqi, lspi, lspi_policy, lstdq, lstdq_policy)
from .dataset import (Dataset, check_indices, collect, full_coverage_dataset,
                      load, make_frozenlake_behavior, save, subsample)
from .funcapprox import (FeatureMap, QFunction, fit_least_squares,
                         greedy_policy, one_hot_features)
from .learner import (ConvergenceError, LearnerConfig, MixturePolicy,
                      RunTrace, derandomize, exact_constrained_optimum,
                      lagrangian_max, regularization_grid, run,
                      write_trace_csv)
from .mdp import (DeterministicPolicy, FROZENLAKE_8X8, StochasticPolicy,
                  TabularMdp, build_combination_lock, build_frozenlake,
                  build_random_mdp)
from .onlineopt import (DualVector, augmented_loss, eg_init, eg_regret_bound,
                        eg_update, ogd_init, ogd_update)
from .ope import (OpeConfig, doubly_robust, ope_comparison, pdis,
                  weighted_doubly_robust, write_ope_report)
from .oracle import (ExactSolver, exact_policy_values, occupancy,
                     performance_difference_check, value_iteration)

__all__ = [name for name in dir() if not name.startswith("_")]
