"""Simulation and verification lab for quenched limit theorems.

Builds the martingale approximation of a stationary adapted process
explicitly on concrete models (causal moving averages, finite-state
Markov functionals), samples under the conditional law given a frozen
past, and checks the conditionally centered CLT/WIP, the summability
criteria that license them, the operator-theoretic facts behind the
proofs, and the Markov-chain representation - exactly where finite
enumeration permits, statistically elsewhere.
"""

from .experiments import (ExperimentReport, decomposition_identity_check,
                          doob_bound_check, mc_projection_norm_sq,
                          quenched_wip_experiment, sample_path_functional,
                          strest_experiment, uncentered_drift_check,
                          worker_pool)
from .markov_ops import (MaximalFunction, cesaro_average, dual_operator,
                         duality_check, hopf_check, maximal_function, poisson_solve,
                         verify_dunford_schwartz, verify_markov_property,
                         weak_l2_tail)
from .models import (LinearModel, MarkovFunctionalModel, PastFixture,
                     Realization, conditional_expectation_E0,
                     e0_increment_series, sample_fixture,
                     sample_quenched_paths)
from .paths import PathFunctional
from .projections import (HannanDivergesError, MartingaleApprox,
                          ProjectionSeries, approximation_gap,
                          evaluate_martingale, hannan_sum,
                          martingale_increment, mw_criterion,
                          projection_norms, sigma_squared)
from .stats import (Verdict, brownian_inf_cdf, brownian_sup_abs_cdf, brownian_sup_cdf,
                    ks_one_sample, normal_cdf, normal_reference)
from .streams import InnovationDistribution, RandomStream, sample

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
