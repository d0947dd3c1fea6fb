"""Stationary online contention resolution: witness construction,
simulate-then-replace execution, and exact/statistical certification."""

from .env import (Environment, Matroid, ActivationVector, check_membership,
                  matching_environment, hypergraph_matching_environment,
                  k_uniform_environment, matroid_environment)
from .dist import (ExplicitDistribution, GibbsDistribution, StationaryReport,
                   verify_stationary_lp, addability_prob,
                   solve_stationary_lp_exact, symmetric_uniform_bound)
from .counting import CountingOracle, BaseMeasure
from .maxent import (solve_maxent, solve_kl_projection, dominating_base_point,
                     DualState, BoundaryDivergenceError)
from .sampling import RngStream, sample_sequential, thin, empirical_tv
from .policy import (OrderStrategy, run_one_shot, run_recurring, exact_output_law,
                     CapViolationError)
from .rayleigh import RayleighWitness, build_witness, pi_conditional, \
    rayleigh_check, materialize
from .generators import (gen_instance, alpha_table, run_barriers,
                         estimate_selectability, ExperimentConfig, ResultRecord)

__version__ = "0.1.0"
