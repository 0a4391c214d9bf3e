"""Uniform risk bounds and scenario-program planners for dependent data
sequences, with seeded Monte-Carlo validation experiments."""

from .bounds import (RiskBoundReport, binomial_quarter_lemma_holds,
                     chaining_rad_upper, chaining_rad_upper_best,
                     class_rad_upper, concentration_tail,
                     exact_binomial_mean_tail, linear_system_induced_vc_dim,
                     mixing_reference_bound, rademacher_risk_bound,
                     regression_vc_bound, vc_bound, vc_relative_bound)
from .classes import (FunctionClassDescriptor, UnsupportedClassError,
                      covering_number_exhaustive, kernel_ball_class,
                      linear_ball_class, threshold_class)
from .estimators import (MonteCarloEstimate, empirical_rademacher,
                         empirical_rademacher_exact, sup_deviation,
                         threshold_risk_oracle, violation_rate)
from .losses import LossSpec, zero_one_loss
from .processes import (MarginalLaw, ProcessSpec, SequenceSample, ar1_process,
                        ar_process, iid_process, markov_binary_process,
                        sample_marginal, sequence_to_csv, simulate_sequence,
                        stationary_params, stream)
from .scenario import (AffineMap, Ball, Box, Certificate, ConstraintPiece,
                       ScenarioProgramSpec, SolveResult, certify,
                       one_dim_threshold_program, plan_n_margin, plan_n_vc,
                       solve_margin_program, tau_lambda, violation_bound)

__version__ = "0.1.0"
