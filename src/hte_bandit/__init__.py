"""Contextual bandit simulator with treatment-effect regression oracles."""

import os
import sys

# Wide fits round differently on more than one BLAS thread, so the package
# pins one, unless the variable is set already or numpy is loaded (too late).
if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

from .core import (ActionDistribution, EpochSchedule, FeatureMap, LoggedSample,
                   SampleBatch, arm_block_map, custom_map, rng_stream,
                   shared_intercept_map)
from .environments import (Environment, EnvironmentSpec, GroundTruth, Rounds,
                           build_environment)
from .oracle import (LinearModel, NuisanceEstimate, cross_fit_mu, empirical_rloss,
                     estimation_rate, fit_rloss, fit_rloss_lasso, fit_squared_error,
                     fit_squared_error_lasso, zero_model)
from .policy import ALGORITHMS, Policy, SafetyMonitor, gamma_schedule, igw_kernel
from .validation import (FiniteInstance, exact_rloss_risk, excess_rloss_risk,
                         excess_risk_identity_gap, gap_identity_value,
                         mc_excess_risk, misspec_bound_check, squared_error_risk)
from .config import ConfigError, RunConfig, load_config
from .runner import (ExperimentResult, RegretCurve, RunResult, aggregate_curve,
                     compare, run_experiment, run_single)

__version__ = "0.1.0"
