"""modalbridge: joint density of a Brownian motion coupled with a correlated fBm.

The package evaluates the bridge representation and the modal-path small-time
approximation of the joint density of the system

    X_t = x0 + rho B_t + sqrt(1 - rho^2) W_t + int_0^t h1(s, X_s, Y_s) ds
    Y_t = y0 + B^H_t + int_0^t h2(s, X_s, Y_s) ds

and ships the Monte Carlo machinery to validate the approximation against
forward simulation and against the exactly solvable cases.
"""

from .bridge import (GaussianConditioner, ModalPath, condition_gaussian, modal_coeffs,
                     modal_path)
from .density import (DensityApprox, DriftFunctionals, alpha_exponent, approx_density,
                      drift_functionals, exact_timeonly_density, gaussian_prefactor,
                      omega_1, omega_full)
from .driftspec import (AssumptionReport, DriftClass, DriftDomainError, DriftExpr,
                        ExprSyntaxError, ModelSpec, classify_drift, eval_drift,
                        model_from_dict, parse_drift, validate_assumptions)
from .fraccalc import (GridFunction, MAX_SUPPORTED_H, UnsupportedHurstError, apply_KH,
                       invert_KH, rl_integral, weyl_derivative)
from .kernel import (Hurst, NumericalConditioningError, TimeGrid, autocovariance,
                     joint_cov_matrix, kernel_alt, kernel_hyp,
                     kernel_partial_integral, kernel_total_integral)
from .mc import (BinEstimator, BridgeDensityEstimate, DensityEstimate, KdeEstimator,
                 PathEnsemble, SimConfig, bridge_mc_density, estimate_density_at,
                 simulate_forward)
from .special import beta_fn, gamma_fn, hyp2f1

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport", "BinEstimator", "BridgeDensityEstimate",
    "DensityApprox", "DensityEstimate", "DriftClass", "DriftDomainError",
    "DriftExpr", "DriftFunctionals", "ExprSyntaxError", "GaussianConditioner",
    "GridFunction", "Hurst", "KdeEstimator", "MAX_SUPPORTED_H", "ModalPath",
    "ModelSpec", "NumericalConditioningError", "PathEnsemble",
    "SimConfig", "TimeGrid", "UnsupportedHurstError", "alpha_exponent",
    "approx_density", "autocovariance", "beta_fn", "bridge_mc_density",
    "classify_drift", "condition_gaussian", "drift_functionals",
    "estimate_density_at", "eval_drift", "exact_timeonly_density", "gamma_fn",
    "gaussian_prefactor", "hyp2f1", "invert_KH", "joint_cov_matrix", "kernel_alt",
    "kernel_hyp", "kernel_partial_integral", "kernel_total_integral",
    "modal_coeffs", "modal_path", "model_from_dict", "omega_1", "omega_full",
    "parse_drift", "apply_KH", "rl_integral",
    "simulate_forward", "validate_assumptions", "weyl_derivative",
]
