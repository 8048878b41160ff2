"""ruinkit: survival probabilities for the discrete-time risk model
W(n) = u + 2n - (Z_1 + ... + Z_n).

Exact rational recurrences for the sequences x_n, y_n and the determinants
D_n, zero location for H(s) - s^2, partial-fraction asymptotics, survival
probabilities by three cross-checking routes, and independent finite-horizon
oracles (dynamic programming and seeded Monte Carlo).
"""

from .asymptotics import (
    compute_coefficients,
    determinant_ratio_limit,
    geometric_margin_factor,
    geometric_partial_fraction,
    margin_factor_from_coefficients,
    predict_Dn,
    predict_xn,
    verify_sign_monotonicity,
    xn_residuals,
)
from .distributions import ClaimDistribution, DistributionError
from .oracle import DPConfig, MCConfig, finite_horizon_dp, mc_estimate
from .recurrence import build_table, check_conjecture
from .roots import RootLocationError, refine_alpha, root_profile, vanishing_order
from .series import deflate_G
from .survival import (
    initial_values_closed_form,
    initial_values_limit,
    phi_table,
    pi_values,
    regime,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimDistribution",
    "DistributionError",
    "DPConfig",
    "MCConfig",
    "RootLocationError",
    "build_table",
    "check_conjecture",
    "compute_coefficients",
    "deflate_G",
    "determinant_ratio_limit",
    "finite_horizon_dp",
    "geometric_margin_factor",
    "geometric_partial_fraction",
    "initial_values_closed_form",
    "initial_values_limit",
    "margin_factor_from_coefficients",
    "mc_estimate",
    "phi_table",
    "pi_values",
    "predict_Dn",
    "predict_xn",
    "refine_alpha",
    "regime",
    "root_profile",
    "solve",
    "vanishing_order",
    "verify_sign_monotonicity",
    "xn_residuals",
]
