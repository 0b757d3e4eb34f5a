"""Equilibrium proportional-reinsurance and investment strategies for an
insurer with n-point distributed risk aversion in a stochastic-volatility
market: exponent-function ODE solvers, strategy assembly, admissibility
verification, and Monte Carlo cross-validation."""

__version__ = "0.1.0"

from .model import (
    AversionDistribution,
    Horizon,
    HestonParams,
    InsuranceParams,
    ValidatedModel,
    ValidationError,
    validate_config,
    weighted_sum,
)
from .odes import (
    BlowUpError,
    GSolution,
    RiccatiConstants,
    g1_closed,
    g2_closed_single,
    g3_closed_single,
    residual_check,
    solve_g,
    solve_g2_coupled,
    solve_g3,
)
from .strategy import (
    AdmissibilityReport,
    RegimeReport,
    SensitivityReport,
    ValueRangeError,
    ValueSurface,
    check_admissibility,
    equilibrium_strategy,
    pi_bar_path,
    pi_hat_path,
    q_hat,
    regime_classification,
    regime_labels,
    retention_ratio,
    sensitivity_signs,
    value_function,
)
from .montecarlo import (
    PathBatch,
    SimulationError,
    SimulationResult,
    SpotCheckRow,
    equilibrium_spot_check,
    estimate_reward,
    simulate_paths,
    simulate_strategies,
)
from .config import ConfigError, load_config, parse_config_text

