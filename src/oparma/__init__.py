"""Operator-coefficient ARMA models on finite-dimensional truncations.

Spectral splitting of the autoregression operator, Laurent-series
transfer-function coefficients, stationary-solution simulation under
heavy-tailed noise, and the scenario suite that exercises the sharp
log-moment boundary for existence of stationary solutions.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    HyperbolicityError,
    OparmaError,
    QuadratureError,
    SingularOperatorError,
    SpecificationError,
    UnknownScenarioError,
    WindowError,
)
from .operators import (
    ArmaModel,
    Operator,
    OperatorSpec,
    apply_batch,
    arma_model,
    build_operator,
    companion_lift,
    dense_operator,
    ma_moment_operator,
    power_log_norm,
    power_norm,
    spectral_radius,
    structured_log_norm,
    structured_norm,
    volterra_matrix,
)
from .spectral import SpectralSplit, check_split, hyperbolic_split, riesz_projector
from .laurent import (
    CircleCheck,
    LaurentCoeffs,
    laurent_coeffs,
    unit_circle_check,
)
from .engine.noise import (
    HEAVY_KINDS,
    NOISE_KINDS,
    NoisePath,
    NoiseSpec,
    heavy_direction,
    log_magnitude_samples,
    make_rng,
    sample_path,
)
from .engine.simulate import (
    DEFAULT_TAIL_TOL,
    LagKernel,
    ProbeResult,
    SimulationResult,
    build_split_kernel,
    laurent_kernel,
    partial_sum_quantiles,
    plim_probe,
    recursion_residual,
    simulate_ma,
    simulate_theorem1,
    stationarity_ks,
)
from .engine.moments import (
    MOMENT_KINDS,
    MomentReport,
    gamma_inverse,
    moment_estimate,
    transform_log_norms,
)
from .scenarios import ScenarioReport, list_scenarios, run_scenario
from .jsonio import dump_model, load_model, load_noise

__all__ = [
    "ArmaModel",
    "CircleCheck",
    "DEFAULT_TAIL_TOL",
    "DimensionMismatchError",
    "HEAVY_KINDS",
    "HyperbolicityError",
    "LagKernel",
    "LaurentCoeffs",
    "MOMENT_KINDS",
    "MomentReport",
    "NOISE_KINDS",
    "NoisePath",
    "NoiseSpec",
    "OparmaError",
    "Operator",
    "OperatorSpec",
    "ProbeResult",
    "QuadratureError",
    "ScenarioReport",
    "SimulationResult",
    "SingularOperatorError",
    "SpecificationError",
    "SpectralSplit",
    "UnknownScenarioError",
    "WindowError",
    "apply_batch",
    "arma_model",
    "build_operator",
    "build_split_kernel",
    "check_split",
    "companion_lift",
    "dense_operator",
    "dump_model",
    "gamma_inverse",
    "heavy_direction",
    "hyperbolic_split",
    "laurent_coeffs",
    "laurent_kernel",
    "list_scenarios",
    "load_model",
    "load_noise",
    "log_magnitude_samples",
    "ma_moment_operator",
    "make_rng",
    "moment_estimate",
    "partial_sum_quantiles",
    "plim_probe",
    "power_log_norm",
    "power_norm",
    "recursion_residual",
    "riesz_projector",
    "run_scenario",
    "sample_path",
    "simulate_ma",
    "simulate_theorem1",
    "spectral_radius",
    "stationarity_ks",
    "structured_log_norm",
    "structured_norm",
    "transform_log_norms",
    "unit_circle_check",
    "volterra_matrix",
]
