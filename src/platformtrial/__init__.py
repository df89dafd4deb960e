"""Platform-trial simulation and time-adjusted analysis with shared controls."""

from .analysis import ESTIMATORS, FitResult, ModelSpec, default_model_set, fit
from .datagen import (
    TrendSpec,
    TrialDataset,
    generate_trial,
    read_csv,
    slice_for_arm,
    trend_value,
    write_csv,
)
from .design import (
    ConfigError,
    TrialConfig,
    TrialTimeline,
    derive_calendar,
    derive_periods,
    entry_times,
)
from .mixed_model import MixedFit, reml_fit
from .regression_engine import OlsFit, RankDeficiencyError, build_design, ols_fit, t_sf, t_test, wald_test
from .simharness import GridSpec, OperatingCharacteristics, Scenario, run_grid, run_scenario
from .spline import SplineBasis, basis_matrix, knots_at

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ESTIMATORS",
    "FitResult",
    "GridSpec",
    "MixedFit",
    "ModelSpec",
    "OlsFit",
    "OperatingCharacteristics",
    "RankDeficiencyError",
    "Scenario",
    "SplineBasis",
    "TrendSpec",
    "TrialConfig",
    "TrialDataset",
    "TrialTimeline",
    "basis_matrix",
    "build_design",
    "default_model_set",
    "derive_calendar",
    "derive_periods",
    "entry_times",
    "fit",
    "generate_trial",
    "knots_at",
    "ols_fit",
    "read_csv",
    "reml_fit",
    "run_grid",
    "run_scenario",
    "slice_for_arm",
    "t_sf",
    "t_test",
    "trend_value",
    "wald_test",
    "write_csv",
    "__version__",
]
