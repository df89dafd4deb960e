"""Platform-trial simulation and time-adjusted analysis with shared controls."""

from .analysis import ESTIMATORS, FitResult, ModelSpec, default_model_set, fit, pooled_ttest, separate_ttest
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
    CalendarPartition,
    ConfigError,
    TrialConfig,
    TrialTimeline,
    derive_calendar,
    derive_periods,
    entry_times,
)
from .mixed_model import MixedFit, ar1_correlation, reml_fit
from .regression_engine import OlsFit, RankDeficiencyError, build_design, ols_fit, t_sf, wald_test
from .simharness import GridSpec, OperatingCharacteristics, Scenario, run_grid, run_scenario
from .spline import SplineBasis, basis_matrix, knots_from_calendar, knots_from_periods

__version__ = "0.1.0"

__all__ = [
    "CalendarPartition",
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
    "ar1_correlation",
    "basis_matrix",
    "build_design",
    "default_model_set",
    "derive_calendar",
    "derive_periods",
    "entry_times",
    "fit",
    "generate_trial",
    "knots_from_calendar",
    "knots_from_periods",
    "ols_fit",
    "pooled_ttest",
    "read_csv",
    "reml_fit",
    "run_grid",
    "run_scenario",
    "separate_ttest",
    "slice_for_arm",
    "t_sf",
    "trend_value",
    "wald_test",
    "write_csv",
    "__version__",
]
