"""epiwave: epidemic mortality waves from raw death counts.

Reconstructs excess-mortality waves, calibrates SEIR parameters per wave by
grid search, estimates R0, forecasts the next wave with bounds, and solves
the herd-immunity final-size relation.
"""

from .calibration import (
    FitCandidate,
    FitReport,
    GridSpec,
    average_top_candidates,
    fit_error,
    grid_search,
)
from .epidemic import (
    IntegrationError,
    SeirParams,
    SeirState,
    SirState,
    Trajectory,
    basic_reproduction,
    daily_deaths,
    initial_state,
    integrate,
)
from .finalsize import FinalSizeResult, final_size_curve, solve_final_size
from .forecast import ForecastBand, predict_wave
from .mortality import (
    BaselineWeights,
    excess_mortality,
    expected_deaths,
    trailing_average_7,
)
from .series import (
    DailyCountSeries,
    DailySeries,
    ExcessSeries,
    SeriesError,
    load_excess,
    load_series,
    save_series,
)
from .waves import SegmentationConfig, WaveSegment, segment_waves, wave_summary

__version__ = "0.1.0"

__all__ = [
    "BaselineWeights",
    "DailyCountSeries",
    "DailySeries",
    "ExcessSeries",
    "FinalSizeResult",
    "FitCandidate",
    "FitReport",
    "ForecastBand",
    "GridSpec",
    "IntegrationError",
    "SegmentationConfig",
    "SeirParams",
    "SeirState",
    "SeriesError",
    "SirState",
    "Trajectory",
    "WaveSegment",
    "average_top_candidates",
    "basic_reproduction",
    "daily_deaths",
    "excess_mortality",
    "expected_deaths",
    "final_size_curve",
    "fit_error",
    "grid_search",
    "initial_state",
    "integrate",
    "load_excess",
    "load_series",
    "predict_wave",
    "save_series",
    "segment_waves",
    "solve_final_size",
    "trailing_average_7",
    "wave_summary",
]
