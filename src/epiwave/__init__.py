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
    read_fit_report,
)
from .epidemic import (
    IntegrationError,
    SeirParams,
    Trajectory,
    daily_deaths,
    integrate,
)
from .finalsize import final_size_curve, solve_final_size
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
from .waves import SegmentationConfig, WaveSegment, segment_waves

__version__ = "0.1.0"

__all__ = [
    "BaselineWeights",
    "DailyCountSeries",
    "DailySeries",
    "ExcessSeries",
    "FitCandidate",
    "FitReport",
    "ForecastBand",
    "GridSpec",
    "IntegrationError",
    "SegmentationConfig",
    "SeirParams",
    "SeriesError",
    "Trajectory",
    "WaveSegment",
    "average_top_candidates",
    "daily_deaths",
    "excess_mortality",
    "expected_deaths",
    "final_size_curve",
    "fit_error",
    "grid_search",
    "integrate",
    "load_excess",
    "load_series",
    "predict_wave",
    "read_fit_report",
    "save_series",
    "segment_waves",
    "solve_final_size",
    "trailing_average_7",
]
