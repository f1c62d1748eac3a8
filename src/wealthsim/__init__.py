"""Multiplicative wealth dynamics: ensemble simulator and analytics.

An ensemble of agents multiplies its excess wealth (above a poverty floor)
by independent uniform factors each day; optional population-mean pinning
and status-dependent skew turn the free log-random-walk into a coupled,
intermittent system. The package provides the exact reference dynamics
(:mod:`wealthsim.model`), a fast ensemble engine with deterministic
counter-based randomness (:mod:`wealthsim.engine`, :mod:`wealthsim.rng`),
closed-form Gaussian envelope analytics (:mod:`wealthsim.analytics`),
distribution/inequality statistics (:mod:`wealthsim.stats`), a stationary
eigenproblem solver (:mod:`wealthsim.stationary`), and a CSV-exporting CLI
(:mod:`wealthsim.cli`).
"""

from .analytics import (GaussianEnvelope, QuantileCurve, drift_velocity,
                        inv_erfc, log_density, peak_height, peak_time,
                        quantile_curve, quantile_edge, sigma_t)
from .backends import available as backend_info
from .backends import backend_name
from .engine import (RecordingSchedule, TrajectoryRecord, default_schedule,
                     max_log_excess, run)
from .errors import (DegenerateInput, DomainError, GridTooCoarse, NoOverlap,
                     NormalizationDegenerate, NotConverged, ParameterError,
                     ParseError, WealthsimError)
from .model import Ensemble, initial_ensemble, step_ensemble
from .params import Mode, ModelParams
from .stats import (FluxMatrix, LogHistogram, bin_excess, default_ranks,
                    flux_matrix, geometric_edges, gini, gini_pairwise,
                    log_histogram, water_divide)
from .stationary import (BandOperator, LogGrid, StationarySolution,
                         build_operator, compare_to_simulation, default_grid,
                         frame_status, leading_eigenpair, solve_stationary)

__version__ = "1.0.0"

__all__ = [
    "GaussianEnvelope", "QuantileCurve", "drift_velocity", "inv_erfc",
    "log_density", "peak_height", "peak_time", "quantile_curve",
    "quantile_edge", "sigma_t",
    "backend_info", "backend_name",
    "RecordingSchedule", "TrajectoryRecord", "default_schedule",
    "max_log_excess", "run",
    "DegenerateInput", "DomainError", "GridTooCoarse", "NoOverlap",
    "NormalizationDegenerate", "NotConverged", "ParameterError", "ParseError",
    "WealthsimError",
    "Ensemble", "initial_ensemble", "step_ensemble",
    "Mode", "ModelParams",
    "FluxMatrix", "LogHistogram", "bin_excess", "default_ranks",
    "flux_matrix", "geometric_edges", "gini", "gini_pairwise",
    "log_histogram", "water_divide",
    "BandOperator", "LogGrid", "StationarySolution", "build_operator",
    "compare_to_simulation", "default_grid", "frame_status",
    "leading_eigenpair", "solve_stationary",
    "__version__",
]
