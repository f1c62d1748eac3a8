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

Each public name is imported from its submodule on first access (PEP 562),
so ``import wealthsim.cli`` loads only what the CLI itself imports.
"""

import importlib

__version__ = "1.0.0"

_SUBMODULE = {name: module for module, names in (
    ("analytics", "GaussianEnvelope QuantileCurve drift_velocity inv_erfc log_density "
                  "peak_height peak_time quantile_curve quantile_edge sigma_t"),
    ("backends", "backend_info backend_name"),
    ("engine", "RecordingSchedule TrajectoryRecord default_schedule max_log_excess run"),
    ("errors", "DegenerateInput DomainError GridTooCoarse NoOverlap NormalizationDegenerate "
               "NotConverged ParameterError ParseError WealthsimError"),
    ("model", "Ensemble initial_ensemble step_ensemble"),
    ("params", "Mode ModelParams"),
    ("stats", "FluxMatrix LogHistogram bin_excess default_ranks flux_matrix geometric_edges "
              "gini gini_pairwise log_histogram water_divide"),
    ("stationary", "BandOperator LogGrid StationarySolution build_operator "
                   "compare_to_simulation default_grid frame_status leading_eigenpair "
                   "solve_stationary"),
) for name in names.split()}
_RENAMED = {"backend_info": "available"}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    # bound here, so that later lookups of the name skip this function
    value = globals()[name] = getattr(module, _RENAMED.get(name, name))
    return value


def __dir__():
    return sorted({*globals(), *__all__})
