"""Shared fixtures: the four desk-scale reference ensembles.

The heavy ensembles (N=3600, t_max=55000, 8 runs each) are session-scoped
and computed once; with the compiled kernel the whole set takes well under
a minute. Everything downstream (acceptance checks included) reads from
these records instead of re-simulating.
"""

import numpy as np
import pytest

from wealthsim import ModelParams, default_schedule, geometric_edges, run

N_AGENTS = 3600
BETA = 0.06
T_MAX = 55000
N_RUNS = 8
SEED = 20260816

LATE_WINDOW = (40000, 55001)


# The reset/skew30 ensembles record series every 5 days: the late-window
# swing amplitude of the max-wealth series is undersampled at coarser
# strides. Flux matrices are accumulated on 30-day increments everywhere
# (subsample a stride-5 series by FLUX_STEP to get them).
FLUX_STEP = 6


def _schedule(with_window=False, series_stride=30):
    kwargs = {}
    if with_window:
        exc0 = 600.0
        kwargs["histogram_edges"] = geometric_edges(exc0 * 1e-8, exc0 * 1e8, 160)
        kwargs["histogram_window"] = LATE_WINDOW
    return default_schedule(T_MAX, n_snapshots=75, series_stride=series_stride,
                            **kwargs)


def _ensemble(mode, epsilon=0.0, with_window=False, series_stride=30):
    params = ModelParams(n_agents=N_AGENTS, beta=BETA, mode=mode, t_max=T_MAX,
                         seed=SEED, epsilon=epsilon, n_runs=N_RUNS)
    return run(params, _schedule(with_window, series_stride), workers=4)


@pytest.fixture(scope="session")
def free_records():
    return _ensemble("free")


@pytest.fixture(scope="session")
def reset_records():
    return _ensemble("reset", with_window=True, series_stride=5)


@pytest.fixture(scope="session")
def skew15_records():
    return _ensemble("skewed", epsilon=-0.015)


@pytest.fixture(scope="session")
def skew30_records():
    return _ensemble("skewed", epsilon=-0.03, with_window=True, series_stride=5)


@pytest.fixture(scope="session")
def rng_np():
    return np.random.default_rng(12345)
