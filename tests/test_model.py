"""Reference single-step dynamics: floor, conservation, draw statistics."""

import importlib
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wealthsim
from wealthsim import (Ensemble, Mode, ModelParams, NormalizationDegenerate,
                       initial_ensemble, step_ensemble)
from wealthsim.rng import stream_key, uniforms_for_day

finite_wealth = st.floats(min_value=400.0, max_value=1e12,
                          exclude_min=True, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0)


def params(mode="reset", **overrides):
    base = dict(n_agents=64, beta=0.06, mode=mode, t_max=10, seed=3)
    base.update(overrides)
    return ModelParams(**base)


def step(wealth, u, mode="free", **overrides):
    """Wealth after one ``step_ensemble`` day from ``wealth`` with draws ``u``."""
    wealth = np.atleast_1d(np.asarray(wealth, dtype=np.float64))
    p = params(mode, n_agents=wealth.size, **overrides)
    u = np.broadcast_to(np.asarray(u, dtype=np.float64), wealth.shape)
    return step_ensemble(Ensemble(t=0, wealth=wealth), p, u).wealth


def test_every_public_name_resolves():
    # each name is the object of the submodules that hold it
    modules = [importlib.import_module(f"wealthsim.{m}") for m in (
        "analytics", "backends", "engine", "errors", "model", "params", "stats",
        "stationary")]
    renamed = {"backend_info": "available"}
    for name in wealthsim.__all__:
        assert hasattr(wealthsim, name), name
        if name != "__version__":
            attr = renamed.get(name, name)
            owners = [getattr(m, attr) for m in modules if hasattr(m, attr)]
            assert owners and all(getattr(wealthsim, name) is o for o in owners), name
    assert wealthsim.run is wealthsim.engine.run


def test_star_import_and_dir_cover_every_public_name():
    namespace = {}
    exec("from wealthsim import *", namespace)
    assert set(wealthsim.__all__) <= set(namespace)
    assert set(wealthsim.__all__) <= set(dir(wealthsim))
    # setuptools reads the version statically: it stays a literal
    assert re.search(r'^__version__ = "[0-9.]+"$', inspect.getsource(wealthsim), re.M)


def test_unknown_public_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        wealthsim.no_such_name


# --- status map -------------------------------------------------------------

def test_status_anchor_points():
    # with the uniform part at exactly 1 (u = 1/2) each agent's growth is
    # c * (1 + epsilon * S(w)), with c the common reset factor. S is 0 at the
    # floor, 1/2 at w1 + wp and -> 1 for large w, so against an agent just
    # above the floor the growth ratios are 1 + epsilon/2 and 1 + epsilon.
    # A floor at 0 keeps the tiny excesses exact in the returned wealth.
    w = np.array([1e-9, 1000.0, 1e15])
    growth = step(w, 0.5, "skewed", epsilon=-0.03, wp=0.0) / w
    assert growth[1] / growth[0] == pytest.approx(1.0 - 0.015, rel=1e-10)
    assert growth[2] / growth[0] == pytest.approx(1.0 - 0.03, rel=1e-10)


# --- multiplier draws -------------------------------------------------------

def test_draw_multiplier_endpoints():
    # free mode, everyone at w1: the excess of 600 is scaled by 1 + beta (1 - 2u)
    lam = (step(np.full(3, 1000.0), [0.0, 1.0, 0.5]) - 400.0) / 600.0
    assert lam == pytest.approx([1.06, 0.94, 1.0], rel=1e-15)


def test_draw_moments_match_uniform_law():
    # empirical mean/std of the multipliers must match the uniform law within 5 sigma
    p = params("free", n_agents=20000)
    u = uniforms_for_day(stream_key(555), 0, 0, p.n_agents)
    lam = (step_ensemble(initial_ensemble(p), p, u).wealth - 400.0) / 600.0
    n = lam.size
    sd = 0.06 / math.sqrt(3.0)  # std of U(1-b, 1+b)
    assert abs(lam.mean() - 1.0) < 5.0 * sd / math.sqrt(n)
    assert abs(lam.std() - sd) < 5.0 * sd / math.sqrt(2.0 * n)


# --- free step --------------------------------------------------------------

def test_step_free_scalar_and_floor_fixed_point():
    stepped = step([400.0, 1000.0], [1.0, 0.0])
    assert stepped[0] == 400.0  # the floor never moves
    assert stepped[1] == pytest.approx(1036.0)


@given(w=st.lists(st.one_of(st.just(400.0), finite_wealth), min_size=1, max_size=8),
       u=unit)
@settings(max_examples=200, deadline=None)
def test_step_free_never_crosses_floor(w, u):
    # the floor is a fixed point and no agent steps below it
    w = np.array(w)
    stepped = step(w, u)
    assert np.all(stepped >= 400.0)
    assert np.all(stepped[w == 400.0] == 400.0)


@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       w=st.lists(finite_wealth, min_size=1, max_size=8), u=unit)
@settings(max_examples=100, deadline=None)
def test_free_step_excess_scale_covariance(scale, w, u):
    # the free update is linear in the excess: scaling the excess scales the
    # result. With the floor at 0 the wealth is the excess, so the rounding
    # of wp + excess cannot hide a departure.
    excess = np.array(w) - 400.0
    base = step(excess, u, wp=0.0)
    scaled = step(excess * scale, u, wp=0.0)
    np.testing.assert_allclose(scaled, base * scale, rtol=1e-12)


# --- full ensemble step -----------------------------------------------------

def draws_for(p, t=0, run=0):
    return uniforms_for_day(stream_key(p.seed), run, t, p.n_agents)


def test_initial_ensemble_is_dirac_at_w1():
    ens = initial_ensemble(params())
    assert ens.t == 0
    assert np.all(ens.wealth == 1000.0)


def test_reset_step_pins_mean_exactly():
    p = params("reset")
    ens = initial_ensemble(p)
    for t in range(5):
        ens = step_ensemble(ens, p, draws_for(p, t))
        assert ens.wealth.mean() == pytest.approx(1000.0, rel=1e-14)
        assert ens.t == t + 1


def test_free_step_matches_elementwise_formula():
    p = params("free")
    ens = initial_ensemble(p)
    u = draws_for(p)
    stepped = step_ensemble(ens, p, u)
    lam = 1.0 + p.beta * (1.0 - 2.0 * u)
    assert np.allclose(stepped.wealth, 400.0 + 600.0 * lam, rtol=1e-15)


def test_skewed_step_uses_start_of_day_status():
    p = params("skewed", epsilon=-0.03)
    w = np.array([500.0, 1400.0, 5000.0])
    ens = Ensemble(t=0, wealth=w)
    u = np.full(3, 0.5)  # uniform part = 1 exactly, isolating the skew factor
    stepped = step_ensemble(ens, p, u)
    s = (w - 400.0) / (1000.0 + (w - 400.0))
    expected = (w - 400.0) * (1.0 - 0.03 * s)
    expected *= (3 * 600.0) / expected.sum()  # reset rescale
    assert np.allclose(stepped.wealth, 400.0 + expected, rtol=1e-14)


def test_skew_brakes_the_rich_more():
    # under pure skew (identical uniform part), richer agents grow strictly slower
    p = params("skewed", epsilon=-0.03)
    w = np.array([500.0, 1400.0, 5000.0, 50000.0])
    stepped = step_ensemble(Ensemble(t=0, wealth=w), p, np.full(4, 0.5))
    growth = (stepped.wealth - 400.0) / (w - 400.0)
    assert np.all(np.diff(growth) < 0)


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_ensemble_step_conserves_mean_in_coupled_modes(seed):
    p = params("reset", seed=seed, n_agents=32)
    ens = initial_ensemble(p)
    stepped = step_ensemble(ens, p, draws_for(p))
    assert abs(stepped.wealth.sum() - 32 * 1000.0) / (32 * 1000.0) < 1e-14


def test_degenerate_normalization_raises():
    p = params("reset", n_agents=4)
    tiny = Ensemble(t=9, wealth=np.full(4, 400.0 + 1e-305))
    with pytest.raises(NormalizationDegenerate) as exc_info:
        step_ensemble(tiny, p, np.full(4, 0.5))
    assert exc_info.value.t == 9


def test_draw_count_mismatch_rejected():
    p = params()
    with pytest.raises(ValueError):
        step_ensemble(initial_ensemble(p), p, np.zeros(p.n_agents - 1))


def test_beta_zero_is_static_in_free_mode():
    p = params("free", beta=0.0)
    ens = initial_ensemble(p)
    stepped = step_ensemble(ens, p, draws_for(p))
    assert np.all(stepped.wealth == 1000.0)
