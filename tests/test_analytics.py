"""Closed-form envelope analytics against independent oracles.

Oracles: scipy.special and mpmath for erfc inversion cross-checks, numpy quadrature
for the drift and density normalization, direct numerical maximization for
the peak formulas. Frozen constants were computed with 30-digit arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from wealthsim import (DomainError, GaussianEnvelope, drift_velocity,
                       inv_erfc, log_density, peak_height, peak_time,
                       quantile_curve, quantile_edge, sigma_t)

ENV = GaussianEnvelope(x0=math.log(600.0), beta=0.06, n_agents=3600)


# --- drift ------------------------------------------------------------------

def test_drift_frozen_value():
    # closed form evaluated at 30-digit precision, frozen
    assert drift_velocity(0.06) == pytest.approx(-6.0064911319545377e-4, abs=1e-15)


def test_drift_matches_quadrature():
    # independent oracle: numerical integral of ln(lam)/(2 beta) over the support
    for beta in (0.02, 0.06, 0.3, 0.9):
        lam = np.linspace(1.0 - beta, 1.0 + beta, 2_000_001)
        est = np.trapezoid(np.log(lam), lam) / (2.0 * beta)
        assert drift_velocity(beta) == pytest.approx(est, abs=1e-10)


def test_drift_zero_and_sign():
    assert drift_velocity(0.0) == 0.0
    for beta in (1e-4, 0.06, 0.5, 0.99):
        assert drift_velocity(beta) < 0.0


def test_drift_small_beta_approximation():
    # relative gap to -beta^2/6 shrinks with beta; < 0.2% at beta=0.06
    exact = drift_velocity(0.06)
    approx = -0.06**2 / 6.0
    assert abs(exact - approx) / abs(approx) < 0.002
    assert drift_velocity(1e-4) == pytest.approx(-(1e-4) ** 2 / 6.0, rel=1e-6)


@pytest.mark.parametrize("beta", [0.0099, 1e-3, 1e-6, 1e-9, 1e-12, 1e-100])
def test_drift_at_small_beta_is_its_series(beta):
    # the closed form loses every digit to cancellation below beta ~ 1e-8;
    # the series of E[ln(1 + u)], u ~ U[-beta, beta], is the oracle here
    series = -sum(beta ** (2 * k) / (2 * k * (2 * k + 1)) for k in range(1, 12))
    assert drift_velocity(beta) == pytest.approx(series, rel=1e-15, abs=0)
    assert drift_velocity(beta) < 0.0


def test_drift_series_meets_the_closed_form():
    # on either side of the switch at beta = 0.01 the two agree to 1e-11
    below = drift_velocity(0.01 * (1 - 1e-16))
    assert below == pytest.approx(drift_velocity(0.01), rel=1e-11, abs=0)


# --- sigma ------------------------------------------------------------------

def test_sigma_values_and_scaling():
    assert sigma_t(0.06, 1000.0) == pytest.approx(1.0704744696916626, abs=1e-15)
    assert sigma_t(0.06, 1000.0) == pytest.approx(1.0705, abs=1e-4)
    assert sigma_t(0.06, 0.0) == 0.0
    # beta * sqrt(t) identity
    assert sigma_t(0.12, 250.0) == pytest.approx(sigma_t(0.06, 1000.0), rel=1e-15)
    assert sigma_t(0.06, 4000.0) == pytest.approx(2.0 * sigma_t(0.06, 1000.0), rel=1e-15)


def test_sigma_interval_in_wealth_space():
    # one-sigma multiplicative interval for an agent starting at w=600
    sig = sigma_t(0.06, 1000.0)
    lo, hi = 400.0 + 200.0 * math.exp(-sig), 400.0 + 200.0 * math.exp(sig)
    assert lo == pytest.approx(469.0, abs=0.5)
    assert hi == pytest.approx(983.0, abs=0.5)


# --- inv_erfc ---------------------------------------------------------------

def test_inv_erfc_trivial_points():
    assert inv_erfc(1.0) == 0.0
    assert inv_erfc(0.5) == pytest.approx(0.476936, abs=1e-5)
    assert inv_erfc(1.0 / 3600.0) == pytest.approx(2.5704662259440776, abs=1e-9)


def test_inv_erfc_residual_everywhere():
    y = np.geomspace(1e-9, 1.0, 500)
    for yi in y:
        assert abs(math.erfc(inv_erfc(float(yi))) - yi) <= 1e-12


def test_inv_erfc_against_scipy():
    # the contract is |erfc(x) - y| <= 1e-12, so the allowed x-difference
    # scales with the inverse local slope of erfc
    for y in np.geomspace(1e-6, 1.9999, 200):
        x = inv_erfc(float(y))
        slope = (2.0 / math.sqrt(math.pi)) * math.exp(-x * x)
        assert abs(x - float(sps.erfcinv(y))) <= 1e-12 / slope + 1e-11


@pytest.mark.parametrize("y", [1e-9, 1e-6, 0.01 / 3600])
def test_inv_erfc_against_mpmath_root(y):
    # relative accuracy in x, which the residual contract alone does not
    # give where erfc is flat; the last y is the analytic subcommand's
    # k = 0.01 at N = 3600
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: mpmath.erfc(x) - mpmath.mpf(y),
                               float(sps.erfcinv(y)))
        assert inv_erfc(y) == pytest.approx(float(root), rel=1e-14, abs=0)


def test_inv_erfc_symmetry():
    # dyadic y so that 2 - y is exact in binary
    for y in (0.25, 0.5, 1.25, 1.75, 1.984375):
        assert inv_erfc(2.0 - y) == -inv_erfc(y)


def test_inv_erfc_extreme_small_argument():
    # far tail: bracket widening + overflow-safe bisection path
    x = inv_erfc(1e-300)
    assert math.erfc(x) == pytest.approx(1e-300, rel=1e-6)
    # the smallest subnormal: y/2 underflows to 0
    assert inv_erfc(5e-324) == pytest.approx(27.2, abs=0.05)


@pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, 2.5, float("nan")])
def test_inv_erfc_domain(bad):
    with pytest.raises(DomainError):
        inv_erfc(bad)


# --- envelope and quantile curves -------------------------------------------

def test_envelope_validation():
    with pytest.raises(DomainError):
        GaussianEnvelope(x0=0.0, beta=1.5, n_agents=100)
    with pytest.raises(DomainError):
        GaussianEnvelope(x0=0.0, beta=0.06, n_agents=100, drift=0.1)


def test_quantile_edge_center_at_k_equals_n():
    # erfcinv(1) = 0: the drifting center of the Gaussian
    for t in (10.0, 1000.0, 30000.0):
        assert quantile_edge(ENV, 3600.0, t) == pytest.approx(
            ENV.x0 + ENV.drift * t, rel=1e-12)


def test_quantile_edge_decreasing_in_k():
    ks = [0.01, 0.25, 1.0, 4.0, 16.0, 256.0, 3600.0]
    edges = [quantile_edge(ENV, k, 1000.0) for k in ks]
    assert all(a > b for a, b in zip(edges, edges[1:]))


def test_quantile_curve_shape():
    curve = quantile_curve(ENV, 1.0, [10, 100, 1000])
    assert curve.k == 1.0
    assert [t for t, _ in curve.samples] == [10.0, 100.0, 1000.0]


def test_peak_formulas_frozen_values():
    assert peak_time(ENV, 1.0) == pytest.approx(10515.839173435247, rel=1e-9)
    assert peak_height(ENV, 1.0) - ENV.x0 == pytest.approx(6.3095035040611504, rel=1e-9)
    # and the coarse anchors
    assert peak_time(ENV, 1.0) == pytest.approx(10520.0, rel=0.01)
    assert peak_height(ENV, 1.0) - ENV.x0 == pytest.approx(6.31, abs=0.02)


def test_peak_at_k_equals_n():
    assert peak_time(ENV, 3600.0) == 0.0
    assert peak_height(ENV, 3600.0) == ENV.x0


def test_peak_agrees_with_direct_maximization():
    # the closed forms use the -beta^2/6 drift; direct maximization uses the
    # exact drift, and they must agree within 0.5%
    t = np.linspace(1.0, 60000.0, 600000)
    vals = ENV.x0 + ENV.drift * t + math.sqrt(2.0) * 2.0 * ENV.beta * np.sqrt(
        t / (4.0 * math.pi)) * inv_erfc(1.0 / ENV.n_agents)
    i = int(np.argmax(vals))
    assert peak_time(ENV, 1.0) == pytest.approx(t[i], rel=5e-3)
    assert peak_height(ENV, 1.0) == pytest.approx(float(vals[i]) + (ENV.x0 - ENV.x0), rel=5e-3)
    assert peak_height(ENV, 1.0) - ENV.x0 == pytest.approx(float(vals[i]) - ENV.x0, rel=5e-3)


def test_doubling_log_n():
    # squaring N approximately doubles both peak observables (ratio ~2.19)
    env2 = GaussianEnvelope(x0=ENV.x0, beta=0.06, n_agents=3600**2)
    rt = peak_time(env2, 1.0) / peak_time(ENV, 1.0)
    rh = (peak_height(env2, 1.0) - ENV.x0) / (peak_height(ENV, 1.0) - ENV.x0)
    assert 1.9 <= rt <= 2.3
    assert 1.9 <= rh <= 2.3
    assert rt == pytest.approx(rh, rel=1e-12)


# --- log density ------------------------------------------------------------

@given(t=st.floats(min_value=1.0, max_value=50000.0),
       beta=st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=25, deadline=None)
def test_log_density_normalized(t, beta):
    env = GaussianEnvelope(x0=math.log(600.0), beta=beta, n_agents=3600)
    sig = sigma_t(beta, t)
    x = np.linspace(env.x0 + env.drift * t - 10 * sig, env.x0 + env.drift * t + 10 * sig, 20001)
    integral = np.trapezoid(log_density(env, x, t), x)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_log_density_peaks_at_drifting_center():
    t = 2000.0
    center = ENV.x0 + ENV.drift * t
    x = np.linspace(center - 3, center + 3, 60001)
    dens = log_density(ENV, x, t)
    assert x[int(np.argmax(dens))] == pytest.approx(center, abs=1e-3)
    assert log_density(ENV, center, t) == pytest.approx(
        1.0 / (sigma_t(0.06, t) * math.sqrt(2 * math.pi)), rel=1e-12)
