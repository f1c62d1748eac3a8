"""Closed-form predictions for the free (uncoupled) log-wealth diffusion.

In log-excess coordinates x = ln(w - wp) the free dynamics is an additive
random walk: each day adds ln(lambda) with lambda uniform on [1-b, 1+b].
Its exact mean step is

    nu = (1/2b) * [(1+b)ln(1+b) - (1-b)ln(1-b)] - 1        (< 0),

which tends to -b^2/6 for small b: the celebrated downward drift of a
multiplicative process whose *arithmetic* mean factor is exactly one. The
distribution is modelled as a Gaussian of center x0 + nu*t and width
sigma(t) = 2b*sqrt(t/4pi).

From the Gaussian envelope follow the moving population edges: the level
x_{N/k}(t) above which an expected k of the N agents sit is

    x_{N/k}(t) = x0 + nu*t + sqrt(2)*sigma(t)*erfcinv(k/N),

a curve that first rises on the sqrt(t) diffusion and is later dragged down
by the drift, peaking at a time and height given in closed form below
(using the small-b drift approximation -b^2/6, hence the ~0.2% offset from
numerically maximizing the exact curve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def drift_velocity(beta: float) -> float:
    """Exact per-day mean of ln(lambda), lambda ~ U[1-beta, 1+beta].

    Negative for every beta in (0,1); -> -beta^2/6 as beta -> 0.
    """
    if beta < 0.01:  # the closed form cancels: -sum_k beta^(2k)/(2k(2k+1)) to 1e-20
        b2 = beta * beta
        return -b2 * (1/6 + b2 * (1/20 + b2 * (1/42 + b2 * (1/72 + b2/110))))
    return (1.0 / (2.0 * beta)) * (
        (1.0 + beta) * math.log1p(beta) - (1.0 - beta) * math.log1p(-beta)
    ) - 1.0


def sigma_t(beta: float, t: float) -> float:
    """Model width of the log-excess distribution after t days."""
    return 2.0 * beta * math.sqrt(t / (4.0 * math.pi))


def inv_erfc(y: float) -> float:
    """Inverse of erfc on (0, 2), accurate to |erfc(x) - y| <= 1e-12.

    erfc(x) = 2 Phi(-x sqrt(2)) for the standard normal CDF Phi, so x is the
    normal quantile of y/2 scaled by -1/sqrt(2).
    """
    if not 0.0 < y < 2.0 or math.isnan(y):
        raise DomainError(f"inv_erfc argument must lie in (0, 2), got {y!r}")
    if y == 1.0:
        return 0.0
    if y > 1.0:
        return -inv_erfc(2.0 - y)  # erfc(-x) = 2 - erfc(x)
    from statistics import NormalDist
    # the smallest subnormal y halves to 0, which inv_cdf rejects
    p = max(y / 2.0, math.ulp(0.0))
    return -NormalDist().inv_cdf(p) / math.sqrt(2.0)


@dataclass(frozen=True)
class GaussianEnvelope:
    """Gaussian model of the free log-excess distribution.

    ``x0`` is the common starting log-excess (everyone at w1 gives
    x0 = ln(w1 - wp)); ``drift`` defaults to the exact drift for ``beta``.
    """

    x0: float
    beta: float
    n_agents: int
    drift: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise DomainError(f"beta must lie in (0, 1), got {self.beta}")
        if self.drift is None:
            object.__setattr__(self, "drift", drift_velocity(self.beta))
        if self.drift >= 0.0:
            raise DomainError("drift of the zero-mean multiplicative law must be negative")


@dataclass(frozen=True)
class QuantileCurve:
    """Sampled moving edge x_{N/k}(t) for one k."""

    k: float
    samples: tuple  # of (t, x) pairs


def quantile_edge(env: GaussianEnvelope, k: float, t: float) -> float:
    """Level with expected exceedance count k at time t."""
    return env.x0 + env.drift * t + math.sqrt(2.0) * sigma_t(env.beta, t) * inv_erfc(k / env.n_agents)


def quantile_curve(env: GaussianEnvelope, k: float, times) -> QuantileCurve:
    return QuantileCurve(k=k, samples=tuple((float(t), quantile_edge(env, k, t)) for t in times))


def peak_time(env: GaussianEnvelope, k: float) -> float:
    """Days until the k-exceedance edge peaks (small-beta drift approximation)."""
    z = inv_erfc(k / env.n_agents)
    return (18.0 / (math.pi * env.beta ** 2)) * z * z


def peak_height(env: GaussianEnvelope, k: float) -> float:
    """Peak level of the k-exceedance edge (small-beta drift approximation)."""
    z = inv_erfc(k / env.n_agents)
    return env.x0 + (3.0 / math.pi) * z * z


def log_density(env: GaussianEnvelope, x, t: float):
    """Gaussian density of the log-excess at time t. Elementwise in x."""
    sig = sigma_t(env.beta, t)
    center = env.x0 + env.drift * t
    xa = np.asarray(x, dtype=np.float64)
    out = np.exp(-0.5 * ((xa - center) / sig) ** 2) / (sig * math.sqrt(2.0 * math.pi))
    return float(out) if np.ndim(x) == 0 else out
