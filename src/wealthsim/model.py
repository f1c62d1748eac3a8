"""Single-step dynamics of the floored multiplicative wealth model.

The state of the economy is a vector of wealths w_j > wp. Each day every
agent's *excess* wealth w_j - wp is multiplied by an independent random
factor drawn uniformly from [1-beta, 1+beta]:

    w_j(t+1) = wp + lambda_j * (w_j(t) - wp)

The floor wp is a fixed point of the update, so wealth can approach it but
never cross it. Although E[lambda] = 1, the log of the excess drifts down at
a rate ~ -beta^2/6 per day (the usual multiplicative-process asymmetry), so
a free population slowly collapses onto the floor.

Two couplings modify the free dynamics:

* reset: after the multiplicative step the whole excess vector is rescaled
  by a common factor so the population mean wealth is pinned at w1. This
  couples everyone through the total and converts the collapse into
  persistent boom/crash intermittency driven by the wealthiest agents.

* status skew: the multiplier is additionally scaled by (1 + epsilon * S)
  where S(w) = (w - wp) / (w1 + (w - wp)) maps wealth onto [0, 1). A small
  negative epsilon acts like a progressive brake on the affluent and is
  enough to tame the intermittency.

``step_ensemble`` is the whole update as one pure numpy function of one
day. The engine drives full trajectories through the kernels in
``backends`` instead; fed the same uniform deviates, both agree to
floating-point roundoff, which makes this module their independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationDegenerate
from .params import ModelParams, Mode

# Relative threshold below which the reset rescale is considered degenerate:
# a total excess under N * (w1 - wp) * 1e-300 signals complete collapse, and
# dividing by it would overflow.
DEGENERACY_RELATIVE = 1e-300


@dataclass
class Ensemble:
    """Wealth vector of the whole population at one instant."""

    t: int
    wealth: np.ndarray

    def __post_init__(self):
        self.wealth = np.asarray(self.wealth, dtype=np.float64)

    @property
    def n_agents(self) -> int:
        return self.wealth.shape[0]


def step_ensemble(ens: Ensemble, params: ModelParams, draws: np.ndarray) -> Ensemble:
    """Advance the whole population by one day (synchronous update).

    ``draws`` supplies one uniform deviate per agent. Statuses are evaluated
    from the start-of-day wealth before anyone moves. In the coupled modes
    the excess vector is then rescaled by N*(w1-wp) / sum(w_m - wp) so the
    mean wealth lands back on w1 exactly.

    Raises NormalizationDegenerate if the total excess has collapsed below
    the representable threshold.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.shape != ens.wealth.shape:
        raise ValueError("need exactly one draw per agent")
    excess = ens.wealth - params.wp
    lam = 1.0 + params.beta * (1.0 - 2.0 * draws)
    if params.mode is Mode.SKEWED:
        s = excess / (params.w1 + excess)
        lam = lam * (1.0 + params.epsilon * s)
    new_excess = excess * lam
    if params.coupled:
        total = float(new_excess.sum())
        target = ens.n_agents * params.target_excess  # pin the actual population
        if total < target * DEGENERACY_RELATIVE:
            raise NormalizationDegenerate(total, target * DEGENERACY_RELATIVE, t=ens.t)
        new_excess *= target / total
    return Ensemble(t=ens.t + 1, wealth=params.wp + new_excess)


def initial_ensemble(params: ModelParams) -> Ensemble:
    """The model's starting state: everyone exactly at w1."""
    return Ensemble(t=0, wealth=np.full(params.n_agents, params.w1, dtype=np.float64))
