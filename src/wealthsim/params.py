"""Experiment parameters and their validation."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import ParameterError
from .rng import MAX_AGENTS, MAX_DAYS, MAX_RUNS


class Mode(enum.Enum):
    """Coupling mode of the ensemble update.

    FREE    - every agent multiplies its excess independently.
    RESET   - after each day the excess vector is rescaled so the population
              mean wealth returns to w1 (all agents coupled through the total).
    SKEWED  - RESET plus a wealth-dependent bias of the multiplier mean.
    """

    FREE = "free"
    RESET = "reset"
    SKEWED = "skewed"


@dataclass(frozen=True)
class ModelParams:
    """All scalars defining one experiment.

    ``beta`` is the half-width of the uniform daily multiplier (the fraction
    of the excess wealth engaged per day), ``epsilon`` the small status skew
    applied in SKEWED mode, ``w1`` the initial (and, under reset, enforced
    mean) wealth, ``wp`` the poverty floor below which no agent can fall.
    """

    n_agents: int
    beta: float
    mode: Mode
    t_max: int
    seed: int
    epsilon: float = 0.0
    w1: float = 1000.0
    wp: float = 400.0
    n_runs: int = 1

    def __post_init__(self):
        problems = []
        if not isinstance(self.mode, Mode):
            try:
                object.__setattr__(self, "mode", Mode(str(self.mode).lower()))
            except ValueError:
                problems.append(f"mode must be one of {[m.value for m in Mode]}, got {self.mode!r}")
        if self.n_agents < 1:
            problems.append(f"n_agents must be positive, got {self.n_agents}")
        elif self.n_agents > MAX_AGENTS:
            problems.append(f"n_agents exceeds the RNG counter capacity {MAX_AGENTS}")
        # beta = 0 is allowed as the degenerate no-spread case (all multipliers 1)
        if not 0.0 <= self.beta < 1.0:
            problems.append(f"beta must lie in [0, 1), got {self.beta}")
        if not -1.0 < self.epsilon < 1.0:
            problems.append(f"epsilon must lie in (-1, 1), got {self.epsilon}")
        if not 0.0 <= self.wp < self.w1:
            problems.append(f"need 0 <= wp < w1, got wp={self.wp}, w1={self.w1}")
        if self.t_max < 0:
            problems.append(f"t_max must be nonnegative, got {self.t_max}")
        elif self.t_max > MAX_DAYS:
            problems.append(f"t_max exceeds the RNG counter capacity {MAX_DAYS}")
        if not 0 <= self.seed < 2**64:
            problems.append(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.n_runs < 1:
            problems.append(f"n_runs must be positive, got {self.n_runs}")
        elif self.n_runs > MAX_RUNS:
            problems.append(f"n_runs exceeds the RNG counter capacity {MAX_RUNS}")
        if isinstance(self.mode, Mode) and self.mode is not Mode.SKEWED and self.epsilon != 0.0:
            problems.append(f"mode {self.mode.value!r} requires epsilon = 0, got {self.epsilon}")
        if problems:
            raise ParameterError(problems)

    @property
    def target_excess(self) -> float:
        """Per-agent excess the reset drives the population mean back to."""
        return self.w1 - self.wp

    @property
    def coupled(self) -> bool:
        """True when the daily reset rescale is active."""
        return self.mode in (Mode.RESET, Mode.SKEWED)
