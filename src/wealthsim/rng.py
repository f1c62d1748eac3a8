"""Counter-based random numbers for reproducible parallel simulation.

Every uniform deviate is a pure function of ``(seed, run, t, agent)``, so a
simulation produces bit-identical results no matter how runs (or agents
within a day) are split across workers. There is no generator state to carry
around or to hand off between threads.

The construction is the splitmix64 output function applied to a keyed
counter: ``u = finalize(key + (counter + 1) * GOLDEN) >> 11``, scaled to
[0, 1). splitmix64's finalizer is a bijection on 64-bit integers with good
avalanche behaviour, and stepping the input by the golden-ratio increment is
exactly how the reference generator walks its state, so consecutive counters
give well-decorrelated outputs.

The counter packs the three indices into 64 bits::

    counter = run << 50 | t << 24 | agent

which caps runs at 2**14, days at 2**26 and agents at 2**24. Those bounds
are enforced by ``ModelParams``; they are far above anything the model is
used for.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15  # 2**64 / golden ratio, the splitmix64 increment
MIX1 = 0xBF58476D1CE4E5B9  # the splitmix64 finalizer's two multipliers
MIX2 = 0x94D049BB133111EB

RUN_SHIFT = 50
T_SHIFT = 24
MAX_RUNS = 1 << (64 - RUN_SHIFT)
MAX_DAYS = 1 << (RUN_SHIFT - T_SHIFT)
MAX_AGENTS = 1 << T_SHIFT

_INV_2_53 = 2.0 ** -53
_GOLD, _M1, _M2 = (np.uint64(c) for c in (GOLDEN, MIX1, MIX2))
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))


def mix64(z: int) -> int:
    """splitmix64 finalizer (pure-Python scalar reference)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def stream_key(seed: int) -> int:
    """Whiten a user seed into the stream key. Accepts any Python int."""
    return mix64(seed & MASK64)


def _check_coords(run: int, t: int, agents: int) -> None:
    if not 0 <= run < MAX_RUNS:
        raise ValueError(f"run must lie in [0, {MAX_RUNS}), got {run}")
    if not 0 <= t < MAX_DAYS:
        raise ValueError(f"t must lie in [0, {MAX_DAYS}), got {t}")
    if not 0 <= agents <= MAX_AGENTS:
        raise ValueError(f"agent index must lie in [0, {MAX_AGENTS}], got {agents}")


def uniform_at(key: int, run: int, t: int, agent: int) -> float:
    """The single deviate for (run, t, agent). Scalar reference path."""
    if agent < 0:
        raise ValueError(f"agent must be >= 0, got {agent}")
    _check_coords(run, t, agent + 1)  # index agent implies agent+1 slots
    counter = (run << RUN_SHIFT) | (t << T_SHIFT) | agent
    z = mix64((key + ((counter + 1) * GOLDEN)) & MASK64)
    return (z >> 11) * _INV_2_53


def uniforms_for_day(key: int, run: int, t: int, n_agents: int) -> np.ndarray:
    """All n_agents deviates for one (run, t), vectorized."""
    _check_coords(run, t, n_agents)
    return day_uniforms(key, run, t, np.arange(1, n_agents + 1, dtype=np.uint64))


def day_uniforms(key: int, run: int, t: int, idx: np.ndarray) -> np.ndarray:
    """Deviates of agents ``idx - 1`` (uint64, 1-based) for one (run, t).

    Unchecked: callers keep (run, t, agent) within the counter bounds.
    uint64 arithmetic wraps silently in numpy, which is exactly the mod-2**64
    behaviour the scalar path gets from masking.
    """
    base = np.uint64(((run << RUN_SHIFT) | (t << T_SHIFT)) & MASK64)
    z = np.uint64(key & MASK64) + (base + idx) * _GOLD
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    z ^= z >> _S31
    return (z >> _S11) * _INV_2_53
