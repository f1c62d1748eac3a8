"""Pure-numpy day-loop kernel: the fallback when the C kernel can't be built.

Semantically identical to the compiled kernel in ``_kernel.c`` — both
consume the same counter-based random stream, so they agree bit-for-bit on
the draws and to float roundoff on the trajectories (the reset reduction
sums in a different order).
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationDegenerate
from .model import DEGENERACY_RELATIVE
from .rng import GOLDEN, MASK64, MIX1, MIX2, RUN_SHIFT, T_SHIFT

_M1 = np.uint64(MIX1)
_M2 = np.uint64(MIX2)
_GOLD = np.uint64(GOLDEN)
_S30, _S27, _S31, _S11 = (np.uint64(s) for s in (30, 27, 31, 11))
_INV_2_53 = 2.0 ** -53


def advance(excess, key, run, t0, n_days, beta, epsilon, w1, skewed, coupled, target_total):
    """Advance the excess-wealth vector in place over days [t0, t0 + n_days)."""
    n = excess.shape[0]
    key_u = np.uint64(key & MASK64)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    degen = target_total * DEGENERACY_RELATIVE
    run_base = (run << RUN_SHIFT) & MASK64
    for t in range(t0, t0 + n_days):
        z = key_u + (np.uint64(run_base | (t << T_SHIFT)) + idx) * _GOLD
        z = (z ^ (z >> _S30)) * _M1
        z = (z ^ (z >> _S27)) * _M2
        z ^= z >> _S31
        u = (z >> _S11) * _INV_2_53
        lam = 1.0 + beta * (1.0 - 2.0 * u)
        if skewed:
            lam *= 1.0 + epsilon * (excess / (w1 + excess))
        excess *= lam
        if coupled:
            total = excess.sum()
            if total < degen:
                raise NormalizationDegenerate(total, degen, t=t)
            excess *= target_total / total
