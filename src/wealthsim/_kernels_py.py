"""Pure-numpy day-loop kernel: the fallback when the C kernel can't be built.

Semantically identical to the compiled kernel in ``_kernel.c`` — both
consume the same counter-based random stream and apply the same per-element
operations in the same order, so they agree bit-for-bit on the draws and in
free mode. The coupled modes agree to float roundoff: numpy sums the
renormalizing total pairwise, the C kernel in 16 compensated lanes.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationDegenerate
from .model import DEGENERACY_RELATIVE
from .rng import day_uniforms


def advance(excess, key, run, t0, n_days, beta, epsilon, w1, skewed, coupled, target_total):
    """Advance the excess-wealth vector in place over days [t0, t0 + n_days).

    A collapsed total raises NormalizationDegenerate naming ``run`` and the day.
    """
    idx = np.arange(1, excess.shape[0] + 1, dtype=np.uint64)
    degen = target_total * DEGENERACY_RELATIVE
    for t in range(t0, t0 + n_days):
        u = day_uniforms(key, run, t, idx)
        lam = 1.0 + beta * (1.0 - 2.0 * u)
        if skewed:
            lam *= 1.0 + epsilon * (excess / (w1 + excess))
        excess *= lam
        if coupled:
            total = excess.sum()
            if total < degen:
                raise NormalizationDegenerate(total, degen, run_id=run, t=t)
            excess *= target_total / total
