"""Pure-Python backend: the numpy kernel and the cell-by-cell CSV writer.

``advance`` is semantically identical to the compiled kernel in
``_kernel.c`` — both consume the same counter-based random stream and apply
the same per-element operations in the same order, so they agree
bit-for-bit on the draws and in free mode. The coupled modes agree to float
roundoff: numpy sums the renormalizing total pairwise, the C kernel in 16
compensated lanes. ``write_rows`` writes each cell as ``format_value``
defines it, the bytes the compiled writer gives too.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationDegenerate
from .model import DEGENERACY_RELATIVE
from .rng import day_uniforms


def format_value(v) -> str:
    """One cell: integers verbatim, floats at 17 significant digits.

    Integral floats get a trailing '.0' so a column's int/float nature
    survives the round trip.
    """
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    s = format(float(v), ".17g")
    if not any(ch in s for ch in ".eni"):  # no '.', exponent, nan or inf
        s += ".0"
    return s


def write_rows(fh, columns, rows):
    """Write every row of ``columns``, equally long 1-d int64 or float64
    arrays, to the binary file ``fh`` as CSV lines, ``rows`` rows at a time."""
    n = columns[0].shape[0]
    for start in range(0, n, rows):
        block = zip(*(c[start:start + rows] for c in columns))
        text = "".join(",".join(map(format_value, row)) + "\n" for row in block)
        fh.write(text.encode("utf-8"))


def checked_block(excess, t0, n_days, stops, out):
    """The ``(stops, out)`` an ``advance`` call runs with, checked.

    Without ``stops`` the call runs to ``t0 + n_days`` and stores nothing.
    Otherwise ``stops`` is a nonempty, strictly increasing sequence of
    integer days from ``t0`` (the first may equal it) ending at
    ``t0 + n_days``, and ``out``, if given, a C-contiguous writeable float64
    array of shape ``(len(stops), len(excess))``. Raises ValueError else.
    """
    if stops is None:
        if out is not None:
            raise ValueError("out needs stops")
        return np.array([t0 + n_days], dtype=np.int64), None
    stops = np.asarray(stops)
    if stops.ndim != 1 or stops.size == 0 or stops.dtype.kind not in "iu":
        raise ValueError("stops must be a nonempty 1-d sequence of integer days")
    stops = np.ascontiguousarray(stops, dtype=np.int64)
    if stops[0] < t0 or np.any(stops[1:] <= stops[:-1]):
        raise ValueError(f"stops must increase strictly from t0 = {t0}")
    if stops[-1] != t0 + n_days:
        raise ValueError(f"stops end at {stops[-1]}, not at t0 + n_days = {t0 + n_days}")
    if out is not None and not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == (stops.size, excess.shape[0])
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a C-contiguous writeable float64 array "
                         f"of shape {(stops.size, excess.shape[0])}")
    return stops, out


def advance(excess, key, run, t0, n_days, beta, epsilon, w1, skewed, coupled,
            target_total, stops=None, out=None):
    """Advance the excess-wealth vector in place over days [t0, t0 + n_days).

    Given ``stops``, increasing days ending at ``t0 + n_days``, the vector
    at ``stops[i]`` is also stored in ``out[i]`` (see ``checked_block``).
    A collapsed total raises NormalizationDegenerate naming ``run`` and the day.
    """
    target_total = float(target_total)
    stops, out = checked_block(excess, t0, n_days, stops, out)
    idx = np.arange(1, excess.shape[0] + 1, dtype=np.uint64)
    degen = target_total * DEGENERACY_RELATIVE
    start = t0
    for i, stop in enumerate(stops.tolist()):
        for t in range(start, stop):
            u = day_uniforms(key, run, t, idx)
            lam = 1.0 + beta * (1.0 - 2.0 * u)
            if skewed:
                lam *= 1.0 + epsilon * (excess / (w1 + excess))
            excess *= lam
            if coupled:
                total = excess.sum()
                if total < degen:
                    raise NormalizationDegenerate(float(total), degen, run_id=run, t=t)
                excess *= target_total / total
        if out is not None:
            out[i] = excess
        start = stop
