"""Pure-Python backend: the numpy kernel, the numpy recorder, the
cell-by-cell CSV writer and the block cyclic reduction band solver.

``advance`` is semantically identical to the compiled kernel in
``_kernel.c`` — both consume the same counter-based random stream and apply
the same per-element operations in the same order, so they agree
bit-for-bit on the draws and in free mode. The coupled modes agree to float
roundoff: numpy sums the renormalizing total pairwise, the C kernel in 16
lanes, plainly inside each block of 1024 agents and compensated across
blocks, which bounds its relative error by about 7e-15 at any N.
``write_rows`` writes each cell as ``format_value`` defines it, the bytes
the compiled writer gives too. ``band_solver`` solves the band systems that
the compiled ``band_lu`` and ``band_solve`` do, to roundoff. ``record_rows``
records a run's sorted blocks in stacked numpy calls, with the bits of the
compiled ``record_rows``; both take the run's inputs and return the block
and the outputs that ``recording`` allocates.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import stats
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


def _rows(mask: np.ndarray):
    """Index of the block rows ``mask`` selects; a slice, so a view, if all."""
    return slice(None) if mask.all() else mask


def recording(rows, n, ticks, snaps, window, rank_ids, edges):
    """(block, tick_at, snap_at, outputs) of a run that ``record_rows``
    records: an empty (rows, n) block; how many ticks, and how many
    snapshots, come before each event and in all (two lists); and the
    run's outputs, as ``record_rows`` returns them, float ones filled with
    NaN. Raises ValueError for inputs that ``record_rows`` refuses."""
    if not (rows >= 1 and n >= 1):
        raise ValueError(f"record_rows needs rows and n >= 1, not {rows} and {n}")
    if any(f.dtype != np.bool_ or f.shape != ticks.shape or f.ndim != 1
           or not f.flags.c_contiguous for f in (ticks, snaps, window)):
        raise ValueError("ticks, snaps and window must be equally long contiguous bools")
    if not (rank_ids.dtype == np.int64 and rank_ids.ndim == 1 and rank_ids.flags.c_contiguous
            and (not rank_ids.size or 1 <= rank_ids.min() <= rank_ids.max() <= n)):
        raise ValueError(f"rank_ids must be contiguous int64 ranks in 1..{n}")
    if not (edges.dtype == np.float64 and edges.ndim == 1 and edges.flags.c_contiguous):
        raise ValueError("edges must be contiguous float64")
    tick_at, snap_at = [0, *np.cumsum(ticks).tolist()], [0, *np.cumsum(snaps).tolist()]
    outputs = (np.full(tick_at[-1], np.nan), np.full(tick_at[-1], np.nan),
               np.full((rank_ids.size, tick_at[-1]), np.nan),
               np.full((snap_at[-1], n), np.nan), np.zeros(edges.size + 1, dtype=np.int64),
               np.zeros((snap_at[-1], edges.size + 1), dtype=np.int64))
    return np.empty((rows, n)), tick_at, snap_at, outputs


def record_rows(rows, n, wp, ticks, snaps, window, rank_ids, edges):
    """(block, record, outputs) for one run of n agents: ``record(lo, k)``
    records events lo..lo + k - 1 from the first k of the ``rows`` rows of
    ``block``, each just sorted ascending, plus ``wp``.

    ``ticks``, ``snaps`` and ``window`` flag the run's events, and ``outputs``
    is (max, gini, ranks, snapshots, counts, snapshot counts). The i-th tick
    gives ``max[i]``, ``gini[i]`` (``stats._gini_sorted``) and
    ``ranks[:, i]``, its values at the 1-based descending ranks ``rank_ids``;
    the i-th snapshot gives ``snapshots[i]``, descending, and ``snapshot
    counts[i]``, its ``stats.bin_excess`` counts against ``edges`` less ``wp``.
    Each window event adds its counts to ``counts``. A tick whose total is 0
    raises DegenerateInput; inputs that ``recording`` refuses raise ValueError.
    """
    block, tick_at, snap_at, outputs = recording(rows, n, ticks, snaps, window,
                                                 rank_ids, edges)
    max_out, gini_out, rank_out, snap_out, counts, snap_counts = outputs
    ranks = np.arange(1, n + 1, dtype=np.float64)

    def record(lo, k):
        """Record events lo..lo + k - 1 from the first k rows of the block."""
        here = slice(lo, lo + k)
        blk = block[:k]
        desc = blk[:, ::-1] + wp
        tick_desc = desc[_rows(ticks[here])]
        at = slice(tick_at[lo], tick_at[lo + k])
        max_out[at] = tick_desc[:, 0]
        # on the reversed view, as on one reversed row: the same bits
        gini_out[at] = stats._gini_sorted(tick_desc[:, ::-1], ranks)
        rank_out[:, at] = tick_desc[:, rank_ids - 1].T
        shots = slice(snap_at[lo], snap_at[lo + k])
        snap_out[shots] = desc[snaps[here]]
        # less wp, as exported: rounding is monotone, so reversed, they ascend
        snap_counts[shots] = stats.bin_excess(edges, (snap_out[shots] - wp)[:, ::-1])
        if window[here].any():
            counts[:] += stats.bin_excess(edges, blk[_rows(window[here])]).sum(axis=0)

    return block, record, outputs


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


def _tridiagonal_blocks(ab: np.ndarray, p: int, q: int) -> np.ndarray:
    """The m x m band matrix M held in ``ab`` (M[i, j] at ``ab[i, j - i + p]``)
    as (3, nb, b, b) stacks of sub-diagonal, diagonal and super-diagonal
    blocks L_i, D_i, U_i.

    With block size b = max(p, q) every band entry lies in one of these
    three b x b blocks of its block row, so M is exactly block-tridiagonal
    (the last block is padded with 1 on the diagonal). One scatter puts
    M[i, i + d], i = I b + r, at column b + r + d of row r of block row I's
    3b-wide panel, which holds M's columns from (I - 1) b on: split at b and
    2b, the panels are L_I, D_I and U_I. Entries outside M are dropped.
    """
    m = ab.shape[0]
    b = max(p, q)
    nb = -(-m // b)
    i = np.arange(m)[:, None]
    panels = np.zeros((nb, b, 3 * b))
    panels.reshape(-1)[3 * b * i + b + i % b + np.arange(-p, q + 1)] = ab
    j = (np.arange(nb)[:, None, None] - 1) * b + np.arange(3 * b)  # M's column
    np.copyto(panels, 0.0, where=(j < 0) | (j >= m))
    pad = np.arange(m - (nb - 1) * b, b)  # the last block's rows past m
    panels[-1, pad, b + pad] = 1.0
    return np.ascontiguousarray(panels.reshape(nb, b, 3, b).transpose(2, 0, 1, 3))


def _block_factor(blocks: np.ndarray) -> List[Tuple[np.ndarray, ...]]:
    """Block cyclic reduction of the block-tridiagonal matrix ``blocks``
    (from ``_tridiagonal_blocks``), in place.

    Block rows L_i x_(i-1) + D_i x_i + U_i x_(i+1) = r_i. Each level
    eliminates the odd block rows from the even ones, with alpha_i = L_i
    inv(D_(i-1)) and gamma_i = U_i inv(D_(i+1)) for even i, leaving a
    block-tridiagonal system of half the size (Heller, SIAM J. Numer. Anal.
    13 (1976); Golub & Van Loan, *Matrix Computations*, sec. 4.5): about
    log2(m/b) levels, each a few numpy calls stacked over the level's blocks.
    For a strictly column diagonally dominant matrix each level's Schur
    complement of the odd block rows and columns stays so, with margins no
    smaller, so every D block inverted is nonsingular. Returns one
    (inv(D_odd), L_odd, U_odd, alpha, gamma) tuple per level and, last, the
    inverse of the single block left.
    """
    lower, diag, upper = blocks
    levels: List[Tuple[np.ndarray, ...]] = []
    while len(diag) > 1:
        # in place: a level writes only its even rows, so the odd rows kept
        # in ``levels`` (views of the blocks) are never overwritten
        inv, lower_odd, upper_odd = diag[1::2], lower[1::2], upper[1::2]
        inv[...] = np.linalg.inv(inv)
        n_odd, n_even = len(inv), len(diag) - len(inv)
        alpha = lower[2::2] @ inv[: n_even - 1]
        gamma = upper[: 2 * n_odd: 2] @ inv
        levels.append((inv, lower_odd, upper_odd, alpha, gamma))
        diag, lower, upper = diag[::2], lower[::2], upper[::2]
        diag[1:] -= alpha @ upper_odd[: n_even - 1]
        diag[:n_odd] -= gamma @ lower_odd
        lower[1:] = -(alpha @ lower_odd[: n_even - 1])
        upper[:n_odd] = -(gamma @ upper_odd)
    levels.append((np.linalg.inv(diag),))
    return levels


def _matvecs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked block products a[k] @ x[k]."""
    return np.einsum("kij,kj->ki", a, x)


def _block_solve(levels: List[Tuple[np.ndarray, ...]], r: np.ndarray) -> np.ndarray:
    """Solve M x = r with the reduction from ``_block_factor``."""
    *steps, (last,) = levels
    b = last.shape[-1]
    y = np.concatenate([r, np.zeros(-r.size % b)]).reshape(-1, b)
    odd_rhs = []
    for _, _, _, alpha, gamma in steps:
        odd = y[1::2]
        y = y[::2].copy()
        y[1:] -= _matvecs(alpha, odd[: len(alpha)])
        y[: len(gamma)] -= _matvecs(gamma, odd)
        odd_rhs.append(odd)
    x = _matvecs(last, y)
    for (inv, lower_odd, upper_odd, _, _), odd in zip(steps[::-1], odd_rhs[::-1]):
        t = odd - _matvecs(lower_odd, x[: len(odd)])
        t[: len(x) - 1] -= _matvecs(upper_odd[: len(x) - 1], x[1:])
        full = np.empty((len(x) + len(odd), b))
        full[::2] = x
        full[1::2] = _matvecs(inv, t)
        x = full
    return x.ravel()[: r.size]


def band_solver(ab, p, q):
    """``solve(r)`` for the m x m matrix M whose band ``ab``, of shape
    (m, p + q + 1), holds M[i, j] at ``ab[i, j - i + p]``: M is factored
    once, by block cyclic reduction with block size max(p, q), and each
    solve returns the x with M x = r. M must be strictly column diagonally
    dominant, or some block may be singular."""
    m = ab.shape[0]
    levels = _block_factor(_tridiagonal_blocks(ab, p, q))

    def solve(r):
        """The x with M x = r, for a length-m vector r."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (m,):
            raise ValueError(f"right-hand side of shape {r.shape}, not ({m},)")
        return _block_solve(levels, r)

    return solve
