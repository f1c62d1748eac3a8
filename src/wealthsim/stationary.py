"""Stationary log-excess distribution as a banded eigenproblem.

One day of the skewed dynamics moves an agent at log-excess x = ln(w - wp)
by an additive step ln(lambda). In a mean-field picture the density evolves
under a near-convolution transport operator: a narrow kernel

    pi(l) = e^l / (2 beta)   on   l in [ln(1-beta), ln(1+beta)]

(the log-space image of the uniform multiplier) whose centroid is displaced
by the wealth-dependent status bias. Discretized on a uniform x grid this
gives a banded operator: at the default resolution the kernel spans ~17
cells, and with no bias it is exactly Toeplitz.

Two choices here matter and are deliberate:

* The bias displacement applied at grid point x is measured relative to the
  population frame, delta(x) = ln(1 + eps*S(x)) - ln(1 + eps*S(w1)), where
  S(w1) is the status at the mean wealth the daily rescale pins. The raw
  ln(1 + eps*S(x)) is the bias seen in lab coordinates, but the coupled
  dynamics it models rescales every excess by the population growth factor
  each day; dividing that out (to first order, the growth of the
  mean-wealth agent) is what makes a genuinely stationary interior profile
  possible. Without it the operator drifts everything downhill for any
  eps < 0 and the leading mode just piles on the lower boundary.

* The band is applied conservatively: each *source* cell distributes its
  mass over destinations (columns sum to one in the interior), rather than
  each destination row summing to one. The two coincide for eps = 0, but
  for a spatially varying displacement only the conservative form keeps the
  leading eigenvalue pinned at 1 - (boundary leakage); the row-normalized
  form loses interior mass at the local band-compression rate and pushes
  the eigenvalue visibly below unity.

Both grid ends truncate the band without renormalization (mass walking off
the grid is absorbed), which is what lets sub-threshold skews reveal
themselves as boundary-piled, leaky modes instead of fake stationary ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import backends
from .errors import GridTooCoarse, NoOverlap, NotConverged
from .params import ModelParams
from .stats import LogHistogram

LN10 = math.log(10.0)

#: minimum number of grid cells the multiplier band must span
MIN_BAND_CELLS = 10

#: shift of the inverse iteration in ``leading_eigenpair``, just above the
#: largest possible eigenvalue (1, as no column of the band sums past it)
SHIFT = 1.0 + 1e-6

#: convergence tolerances of ``leading_eigenpair``: eigenvalue step, L1 vector step
VALUE_TOL = 1e-10
VECTOR_TOL = 1e-8
#: default iteration cap of ``leading_eigenpair``, and default grid size
MAX_ITER = 25000
GRID_POINTS = 3600


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in log-excess space, x_i = x_min + i*dx."""

    x_min: float
    dx: float
    m: int

    def __post_init__(self):
        if self.m < 2 or self.dx <= 0:
            raise ValueError("need m >= 2 grid points with positive spacing")

    @property
    def x_max(self) -> float:
        return self.x_min + self.dx * (self.m - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.m)

    @property
    def decades(self) -> float:
        return self.dx * self.m / LN10


def default_grid(w1: float = ModelParams.w1, wp: float = ModelParams.wp,
                 m: int = GRID_POINTS, decades: float = 12.0,
                 decades_below: float = 8.0) -> LogGrid:
    """Grid spanning ``decades`` decades of excess wealth, with the initial
    log-excess ln(w1 - wp) placed ``decades_below`` decades above the floor."""
    x_min = math.log(w1 - wp) - decades_below * LN10
    return LogGrid(x_min=x_min, dx=decades * LN10 / m, m=m)


@dataclass
class BandOperator:
    """One day of mean-field transport as a banded linear operator.

    ``weights[c, k]`` is the mass cell c sends to cell c + offsets[k], kept
    where that cell lies off the grid too, so each source sends 1 to roundoff;
    ``apply`` and the shifted band absorb those taps. ``shifts`` records each
    source cell's centroid displacement relative to the population frame.
    """

    grid: LogGrid
    beta: float
    epsilon: float
    offsets: np.ndarray
    weights: np.ndarray
    shifts: np.ndarray

    def _on_grid(self):
        """Yield (k, offsets[k], dst, src) per offset, where out[dst] takes
        weights[src, k] * v[src] for the cells on the grid at both ends. Taps
        aimed off it are absorbed; a grid narrower than the band gives empty slices."""
        m = self.grid.m
        for k, off in enumerate(self.offsets.tolist()):
            lo, hi = max(off, 0), max(off, 0, m + min(off, 0))
            yield k, off, slice(lo, hi), slice(lo - off, hi - off)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Push one day of mass: out[c + offsets[k]] += weights[c, k] * v[c]."""
        out = np.zeros(self.grid.m)
        for k, _, dst, src in self._on_grid():
            out[dst] += self.weights[src, k] * v[src]
        return out

    def residual(self, lam: float, v: np.ndarray) -> float:
        """L1 norm of apply(v) - lam*v: how far (lam, v) is from an eigenpair."""
        return float(np.abs(self.apply(v) - lam * v).sum())

    def source_sums(self) -> np.ndarray:
        """Mass each source cell sends, off-grid taps included: 1 to roundoff."""
        return self.weights.sum(axis=1)

    def row_sums(self) -> np.ndarray:
        """Row sums of the operator as a matrix (incoming-weight totals)."""
        return self.apply(np.ones(self.grid.m))

    def to_dense(self) -> np.ndarray:
        """Dense matrix form for small grids (tests and cross-checks)."""
        m = self.grid.m
        dst = np.arange(m)[:, None] + self.offsets
        src, k = np.nonzero((0 <= dst) & (dst < m))
        dense = np.zeros((m, m))
        dense[dst[src, k], src] = self.weights[src, k]
        return dense


def frame_status(w1: float, wp: float) -> float:
    """Status of an agent holding the pinned mean wealth w1."""
    return (w1 - wp) / (2.0 * w1 - wp)


def _base_band(beta: float, dx: float) -> Tuple[np.ndarray, np.ndarray]:
    """Cell-integrated masses of pi(l) = e^l/(2 beta) on the offset grid.

    Integrating the kernel over each cell (rather than point-sampling it)
    keeps the discrete centroid within a few percent of the exact mean log
    step; point sampling misplaces it by several times that because the
    offset window clips the support asymmetrically.
    """
    lo, hi = math.log1p(-beta), math.log1p(beta)
    n_min = math.floor(lo / dx - 0.5)
    n_max = math.ceil(hi / dx + 0.5)
    offsets = np.arange(n_min, n_max + 1)
    a = np.maximum(offsets * dx - dx / 2.0, lo)
    b = np.minimum(offsets * dx + dx / 2.0, hi)
    mass = np.where(b > a, (np.exp(b) - np.exp(a)) / (2.0 * beta), 0.0)
    keep = mass > 0
    offsets, mass = offsets[keep], mass[keep]
    return offsets, mass / mass.sum()


def build_operator(grid: LogGrid, beta: float, epsilon: float,
                   w1: float = ModelParams.w1, wp: float = ModelParams.wp) -> BandOperator:
    """Assemble the banded one-day transport operator.

    Raises GridTooCoarse when the multiplier band covers fewer than
    ``MIN_BAND_CELLS`` grid cells.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if not -1.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (-1, 1), got {epsilon}")
    offsets, band = _base_band(beta, grid.dx)
    if offsets.size < MIN_BAND_CELLS:
        raise GridTooCoarse(
            f"multiplier band spans {offsets.size} cells; need >= {MIN_BAND_CELLS} "
            f"(m={grid.m} over {grid.decades:.1f} decades)"
        )

    x = grid.x
    s = np.exp(x) / (w1 + np.exp(x))  # status as a function of log-excess
    shifts = np.log1p(epsilon * s) - math.log1p(epsilon * frame_status(w1, wp))

    # Fractional-offset resampling: displacing by delta = (k + f)*dx splits each
    # band weight (1-f, f) between neighbouring offsets, keeping the total and
    # moving the centroid by exactly delta. Column j of source c takes f*pad[t] +
    # (1-f)*pad[t+1], t = j - first[c]; clipped t reads pad's 0 ends.
    k = np.floor(shifts / grid.dx).astype(np.int64)
    f = shifts / grid.dx - k
    all_offsets = np.arange(offsets.min() + k.min(), offsets.max() + k.max() + 2)
    j = np.arange(all_offsets.size)[:, None]  # gathered as (offsets, sources)
    first = offsets[0] + k - all_offsets[0]  # column of each source's first tap
    pad = np.concatenate([[0.0], band, [0.0]])
    split = pad.take(j - first, mode="clip")
    split *= f
    upper = pad.take(j + 1 - first, mode="clip")
    upper *= 1.0 - f
    split += upper
    weights = upper.reshape(grid.m, -1)  # upper is spent: its buffer takes the transpose
    weights[...] = split.T
    return BandOperator(grid=grid, beta=beta, epsilon=epsilon,
                        offsets=all_offsets, weights=weights, shifts=shifts)


def _shifted_band(op: BandOperator) -> Tuple[np.ndarray, int, int]:
    """``SHIFT*I - A`` for the band matrix A of ``op`` as (ab, p, q): p sub-
    and q super-diagonals, with entry (i, j) at ``ab[i, j - i + p]``, the
    storage ``backends.band_solver`` takes."""
    p, q = max(int(op.offsets.max()), 0), max(-int(op.offsets.min()), 0)
    ab = np.zeros((op.grid.m, p + q + 1))
    for k, off, dst, src in op._on_grid():
        ab[dst, p - off] = -op.weights[src, k]  # A[d, d - off] = weights[d - off, k]
    ab[:, p] += SHIFT
    return ab, p, q


def _signed_unit(x: np.ndarray) -> np.ndarray:
    """``x`` scaled to unit L1 norm, its largest-magnitude entry positive."""
    x = x / np.abs(x).sum()
    return -x if x[int(np.argmax(np.abs(x)))] < 0 else x


def leading_eigenpair(op: BandOperator, n_modes: int = 1, *,
                      max_iter: int = MAX_ITER) -> Tuple[np.ndarray, List[np.ndarray], List[int]]:
    """Dominant eigenpairs by shift-invert (inverse) iteration.

    Each step solves ``(SHIFT*I - A) w = v`` (Golub & Van Loan, *Matrix
    Computations*, sec. 7.6), which converges to the eigenvalue nearest
    SHIFT = 1 + 1e-6 at the rate |SHIFT - lam_1| / |SHIFT - lam_2| per step.
    For the first mode that is the real leading one, as no eigenvalue has
    modulus above 1 (the largest column sum). The shifted matrix is a band,
    p = max offset wide below the diagonal and q = -min offset above it
    (``_shifted_band``), factored once by ``backends.band_solver``: banded LU
    in the compiled library (Golub & Van Loan, sec. 4.3), O(m p q) work, or
    block cyclic reduction under the numpy kernel. No pivoting is needed:
    A >= 0 and its columns sum to at most 1 (``source_sums``), so for
    SHIFT > 1 the shifted matrix is strictly column diagonally dominant, by
    at least SHIFT - 1 in every column. A Schur complement of a strictly
    column diagonally dominant matrix stays so with margins no smaller, so
    each pivot of the elimination is nonzero and the largest entry of its
    column, the one partial pivoting would pick (growth factor <= 2). The
    eigenvalue is read from the same solve: as w approaches
    v / (SHIFT - lam), lam = SHIFT - (v . v) / (v . w).

    Modes past the first come from Wielandt deflation (Saad, *Numerical
    Methods for Large Eigenvalue Problems*, SIAM 2011): each mode found,
    lam_d v_d, is removed as A - lam_d v_d u_d^T with u_d^T v_d = 1. The
    leading mode uses u = 1 (its unit mass); later modes use
    u_d = v_d / (v_d . v_d). The shifted inverse of each rank-one update is
    applied by Sherman-Morrison, one extra solve per mode and no second
    factorization, so the eigenvalue read from the solve is already that of
    the deflated matrix. Its eigenvector x is mapped back to one of A through
    the deflations, latest first, by x <- (lam - lam_d) x + lam_d (u_d . x) v_d.

    Converged when the eigenvalue estimate moves < VALUE_TOL AND the
    normalized vector moves < VECTOR_TOL in L1 between iterations.
    The leading mode is returned with unit sum, its total mass. Modes past
    the first have unit L1 norm and a positive largest-magnitude entry.
    Eigenvalues come out in descending order. Raises NotConverged (with the
    last iterate's ``op.residual`` and the mode's index) if an iteration hits
    ``max_iter``, which covers any ratio up to 0.999 (ln 1e-10 / ln 0.999).
    """
    m = op.grid.m
    band_solve = backends.band_solver(*_shifted_band(op))
    found_vals: List[float] = []
    found_modes: List[np.ndarray] = []
    iterations: List[int] = []
    # deflation terms lam_d v_d u_d^T, each with z_d for its Sherman-Morrison step
    deflations: List[Tuple[float, np.ndarray, np.ndarray, np.ndarray]] = []

    def shifted_solve(r: np.ndarray) -> np.ndarray:
        x = band_solve(r)
        for _, _, u, z in deflations:
            x -= z * (u @ x)
        return x

    def undeflate(x: np.ndarray, lam: float) -> np.ndarray:
        for lam_d, v_d, u, _ in reversed(deflations):
            x = (lam - lam_d) * x + lam_d * (u @ x) * v_d
        return _signed_unit(x)

    for mode_idx in range(n_modes):
        v = np.full(m, 1.0 / m)
        lam = lam_prev = math.inf
        for it in range(1, max_iter + 1):
            w = shifted_solve(v)
            lam = SHIFT - (v @ v) / (v @ w)
            w = _signed_unit(w)
            dv = np.abs(w - v).sum()
            v = w
            if abs(lam - lam_prev) < VALUE_TOL and dv < VECTOR_TOL:
                break
            lam_prev = lam
        else:
            raise NotConverged(max_iter, op.residual(lam, undeflate(v, lam)), mode_idx + 1)
        if mode_idx == 0:
            v = v / v.sum()  # unit mass: the deflation term lam v 1^T needs 1^T v = 1
        found_vals.append(float(lam))
        found_modes.append(undeflate(v, lam) if deflations else v)
        iterations.append(it)
        if mode_idx + 1 < n_modes:
            u = np.ones(m) if mode_idx == 0 else v / (v @ v)
            z = shifted_solve(lam * v)
            deflations.append((lam, v, u, z / (1.0 + u @ z)))

    order = np.argsort(found_vals)[::-1]
    return (np.array(found_vals)[order], [found_modes[i] for i in order],
            [iterations[i] for i in order])


@dataclass
class StationarySolution:
    """Leading eigenpair of the transport operator plus diagnostics."""

    grid: LogGrid
    operator: BandOperator
    eigenvalue: float
    mode: np.ndarray
    iterations: int
    residual: float

    @property
    def peak_x(self) -> float:
        return float(self.grid.x[int(np.argmax(self.mode))])

    @property
    def mean_x(self) -> float:
        return float((self.grid.x * self.mode).sum())

    @property
    def std_x(self) -> float:
        return float(np.sqrt(((self.grid.x - self.mean_x) ** 2 * self.mode).sum()))

    @property
    def boundary_piled(self) -> bool:
        """True when the mode hugs the absorbing lower edge (not stationary).

        Criteria: most of the mass within the lowest quarter of the grid's
        span, peak in the lowest quarter, and essentially nothing in the
        top decade. The top-decade bound is deliberately loose (1e-4):
        wall modes carry a real resolution-dependent tail up there (~1e-6),
        while interior bells put their peak far above the lowest quarter,
        so the separating tests are the first two.
        """
        x = self.grid.x
        span = self.grid.x_max - self.grid.x_min
        low = self.mode[x < self.grid.x_min + 0.25 * span].sum()
        top = self.mode[x > self.grid.x_max - LN10].sum()
        peak_frac = (self.peak_x - self.grid.x_min) / span
        return bool(low > 0.5 and peak_frac < 0.25 and top < 1e-4)


def solve_stationary(beta: float, epsilon: float, *, w1: float = ModelParams.w1,
                     wp: float = ModelParams.wp, m: int = GRID_POINTS,
                     grid: Optional[LogGrid] = None,
                     max_iter: int = MAX_ITER) -> StationarySolution:
    """Build the default-grid operator and solve for its leading mode."""
    if grid is None:
        grid = default_grid(w1, wp, m=m)
    op = build_operator(grid, beta, epsilon, w1, wp)
    values, modes, iters = leading_eigenpair(op, 1, max_iter=max_iter)
    return StationarySolution(grid=grid, operator=op, eigenvalue=float(values[0]),
                              mode=modes[0], iterations=iters[0],
                              residual=op.residual(values[0], modes[0]))


# ---------------------------------------------------------------------------
# Comparing an eigenmode with a simulated histogram

def compare_to_simulation(solution: StationarySolution,
                          hist: LogHistogram) -> float:
    """Total-variation distance between the eigenmode and a simulated histogram.

    The histogram's excess-wealth bin edges are mapped to log space and both
    distributions are laid over the union of their edges, each treated as
    piecewise-constant between its own edges; the histogram's open-ended
    under/overflow counts are kept as point masses at its first/last edge.
    Returns TV in [0, 1]. Raises NoOverlap when the two finite coordinate
    ranges share no interval at all; distributions that merely concentrate
    their mass in different places come out near 1 instead.
    """
    grid = solution.grid
    half = grid.dx / 2.0
    p_edges = np.concatenate([[grid.x_min - half], grid.x + half])
    p_probs = solution.mode / solution.mode.sum()

    total = hist.counts.sum()
    if total == 0:
        raise NoOverlap("histogram holds no counts")
    q_edges = np.log(np.asarray(hist.bin_edges, dtype=np.float64))
    q_inner = hist.counts[1:-1].astype(np.float64) / total
    q_under = hist.counts[0] / total
    q_over = hist.counts[-1] / total

    if q_edges[-1] <= p_edges[0] or p_edges[-1] <= q_edges[0]:
        raise NoOverlap("eigenmode grid and histogram ranges are disjoint")

    union = np.union1d(p_edges, q_edges)

    # Right-continuous CDFs sampled on the union points.
    p_cdf = _piecewise_cdf(p_edges, p_probs, union)
    q_cdf = _piecewise_cdf(q_edges, q_inner, union)
    q_cdf = np.where(union >= q_edges[0], q_cdf + q_under, q_cdf)
    q_cdf = np.where(union >= q_edges[-1], q_cdf + q_over, q_cdf)

    # Union points split the line into cells on which both densities are
    # constant (atoms land exactly on union points), so TV is exact here.
    interior = np.abs(np.diff(p_cdf) - np.diff(q_cdf)).sum()
    left = abs(p_cdf[0] - q_cdf[0])
    right = abs((1.0 - p_cdf[-1]) - (1.0 - q_cdf[-1]))
    return float(0.5 * (left + interior + right))


def _piecewise_cdf(edges: np.ndarray, probs: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """CDF of a piecewise-constant density (probs over edge intervals)."""
    cum = np.concatenate([[0.0], np.cumsum(probs)])
    return np.interp(points, edges, cum)
