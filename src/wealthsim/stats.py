"""Inequality and flow indicators computed from simulation records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateInput


# ---------------------------------------------------------------------------
# Gini coefficient

def gini(wealth, wp: float = None) -> float:
    """Gini coefficient, 0 for perfect equality up to (N-1)/N for one-owns-all.

    Computed on raw wealth by default; pass ``wp`` to measure inequality of
    the excess above the floor instead. O(N log N) via the sorted-rank form
    of the mean absolute difference.
    """
    w = np.asarray(wealth, dtype=np.float64)
    if wp is not None:
        w = w - wp
    return float(_gini_sorted(np.sort(w)))


def _gini_sorted(w_ascending: np.ndarray, ranks: Optional[np.ndarray] = None):
    """Gini of an ascending vector, or of each ascending row of a 2-D block.

    ``ranks`` is ``arange(1, n + 1)`` as float64, built here when not given.
    numpy hands rows that step backwards in memory (a reversed view) to its
    own sequential dot product, so each row of such a block gets the bits
    of that row alone; contiguous rows go to BLAS and can differ in the last
    bit.
    """
    n = w_ascending.shape[-1]
    total = w_ascending.sum(axis=-1)
    if np.any(total == 0.0):
        raise DegenerateInput("gini undefined for an all-zero vector")
    if ranks is None:
        ranks = np.arange(1, n + 1, dtype=np.float64)
    return (2.0 * (w_ascending @ ranks) - (n + 1) * total) / (n * total)


def gini_pairwise(wealth, wp: float = None) -> float:
    """O(N^2) definition sum_ij |w_i - w_j| / (2 N^2 mean). Test oracle."""
    w = np.asarray(wealth, dtype=np.float64)
    if wp is not None:
        w = w - wp
    total = w.sum()
    if total == 0.0:
        raise DegenerateInput("gini undefined for an all-zero vector")
    diff = np.abs(w[:, None] - w[None, :]).sum()
    n = w.shape[0]
    return float(diff / (2.0 * n * total))


# ---------------------------------------------------------------------------
# Windowed log-histograms

@dataclass
class LogHistogram:
    """Counts of excess wealth over geometrically spaced bins.

    ``counts`` has ``len(bin_edges) + 1`` entries: the first and last are
    open-ended catch bins for values below the first / at or above the last
    edge, so nothing is ever dropped silently.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    window: Optional[tuple] = None  # (t_start, t_end) the counts integrate over

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts)
        if counts.dtype.kind == "f" and not ((np.abs(counts) < 2.0**63).all()
                                             and (np.floor(counts) == counts).all()):
            raise ValueError("counts must be whole numbers in int64's range")
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.bin_edges.ndim != 1 or self.bin_edges.size < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.diff(self.bin_edges) > 0):
            raise ValueError("bin edges must be strictly increasing")
        if self.counts.shape != (self.bin_edges.size + 1,):
            raise ValueError("counts must have len(bin_edges) + 1 entries")
        if np.any(self.counts < 0):
            raise ValueError("counts must not be negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def geometric_edges(lo: float, hi: float, n_bins: int) -> np.ndarray:
    """n_bins geometric bins between lo and hi (n_bins + 1 edges)."""
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi for geometric edges")
    return np.geomspace(lo, hi, n_bins + 1)


def bin_excess(edges: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """Counts (len(edges)+1) of one ascending excess vector, incl. open end bins;
    of a 2-D block of ascending rows, one such row of counts per row.

    ``ascending`` must be sorted as ``np.sort`` sorts (nan last); the counts
    then come from one binary search per edge rather than one per value.
    Raises ValueError for an unsorted row, which would be miscounted.
    """
    ascending = np.asarray(ascending)
    if ascending.ndim not in (1, 2):
        raise ValueError("bin_excess needs one ascending vector or a 2-D block of them")
    ordered = ascending[..., :-1] <= ascending[..., 1:]
    if not ordered.all() and not (ordered | np.isnan(ascending[..., 1:])).all():
        raise ValueError("bin_excess needs ascending rows")
    rows = np.atleast_2d(ascending)
    # below[:, k] values lie under edges[k - 1]; the outer columns close the open bins
    below = np.empty((rows.shape[0], edges.size + 2), dtype=np.int64)
    below[:, 0], below[:, -1] = 0, rows.shape[1]
    for row, row_below in zip(rows, below):
        row_below[1:-1] = np.searchsorted(row, edges, side="left")
    counts = np.diff(below)
    return counts if ascending.ndim == 2 else counts[0]


def log_histogram(snapshots, edges, wp: float = 0.0, window=None) -> LogHistogram:
    """Accumulate excess-wealth counts of several wealth snapshots."""
    edges = np.asarray(edges, dtype=np.float64)
    counts = np.zeros(edges.size + 1, dtype=np.int64)
    empty = True
    for snap in snapshots:
        counts += bin_excess(edges, np.sort(np.asarray(snap, dtype=np.float64) - wp))
        empty = False
    if empty:
        raise DegenerateInput("histogram window contains no snapshots")
    return LogHistogram(bin_edges=edges, counts=counts, window=window)


# ---------------------------------------------------------------------------
# Sorted-rank flux correlations and the divide between tail and bulk

@dataclass
class FluxMatrix:
    """Accumulated co-movement of the sorted (rank-ordered) wealth series.

    ``A[i, j] = sum_t dw_i(t) * dw_j(t)`` on the day-to-day increments of the
    re-sorted series; ``C = sign(A) * log(1 + |A|)**2`` compresses the huge
    dynamic range while keeping the sign structure. Positive C: ranks i and j
    gain/lose together; negative: one's gain is the other's loss.
    """

    ranks: np.ndarray
    A: np.ndarray
    C: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=np.int64)
        self.A = np.asarray(self.A, dtype=np.float64)
        if self.C is None:
            self.C = np.sign(self.A) * np.log1p(np.abs(self.A)) ** 2


def default_ranks(n_agents: int, dense_upto: int = 40, log_points: int = 60) -> np.ndarray:
    """Rank sample: every rank up to ``dense_upto``, then log-spaced to N."""
    dense = np.arange(1, min(dense_upto, n_agents) + 1)
    if n_agents <= dense_upto:
        return dense
    sparse = np.rint(np.geomspace(dense_upto + 1, n_agents, log_points)).astype(np.int64)
    return np.unique(np.concatenate([dense, sparse]))


def flux_matrix(rank_series: np.ndarray, ranks=None) -> FluxMatrix:
    """Accumulate the increment-product matrix of a sorted-rank wealth series.

    ``rank_series`` is (n_ranks, n_times) with at least two time points.
    The Gram matrix is summed by ``np.einsum``, which never calls BLAS nor
    its thread pool: a BLAS product sums in an order set by the pool's
    size, so its last bits would follow ``OPENBLAS_NUM_THREADS``, and the
    pool left some processes ~10x slower on this small product.
    """
    series = np.asarray(rank_series, dtype=np.float64)
    if series.ndim != 2 or series.shape[1] < 2:
        raise ValueError("rank_series must be (n_ranks, n_times >= 2)")
    if ranks is None:
        ranks = np.arange(1, series.shape[0] + 1)
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.shape[0] != series.shape[0]:
        raise ValueError("one rank label per series row required")
    if np.any(np.diff(ranks) <= 0):
        raise ValueError("ranks must be strictly increasing")
    deltas = np.diff(series, axis=1)
    a = np.einsum("ik,jk->ij", deltas, deltas)
    return FluxMatrix(ranks=ranks, A=a)


def water_divide(fm: FluxMatrix) -> Optional[int]:
    """Boundary rank of the top co-moving class in the flux matrix.

    Grows a class downward from the smallest sampled rank, admitting each
    next sampled rank while its accumulated flux with the class core stays
    positive. The core excludes members within a factor 2 in rank of the
    candidate, so near-diagonal co-movement (largely an artifact of rank
    crossings) cannot mask a genuine reversal; each core row is weighted by
    the width of the rank band it samples. Returns the last admitted rank
    once the flux turns non-positive — wealth beyond it flows against the
    class — or None when the whole sampled range co-moves (nothing to
    divide, e.g. uncoupled runs): an explicit absence, not an error.
    """
    ranks = fm.ranks
    widths = np.diff(ranks, prepend=0).astype(np.float64)
    members = [0]
    for k in range(1, ranks.shape[0]):
        core = [i for i in members if 2 * ranks[i] <= ranks[k]] or members[:1]
        flux = float(widths[core] @ fm.A[core, k])
        if flux < 0.0:
            return int(ranks[k - 1])
        members.append(k)
    return None
