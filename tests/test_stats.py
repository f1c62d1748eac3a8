"""Gini, log-histograms, flux matrix, water divide."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wealthsim import (DegenerateInput, FluxMatrix, LogHistogram, bin_excess,
                       default_ranks, flux_matrix, geometric_edges, gini,
                       gini_pairwise, log_histogram, water_divide)

# --- gini --------------------------------------------------------------------


def test_gini_trivial_cases():
    assert gini(np.full(50, 7.0)) == pytest.approx(0.0, abs=1e-15)
    assert gini([1.0, 2.0, 3.0]) == pytest.approx(8.0 / 36.0, abs=1e-4)
    for n in (2, 10, 137):
        one_owns_all = np.zeros(n)
        one_owns_all[-1] = 42.0
        assert gini(one_owns_all) == pytest.approx((n - 1) / n, rel=1e-12)


def test_gini_equals_pairwise_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        w = rng.lognormal(0.0, 1.5, n)
        assert abs(gini(w) - gini_pairwise(w)) < 1e-12


def test_gini_range_and_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.exponential(3.0, 64)
        g = gini(w)
        assert 0.0 <= g <= 1.0 - 1.0 / 64
        assert gini(17.5 * w) == pytest.approx(g, rel=1e-12)


def test_gini_excess_option():
    w = np.array([500.0, 700.0, 1400.0])
    assert gini(w, wp=400.0) == pytest.approx(gini(w - 400.0), rel=1e-15)
    assert gini(w, wp=400.0) > gini(w)  # floor removal exposes inequality


def test_gini_degenerate():
    with pytest.raises(DegenerateInput):
        gini(np.zeros(5))


@given(hnp.arrays(np.float64, st.integers(min_value=2, max_value=60),
                  elements=st.floats(min_value=0.0, max_value=1e6)))
@settings(max_examples=100, deadline=None)
def test_gini_matches_oracle_property(w):
    if w.sum() == 0.0:
        return
    assert abs(gini(w) - gini_pairwise(w)) < 1e-10


# --- histograms ---------------------------------------------------------------


def test_geometric_edges_shape_and_monotonicity():
    edges = geometric_edges(1e-2, 1e6, 160)
    assert edges.shape == (161,)
    assert np.all(np.diff(edges) > 0)
    with pytest.raises(ValueError):
        geometric_edges(0.0, 10.0, 4)


def test_dirac_snapshot_lands_in_w1_bin():
    edges = geometric_edges(6.0, 6e6, 100)
    h = log_histogram([np.full(360, 1000.0)], edges, wp=400.0)
    assert h.total == 360
    bin_idx = int(np.argmax(h.counts))
    # the bin containing excess 600
    assert edges[bin_idx - 1] <= 600.0 < edges[bin_idx]
    assert h.counts[bin_idx] == 360


def test_two_identical_snapshots_double_counts():
    edges = geometric_edges(1.0, 1e4, 40)
    snap = np.geomspace(410.0, 9000.0, 200)
    h1 = log_histogram([snap], edges, wp=400.0)
    h2 = log_histogram([snap, snap], edges, wp=400.0)
    assert np.array_equal(h2.counts, 2 * h1.counts)


def test_open_bins_catch_out_of_range():
    edges = geometric_edges(10.0, 100.0, 5)
    counts = bin_excess(edges, np.array([1.0, 5.0, 50.0, 500.0, 5000.0]))  # ascending
    assert counts[0] == 2      # below the first edge
    assert counts[-1] == 2     # at or above the last edge
    assert counts.sum() == 5   # nothing dropped


def per_value_bins(edges, x):
    """The binning bin_excess replaced: one search per value, any order."""
    return np.bincount(np.searchsorted(edges, x, side="right"), minlength=edges.size + 1)


BIN_EDGES = geometric_edges(1e-3, 1e3, 12)
# values on an edge and one ulp either side of it; zeros, the smallest subnormal,
# 1e308, the infinities and nan
EDGE_HITS = [v for e in BIN_EDGES
             for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
AWKWARD_EXCESS = EDGE_HITS + [0.0, -0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan]


@example([])
@example([1.0])
@example([BIN_EDGES[3]])
@given(st.lists(st.one_of(st.sampled_from(AWKWARD_EXCESS), st.floats(width=64)),
                max_size=60))
@settings(max_examples=300, deadline=None)
def test_sorted_binning_matches_per_value_search(xs):
    x = np.array(xs, dtype=np.float64)
    assert np.array_equal(bin_excess(BIN_EDGES, np.sort(x)), per_value_bins(BIN_EDGES, x))


@given(st.lists(st.lists(st.one_of(st.sampled_from(AWKWARD_EXCESS), st.floats(width=64)),
                         min_size=7, max_size=7), max_size=5))
@settings(max_examples=100, deadline=None)
def test_block_binning_matches_one_row_at_a_time(rows):
    block = np.sort(np.array(rows, dtype=np.float64).reshape(-1, 7), axis=1)
    counts = bin_excess(BIN_EDGES, block)
    assert counts.shape == (block.shape[0], BIN_EDGES.size + 1)
    for row, row_counts in zip(block, counts):
        assert np.array_equal(row_counts, bin_excess(BIN_EDGES, row))


@pytest.mark.parametrize("x", [[2.0, 1.0], [0.0, 5.0, 4.0, 9.0], [1.0, np.nan, 0.5],
                               [np.nan, 1.0], [[1.0, 2.0], [2.0, 1.0]], [[[1.0, 2.0]]]],
                         ids=["descending", "one-step-down", "nan-inside", "nan-first",
                              "second-row-descending", "3-d"])
def test_unsorted_excess_is_refused(x):
    with pytest.raises(ValueError):
        bin_excess(BIN_EDGES, np.array(x))


def test_histogram_validation():
    with pytest.raises(ValueError):
        LogHistogram(bin_edges=[3.0, 2.0], counts=[0, 0, 0])
    with pytest.raises(ValueError, match="two bin edges"):
        LogHistogram(bin_edges=[1.0], counts=[0, 0])
    with pytest.raises(ValueError):
        LogHistogram(bin_edges=[1.0, 2.0], counts=[0, 0])
    with pytest.raises(ValueError, match="negative"):
        LogHistogram(bin_edges=[1.0, 2.0], counts=[0, -1, 0])
    # a float count must be a whole number: it is not truncated
    for counts in ([0.9, 2.0, 3.7], [0.0, math.inf, 1.0], [0.0, math.nan, 1.0],
                   [0.0, 1e30, 1.0]):
        with pytest.raises(ValueError, match="whole numbers"):
            LogHistogram(bin_edges=[1.0, 2.0], counts=counts)
    whole = LogHistogram(bin_edges=[1.0, 2.0], counts=[0.0, 2.0, 3.0])
    assert whole.counts.dtype == np.int64 and whole.counts.tolist() == [0, 2, 3]
    with pytest.raises(DegenerateInput):
        log_histogram([], geometric_edges(1.0, 10.0, 3))


def test_free_mode_histogram_std_matches_sigma(free_records):
    # log-excess std at t=1000 within [0.95, 1.10] * sigma(1000)
    from wealthsim import sigma_t
    rec = free_records[0]
    i = int(np.where(rec.snapshot_times == 1000)[0][0]) if 1000 in rec.snapshot_times \
        else int(np.argmin(np.abs(rec.snapshot_times - 1000)))
    t = float(rec.snapshot_times[i])
    x = np.log(rec.sorted_snapshots[i] - 400.0)
    sig = sigma_t(0.06, t)
    assert 0.95 * sig < x.std() < 1.10 * sig


# --- flux matrix ---------------------------------------------------------------


def test_flux_constant_series_is_zero():
    series = np.tile(np.array([[5.0], [3.0], [1.0]]), (1, 10))
    fm = flux_matrix(series)
    assert np.all(fm.A == 0.0)
    assert np.all(fm.C == 0.0)


def test_flux_diagonal_nonnegative_and_sign_pattern():
    rng = np.random.default_rng(3)
    series = np.cumsum(rng.normal(size=(6, 50)), axis=1)
    fm = flux_matrix(series)
    assert np.all(np.diag(fm.A) >= 0.0)
    assert np.array_equal(np.sign(fm.A), np.sign(fm.C))
    assert np.array_equal(fm.C, fm.C.T)


def test_flux_perfect_anticorrelation():
    T = 12
    up = np.cumsum(np.resize([1.0, -1.0], T))
    series = np.vstack([np.concatenate([[0.0], up]),
                        np.concatenate([[0.0], -up])])
    fm = flux_matrix(series)
    assert fm.A[0, 1] == pytest.approx(-T)
    assert fm.C[0, 1] == pytest.approx(-np.log1p(T) ** 2)
    assert fm.A[0, 0] == pytest.approx(T)


def test_flux_input_validation():
    with pytest.raises(ValueError):
        flux_matrix(np.zeros((3, 1)))  # one time point
    with pytest.raises(ValueError):
        flux_matrix(np.zeros((2, 5)), ranks=[5, 2])  # unsorted ranks
    with pytest.raises(ValueError):
        flux_matrix(np.zeros((2, 5)), ranks=[1, 2, 3])  # label mismatch


def test_default_ranks_structure():
    ranks = default_ranks(3600)
    assert ranks[0] == 1 and ranks[-1] == 3600
    assert np.all(np.diff(ranks) > 0)
    assert np.array_equal(ranks[:40], np.arange(1, 41))
    assert ranks.size < 110
    small = default_ranks(30)
    assert np.array_equal(small, np.arange(1, 31))


# --- water divide ---------------------------------------------------------------


def test_water_divide_absent_for_identical_agents():
    series = np.tile(np.linspace(10.0, 1.0, 8)[:, None], (1, 20))
    fm = flux_matrix(series)
    assert water_divide(fm) is None


def test_water_divide_synthetic_tail_vs_bulk():
    # ranks 1..5 move opposite to the bulk; divide must be 5
    rng = np.random.default_rng(11)
    ranks = np.concatenate([np.arange(1, 11), [20, 40, 80, 160, 320, 640]])
    moves = rng.normal(size=60)
    series = np.zeros((ranks.size, 61))
    for row, r in enumerate(ranks):
        sign = 1.0 if r <= 5 else -1.0
        series[row, 1:] = np.cumsum(sign * moves + 0.01 * rng.normal(size=60))
    fm = flux_matrix(series, ranks)
    assert water_divide(fm) == 5


def test_water_divide_none_when_everything_comoves():
    rng = np.random.default_rng(12)
    ranks = np.concatenate([np.arange(1, 11), [20, 40, 80, 160, 320, 640]])
    moves = rng.normal(size=60)
    series = np.cumsum(np.tile(moves, (ranks.size, 1)), axis=1)
    series = np.hstack([np.zeros((ranks.size, 1)), series])
    fm = flux_matrix(series, ranks)
    assert water_divide(fm) is None


def test_water_divide_lone_leader():
    # rank 1 moves against everyone else: the class is a single agent
    rng = np.random.default_rng(13)
    ranks = np.concatenate([np.arange(1, 11), [20, 40, 80, 160, 320, 640]])
    moves = rng.normal(size=60)
    series = np.zeros((ranks.size, 61))
    for row, r in enumerate(ranks):
        sign = 1.0 if r == 1 else -1.0
        series[row, 1:] = np.cumsum(sign * moves + 0.01 * rng.normal(size=60))
    fm = flux_matrix(series, ranks)
    assert water_divide(fm) == 1


# --- statistical invariants on the reference ensembles --------------------------


def test_gini_comoves_with_top_wealth(reset_records):
    # inequality spikes are driven by the wealthiest agent; the max series
    # spans several decades, so correlate against its log excess (raw
    # Pearson would be dominated by the single largest spike)
    good = 0
    for rec in reset_records:
        top = np.log(rec.max_series - 400.0)
        corr = np.corrcoef(rec.gini_series, top)[0, 1]
        if corr > 0.5:
            good += 1
    assert good >= 7


def test_reset_rank1_anticorrelated_with_bulk(reset_records):
    from conftest import FLUX_STEP

    good = 0
    for rec in reset_records:
        fm = flux_matrix(rec.rank_series[:, ::FLUX_STEP], rec.rank_ids)
        bulk = fm.ranks >= 200
        frac_neg = np.mean(fm.C[0, bulk] < 0)
        if frac_neg > 0.9:
            good += 1
    assert good >= 7
