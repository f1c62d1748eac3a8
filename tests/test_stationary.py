"""Banded transport operator and its stationary eigenmodes."""

import math

import numpy as np
import pytest

from wealthsim import analytics, backends
from wealthsim import stationary as st
from wealthsim.errors import GridTooCoarse, NoOverlap, NotConverged
from wealthsim.stats import LogHistogram

LN10 = math.log(10.0)


@pytest.fixture(scope="module")
def small_grid():
    # same spacing as the default grid, narrow span: fast solves, full band
    return st.default_grid(m=600, decades=2.0, decades_below=1.0)


@pytest.fixture(scope="module")
def small_solution(small_grid):
    op = st.build_operator(small_grid, 0.06, -0.03)
    values, modes, iters = st.leading_eigenpair(op, 1)
    sol = st.StationarySolution(
        grid=small_grid, operator=op, eigenvalue=float(values[0]),
        mode=modes[0], iterations=iters[0],
        residual=op.residual(values[0], modes[0]),
    )
    return sol


# --- grid geometry ---------------------------------------------------------


def test_default_grid_geometry():
    grid = st.default_grid()
    assert grid.m == 3600
    assert grid.x_min == pytest.approx(math.log(600.0) - 8 * LN10)
    assert grid.dx == pytest.approx(12 * LN10 / 3600)
    assert grid.decades == pytest.approx(12.0)
    assert grid.x_max == pytest.approx(grid.x_min + grid.dx * 3599)
    assert grid.x.shape == (3600,)


@pytest.mark.parametrize("kwargs", [dict(m=1), dict(m=100, dx=0.0)])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        st.LogGrid(x_min=0.0, dx=kwargs.get("dx", 0.01), m=kwargs["m"])


def test_frame_status_value():
    assert st.frame_status(1000.0, 400.0) == pytest.approx(0.375)


# --- the band itself -------------------------------------------------------


def test_base_band_mass_and_centroid():
    grid = st.default_grid()
    offsets, band = st._base_band(0.06, grid.dx)
    assert band.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(band > 0)
    assert offsets.size >= st.MIN_BAND_CELLS
    # discrete centroid tracks the exact mean log step to within ~10%
    nu = analytics.drift_velocity(0.06)
    centroid = float((offsets * grid.dx * band).sum())
    assert abs(centroid - nu) < 0.10 * abs(nu)


def test_band_support_matches_multiplier_range():
    grid = st.default_grid()
    offsets, _ = st._base_band(0.06, grid.dx)
    lo, hi = math.log1p(-0.06), math.log1p(0.06)
    assert offsets[0] * grid.dx + grid.dx / 2 > lo - grid.dx
    assert offsets[-1] * grid.dx - grid.dx / 2 < hi + grid.dx


def test_coarse_grid_rejected():
    with pytest.raises(GridTooCoarse):
        st.build_operator(st.default_grid(m=1800), 0.06, -0.03)


@pytest.mark.parametrize("beta", [0.0, 1.0, -0.1])
def test_operator_rejects_bad_beta(beta):
    with pytest.raises(ValueError):
        st.build_operator(st.default_grid(m=600, decades=2.0), beta, 0.0)


@pytest.mark.parametrize("epsilon", [-1.5, -1.0, 1.0])
def test_operator_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        st.build_operator(st.default_grid(m=600, decades=2.0), 0.06, epsilon)


# --- operator structure ----------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, -0.001, -0.005, -0.015, -0.03, 0.3, -0.9])
def test_operator_weights_match_the_per_tap_loop(eps):
    # oracle: each band tap split between two neighbouring offsets, one tap
    # at a time; the one-scatter build must give the same bits
    grid = st.default_grid()
    op = st.build_operator(grid, 0.06, eps)
    offsets, band = st._base_band(0.06, grid.dx)
    k = np.floor(op.shifts / grid.dx).astype(np.int64)
    f = op.shifts / grid.dx - k
    want = np.zeros_like(op.weights)
    cols = np.arange(grid.m)
    base_col = offsets[0] + k - op.offsets[0]
    for i in range(offsets.size):
        want[cols, base_col + i] += (1.0 - f) * band[i]
        want[cols, base_col + i + 1] += f * band[i]
    assert want.tobytes() == op.weights.tobytes()


def test_zero_skew_operator_is_toeplitz(small_grid):
    op = st.build_operator(small_grid, 0.06, 0.0)
    np.testing.assert_array_equal(op.shifts, np.zeros(small_grid.m))
    # every source cell has the identical stencil
    assert np.all(op.weights == op.weights[0])
    dense = op.to_dense()
    for off in range(-dense.shape[0] + 1, dense.shape[0]):
        diag = np.diagonal(dense, off)
        assert np.all(diag == diag[0])


def test_interior_source_sums_are_one(small_grid):
    for eps in (0.0, -0.03):
        op = st.build_operator(small_grid, 0.06, eps)
        sums = op.source_sums()
        margin = int(np.max(np.abs(op.offsets))) + 1
        np.testing.assert_allclose(sums[margin:-margin], 1.0, atol=1e-12, rtol=0)
        # and nothing exceeds one anywhere (absorbing edges only remove mass)
        assert np.all(sums <= 1.0 + 1e-12)


def test_interior_row_sums_are_one_without_skew(small_grid):
    op = st.build_operator(small_grid, 0.06, 0.0)
    rows = op.row_sums()
    margin = int(np.max(np.abs(op.offsets))) + 1
    np.testing.assert_allclose(rows[margin:-margin], 1.0, atol=1e-12, rtol=0)


def test_status_shift_profile(small_grid):
    eps = -0.03
    op = st.build_operator(small_grid, 0.06, eps)
    # relative to the population frame: positive (uphill) below the mean's
    # status, negative above, approaching the S -> 1 limit at the top
    assert np.all(np.diff(op.shifts) <= 0)
    top_limit = math.log1p(eps) - math.log1p(eps * st.frame_status(1000.0, 400.0))
    wide = st.build_operator(st.default_grid(m=2400), 0.06, eps)
    assert wide.shifts[-1] == pytest.approx(top_limit, rel=1e-3)
    assert wide.shifts[0] == pytest.approx(-math.log1p(eps * 0.375), rel=1e-3)


def test_apply_matches_dense_matvec(small_grid):
    # on grids about as wide as the band, offsets reach past one grid end or
    # both, and apply's slices of on-grid cells come out one-sided or empty
    ops = [st.build_operator(small_grid, 0.06, -0.03)]
    ops += [st.build_operator(_centred_grid(m), 0.06, eps)
            for m in (2, 5, 19) for eps in (0.0, -0.03)]
    rng = np.random.default_rng(5)
    for op in ops:
        dense = op.to_dense()
        for _ in range(3):
            v = rng.random(op.grid.m)
            np.testing.assert_allclose(op.apply(v), dense @ v, atol=1e-13, rtol=0,
                                       err_msg=f"m={op.grid.m} eps={op.epsilon}")


# --- eigensolve ------------------------------------------------------------


def test_leading_mode_matches_dense_eigensolve(small_grid, small_solution):
    dense = small_solution.operator.to_dense()
    ev, evec = np.linalg.eig(dense)
    order = np.argsort(ev.real)[::-1]
    lam1 = ev[order[0]]
    assert abs(lam1.imag) < 1e-12
    assert small_solution.eigenvalue == pytest.approx(lam1.real, abs=1e-9)
    v1 = evec[:, order[0]].real
    v1 = v1 / v1.sum()
    assert np.abs(v1 - small_solution.mode).sum() < 1e-4


def test_leading_eigenvalue_matches_dense_to_roundoff(small_grid, small_solution):
    lam1 = np.linalg.eigvals(small_solution.operator.to_dense()).real.max()
    assert abs(small_solution.eigenvalue - lam1) < 1e-12


def _centred_grid(m):
    # same spacing as the default grid, m cells centred on the initial excess
    dx = st.default_grid().dx
    return st.LogGrid(x_min=math.log(600.0) - dx * m / 2, dx=dx, m=m)


def _assert_every_band_solver_solves(op):
    r = np.random.default_rng(7).random(op.grid.m)
    want = np.linalg.solve(st.SHIFT * np.eye(op.grid.m) - op.to_dense(), r)
    for name, backend in backends.BACKENDS.items():
        got = backend.band_solver(*st._shifted_band(op))(r)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max(),
                                   err_msg=name)


@pytest.mark.parametrize("eps", [0.0, -0.03])
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 15, 16, 17])
def test_block_factor_solves_the_shifted_system(n_blocks, eps):
    # the numpy backend's reduction meets one block, odd and even level
    # sizes, and a power of two and its neighbours; m is not a multiple of b,
    # so the last block is padded. The block size b = max(p, q) = 9 holds
    # over these narrow centred spans.
    m = 9 * n_blocks - 1
    op = st.build_operator(_centred_grid(m), 0.06, eps)
    _, p, q = st._shifted_band(op)
    assert max(p, q) == 9 and -(-m // 9) == n_blocks
    _assert_every_band_solver_solves(op)


@pytest.mark.parametrize("eps", [0.0, -0.03])
@pytest.mark.parametrize("m", [2, 5, 19])
def test_band_solvers_on_grids_about_as_wide_as_the_band(m, eps):
    # a band row near one grid end meets the other too, and below m = 10
    # whole diagonals of the band lie outside the matrix
    _assert_every_band_solver_solves(st.build_operator(_centred_grid(m), 0.06, eps))


@pytest.mark.skipif(len(backends.BACKENDS) < 2, reason="C library not built")
def test_eigenvalues_agree_across_backends(small_grid, monkeypatch):
    op = st.build_operator(small_grid, 0.06, -0.03)
    values = {}
    for name, backend in backends.BACKENDS.items():
        monkeypatch.setattr(backends, "band_solver", backend.band_solver)
        values[name], _, _ = st.leading_eigenpair(op, n_modes=3)
    np.testing.assert_allclose(values["c"], values["python"], rtol=0, atol=1e-14)


def test_iteration_counts_at_the_default_grid():
    # inverse-iteration steps (first mode, second mode) at m = 3600, as the
    # stationary report exports them: the solver's roundoff must not move them
    counts = {-0.005: [5, 167], -0.015: [4, 50], -0.03: [4, 47], -0.001: [28, 31]}
    grid = st.default_grid()
    for eps, want in counts.items():
        _, _, iters = st.leading_eigenpair(st.build_operator(grid, 0.06, eps), n_modes=2)
        assert iters == want, eps


def test_three_modes_are_the_three_largest_real_eigenvalues(small_grid):
    op = st.build_operator(small_grid, 0.06, -0.03)
    values, modes, iters = st.leading_eigenpair(op, n_modes=3)
    ev = np.linalg.eigvals(op.to_dense())
    real = np.sort(ev.real[np.abs(ev.imag) < 1e-12])[::-1]
    np.testing.assert_allclose(values, real[:3], rtol=1e-9, atol=0)
    assert len(modes) == 3 and len(iters) == 3


def test_second_mode_via_deflation(small_grid):
    op = st.build_operator(small_grid, 0.06, -0.03)
    values, modes, iters = st.leading_eigenpair(op, n_modes=2)
    assert values[0] > values[1] > 0.0
    dense = op.to_dense()
    ev = np.sort(np.linalg.eigvals(dense).real)[::-1]
    assert values[1] == pytest.approx(ev[1], rel=1e-6)
    assert len(modes) == 2 and len(iters) == 2


@pytest.mark.parametrize("m, decades, decades_below, eps", [
    (600, 2.0, 1.0, -0.001), (600, 2.0, 1.0, -0.03), (3600, 12.0, 8.0, -0.001)])
def test_every_mode_is_an_eigenvector_of_the_operator(m, decades, decades_below, eps):
    # modes found after deflation are mapped back to eigenvectors of A itself,
    # not left as eigenvectors of the deflated matrix
    op = st.build_operator(st.default_grid(m=m, decades=decades,
                                           decades_below=decades_below), 0.06, eps)
    values, modes, _ = st.leading_eigenpair(op, n_modes=3)
    for lam, mode in zip(values, modes):
        assert op.residual(lam, mode) <= 1e-9


def test_iteration_reads_the_eigenvalue_without_applying_the_operator(small_grid, monkeypatch):
    op = st.build_operator(small_grid, 0.06, -0.03)
    calls = []
    apply = st.BandOperator.apply
    monkeypatch.setattr(st.BandOperator, "apply",
                        lambda self, v: calls.append(1) or apply(self, v))
    st.leading_eigenpair(op, 2)
    assert calls == []


@pytest.mark.parametrize("eps", [-0.005, -0.001])
def test_second_mode_has_unit_l1_norm(eps):
    # the second mode's net mass is ~8e-10 of its L1 norm at eps=-0.005 and
    # 0.84 at eps=-0.001: scaling it to unit sum would blow the first up 1e9x
    op = st.build_operator(st.default_grid(), 0.06, eps)
    values, modes, _ = st.leading_eigenpair(op, n_modes=2)
    assert modes[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(modes[1]).sum() == pytest.approx(1.0, abs=1e-12)
    assert modes[1][np.argmax(np.abs(modes[1]))] > 0


def test_mode_is_normalized_and_nonnegative(small_solution):
    sol = small_solution
    assert sol.mode.sum() == pytest.approx(1.0, abs=1e-12)
    assert sol.mode.min() > -1e-14
    assert sol.eigenvalue <= 1.0 + 1e-9
    assert sol.residual < 1e-6
    assert math.log(600.0) - 1.0 < sol.peak_x < math.log(600.0) + 1.0
    assert 0.2 < sol.std_x < 0.5
    assert not sol.boundary_piled


def test_not_converged_carries_residual(small_grid):
    op = st.build_operator(small_grid, 0.06, -0.03)
    with pytest.raises(NotConverged) as ei:
        st.leading_eigenpair(op, 1, max_iter=1)
    assert ei.value.iterations == 1
    assert ei.value.residual > 0
    assert ei.value.mode == 1


def test_not_converged_names_the_mode_that_failed(small_grid):
    # the leading mode converges within 10 steps, the second does not
    op = st.build_operator(small_grid, 0.06, -0.03)
    assert st.leading_eigenpair(op, 1, max_iter=10)[2][0] <= 10
    with pytest.raises(NotConverged) as ei:
        st.leading_eigenpair(op, 2, max_iter=10)
    assert ei.value.mode == 2 and "of mode 2 after 10 iterations" in str(ei.value)


def test_solve_stationary_medium_resolution():
    sol = st.solve_stationary(0.06, -0.03, m=2400)
    assert 0.999 <= sol.eigenvalue <= 1.0 + 1e-9
    assert sol.iterations < 100000
    assert 0.25 < sol.std_x < 0.35
    assert not sol.boundary_piled


def test_boundary_piled_predicate():
    grid = st.default_grid(m=600, decades=2.0, decades_below=1.0)
    op = st.build_operator(grid, 0.06, -0.03)
    wall = np.zeros(600)
    wall[:30] = 1.0 / 30.0
    piled = st.StationarySolution(grid, op, 1.0, wall, 1, 0.0)
    assert piled.boundary_piled
    bell = np.exp(-0.5 * ((grid.x - grid.x[300]) / 0.3) ** 2)
    bell /= bell.sum()
    centered = st.StationarySolution(grid, op, 1.0, bell, 1, 0.0)
    assert not centered.boundary_piled


# --- comparison with simulated histograms ----------------------------------


def _mode_as_histogram(sol, scale=1e15):
    half = sol.grid.dx / 2.0
    edges = np.exp(np.concatenate([[sol.grid.x_min - half], sol.grid.x + half]))
    counts = np.concatenate([[0], np.rint(sol.mode * scale), [0]]).astype(np.int64)
    return LogHistogram(bin_edges=edges, counts=counts, window=(0, 1))


def test_compare_to_itself_is_near_zero(small_solution):
    tv = st.compare_to_simulation(small_solution, _mode_as_histogram(small_solution))
    assert 0.0 <= tv < 1e-6


def test_compare_detects_displaced_mass(small_solution):
    sol = small_solution
    half = sol.grid.dx / 2.0
    edges = np.exp(np.concatenate([[sol.grid.x_min - half], sol.grid.x + half]))
    counts = np.zeros(sol.grid.m + 2, dtype=np.int64)
    counts[1] = 1000  # everything in the lowest bin
    tv = st.compare_to_simulation(sol, LogHistogram(bin_edges=edges, counts=counts,
                                                    window=(0, 1)))
    assert 0.99 < tv <= 1.0


def test_compare_rejects_disjoint_ranges(small_solution):
    edges = np.geomspace(1e-20, 1e-15, 6)
    counts = np.zeros(7, dtype=np.int64)
    counts[3] = 10
    with pytest.raises(NoOverlap):
        st.compare_to_simulation(small_solution,
                                 LogHistogram(bin_edges=edges, counts=counts,
                                              window=(0, 1)))


def test_compare_rejects_empty_histogram(small_solution):
    edges = np.geomspace(1.0, 1e4, 6)
    with pytest.raises(NoOverlap):
        st.compare_to_simulation(small_solution,
                                 LogHistogram(bin_edges=edges,
                                              counts=np.zeros(7, dtype=np.int64),
                                              window=(0, 1)))
