"""End-to-end acceptance checks: one test per shipped guarantee.

Each test is a single pass/fail line under ``pytest -v``. The heavy
reference ensembles come from conftest (session-scoped, built once);
criteria needing a bespoke run (the short free-mode Monte Carlo, the
stationary solves, the CLI determinism round trip) build their own.
"""

import math
import time

import numpy as np

from conftest import BETA, FLUX_STEP, N_AGENTS, SEED
from wealthsim import (GaussianEnvelope, ModelParams, RecordingSchedule,
                       build_operator, default_grid, drift_velocity,
                       flux_matrix, gini, gini_pairwise, inv_erfc,
                       peak_height, peak_time, quantile_edge, run, sigma_t,
                       solve_stationary, water_divide)
from wealthsim.cli import main as cli_main

X0 = math.log(600.0)
WP = 400.0
EXC0 = 600.0


def test_criterion_01_analytic_constants():
    assert abs(drift_velocity(BETA) - (-6.0065e-4)) <= 1e-7
    assert abs(sigma_t(BETA, 1000.0) - 1.0705) <= 1e-4
    env = GaussianEnvelope(x0=X0, beta=BETA, n_agents=N_AGENTS)
    assert abs((peak_height(env, 1.0) - X0) - 6.31) <= 0.02
    assert abs(peak_time(env, 1.0) - 10520.0) <= 0.01 * 10520.0


def test_criterion_02_free_monte_carlo_matches_theory():
    t_start = time.perf_counter()
    params = ModelParams(n_agents=N_AGENTS, beta=BETA, mode="free",
                         t_max=4000, seed=SEED, n_runs=8)
    sched = RecordingSchedule(snapshot_times=(250, 1000, 4000), series_stride=500)
    recs = run(params, sched, workers=4)
    for i, t in enumerate((250, 1000, 4000)):
        xs = np.concatenate([np.log(r.sorted_snapshots[i] - WP) for r in recs]) - X0
        sig_emp = float(xs.std(ddof=1))
        se = sig_emp / math.sqrt(xs.size)
        assert abs(float(xs.mean()) - drift_velocity(BETA) * t) <= 5.0 * se
        assert 0.95 * sigma_t(BETA, t) <= sig_emp <= 1.10 * sigma_t(BETA, t)
    assert time.perf_counter() - t_start < 60.0


def test_criterion_03_free_long_time_collapse(free_records):
    good = sum(1 for rec in free_records
               if float(np.mean(rec.sorted_snapshots[-1] - WP)) < 0.1 * EXC0)
    assert good >= 6


def test_criterion_04_extremal_envelope(free_records):
    env = GaussianEnvelope(x0=X0, beta=BETA, n_agents=N_AGENTS)
    below = above = total = 0
    for rec in free_records:
        for i, t in enumerate(rec.snapshot_times):
            if not 500 <= t <= 30000:
                continue
            xmax = math.log(rec.sorted_snapshots[i][0] - WP)
            total += 1
            below += xmax < quantile_edge(env, 0.01, t)
            above += xmax > quantile_edge(env, 4.0, t)
    assert below >= 0.95 * total
    assert above >= 0.60 * total


def test_criterion_05_coupled_modes_conserve_total(reset_records,
                                                   skew15_records,
                                                   skew30_records):
    worst = 0.0
    for rec in (*reset_records, *skew15_records, *skew30_records):
        worst = max(worst, float(np.max(np.abs(rec.mean_series - 1000.0))))
        for snap in rec.sorted_snapshots:
            worst = max(worst, abs(float(np.mean(snap)) - 1000.0))
    assert worst / 1000.0 <= 1e-12


def test_criterion_06_reset_intermittency_persists(reset_records):
    half_drift = abs(drift_velocity(BETA)) / 2.0
    lo, hi = math.inf, -math.inf
    for rec in reset_records:
        m = (rec.series_times >= 20000) & (rec.series_times <= 55000)
        y = np.log(rec.max_series[m] - WP)
        slope = np.polyfit(rec.series_times[m].astype(np.float64), y, 1)[0]
        assert abs(slope) < half_drift
        lo, hi = min(lo, float(y.min())), max(hi, float(y.max()))
    assert (hi - lo) / math.log(10.0) >= 1.0


def test_criterion_07_water_divide(reset_records, skew15_records):
    good_reset = 0
    for rec in reset_records:
        fm = flux_matrix(rec.rank_series[:, ::FLUX_STEP], rec.rank_ids)
        divide = water_divide(fm)
        neg_frac = float(np.mean(fm.C[0][fm.ranks > N_AGENTS // 2] < 0.0))
        if divide is not None and divide <= 40 and neg_frac > 0.9:
            good_reset += 1
    assert good_reset >= 7
    good_skew = 0
    for rec in skew15_records:
        divide = water_divide(flux_matrix(rec.rank_series, rec.rank_ids))
        if divide is not None and 100 <= divide <= 900:
            good_skew += 1
    assert good_skew >= 7


def test_criterion_08_skew_suppresses_extremes(reset_records, skew30_records):
    def late_median(recs):
        meds = []
        for rec in recs:
            m = (rec.series_times >= 40000) & (rec.series_times <= 55000)
            meds.append(float(np.median(np.log10(rec.max_series[m] - WP))))
        return float(np.median(meds))

    assert late_median(reset_records) - late_median(skew30_records) >= 1.0
    gini_std_reset = float(np.std(np.concatenate([r.gini_series for r in reset_records])))
    gini_std_skew = float(np.std(np.concatenate([r.gini_series for r in skew30_records])))
    assert gini_std_skew < 0.25 * gini_std_reset


def test_criterion_09_stationary_spectrum():
    widths = []
    for eps in (-0.005, -0.015, -0.03):
        sol = solve_stationary(BETA, eps)
        # the eigensolver stops on |dlambda| < 1e-10, so "at most 1"
        # carries that much slack
        assert 0.999 <= sol.eigenvalue <= 1.0 + 1e-8
        assert sol.iterations < 100000
        assert not sol.boundary_piled
        widths.append(sol.std_x)
    assert widths[0] > widths[1] > widths[2]
    control = solve_stationary(BETA, -0.001)
    assert control.boundary_piled


def test_criterion_10_numeric_oracles(rng_np):
    for _ in range(100):
        n = int(rng_np.integers(2, 201))
        w = rng_np.lognormal(mean=1.0, sigma=1.5, size=n)
        assert abs(gini(w) - gini_pairwise(w)) <= 1e-12
    for y in np.linspace(1e-9, 2.0 - 1e-9, 1000):
        assert abs(math.erfc(inv_erfc(float(y))) - y) <= 1e-12
    op = build_operator(default_grid(), BETA, 0.0)
    lo = -int(op.offsets.min())
    hi = op.weights.shape[0] - int(op.offsets.max())
    sums = op.row_sums()[lo:hi]
    assert float(np.max(np.abs(sums - 1.0))) <= 1e-12


CLI_CONFIG = """\
n_agents = 120
beta = 0.06
mode = skewed
epsilon = -0.015
t_max = 900
seed = 424242
n_runs = 3
series_stride = 30
snapshot_count = 8
window_start = 300
window_end = 700
"""


def test_criterion_11_byte_identical_exports(tmp_path):
    cfg_serial = tmp_path / "serial.cfg"
    cfg_serial.write_text(CLI_CONFIG, encoding="utf-8")
    cfg_parallel = tmp_path / "parallel.cfg"
    cfg_parallel.write_text(CLI_CONFIG + "workers = 3\n", encoding="utf-8")
    dirs = [tmp_path / name for name in ("serial_a", "serial_b", "parallel")]
    for cfg, out_dir in zip((cfg_serial, cfg_serial, cfg_parallel), dirs):
        assert cli_main(["simulate", "--config", str(cfg),
                         "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert len(names) > 3
    for other in dirs[1:]:
        assert sorted(p.name for p in other.iterdir()) == names
        for name in names:
            assert (other / name).read_bytes() == (dirs[0] / name).read_bytes(), \
                f"{name} differs between invocations"
