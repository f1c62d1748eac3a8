"""Regenerate reference.json, the stored answers the benchmark checks against.

The ensemble summaries come from the model's reference dynamics
(``wealthsim.model.step_ensemble`` fed by ``wealthsim.rng.uniforms_for_day``),
not from the engine, its kernels or its recording code. The stationary
modes come from a shift-invert eigensolve (scipy) of the program's band
operator, not from its power iteration. Run from the repository root:

    python3 perfbench/make_reference.py

It takes a few minutes on one core. Rerun it only when a workload's config
or the model itself changes.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from wealthsim import ModelParams  # noqa: E402
from wealthsim import stationary  # noqa: E402
from wealthsim.model import initial_ensemble, step_ensemble  # noqa: E402
from wealthsim.rng import stream_key, uniforms_for_day  # noqa: E402


def _gini(ascending: np.ndarray) -> float:
    n = ascending.size
    total = ascending.sum()
    return float((2.0 * (np.arange(1, n + 1) @ ascending) - (n + 1) * total) / (n * total))


def simulate_summaries(wl: workloads.Workload, config_seed: int):
    keys = wl.keys
    params = ModelParams(n_agents=workloads.N_AGENTS, beta=workloads.BETA,
                         mode=keys["mode"], t_max=int(keys["t_max"]), seed=config_seed,
                         epsilon=float(keys.get("epsilon", 0.0)), w1=workloads.W1,
                         wp=workloads.WP, n_runs=int(keys["n_runs"]))
    stride = int(keys["series_stride"])
    key = stream_key(config_seed)
    out = []
    for run in range(params.n_runs):
        ens = initial_ensemble(params)
        maxes, ginis, rank10 = [], [], []
        for t in range(params.t_max + 1):
            if t % stride == 0:
                asc = np.sort(ens.wealth)
                maxes.append(asc[-1])
                ginis.append(_gini(asc))
                rank10.append(asc[-10])
            if t < params.t_max:
                ens = step_ensemble(ens, params,
                                    uniforms_for_day(key, run, t, params.n_agents))
        out.append([float(maxes[-1]), ginis[-1], float(np.mean(ginis)), float(rank10[-1])])
    return out


def stationary_reference(eps: float) -> dict:
    import scipy.sparse as sp
    import scipy.sparse.linalg as sla

    grid = stationary.default_grid(workloads.W1, workloads.WP, m=workloads.GRID_POINTS)
    op = stationary.build_operator(grid, workloads.BETA, eps, workloads.W1, workloads.WP)
    m = grid.m
    rows, cols, vals = [], [], []
    for k, off in enumerate(op.offsets):
        src = np.arange(m)
        dst = src + int(off)
        keep = (dst >= 0) & (dst < m)
        rows.append(dst[keep])
        cols.append(src[keep])
        vals.append(op.weights[src[keep], k])
    matrix = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                           shape=(m, m))
    lam, vec = sla.eigs(matrix, k=1, sigma=1.0, tol=1e-14)
    mode = np.real(vec[:, 0])
    mode /= mode.sum()
    sol = stationary.StationarySolution(grid=grid, operator=op, eigenvalue=float(lam[0].real),
                                        mode=mode, iterations=0, residual=0.0)
    return {"eigenvalue": sol.eigenvalue, "std_x": sol.std_x, "peak_x": sol.peak_x,
            "dx": grid.dx}


def main():
    ref = {}
    for wl in workloads.WORKLOADS.values():
        if wl.simulate:
            ref[wl.name] = {}
            for seed in workloads.CONFIG_SEEDS:
                ref[wl.name][str(seed)] = simulate_summaries(wl, seed)
                print(f"{wl.name} seed {seed} done", file=sys.stderr)
        else:
            ref[wl.name] = {workloads.eps_tag(e): stationary_reference(e)
                            for e in workloads.SWEEP}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
