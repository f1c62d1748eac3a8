"""The benchmark's three workloads: configs made from a seed, and output checks.

README.md in this directory says why each workload was chosen, which layer
it loads or bypasses, and which metric each layer should move on it.

Every workload uses N=3600 agents and beta=0.06, as the acceptance fixtures
do. ``--seed`` picks one of ``CONFIG_SEEDS`` for the config (so the stored
reference summary covers every input the benchmark can make) and, for the
stationary sweep, the order in which the epsilons are solved.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

N_AGENTS = 3600
BETA = 0.06
W1 = 1000.0
WP = 400.0
CONFIG_SEEDS = tuple(20260816 + k for k in range(16))
SWEEP = (-0.005, -0.015, -0.03)
GRID_POINTS = 3600

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Criterion 5: the coupled modes pin the mean wealth at w1 to 1e-12 relative.
MEAN_PIN_RTOL = 1e-12
# The cross-backend contract allows ~1e-15 relative drift per day from the
# order of the renormalizing sum; the kernel check in run.py gates it at
# 5e-13 after 2000 days. Growing linearly over 7 500 days that is <1e-11,
# so 1e-9 leaves two orders of headroom, while a change to the random
# stream or the update rule moves these summaries by far more.
SUMMARY_RTOL = 1e-9
# Criterion 9: the power iteration stops on |dlambda| < 1e-10, so the
# eigenvalue carries up to 1e-8 of slack above 1.
EIGENVALUE_MIN = 0.999
EIGENVALUE_MAX = 1.0 + 1e-8
# The reference modes come from a shift-invert solve to 1e-14. The power
# iteration's stopping rule (L1 step < 1e-8) leaves std_x within 3e-5
# relative of it at eps=-0.005, the slowest case; 1e-3 keeps 30x headroom
# for any solver that meets the same rule. The peak may move by one cell.
EIGENVALUE_ATOL = 1e-8
STD_X_RTOL = 1e-3


def eps_tag(eps: float) -> str:
    """Tag of one swept epsilon, as in the exported file names: eps_m0p005."""
    return "eps_" + repr(float(eps)).replace("-", "m").replace(".", "p")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    keys: Dict[str, str] = field(default_factory=dict)
    threaded: bool = False  # also run, untimed, on min(2, nproc) threads

    @property
    def simulate(self) -> bool:
        return self.command == "simulate"

    def config_seed(self, seed: int) -> int:
        return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]

    def sweep(self, seed: int) -> Tuple[float, ...]:
        order = list(SWEEP)
        random.Random(seed).shuffle(order)
        return tuple(order)

    def config_text(self, seed: int, workers: int) -> str:
        keys = {"n_agents": str(N_AGENTS), "beta": str(BETA),
                "seed": str(self.config_seed(seed)), **self.keys}
        if self.simulate:
            keys["workers"] = str(workers)
        else:
            keys["epsilon_sweep"] = ", ".join(repr(e) for e in self.sweep(seed))
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def n_ops(self) -> int:
        """Operations per invocation: ensemble runs, or epsilon solves."""
        return int(self.keys["n_runs"]) if self.simulate else len(SWEEP)

    def agent_days(self) -> int:
        return N_AGENTS * int(self.keys["t_max"]) * int(self.keys["n_runs"])


WORKLOADS = {w.name: w for w in (
    Workload("simulate_skewed_long", "simulate", {
        "mode": "skewed", "epsilon": "-0.015", "t_max": "7500", "n_runs": "4",
        "series_stride": "30", "export_snapshots": "false",
        "export_histograms": "false"}),
    Workload("simulate_reset_dense", "simulate", {
        "mode": "reset", "t_max": "2500", "n_runs": "2", "series_stride": "5",
        "window_start": "1500", "window_end": "2501"}, threaded=True),
    Workload("stationary_sweep", "stationary", {
        "mode": "skewed", "t_max": "1", "grid_points": str(GRID_POINTS)}),
)}


# ---------------------------------------------------------------------------
# Reading the exports

def read_csv(path: str) -> Dict[str, np.ndarray]:
    """Columns of one exported table, parsed independently of wealthsim.tableio."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, dtype=np.float64)
    return {name: data[:, j] for j, name in enumerate(header)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_summary(series: Dict[str, np.ndarray], ranks: Dict[str, np.ndarray]) -> List[float]:
    """What the stored reference keeps of one run: the final max wealth, the
    final Gini, the mean Gini over all ticks and the final rank-10 wealth."""
    return [float(series["max_wealth"][-1]), float(series["gini"][-1]),
            float(np.mean(series["gini"])), float(ranks["rank_10"][-1])]


def _manifest_complete(out_dir: str) -> bool:
    with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
        listed = {e["path"] for e in json.load(fh)["files"]}
    return listed == set(os.listdir(out_dir)) - {"manifest.json"}


# ---------------------------------------------------------------------------
# Checks: one verdict per operation

def check_simulate(wl: Workload, seed: int, out_dir: str, reference: dict) -> List[str]:
    """Problems found per run of one simulate invocation ('' when the run passed)."""
    ref_runs = reference[wl.name][str(wl.config_seed(seed))]
    t_max, stride = int(wl.keys["t_max"]), int(wl.keys["series_stride"])
    window = (int(wl.keys.get("window_start", 0)), int(wl.keys.get("window_end", 0)))
    ticks = np.arange(0, t_max + 1, stride)
    problems = []
    manifest_ok = _manifest_complete(out_dir)
    for r in range(wl.n_ops()):
        bad = [] if manifest_ok else ["manifest does not list the files written"]
        path = lambda stem: os.path.join(out_dir, f"{stem}_run{r:02d}.csv")  # noqa: E731
        series = read_csv(path("series"))
        ranks = read_csv(path("ranks"))
        drift = np.max(np.abs(series["mean_wealth"] - W1)) / W1
        if not drift <= MEAN_PIN_RTOL:
            bad.append(f"mean drifts {drift:.3g} from w1")
        poorest = min(float(v.min()) for k, v in ranks.items() if k != "t")
        if os.path.exists(path("snapshots")):
            snaps = read_csv(path("snapshots"))
            cols = [v for k, v in snaps.items() if k != "rank"]
            poorest = min(poorest, min(float(c.min()) for c in cols))
            snap_drift = max(abs(float(c.mean()) - W1) for c in cols) / W1
            if not snap_drift <= MEAN_PIN_RTOL:
                bad.append(f"snapshot mean drifts {snap_drift:.3g} from w1")
        if not poorest >= WP:
            bad.append(f"wealth {poorest!r} below the floor")
        if window != (0, 0):
            want = N_AGENTS * int(np.count_nonzero((ticks >= window[0]) & (ticks < window[1])))
            got = int(read_csv(path("window_hist"))["count"].sum())
            if got != want:
                bad.append(f"window histogram holds {got} agent-ticks, want {want}")
        got = np.array(run_summary(series, ranks))
        want = np.array(ref_runs[r])
        if not np.allclose(got, want, rtol=SUMMARY_RTOL, atol=0.0):
            bad.append(f"summary {got.tolist()} differs from reference {want.tolist()}")
        problems.append("; ".join(bad))
    return problems


def check_stationary(wl: Workload, seed: int, out_dir: str,
                     reference: dict) -> Tuple[List[str], Dict[float, float]]:
    """Problems found per epsilon ('' when the solve passed), and residuals."""
    report = read_csv(os.path.join(out_dir, "stationary_report.csv"))
    ref = reference[wl.name]
    manifest_ok = _manifest_complete(out_dir)
    rows = {float(e): i for i, e in enumerate(report["epsilon"])}
    problems, residuals, widths = [], {}, {}
    for eps in SWEEP:
        bad = [] if manifest_ok else ["manifest does not list the files written"]
        if eps not in rows:
            problems.append("no report row")
            continue
        i = rows[eps]
        lam, std_x = float(report["eigenvalue"][i]), float(report["std_x"][i])
        residuals[eps] = float(report["residual"][i])
        widths[eps] = std_x
        want = ref[eps_tag(eps)]
        if not EIGENVALUE_MIN <= lam <= EIGENVALUE_MAX:
            bad.append(f"eigenvalue {lam!r} outside [0.999, 1+1e-8]")
        if report["boundary_piled"][i] != 0.0:
            bad.append("mode is boundary-piled")
        if not abs(lam - want["eigenvalue"]) <= EIGENVALUE_ATOL:
            bad.append(f"eigenvalue {lam!r} differs from reference {want['eigenvalue']!r}")
        if not abs(std_x - want["std_x"]) <= STD_X_RTOL * want["std_x"]:
            bad.append(f"std_x {std_x!r} differs from reference {want['std_x']!r}")
        if not abs(float(report["peak_x"][i]) - want["peak_x"]) <= 1.01 * want["dx"]:
            bad.append(f"peak_x {float(report['peak_x'][i])!r} differs from reference")
        mass = read_csv(os.path.join(out_dir, f"eigenmode_{eps_tag(eps).replace('_', '')}_m1.csv"))
        if not abs(float(mass["mass"].sum()) - 1.0) <= 1e-9:
            bad.append("exported mode does not sum to one")
        problems.append("; ".join(bad))
    by_size = [widths.get(e) for e in sorted(SWEEP, key=abs)]
    if None in by_size or not all(a > b for a, b in zip(by_size, by_size[1:])):
        problems = [(p + "; " if p else "") + "widths not strictly decreasing in |eps|"
                    for p in problems]
    return problems, residuals
