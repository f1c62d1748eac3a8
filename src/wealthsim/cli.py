"""Command-line front end: config files in, figure-ready CSV datasets out.

Subcommands
-----------
simulate    run the ensemble and export series/rank/snapshot/histogram/flux data
analytic    export closed-form quantile curves and a one-row constants report
stationary  solve the stationary eigenproblem over an epsilon sweep
correlate   run the ensemble and export flux matrices plus the divide report

Config files are UTF-8 ``key = value`` lines whose keys are the fields of
ExperimentConfig; '#' starts a comment anywhere on a line. Unknown keys,
duplicate keys, type mismatches and invariant violations are all collected
and reported together, with line numbers.

Exit codes: 0 success, 2 config error, 3 runtime (simulation/solver) error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
import typing
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import engine, stats, tableio
from .errors import GridTooCoarse, NotConverged, ParameterError, ParseError, WealthsimError
from .params import Mode, ModelParams

# ---------------------------------------------------------------------------
# Experiment configuration

DEFAULT_K_LIST = (0.01, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0)
DEFAULT_EPSILON_SWEEP = (-0.001, -0.005, -0.015, -0.03)


@dataclass(frozen=True)
class ExperimentConfig(ModelParams):
    """Everything a subcommand needs, as parsed from one config file.

    The fields are the config schema: each one is a key, parsed by its
    annotation, and the keys without a default are required. The model
    keys are ModelParams' fields; the ones declared here follow them.
    """

    # recording schedule
    series_stride: int = engine.RecordingSchedule.series_stride
    snapshot_count: int = engine.SNAPSHOT_COUNT
    hist_bins_per_decade: int = 10
    window_start: int = 0
    window_end: int = 0
    # execution / export
    workers: int = 1
    out_dir: str = "out"
    export_snapshots: bool = True
    export_histograms: bool = True
    export_flux: bool = True
    # analytic subcommand
    k_list: Tuple[float, ...] = DEFAULT_K_LIST
    # stationary subcommand
    epsilon_sweep: Tuple[float, ...] = DEFAULT_EPSILON_SWEEP
    grid_points: int = 3600
    n_modes: int = 1
    compare_histogram: str = ""

    def __post_init__(self):
        """Raise ParameterError listing every violated invariant."""
        problems: List[str] = []
        try:
            super().__post_init__()
        except ParameterError as exc:
            problems.extend(exc.problems)
        if self.series_stride < 1:
            problems.append(f"series_stride must be >= 1, got {self.series_stride}")
        if self.snapshot_count < 1:
            problems.append(f"snapshot_count must be >= 1, got {self.snapshot_count}")
        if self.hist_bins_per_decade < 1:
            problems.append("hist_bins_per_decade must be >= 1, "
                            f"got {self.hist_bins_per_decade}")
        if (self.window_start, self.window_end) != (0, 0) and not (
                0 <= self.window_start < self.window_end):
            problems.append("window_start/window_end must satisfy 0 <= start < end, "
                            f"got [{self.window_start}, {self.window_end})")
        if self.workers < 1:
            problems.append(f"workers must be >= 1, got {self.workers}")
        if self.grid_points < 2:
            problems.append(f"grid_points must be >= 2, got {self.grid_points}")
        if self.n_modes < 1:
            problems.append(f"n_modes must be >= 1, got {self.n_modes}")
        for k in self.k_list:
            if not k > 0:
                problems.append(f"k_list entries must be positive, got {k}")
        for eps in self.epsilon_sweep:
            if not -1.0 < eps < 1.0:
                problems.append(f"epsilon_sweep entries must lie in (-1, 1), got {eps}")
        # each entry names its own export file
        for key in ("k_list", "epsilon_sweep"):
            entries = getattr(self, key)
            if len(set(entries)) != len(entries):
                problems.append(f"{key} entries must be distinct, got {entries}")
        if problems:
            raise ParameterError(problems)

    def histogram_edges(self) -> np.ndarray:
        """Excess-wealth bin edges: 16 decades around the initial excess."""
        exc0 = self.w1 - self.wp
        n_decades = 16
        return stats.geometric_edges(exc0 * 1e-8, exc0 * 1e8,
                                     n_decades * self.hist_bins_per_decade)

    def schedule(self) -> engine.RecordingSchedule:
        """simulate's recording: the window, if set, and snapshots if exported."""
        window = None
        edges = None
        if (self.window_start, self.window_end) != (0, 0):
            window = (self.window_start, self.window_end)
            # the first stride tick at or after window_start
            tick = -(-self.window_start // self.series_stride) * self.series_stride
            if tick >= self.window_end or tick > self.t_max:
                raise ParameterError(
                    f"window_start/window_end: [{self.window_start}, "
                    f"{self.window_end}) holds no stride tick (a multiple of "
                    f"series_stride = {self.series_stride}) in [0, t_max = "
                    f"{self.t_max}]")
            edges = self.histogram_edges()
        exported = self.export_snapshots or self.export_histograms
        return engine.default_schedule(
            self.t_max, n_snapshots=self.snapshot_count if exported else 0,
            series_stride=self.series_stride, histogram_edges=edges, histogram_window=window)

    def to_text(self) -> str:
        """Lossless file representation (parse_config inverts it).

        Raises ValueError for a string value that parsing would change.
        """
        return "".join(f"{name} = {_format(self, name)}\n" for name in _CODECS)

    def params_hash(self) -> str:
        """12-hex digest over the keys that determine computed numbers.

        Execution plumbing (workers, out_dir, export toggles, comparison
        file) is excluded, so reruns of the same physics hash identically.
        """
        text = "\n".join(f"{name}={_format(self, name)}"
                         for name in _CODECS if name not in _UNHASHED_KEYS)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


_UNHASHED_KEYS = ("workers", "out_dir", "export_snapshots", "export_histograms",
                  "export_flux", "compare_histogram")

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _parse_bool(raw: str) -> bool:
    word = raw.lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"not a boolean: {raw!r} (use true/false)")
    return _BOOL_WORDS[word]


def _parse_floats(raw: str) -> Tuple[float, ...]:
    items = [p.strip() for p in raw.split(",") if p.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(float(p) for p in items)


def _format_str(value: str) -> str:
    if "#" in value or "\n" in value or value != value.strip():
        raise ValueError(f"{value!r} cannot be written as a config value: '#', "
                         "newlines and surrounding whitespace are lost on parsing")
    return value


def _format_float(value: float) -> str:
    return tableio.format_value(float(value))


# field annotation -> (parse, format)
_CODECS_BY_TYPE = {
    int: (int, str),
    float: (float, _format_float),
    str: (str, _format_str),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    Mode: (str, lambda m: m.value),
    Tuple[float, ...]: (_parse_floats, lambda v: ", ".join(map(_format_float, v))),
}
# key -> (parse, format), in field order; an unsupported annotation fails here
_CODECS = {name: _CODECS_BY_TYPE[hint]
           for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_REQUIRED = [f.name for f in dataclasses.fields(ExperimentConfig)
             if f.default is dataclasses.MISSING]


def _format(cfg: ExperimentConfig, name: str) -> str:
    return _CODECS[name][1](getattr(cfg, name))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config file, collecting every violation.

    Raises ParseError listing all problems (unknown/duplicate/malformed
    keys, type mismatches, missing required keys, model invariant
    violations), each with the offending line number where one exists.
    """
    problems: List[str] = []
    values: Dict[str, object] = {}
    key_lines: Dict[str, int] = {}  # includes keys whose values failed to parse

    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            problems.append(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
            continue
        if key not in _CODECS:
            problems.append(f"line {ln}: unknown key {key!r}")
            continue
        if key in key_lines:
            problems.append(f"line {ln}: duplicate key {key!r} "
                            f"(first set on line {key_lines[key]})")
            continue
        key_lines[key] = ln
        try:
            values[key] = _CODECS[key][0](value)
        except ValueError as exc:
            problems.append(f"line {ln}: {key}: {exc}")

    for key in _REQUIRED:
        if key not in key_lines:
            problems.append(f"missing required key {key!r}")

    if problems:
        raise ParseError(problems)
    try:
        return ExperimentConfig(**values)  # type: ignore[arg-type]
    except ParameterError as exc:
        raise ParseError([_located(p, key_lines) for p in exc.problems]) from None


def _located(problem: str, key_lines: Dict[str, int]) -> str:
    """Prefix a validation message with the line of the first key it names."""
    for word in re.findall(r"\w+", problem):
        if word in key_lines:
            return f"line {key_lines[word]}: {problem}"
    return problem


# ---------------------------------------------------------------------------
# Export helpers

class _Exporter:
    """Collects tables for one output directory; nothing touches disk until
    ``manifest()``, so a failed subcommand leaves no partial export behind."""

    def __init__(self, cfg: ExperimentConfig, out_dir: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.params_hash = cfg.params_hash()  # once: every table carries it
        # (name, kind, header, columns, metadata) per table
        self.tables: List[Tuple[str, str, List[str], List[np.ndarray],
                                Dict[str, str]]] = []

    def table(self, name: str, kind: str, header: Sequence[str],
              columns: Sequence[np.ndarray], units: str, **extra: str) -> None:
        meta = {"params_hash": self.params_hash, "seed": str(self.cfg.seed),
                "units": units, **extra}
        self.tables.append((name, kind, list(header),
                            [np.asarray(c) for c in columns], meta))

    def manifest(self) -> int:
        """Write every table, then manifest.json; return the number of tables."""
        os.makedirs(self.out_dir, exist_ok=True)
        for name, _, header, columns, meta in self.tables:
            tableio.write_table(os.path.join(self.out_dir, name), header,
                                columns, meta)
        files = [{"path": name, "kind": kind, "params_hash": meta["params_hash"],
                  "seed": self.cfg.seed} for name, kind, _, _, meta in self.tables]
        doc = {"params_hash": self.params_hash, "seed": self.cfg.seed,
               "files": sorted(files, key=lambda e: e["path"])}
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return len(self.tables)


def _float_tag(value: float) -> str:
    """Filename-safe tag for a float: -0.005 -> 'm0p005'.

    Uses repr's shortest round-trip form, not the 17-digit table format —
    'epsm0p03' beats 'epsm0p029999999999999999' as a filename.
    """
    return repr(float(value)).replace("-", "m").replace(".", "p")


def _bin_bounds(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(bin_lo, bin_hi) of every bin, including the open-ended outer bins."""
    return np.concatenate([[0.0], edges]), np.concatenate([edges, [math.inf]])


def read_histogram(path: str) -> stats.LogHistogram:
    """Rebuild a LogHistogram from an exported histogram CSV.

    The file must hold exactly one histogram: bin_lo/bin_hi/count columns
    with the open-ended bins first and last, and one window on every row
    (as written by simulate's windowed export).
    """
    try:
        _, _, cols = tableio.read_table(path)
    except ParseError as exc:
        raise ParseError([f"{path}: {p}" for p in exc.problems]) from None
    for need in ("bin_lo", "bin_hi", "count"):
        if need not in cols:
            raise ParseError([f"{path}: missing column {need!r}"])
    lo = np.asarray(cols["bin_lo"], dtype=np.float64)
    hi = np.asarray(cols["bin_hi"], dtype=np.float64)
    edges = hi[:-1]
    if not all(map(np.array_equal, (lo, hi), _bin_bounds(edges))):
        raise ParseError([f"{path}: bin_lo/bin_hi are not the bins of one histogram, "
                          "consecutive and open-ended first and last"])
    window = None
    if "window_start" in cols and "window_end" in cols:
        bounds = [np.unique(cols[name]) for name in ("window_start", "window_end")]
        if any(b.size != 1 for b in bounds):
            raise ParseError([f"{path}: window_start/window_end differ between rows"])
        bounds = [b[0] for b in bounds]
        if not all(np.isfinite(v) and v == math.floor(v) for v in bounds):
            raise ParseError([f"{path}: window cells must be whole days, got "
                              f"{', '.join(map(tableio.format_value, bounds))}"])
        window = (int(bounds[0]), int(bounds[1]))
    try:
        return stats.LogHistogram(bin_edges=edges, counts=cols["count"], window=window)
    except ValueError as exc:
        raise ParseError([f"{path}: {exc}"]) from None


# ---------------------------------------------------------------------------
# Subcommands

def cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> int:
    ex = _Exporter(cfg, out_dir)
    records = engine.run(cfg, cfg.schedule(), workers=cfg.workers)
    edges = cfg.histogram_edges()
    lo, hi = _bin_bounds(edges)
    for rec in records:
        r = rec.run_id
        ex.table(f"series_run{r:02d}.csv", "series",
                 ["t", "mean_wealth", "max_wealth", "gini"],
                 [rec.series_times, rec.mean_series, rec.max_series, rec.gini_series],
                 "t=days, mean_wealth=currency, max_wealth=currency, gini=dimensionless",
                 run=str(r))
        ex.table(f"ranks_run{r:02d}.csv", "series",
                 ["t"] + [f"rank_{int(k)}" for k in rec.rank_ids],
                 [rec.series_times] + [rec.rank_series[i] for i in range(rec.rank_ids.size)],
                 "t=days, rank_*=currency (wealth at that sorted rank)", run=str(r))
        if cfg.export_snapshots:
            ex.table(f"snapshots_run{r:02d}.csv", "series",
                     ["rank"] + [f"t{int(t)}" for t in rec.snapshot_times],
                     [np.arange(1, cfg.n_agents + 1, dtype=np.int64), *rec.sorted_snapshots],
                     "rank=1-based sorted position, t*=currency", run=str(r))
        if cfg.export_histograms:
            # snapshots descend and subtracting wp rounds monotonically: reversed, they ascend
            counts = stats.bin_excess(edges, (rec.sorted_snapshots - cfg.wp)[:, ::-1])
            ex.table(f"hist_run{r:02d}.csv", "histogram",
                     ["t", "bin_lo", "bin_hi", "count"],
                     [np.repeat(rec.snapshot_times, lo.size), np.tile(lo, len(counts)),
                      np.tile(hi, len(counts)), counts.ravel()],
                     "t=days, bin_*=excess currency, count=agents", run=str(r))
        hist = rec.histogram
        if hist is not None:
            a, b = hist.window
            ex.table(f"window_hist_run{r:02d}.csv", "histogram",
                     ["window_start", "window_end", "bin_lo", "bin_hi", "count"],
                     [np.full(lo.size, a, dtype=np.int64),
                      np.full(lo.size, b, dtype=np.int64), lo, hi, hist.counts],
                     "window=days, bin_*=excess currency, count=agent-ticks",
                     run=str(r))
        if cfg.export_flux:
            _export_flux(ex, rec)
    return ex.manifest()


def _export_flux(ex: _Exporter, rec: engine.TrajectoryRecord) -> Optional[stats.FluxMatrix]:
    if rec.rank_series.shape[1] < 2:
        print(f"run {rec.run_id}: fewer than two stride ticks, no flux matrix",
              file=sys.stderr)
        return None
    fm = stats.flux_matrix(rec.rank_series, rec.rank_ids)
    n = fm.ranks.size
    ex.table(f"flux_run{rec.run_id:02d}.csv", "matrix",
             ["rank_i", "rank_j", "raw", "compressed"],
             [np.repeat(fm.ranks, n), np.tile(fm.ranks, n), fm.A.ravel(), fm.C.ravel()],
             "rank_*=1-based sorted position, raw=currency^2, "
             "compressed=signed log-squared", run=str(rec.run_id))
    return fm


def cmd_correlate(cfg: ExperimentConfig, out_dir: str) -> int:
    ex = _Exporter(cfg, out_dir)
    # the flux matrices read only the rank series: stop at stride ticks alone
    stride_ticks = engine.RecordingSchedule(snapshot_times=(), series_stride=cfg.series_stride)
    records = engine.run(cfg, stride_ticks, workers=cfg.workers)
    runs, divides, neg_fracs = [], [], []
    for rec in records:
        fm = _export_flux(ex, rec)
        divide = stats.water_divide(fm) if fm is not None else None
        runs.append(rec.run_id)
        divides.append(float("nan") if divide is None else float(divide))
        neg_fracs.append(_rank1_negative_fraction(fm) if fm is not None
                         else float("nan"))
    ex.table("divide_report.csv", "series",
             ["run", "divide_rank", "neg_frac_rank1"],
             [np.array(runs, dtype=np.int64), np.array(divides), np.array(neg_fracs)],
             "run=index, divide_rank=1-based rank (nan=no divide), "
             "neg_frac_rank1=fraction of bulk columns anticorrelated with rank 1")
    return ex.manifest()


def _rank1_negative_fraction(fm: stats.FluxMatrix) -> float:
    """Fraction of bulk columns (rank > 10) whose C[top, j] is negative."""
    bulk = fm.ranks > 10 * fm.ranks[0]
    if not np.any(bulk):
        return float("nan")
    return float(np.mean(fm.C[0, bulk] < 0))


def _require_spread(cfg: ExperimentConfig, command: str) -> None:
    """Refuse beta = 0 (simulate's static case), or so small that its drift
    underflows: no diffusion envelope for analytic, no band for stationary."""
    from . import analytics
    if not analytics.drift_velocity(cfg.beta) < 0.0:
        raise ParameterError(f"beta must lie in (0, 1) for {command}, with a drift "
                             f"-beta^2/6 that does not underflow to 0, got {cfg.beta}")


def cmd_analytic(cfg: ExperimentConfig, out_dir: str) -> int:
    from . import analytics
    _require_spread(cfg, "analytic")
    # the k-exceedance edge needs k / n_agents inside inv_erfc's domain (0, 2)
    beyond = [k for k in cfg.k_list if k / cfg.n_agents >= 2.0]
    if beyond:
        raise ParameterError(f"k_list entries must be below 2 * n_agents = "
                             f"{2 * cfg.n_agents} for analytic, got "
                             f"{', '.join(map(tableio.format_value, beyond))}")
    ex = _Exporter(cfg, out_dir)
    env = analytics.GaussianEnvelope(x0=math.log(cfg.w1 - cfg.wp), beta=cfg.beta,
                                     n_agents=cfg.n_agents)
    t_grid = np.unique(np.rint(np.geomspace(1.0, max(cfg.t_max, 1), 75)).astype(np.int64))
    for k in cfg.k_list:
        curve = analytics.quantile_curve(env, k, t_grid)
        ex.table(f"quantile_k{_float_tag(k)}.csv", "quantile-curve",
                 ["t", "log_excess"],
                 [t_grid, np.array([x for _, x in curve.samples])],
                 "t=days, log_excess=ln(currency)", k=tableio.format_value(k))
    report = {"x0": env.x0, "nu_drift": env.drift,
              "sigma_250": analytics.sigma_t(cfg.beta, 250.0),
              "sigma_1000": analytics.sigma_t(cfg.beta, 1000.0),
              "sigma_4000": analytics.sigma_t(cfg.beta, 4000.0),
              "peak_time_k1": analytics.peak_time(env, 1.0),
              "peak_height_k1": analytics.peak_height(env, 1.0)}
    ex.table("analytic_report.csv", "series", list(report),
             [np.array([v], dtype=np.float64) for v in report.values()],
             "x0=ln(currency), nu_drift=ln(currency) per day, sigma_250=ln(currency), "
             "sigma_1000=ln(currency), sigma_4000=ln(currency), peak_time_k1=days, "
             "peak_height_k1=ln(currency)")
    return ex.manifest()


def cmd_stationary(cfg: ExperimentConfig, out_dir: str) -> int:
    from . import stationary
    _require_spread(cfg, "stationary")
    ex = _Exporter(cfg, out_dir)
    hist = read_histogram(cfg.compare_histogram) if cfg.compare_histogram else None
    grid = stationary.default_grid(cfg.w1, cfg.wp, m=cfg.grid_points)

    header = ["epsilon", "mode_index", "eigenvalue", "iterations", "residual",
              "peak_x", "std_x", "boundary_piled", "tv"]
    rows: List[List[float]] = []
    for eps in cfg.epsilon_sweep:
        try:
            op = stationary.build_operator(grid, cfg.beta, eps, cfg.w1, cfg.wp)
        except GridTooCoarse as exc:  # a finer grid or a wider band mends it
            raise ParameterError(f"grid_points = {cfg.grid_points} with beta = {cfg.beta}: "
                                 f"{exc}") from None
        try:
            values, modes, iters = stationary.leading_eigenpair(op, cfg.n_modes)
        except NotConverged as exc:
            if exc.mode is not None and exc.mode > 1:  # fewer modes mend it
                raise ParameterError(f"n_modes = {cfg.n_modes}: at epsilon = {eps}, "
                                     f"{exc}") from None
            print(f"stationary: epsilon={tableio.format_value(eps)}: {exc}",
                  file=sys.stderr)
            raise
        for idx, (lam, mode, its) in enumerate(zip(values, modes, iters), start=1):
            ex.table(f"eigenmode_eps{_float_tag(eps)}_m{idx}.csv", "eigenmode",
                     ["x", "mass"], [grid.x, mode],
                     "x=ln(excess currency), mass=probability per cell" if idx == 1
                     else "x=ln(excess currency), mass=signed amplitude per cell "
                          "(unit L1 norm, largest entry positive)",
                     epsilon=tableio.format_value(eps), mode_index=str(idx))
            # diagnostics are for the leading mode only
            diagnostics = [math.nan] * 5
            if idx == 1:
                sol = stationary.StationarySolution(
                    grid=grid, operator=op, eigenvalue=float(lam), mode=mode,
                    iterations=its, residual=op.residual(lam, mode))
                tv = (stationary.compare_to_simulation(sol, hist)
                      if hist is not None else math.nan)
                diagnostics = [sol.residual, sol.peak_x, sol.std_x,
                               float(sol.boundary_piled), tv]
            rows.append([eps, idx, lam, its] + diagnostics)
    ex.table("stationary_report.csv", "series", header,
             list(np.array(rows, dtype=np.float64).T),
             "epsilon=skew, eigenvalue=per day, iterations=count, "
             "peak_x/std_x=ln(excess currency), boundary_piled=0/1, tv=[0,1]")
    return ex.manifest()


# ---------------------------------------------------------------------------
# Entry point

_COMMANDS = {  # name -> (function, help)
    "simulate": (cmd_simulate, "run the ensemble and export series/histogram/flux CSVs"),
    "analytic": (cmd_analytic, "export closed-form quantile curves and scalar report"),
    "stationary": (cmd_stationary, "solve the stationary eigenproblem over an epsilon sweep"),
    "correlate": (cmd_correlate, "run the ensemble and export flux matrices + divide report"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wealthsim",
        description="Multiplicative wealth-dynamics simulator and analytics exporter")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key = value config file")
        p.add_argument("--out", default=None, help="output directory (default: config's out_dir)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--runs", type=int, default=None, help="override the config n_runs")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in (("seed", args.seed), ("n_runs", args.runs))
                 if value is not None}
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"wealthsim: cannot read config: {exc}", file=sys.stderr)
        return 4

    try:
        cfg = dataclasses.replace(parse_config(text), **overrides)
        out_dir = args.out if args.out is not None else cfg.out_dir
        n_files = _COMMANDS[args.command][0](cfg, out_dir)
    except ParameterError as exc:  # ParseError included
        print("wealthsim: config error:\n" + "\n".join(exc.problems), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"wealthsim: I/O error: {exc}", file=sys.stderr)
        return 4
    except WealthsimError as exc:
        print(f"wealthsim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"{args.command}: wrote {n_files} files + manifest.json to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
