"""Multi-run simulation driver with deterministic, schedule-based recording.

A run advances the excess-wealth vector day by day through the selected
kernel backend and records observables at two granularities:

* a scalar series (mean, max, Gini, plus the wealth at a sampled set of
  ranks) every ``series_stride`` days, and
* full descending-sorted wealth snapshots at ~75 log-spaced times.

Optionally, an excess-wealth histogram is accumulated on the fly at every
stride tick inside one configured time window — full vectors are only kept
at the sparse snapshot times, so the windowed histogram has to be streamed.
Each event sorts the excess vector once: the snapshot, the series and the
histogram (binned by ``stats.bin_excess``, which needs ascending input) all
read that one sort.

Because every random draw is a pure function of (seed, run, t, agent),
records are bit-identical however the runs are scheduled: serially, or as
whole runs in forked worker processes, which share no GIL whichever kernel
is in use.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import backends, stats
from .errors import ParameterError
from .params import ModelParams, Mode
from .rng import stream_key


@dataclass(frozen=True)
class RecordingSchedule:
    """What to record and when.

    ``snapshot_times`` must be strictly increasing. ``rank_ids`` are 1-based
    ranks into the descending sort (rank 1 = wealthiest); None selects
    ``stats.default_ranks`` for the population size at run time.
    ``histogram_window`` is a half-open [t_start, t_end) day interval; at
    every stride tick inside it the excess vector is accumulated into
    geometric bins given by ``histogram_edges``.
    """

    snapshot_times: Tuple[int, ...]
    series_stride: int = 30
    rank_ids: Optional[Tuple[int, ...]] = None
    histogram_edges: Optional[Tuple[float, ...]] = None
    histogram_window: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        times = tuple(int(t) for t in self.snapshot_times)
        object.__setattr__(self, "snapshot_times", times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ParameterError("snapshot_times must be strictly increasing")
        if times and times[0] < 0:
            raise ParameterError("snapshot_times must be nonnegative")
        if self.series_stride < 1:
            raise ParameterError("series_stride must be a positive number of days")
        if self.histogram_window is not None:
            if self.histogram_edges is None:
                raise ParameterError("histogram_window requires histogram_edges")
            a, b = self.histogram_window
            if b <= a or a < 0:
                raise ParameterError(f"bad histogram window [{a}, {b})")


def default_schedule(t_max: int, n_snapshots: int = 75, series_stride: int = 30,
                     **kwargs) -> RecordingSchedule:
    """Log-spaced snapshot times (about ``n_snapshots`` of them) plus defaults."""
    if t_max < 1:
        return RecordingSchedule(snapshot_times=(0,), series_stride=series_stride, **kwargs)
    want = min(n_snapshots, t_max)
    request = want
    times = np.unique(np.rint(np.geomspace(1.0, t_max, request)).astype(np.int64))
    while times.size < want and request < 20 * n_snapshots:
        request += max(4, want // 8)  # integer rounding collapses the low end
        times = np.unique(np.rint(np.geomspace(1.0, t_max, request)).astype(np.int64))
    if times.size > want:
        keep = np.unique(np.rint(np.linspace(0, times.size - 1, want)).astype(np.int64))
        times = times[keep]
    return RecordingSchedule(snapshot_times=tuple(int(t) for t in times),
                             series_stride=series_stride, **kwargs)


@dataclass
class TrajectoryRecord:
    """Everything recorded from one run."""

    params: ModelParams
    run_id: int
    series_times: np.ndarray          # stride ticks, starting at t=0
    mean_series: np.ndarray           # population mean wealth
    max_series: np.ndarray            # wealthiest agent's wealth
    gini_series: np.ndarray
    rank_ids: np.ndarray              # 1-based ranks sampled below
    rank_series: np.ndarray           # (n_ranks, n_ticks) sorted wealth
    snapshot_times: np.ndarray
    sorted_snapshots: np.ndarray      # (n_snapshots, N) descending wealth
    histogram: Optional[stats.LogHistogram] = None  # the windowed one, if any


def max_log_excess(rec: TrajectoryRecord) -> Tuple[np.ndarray, np.ndarray]:
    """(snapshot times, ln of the top excess) — the envelope overlay series."""
    if not len(rec.sorted_snapshots):
        raise ValueError("record contains no snapshots")
    return rec.snapshot_times.copy(), np.log(rec.sorted_snapshots[:, 0] - rec.params.wp)


def run(params: ModelParams, schedule: Optional[RecordingSchedule] = None,
        workers: int = 1) -> List[TrajectoryRecord]:
    """Execute ``params.n_runs`` independent runs and record each.

    ``workers > 1`` maps whole runs over ``min(workers, n_runs, usable
    cores)`` forked processes (serially where fork does not exist) and
    returns the records in run order, identical to the serial ones by
    construction; a worker that dies raises ``BrokenProcessPool``. Starting
    the pool costs some tens of milliseconds.
    """
    if schedule is None:
        schedule = default_schedule(params.t_max)
    if schedule.snapshot_times and schedule.snapshot_times[-1] > params.t_max:
        raise ParameterError("snapshot_times extend past t_max")
    if schedule.rank_ids is None:
        rank_ids = stats.default_ranks(params.n_agents)
    else:
        rank_ids = np.asarray(schedule.rank_ids, dtype=np.int64)
        if rank_ids.size and (rank_ids.min() < 1 or rank_ids.max() > params.n_agents):
            raise ParameterError("rank_ids must lie in 1..n_agents")

    single = partial(_run_single, params, schedule, rank_ids)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    procs = min(workers, params.n_runs, cores)
    if procs > 1 and "fork" in multiprocessing.get_all_start_methods():
        with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(single, range(params.n_runs)))
    return [single(r) for r in range(params.n_runs)]


def _run_single(params: ModelParams, schedule: RecordingSchedule,
                rank_ids: np.ndarray, run_id: int) -> TrajectoryRecord:
    key = stream_key(params.seed)
    excess = np.full(params.n_agents, params.target_excess, dtype=np.float64)
    target_total = params.n_agents * params.target_excess
    skewed = params.mode is Mode.SKEWED
    coupled = params.coupled

    stride = schedule.series_stride
    tick_times = np.arange(0, params.t_max + 1, stride, dtype=np.int64)
    snap_times = np.asarray(schedule.snapshot_times, dtype=np.int64)
    events = np.unique(np.concatenate([tick_times, snap_times]))

    n_ticks = tick_times.size
    mean_series = np.empty(n_ticks)
    max_series = np.empty(n_ticks)
    gini_series = np.empty(n_ticks)
    rank_series = np.empty((rank_ids.size, n_ticks))
    sorted_snapshots = np.empty((snap_times.size, params.n_agents))

    window = schedule.histogram_window
    if window is not None:
        edges = np.asarray(schedule.histogram_edges, dtype=np.float64)
        hist_counts = np.zeros(edges.size + 1, dtype=np.int64)

    is_tick = np.isin(events, tick_times)
    is_snap = np.isin(events, snap_times)
    tick_pos = snap_pos = 0
    t_now = 0
    for ev_idx, t_ev in enumerate(events):
        if t_ev > t_now:
            backends.advance(excess, key, run_id, t_now, int(t_ev - t_now),
                             params.beta, params.epsilon, params.w1,
                             skewed, coupled, target_total)
            t_now = int(t_ev)
        asc = np.sort(excess)
        desc = asc[::-1] + params.wp
        if is_tick[ev_idx]:
            mean_series[tick_pos] = params.wp + excess.mean()
            max_series[tick_pos] = desc[0]
            gini_series[tick_pos] = stats._gini_sorted(desc[::-1])
            rank_series[:, tick_pos] = desc[rank_ids - 1]
            if window is not None and window[0] <= t_ev < window[1]:
                hist_counts += stats.bin_excess(edges, asc)
            tick_pos += 1
        if is_snap[ev_idx]:
            sorted_snapshots[snap_pos] = desc
            snap_pos += 1

    histogram = (None if window is None else
                 stats.LogHistogram(bin_edges=edges, counts=hist_counts, window=window))
    return TrajectoryRecord(
        params=params, run_id=run_id,
        series_times=tick_times, mean_series=mean_series, max_series=max_series,
        gini_series=gini_series, rank_ids=rank_ids, rank_series=rank_series,
        snapshot_times=snap_times, sorted_snapshots=sorted_snapshots,
        histogram=histogram,
    )
