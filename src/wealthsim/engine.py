"""Multi-run simulation driver with deterministic, schedule-based recording.

A run advances the excess-wealth vector day by day through the selected
kernel backend and records observables at two granularities:

* a scalar series (mean, max, Gini, plus the wealth at a sampled set of
  ranks) every ``series_stride`` days, and
* full descending-sorted wealth snapshots at the schedule's snapshot days.

Optionally, an excess-wealth histogram is streamed at every stride tick inside
one configured time window, as full vectors are kept only at snapshot days.
Those days (by default ~75 log-spaced ones, or none) change no other record.

Events are recorded a block at a time: one kernel call advances through the
next block of event days and stores the excess vector at each. The block is
then recorded with one numpy call each for the row means, the sort, the
Gini product and ``stats.bin_excess`` (which needs ascending rows); the
snapshots, the series and the histogram all read that one sort. Each record
is bit for bit what one kernel call and one sort per event would give.

Because every random draw is a pure function of (seed, run, t, agent),
records are bit-identical however the runs are scheduled: serially, or as
whole runs in forked worker processes, which share no GIL whichever kernel
is in use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from . import backends, stats
from .errors import ParameterError
from .params import ModelParams, Mode
from .rng import stream_key

SNAPSHOT_COUNT = 75


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


def default_schedule(t_max: int, n_snapshots: int = SNAPSHOT_COUNT,
                     **kwargs) -> RecordingSchedule:
    """Log-spaced snapshot times (about ``n_snapshots`` of them); ``kwargs``
    set the other RecordingSchedule fields."""
    if t_max < 1:
        return RecordingSchedule(snapshot_times=(0,) if n_snapshots > 0 else (), **kwargs)
    want = min(n_snapshots, t_max)
    request = want
    times = np.unique(np.rint(np.geomspace(1.0, t_max, request)).astype(np.int64))
    while times.size < want and request < 20 * n_snapshots:
        request += max(4, want // 8)  # integer rounding collapses the low end
        times = np.unique(np.rint(np.geomspace(1.0, t_max, request)).astype(np.int64))
    if times.size > want:
        keep = np.unique(np.rint(np.linspace(0, times.size - 1, want)).astype(np.int64))
        times = times[keep]
    return RecordingSchedule(snapshot_times=tuple(int(t) for t in times), **kwargs)


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
    the pool costs some tens of milliseconds; the first pool in a process
    also pays the import of ``multiprocessing``, which serial runs skip.
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
    if procs > 1 and hasattr(os, "fork"):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(procs, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(single, range(params.n_runs)))
    return [single(r) for r in range(params.n_runs)]


#: Bytes of excess vectors one kernel call stores for recording, sized for
#: the block to stay in L2: 13 events at N = 3600. There, on a 2-vCPU Xeon,
#: blocks of 8-20 events ran engine.run in ~0.8x the time of one event per
#: call, and blocks of 72 in 1.1-1.2x.
_BLOCK_BYTES = 400_000


def _rows(mask: np.ndarray):
    """Index of the block rows ``mask`` selects; a slice, so a view, if all."""
    return slice(None) if mask.all() else mask


def _run_single(params: ModelParams, schedule: RecordingSchedule,
                rank_ids: np.ndarray, run_id: int) -> TrajectoryRecord:
    key = stream_key(params.seed)
    n = params.n_agents
    excess = np.full(n, params.target_excess, dtype=np.float64)
    target_total = n * params.target_excess
    skewed = params.mode is Mode.SKEWED
    coupled = params.coupled
    wp = params.wp

    stride = schedule.series_stride
    tick_times = np.arange(0, params.t_max + 1, stride, dtype=np.int64)
    snap_times = np.asarray(schedule.snapshot_times, dtype=np.int64)
    events = np.unique(np.concatenate([tick_times, snap_times]))
    is_tick = np.isin(events, tick_times)
    is_snap = np.isin(events, snap_times)

    n_ticks = tick_times.size
    mean_series = np.empty(n_ticks)
    max_series = np.empty(n_ticks)
    gini_series = np.empty(n_ticks)
    rank_series = np.empty((rank_ids.size, n_ticks))
    sorted_snapshots = np.empty((snap_times.size, n))

    window = schedule.histogram_window
    if window is not None:
        edges = np.asarray(schedule.histogram_edges, dtype=np.float64)
        hist_counts = np.zeros(edges.size + 1, dtype=np.int64)
        in_window = is_tick & (window[0] <= events) & (events < window[1])

    ranks = np.arange(1, n + 1, dtype=np.float64)
    block = np.empty((min(max(1, _BLOCK_BYTES // (8 * n)), events.size), n))
    tick_pos = snap_pos = 0
    t_now = 0
    for lo in range(0, events.size, block.shape[0]):
        stops = events[lo:lo + block.shape[0]]
        here = slice(lo, lo + stops.size)
        blk = block[:stops.size]
        backends.advance(excess, key, run_id, t_now, int(stops[-1]) - t_now,
                         params.beta, params.epsilon, params.w1,
                         skewed, coupled, target_total, stops, blk)
        t_now = int(stops[-1])
        means = blk.mean(axis=1)
        blk.sort(axis=1)  # ascending from here on
        desc = blk[:, ::-1] + wp
        ticks = _rows(is_tick[here])
        tick_desc = desc[ticks]
        at = slice(tick_pos, tick_pos + tick_desc.shape[0])
        mean_series[at] = wp + means[ticks]
        max_series[at] = tick_desc[:, 0]
        # on the reversed view, as on one reversed row: the same bits
        gini_series[at] = stats._gini_sorted(tick_desc[:, ::-1], ranks)
        rank_series[:, at] = tick_desc[:, rank_ids - 1].T
        tick_pos = at.stop
        snaps = desc[is_snap[here]]
        sorted_snapshots[snap_pos:snap_pos + snaps.shape[0]] = snaps
        snap_pos += snaps.shape[0]
        if window is not None and in_window[here].any():
            hist_counts += stats.bin_excess(edges, blk[_rows(in_window[here])]).sum(axis=0)

    histogram = (None if window is None else
                 stats.LogHistogram(bin_edges=edges, counts=hist_counts, window=window))
    return TrajectoryRecord(
        params=params, run_id=run_id,
        series_times=tick_times, mean_series=mean_series, max_series=max_series,
        gini_series=gini_series, rank_ids=rank_ids, rank_series=rank_series,
        snapshot_times=snap_times, sorted_snapshots=sorted_snapshots,
        histogram=histogram,
    )
