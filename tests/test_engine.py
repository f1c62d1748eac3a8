"""Driver-level behavior: scheduling, recording, determinism, error context."""

import concurrent.futures
import dataclasses
import importlib
import os
import pickle

import numpy as np
import pytest

from wealthsim import (
    ModelParams,
    ParameterError,
    RecordingSchedule,
    backends,
    default_schedule,
    engine,
    max_log_excess,
    run,
    stats,
)
from wealthsim.errors import NormalizationDegenerate, NotConverged
from wealthsim.params import Mode
from wealthsim.rng import stream_key

from conftest import LATE_WINDOW, N_AGENTS

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def small_params(**kw):
    base = dict(n_agents=50, beta=0.06, mode="reset", t_max=600, seed=7, n_runs=3)
    base.update(kw)
    return ModelParams(**base)


def test_parallel_matches_serial_exactly():
    params = small_params()
    sched = default_schedule(600, n_snapshots=12)
    serial = run(params, sched, workers=1)
    threaded = run(params, sched, workers=3)
    assert len(serial) == len(threaded) == 3
    for a, b in zip(serial, threaded):
        assert a.run_id == b.run_id
        np.testing.assert_array_equal(a.series_times, b.series_times)
        np.testing.assert_array_equal(a.mean_series, b.mean_series)
        np.testing.assert_array_equal(a.max_series, b.max_series)
        np.testing.assert_array_equal(a.gini_series, b.gini_series)
        np.testing.assert_array_equal(a.rank_series, b.rank_series)
        assert len(a.sorted_snapshots) == len(b.sorted_snapshots)
        for s, t in zip(a.sorted_snapshots, b.sorted_snapshots):
            np.testing.assert_array_equal(s, t)


@pytest.mark.parametrize("kernel", sorted(backends.available()))
def test_process_pool_is_capped_at_the_usable_cores(monkeypatch, kernel):
    # the forked workers inherit the patched kernel
    monkeypatch.setattr(engine.backends, "advance", backends.available()[kernel])
    params = small_params()
    sched = default_schedule(600, n_snapshots=12)
    serial = run(params, sched, workers=1)
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            pools.append(max_workers)
            super().__init__(max_workers, mp_context=mp_context)

    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # engine.run imports the executor when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    wide = run(params, sched, workers=64)
    assert pools == [2]
    for a, b in zip(serial, wide, strict=True):
        assert a.run_id == b.run_id
        for field in ("mean_series", "max_series", "gini_series", "rank_series",
                      "sorted_snapshots"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


def _use_backend(monkeypatch, name):
    """Run the engine on the kernel and the recorder of backend ``name``."""
    monkeypatch.setattr(engine.backends, "advance", backends.available()[name])
    monkeypatch.setattr(engine.backends, "record_rows", backends.recorders()[name])


def test_runs_are_distinct_streams():
    recs = run(small_params(), default_schedule(600, n_snapshots=6))
    assert not np.array_equal(recs[0].max_series, recs[1].max_series)
    assert not np.array_equal(recs[1].max_series, recs[2].max_series)


def test_free_agents_independent_of_population_size():
    # without coupling, agent i's path is a pure function of (seed, run, t, i)
    key = 1234567
    small = np.full(3, 600.0)
    large = np.full(5, 600.0)
    backends.advance(small, key, 0, 0, 200, 0.06, 0.0, 1000.0, False, False, 0.0)
    backends.advance(large, key, 0, 0, 200, 0.06, 0.0, 1000.0, False, False, 0.0)
    np.testing.assert_array_equal(large[:3], small)


def test_zero_beta_is_static():
    params = small_params(beta=0.0, mode="free", n_runs=1)
    rec = run(params, default_schedule(600, n_snapshots=8))[0]
    assert np.all(rec.mean_series == 1000.0)
    assert np.all(rec.max_series == 1000.0)
    assert np.all(rec.gini_series == 0.0)


def test_reset_mode_conserves_mean_every_tick():
    params = small_params(n_runs=2)
    for rec in run(params, default_schedule(600, n_snapshots=10)):
        assert np.max(np.abs(rec.mean_series - 1000.0)) <= 1e-12 * 1000.0


def test_initial_tick_is_uniform_population():
    rec = run(small_params(n_runs=1), default_schedule(300, n_snapshots=5))[0]
    assert rec.series_times[0] == 0
    assert rec.mean_series[0] == 1000.0
    assert rec.max_series[0] == 1000.0
    assert rec.gini_series[0] == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(snapshot_times=(5, 5)),
        dict(snapshot_times=(10, 3)),
        dict(snapshot_times=(-1, 5)),
        dict(snapshot_times=(10,), series_stride=0),
        dict(snapshot_times=(10,), histogram_window=(0, 10)),
        dict(snapshot_times=(10,), histogram_edges=(1.0, 2.0),
             histogram_window=(10, 10)),
        dict(snapshot_times=(10,), histogram_edges=(1.0, 2.0),
             histogram_window=(-5, 3)),
    ],
)
def test_schedule_validation(kwargs):
    with pytest.raises(ParameterError):
        RecordingSchedule(**kwargs)


def test_run_rejects_snapshots_past_t_max():
    with pytest.raises(ParameterError):
        run(small_params(), RecordingSchedule(snapshot_times=(601,)))


@pytest.mark.parametrize("ranks", [(0,), (51,)])
def test_run_rejects_out_of_range_ranks(ranks):
    with pytest.raises(ParameterError):
        run(small_params(), RecordingSchedule(snapshot_times=(600,), rank_ids=ranks))


def test_default_schedule_shape():
    sched = default_schedule(55000)
    times = np.asarray(sched.snapshot_times)
    assert times.size == 75
    assert np.all(np.diff(times) > 0)
    assert times[0] >= 1
    assert times[-1] == 55000


def test_default_schedule_small_horizon():
    sched = default_schedule(10)
    assert sched.snapshot_times == tuple(range(1, 11))
    assert default_schedule(0).snapshot_times == (0,)
    # no snapshots asked for, none given, at any horizon
    assert default_schedule(0, n_snapshots=0).snapshot_times == ()
    assert default_schedule(5, n_snapshots=0).snapshot_times == ()


def test_default_schedule_thins_an_overfull_request():
    # rounding leaves 7 distinct days of 8 requested, the retry finds more
    # than 8, and evenly spaced picks keep exactly 8 with both ends
    sched = default_schedule(11, n_snapshots=8)
    assert sched.snapshot_times == (1, 2, 3, 4, 6, 7, 9, 11)


def test_custom_rank_ids_are_honored():
    params = small_params(n_runs=1)
    sched = default_schedule(300, n_snapshots=6, rank_ids=(1, 2, 5))
    rec = run(params, sched)[0]
    assert rec.rank_ids.tolist() == [1, 2, 5]
    assert np.all(rec.rank_series[0] >= rec.rank_series[1])
    assert np.all(rec.rank_series[1] >= rec.rank_series[2])
    np.testing.assert_array_equal(rec.rank_series[0], rec.max_series)


@pytest.mark.parametrize("backend", sorted(backends.available()))
@pytest.mark.parametrize("mode", ["free", "reset", "skewed"])
def test_records_do_not_depend_on_the_snapshot_days(monkeypatch, backend, mode):
    # the C kernel settles its pending rescale at every stop, rounding as a
    # run straight through does, so stopping at a snapshot day changes nothing
    _use_backend(monkeypatch, backend)
    params = small_params(n_agents=70, mode=mode, n_runs=2,
                          epsilon=-0.015 if mode == "skewed" else 0.0)
    with_snaps = default_schedule(600, n_snapshots=40, series_stride=25,
                                  histogram_edges=tuple(np.geomspace(1e-4, 1e7, 23)),
                                  histogram_window=(100, 501))
    assert set(with_snaps.snapshot_times) - set(range(0, 601, 25))
    without = dataclasses.replace(with_snaps, snapshot_times=())
    for a, b in zip(run(params, with_snaps), run(params, without), strict=True):
        assert b.sorted_snapshots.shape == (0, 70)
        for field in ("series_times", "mean_series", "max_series", "gini_series",
                      "rank_ids", "rank_series"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field
        assert a.histogram.counts.tobytes() == b.histogram.counts.tobytes()


def _windowed_record(window):
    params = small_params(n_runs=1, t_max=120)
    edges = tuple(np.geomspace(1e-4, 1e7, 23))
    sched = RecordingSchedule(snapshot_times=(120,), series_stride=30,
                              histogram_edges=edges, histogram_window=window)
    return run(params, sched)[0]


def test_windowed_histograms_accumulate_per_stride_tick():
    hist = _windowed_record((0, 61)).histogram
    # stride ticks 0, 30, 60 fall in [0, 61)
    assert hist.counts.sum() == 3 * 50
    assert hist.window == (0, 61)


def test_window_without_stride_tick_stays_empty():
    hist = _windowed_record((95, 100)).histogram
    # no stride tick falls in [95, 100)
    assert hist.counts.sum() == 0
    assert hist.window == (95, 100)


@pytest.mark.parametrize("fixture", ["reset_records", "skew30_records"])
def test_reference_late_window_histograms(fixture, request):
    # stride 5 puts ticks 40000, 40005, ..., 55000 in [40000, 55001)
    for rec in request.getfixturevalue(fixture):
        assert rec.histogram.window == LATE_WINDOW
        assert rec.histogram.total == N_AGENTS * 3001


def test_no_window_records_no_histogram():
    rec = run(small_params(n_runs=1), default_schedule(600, n_snapshots=5))[0]
    assert rec.histogram is None


def test_max_log_excess_series():
    params = small_params(n_runs=1)
    rec = run(params, default_schedule(300, n_snapshots=7))[0]
    t, y = max_log_excess(rec)
    np.testing.assert_array_equal(t, rec.snapshot_times)
    expect = np.log(np.array([s[0] for s in rec.sorted_snapshots]) - 400.0)
    np.testing.assert_array_equal(y, expect)


def test_max_log_excess_requires_snapshots():
    rec = run(small_params(n_runs=1), RecordingSchedule(snapshot_times=()))[0]
    with pytest.raises(ValueError):
        max_log_excess(rec)


def test_degenerate_normalization_carries_run_context(monkeypatch):
    def explode(excess, key, rid, t0, n_days, *rest):
        raise NormalizationDegenerate(1e-310, 1e-300, run_id=rid, t=t0 + 3)

    monkeypatch.setattr("wealthsim.engine.backends.advance", explode)
    # every run fails; the pool, like the serial loop, reports the first
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for workers in (1, 2):
        with pytest.raises(NormalizationDegenerate) as ei:
            run(small_params(n_runs=2), default_schedule(600, n_snapshots=5),
                workers=workers)
        assert ei.value.run_id == 0
        assert ei.value.t == 3


@pytest.mark.parametrize("exc, fields", [
    (NormalizationDegenerate(1e-310, 1e-300, run_id=4, t=17),
     ("total", "threshold", "run_id", "t")),
    (NotConverged(200, 3.5e-9, mode=2), ("iterations", "residual", "mode")),
], ids=["NormalizationDegenerate", "NotConverged"])
def test_degenerate_normalization_survives_pickling(exc, fields):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert [getattr(back, f) for f in fields] == [getattr(exc, f) for f in fields]
    assert str(back) == str(exc)


def _events(params, sched):
    ticks = np.arange(0, params.t_max + 1, sched.series_stride)
    return np.unique(np.concatenate([ticks, np.asarray(sched.snapshot_times, dtype=np.int64)]))


def _per_event_record(params, sched, run_id):
    """Records made with one kernel call and one sort per event: the
    reference the block recording must match bit for bit."""
    n = params.n_agents
    excess = np.full(n, params.target_excess)
    rank_ids = stats.default_ranks(n)
    edges = np.asarray(sched.histogram_edges)
    window = sched.histogram_window
    out = {f: [] for f in ("mean_series", "max_series", "gini_series", "rank_series",
                           "sorted_snapshots")}
    counts = np.zeros(edges.size + 1, dtype=np.int64)
    t_now = 0
    for t in _events(params, sched).tolist():
        backends.advance(excess, stream_key(params.seed), run_id, t_now, t - t_now,
                         params.beta, params.epsilon, params.w1,
                         params.mode is Mode.SKEWED, params.coupled,
                         n * params.target_excess)
        t_now = t
        asc = np.sort(excess)
        desc = asc[::-1] + params.wp
        if t % sched.series_stride == 0:
            out["mean_series"].append(params.wp + excess.mean())
            out["max_series"].append(desc[0])
            out["gini_series"].append(stats._gini_sorted(desc[::-1]))
            out["rank_series"].append(desc[rank_ids - 1])
            if window[0] <= t < window[1]:
                counts += stats.bin_excess(edges, asc)
        if t in sched.snapshot_times:
            out["sorted_snapshots"].append(desc)
    out = {f: np.array(v) for f, v in out.items()}
    out["rank_series"] = out["rank_series"].T
    return out, counts


@pytest.mark.parametrize("backend", sorted(backends.available()))
@pytest.mark.parametrize("mode", ["free", "reset", "skewed"])
def test_block_recording_matches_one_event_per_call(monkeypatch, backend, mode):
    # each backend's recorder, on its own kernel's blocks, against numpy calls
    # on one event at a time
    _use_backend(monkeypatch, backend)
    params = small_params(mode=mode, epsilon=-0.015 if mode == "skewed" else 0.0,
                          n_runs=2)
    sched = default_schedule(600, n_snapshots=12, series_stride=5,
                             histogram_edges=tuple(np.geomspace(1e-4, 1e7, 23)),
                             histogram_window=(111, 492))
    events = _events(params, sched)
    window_events = np.flatnonzero((events >= 111) & (events < 492))
    block = 7
    # a last block only partly full; a window that opens and closes inside a block
    assert events.size % block
    assert window_events[0] % block and (window_events[-1] + 1) % block
    want = [_per_event_record(params, sched, r) for r in range(params.n_runs)]
    for budget in (1, 8 * params.n_agents * block, engine._BLOCK_BYTES):
        monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
        for rec, (fields, counts) in zip(run(params, sched), want, strict=True):
            for field, expect in fields.items():
                assert getattr(rec, field).tobytes() == expect.tobytes(), (budget, field)
            assert rec.histogram.counts.tobytes() == counts.tobytes()


def test_traced_run_counts_every_agent_day_and_event(monkeypatch):
    # perfbench's tracer reads agent-days off each kernel call's vector and
    # n_days, and the event count off _run_single's params and schedule.
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    params = small_params(n_agents=400, n_runs=2)
    sched = default_schedule(600, n_snapshots=12, series_stride=5)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        engine.run(params, sched)
    metrics = tracing.layer_metrics(tracer.spans, {}, wall_s=1.0)
    assert metrics["kernel.agent_days"] == 400 * 600 * 2
    assert metrics["engine.events"] == 2 * _events(params, sched).size
    assert 0 < metrics["kernel.calls"] < metrics["engine.events"]
