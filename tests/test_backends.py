"""C kernel vs numpy fallback: same random stream, same physics.

Free-mode trajectories must agree bit for bit (no reductions involved).
Coupled modes renormalize by a population sum that the two kernels
accumulate in different orders (16 compensated lanes vs numpy pairwise), so
those trajectories agree to float roundoff rather than exactly.
"""

import io
import os
import shutil
import sys
import types

import numpy as np
import pytest

from wealthsim import _kernels_py, backends
from wealthsim.errors import NormalizationDegenerate
from wealthsim.rng import MAX_DAYS, MAX_RUNS, stream_key

needs_both = pytest.mark.skipif(
    "c" not in backends.available(),
    reason="C kernel not built",
)

KEY = stream_key(99)
N = 257  # odd, not a power of two: exercises pairwise-sum tail handling
MODES = {"free": dict(epsilon=0.0, skewed=False, coupled=False),
         "reset": dict(epsilon=0.0, skewed=False, coupled=True),
         "skewed": dict(epsilon=-0.015, skewed=True, coupled=True)}


def _advance(name, excess, *, beta=0.06, epsilon=0.0, skewed=False,
             coupled=False, run=1, t0=0, days=400, target=None, stops=None, out=None):
    fn = backends.available()[name]
    target = excess.sum() if target is None else target
    fn(excess, KEY, run, t0, days, beta, epsilon, 1000.0, skewed, coupled, target,
       stops, out)
    return excess


@needs_both
def test_free_mode_bit_identical():
    a = _advance("python", np.full(N, 600.0))
    b = _advance("c", np.full(N, 600.0))
    np.testing.assert_array_equal(a, b)


@needs_both
def test_reset_mode_matches_to_roundoff():
    a = _advance("python", np.full(N, 600.0), coupled=True)
    b = _advance("c", np.full(N, 600.0), coupled=True)
    np.testing.assert_allclose(a, b, rtol=5e-13, atol=0.0)


@needs_both
def test_skewed_mode_matches_to_roundoff():
    a = _advance("python", np.full(N, 600.0), epsilon=-0.015,
                 skewed=True, coupled=True)
    b = _advance("c", np.full(N, 600.0), epsilon=-0.015,
                 skewed=True, coupled=True)
    np.testing.assert_allclose(a, b, rtol=5e-13, atol=0.0)


@needs_both
@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 33])
@pytest.mark.parametrize("mode", ["reset", "skewed"])
def test_coupled_modes_match_to_roundoff_for_any_lane_tail(mode, n):
    # The C kernel sums the total in 16 lanes: fewer agents than lanes, an
    # exact multiple of the lane count and remainders must all add up.
    a = _advance("python", np.full(n, 600.0), **MODES[mode])
    b = _advance("c", np.full(n, 600.0), **MODES[mode])
    np.testing.assert_allclose(a, b, rtol=5e-13, atol=0.0)


@needs_both
@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 33, 257])
@pytest.mark.parametrize("mode", sorted(MODES))
def test_every_lane_tail_draws_the_same_stream_at_counter_bounds(mode, n):
    # The C kernel grows each agent's counter by addition, 16 agents a block
    # and one at a time in the tail. The last run and the last days set the
    # counter's top bits, which only land right if both kernels shift by
    # rng.RUN_SHIFT and rng.T_SHIFT; every agent must draw the numpy kernel's
    # number there.
    bounds = dict(run=MAX_RUNS - 1, t0=MAX_DAYS - 5, days=5)
    a = _advance("python", np.full(n, 600.0), **bounds, **MODES[mode])
    b = _advance("c", np.full(n, 600.0), **bounds, **MODES[mode])
    if mode == "free":
        np.testing.assert_array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, rtol=5e-13, atol=0.0)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(backends.available()))
def test_call_boundaries_do_not_change_the_trajectory(name, mode):
    # The C kernel carries the pending rescale from one day into the next and
    # settles it at every stop and before returning; splitting the days over
    # calls, or over the stops of one call, must give the same bits as one
    # call, and each stored row the vector the calls leave at that day.
    target = 600.0 * N
    whole = _advance(name, np.full(N, 600.0), days=12, target=target,
                     **MODES[mode])
    split = np.full(N, 600.0)
    per_call = []
    for t0, days in ((0, 0), (0, 5), (5, 1), (6, 6)):
        _advance(name, split, t0=t0, days=days, target=target, **MODES[mode])
        per_call.append(split.copy())
    np.testing.assert_array_equal(whole, split)
    block = np.full(N, 600.0)
    out = np.full((4, N), np.nan)
    _advance(name, block, days=12, target=target, stops=np.array([0, 5, 6, 12]),
             out=out, **MODES[mode])
    np.testing.assert_array_equal(block, whole)
    np.testing.assert_array_equal(out, per_call)


def _degenerate(name, excess, days, target, run=0):
    with pytest.raises(NormalizationDegenerate) as ei:
        backends.available()[name](
            excess, KEY, run, 0, days, 0.06, 0.0, 1000.0, False, True, target)
    return excess, ei.value


@needs_both
def test_both_backends_flag_degenerate_totals():
    left = {}
    for name in ("python", "c"):
        left[name] = _degenerate(name, np.full(N, 1e-305), 5, 600.0 * N, run=3)
        assert (left[name][1].run_id, left[name][1].t) == (3, 0)
        assert type(left[name][1].total) is float
    (a, exc_a), (b, exc_b) = left["python"], left["c"]
    np.testing.assert_allclose(a, b, rtol=5e-13, atol=0.0)
    np.testing.assert_allclose(exc_a.total, exc_b.total, rtol=5e-13, atol=0.0)


@needs_both
def test_degenerate_day_after_a_rescale_leaves_the_same_vector():
    # A negative target flips the sign at day 0's rescale, so day 1's total
    # lies below the (negative) threshold: the day-0 rescale must have been
    # applied, and day 1 left unrescaled, by both kernels alike.
    left = {name: _degenerate(name, np.full(N, 600.0), 5, -1.0)
            for name in ("python", "c")}
    (a, exc_a), (b, exc_b) = left["python"], left["c"]
    assert exc_a.t == exc_b.t == 1
    np.testing.assert_allclose(a, b, rtol=5e-13, atol=0.0)
    np.testing.assert_allclose(exc_a.total, exc_b.total, rtol=5e-13, atol=0.0)


@pytest.mark.parametrize("name", sorted(backends.available()))
def test_numpy_scalar_target_gives_a_float_threshold(name):
    _, exc = _degenerate(name, np.full(N, 600.0), 5, np.float64(-1.0))
    assert type(exc.threshold) is float
    assert "np.float64" not in str(exc)


@pytest.mark.parametrize("name", sorted(backends.available()))
def test_collapse_inside_a_block_names_its_run_and_day(name):
    # As above, day 3's rescale by a negative target flips the sign and day 4
    # collapses; day 4 lies inside the block's second segment, [3, 6).
    out = np.full((3, N), np.nan)
    with pytest.raises(NormalizationDegenerate) as ei:
        backends.available()[name](np.full(N, 600.0), KEY, 5, 3, 6, 0.06, 0.0,
                                   1000.0, False, True, -1.0, [3, 6, 9], out)
    assert (ei.value.run_id, ei.value.t) == (5, 4)
    assert type(ei.value.total) is float
    np.testing.assert_array_equal(out[0], 600.0)
    assert np.isnan(out[1:]).all()


def _read_only(shape):
    a = np.empty(shape)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("stops, out", [
    pytest.param([5, 3], None, id="decreasing"),
    pytest.param([3, 3, 12], None, id="repeated"),
    pytest.param([-1, 12], None, id="before-t0"),
    pytest.param([5, 10], None, id="short-of-n_days"),
    pytest.param([5, 13], None, id="past-n_days"),
    pytest.param([], None, id="empty"),
    pytest.param([5.0, 12.0], None, id="float-days"),
    pytest.param([[5, 12]], None, id="2-d"),
    pytest.param(None, np.empty((1, N)), id="out-without-stops"),
    pytest.param([5, 12], np.empty((3, N)), id="out-rows"),
    pytest.param([5, 12], np.empty((2, N + 1)), id="out-columns"),
    pytest.param([5, 12], np.empty(2 * N), id="out-1-d"),
    pytest.param([5, 12], np.empty((2, N), dtype=np.float32), id="out-float32"),
    pytest.param([5, 12], np.empty((2, 2 * N))[:, ::2], id="out-strided"),
    pytest.param([5, 12], np.empty((2, N), order="F"), id="out-fortran"),
    pytest.param([5, 12], np.empty((2, N)).tolist(), id="out-list"),
    pytest.param([5, 12], _read_only((2, N)), id="out-read-only"),
])
@pytest.mark.parametrize("name", sorted(backends.available()))
def test_bad_block_is_refused_before_any_day_runs(name, stops, out):
    excess = np.full(N, 600.0)
    with pytest.raises(ValueError):
        _advance(name, excess, days=12, target=600.0 * N, stops=stops, out=out,
                 **MODES["reset"])
    np.testing.assert_array_equal(excess, 600.0)


def test_selected_backend_is_reported():
    assert backends.backend_name in backends.available()
    assert callable(backends.advance)


def test_missing_compiler_falls_back_to_numpy_loudly(monkeypatch):
    monkeypatch.setattr(backends, "_CC", "wealthsim-no-such-compiler")
    with pytest.warns(RuntimeWarning, match="numpy kernel"):
        selected = backends._select()
    assert selected == ("python", _kernels_py.advance, _kernels_py.write_rows,
                        _kernels_py.band_solver)


def test_failing_compile_falls_back_to_numpy_with_the_compiler_message(tmp_path,
                                                                        monkeypatch):
    # a stand-in compiler that prints to stderr and exits 1, on both builds
    cc = tmp_path / "cc"
    cc.write_text(f"#!{sys.executable}\nimport sys\nsys.exit('wealthsim-test: no kernel today')\n")
    cc.chmod(0o755)
    monkeypatch.setattr(backends, "_CC", str(cc))
    monkeypatch.setattr(backends, "_CACHE", str(tmp_path))
    with pytest.warns(RuntimeWarning, match="numpy kernel.*wealthsim-test: no kernel today"):
        selected = backends._select()
    assert selected == ("python", _kernels_py.advance, _kernels_py.write_rows,
                        _kernels_py.band_solver)
    assert sorted(os.listdir(tmp_path)) == ["cc"]  # no library, no temporary left


def test_compile_command_names_the_loaded_build():
    if backends.backend_name == "c":
        assert backends.compile_command == backends.advance.compile_command
        assert "-ffp-contract=off" in backends.compile_command
    else:
        assert backends.compile_command is None


def test_cpu_identity_is_part_of_the_library_name():
    cmd = [backends._CC, *backends._NATIVE, *backends._CFLAGS]
    one = backends._library_path(cmd, "flags\t\t: fpu sse2 avx2")
    assert one == backends._library_path(cmd, "flags\t\t: fpu sse2 avx2")
    assert one != backends._library_path(cmd, "flags\t\t: fpu sse2 avx512f")
    assert one != backends._library_path(cmd, "")


def test_a_build_removes_the_libraries_of_other_sources_only(tmp_path, monkeypatch):
    # a stand-in compiler writes its output file, sys.argv[2] after "-o"
    monkeypatch.setattr(backends, "_CACHE", str(tmp_path))
    cmd = [sys.executable, "-c", "import sys; open(sys.argv[2], 'wb').write(b'lib')"]
    lib = backends._library_path(cmd, backends._cpu_identity())
    _, source, _, _ = os.path.basename(lib).split(".")
    assert os.path.basename(backends._library_path(["cc"], "")).split(".")[1] == source
    kept = [f"_kernel.{source}.0123456789abcdef.so",  # the same source, another CPU
            "_kernel.fedcba9876543210.so.tmp"]        # a build in progress
    stale = ["_kernel.fedcba9876543210.0123456789abcdef.so",  # another source
             "_kernel.fedcba9876543210.so"]                     # an older name
    for name in kept + stale:
        (tmp_path / name).write_bytes(b"")
    assert backends._build(cmd) == lib
    assert (tmp_path / os.path.basename(lib)).read_bytes() == b"lib"
    assert sorted(os.listdir(tmp_path)) == sorted([os.path.basename(lib), *kept])


# The forced rebuild needs a compiler even when a cached native library loaded.
@pytest.mark.skipif(backends.backend_name != "c" or shutil.which(backends._CC) is None,
                    reason="C kernel not built, or no compiler to rebuild it")
def test_unsupported_native_flag_falls_back_to_a_portable_build(monkeypatch):
    monkeypatch.setattr(backends, "_NATIVE",
                        ("-march=wealthsim-no-such-cpu", "-mprefer-vector-width=512"))
    name, advance, write_rows, band_solver = backends._select()
    assert name == "c"
    assert not set(backends._NATIVE) & set(advance.compile_command)
    assert write_rows is not _kernels_py.write_rows
    assert band_solver is not _kernels_py.band_solver
    monkeypatch.setattr(backends, "advance", advance)
    a = _advance("python", np.full(N, 600.0))
    b = _advance("c", np.full(N, 600.0))
    np.testing.assert_array_equal(a, b)


@pytest.mark.skipif(backends.backend_name != "c", reason="C library not built")
@pytest.mark.parametrize("columns, rows", [
    pytest.param([], 4, id="no-columns"),
    pytest.param([np.zeros(4, dtype=np.float32)], 4, id="float32"),
    pytest.param([np.zeros(8)[::2]], 4, id="strided"),
    pytest.param([np.zeros((2, 2))], 2, id="2-d"),
    pytest.param([np.zeros(4), np.zeros(3, dtype=np.int64)], 4, id="rows-past-a-column"),
    pytest.param([np.zeros(4)], 0, id="no-rows-per-block"),
])
def test_format_rows_refuses_arguments_that_would_overrun(columns, rows):
    # write_rows checks a table once, before the C format_rows reads a cell
    fh = io.BytesIO()
    with pytest.raises(ValueError):
        backends.write_rows(fh, columns, rows)
    assert fh.getvalue() == b""


def _band(m=6, p=1, q=1, **kwargs):
    ab = np.zeros((m, p + q + 1), **kwargs)
    ab[:, p] = 2.0
    return ab


_BAD_RHS = {"rhs-short": np.ones(5), "rhs-long": np.ones(7), "rhs-2-d": np.ones((6, 1))}


@pytest.mark.parametrize("ab, p, q, r", [
    *(pytest.param(_band(), 1, 1, r, id=name) for name, r in _BAD_RHS.items()),
    pytest.param(_band(m=12)[::2], 1, 1, np.ones(6), id="band-strided"),
    pytest.param(_band(order="F"), 1, 1, np.ones(6), id="band-fortran"),
    pytest.param(_band(dtype=np.float32), 1, 1, np.ones(6), id="band-float32"),
    pytest.param(_band().tolist(), 1, 1, np.ones(6), id="band-list"),
    pytest.param(_band().ravel(), 1, 1, np.ones(6), id="band-1-d"),
    pytest.param(_band(q=0), 1, 1, np.ones(6), id="band-narrower-than-p+q+1"),
    pytest.param(_band(p=0), -1, 2, np.ones(6), id="negative-p"),
    pytest.param(_band(q=0), 2, -1, np.ones(6), id="negative-q"),
])
def test_band_solver_refuses_arguments_that_would_overrun(ab, p, q, r):
    # the compiled band_solver checks the band once, before band_lu, and the
    # right-hand side before each band_solve: a stand-in library records the
    # calls, and only a good band (here: any case with a bad right-hand side)
    # reaches band_lu
    calls = []
    lib = types.SimpleNamespace(band_lu=lambda *a: calls.append("band_lu"),
                                band_solve=lambda *a: calls.append("band_solve"))
    with pytest.raises(ValueError):
        backends._band_solver(lib)(ab, p, q)(r)
    assert calls == ([] if r.shape == (6,) else ["band_lu"])


@pytest.mark.parametrize("r", [pytest.param(r, id=name) for name, r in _BAD_RHS.items()])
def test_every_band_solver_refuses_a_right_hand_side_of_the_wrong_shape(r):
    # with p = q = 2 the numpy solver pads r to whole 2-cell blocks, which
    # would absorb a short r without its own check
    for band_solver in backends.band_solvers().values():
        with pytest.raises(ValueError, match="right-hand side"):
            band_solver(_band(p=2, q=2), 2, 2)(r)
