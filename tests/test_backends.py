"""C kernel vs numpy fallback: same random stream, same physics.

Free-mode trajectories must agree bit for bit (no reductions involved).
Coupled modes renormalize by a population sum that the two kernels
accumulate in different orders (numpy pairwise; C in 16 lanes, plain inside
each 1024-agent block and compensated across blocks), so those trajectories
agree to float roundoff rather than exactly.
"""

import ctypes
import io
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp
from test_tableio import FORMATTER_CASES, INT64, c_cells

from wealthsim import _kernels_py, backends, stats
from wealthsim.errors import DegenerateInput, NormalizationDegenerate
from wealthsim.model import DEGENERACY_RELATIVE
from wealthsim.rng import MAX_DAYS, MAX_RUNS, stream_key
from wealthsim.tableio import format_value

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
@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 33, 1023, 1024, 1025, 2065])
@pytest.mark.parametrize("mode", ["reset", "skewed"])
def test_coupled_modes_match_to_roundoff_for_any_lane_tail(mode, n):
    # The C kernel sums the total in 16 lanes, plainly inside blocks of 1024
    # agents and compensated across them: fewer agents than lanes, an exact
    # multiple of the lane count, remainders, a block short of full, one full
    # block, one and a tail, and a last block of one lane and a tail must all
    # add up.
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


@pytest.mark.parametrize("mode", ["reset", "skewed"])
@pytest.mark.parametrize("name", sorted(backends.BACKENDS))
def test_one_coupled_day_pins_the_mean_when_a_lane_head_dwarfs_its_tail(name, mode):
    # Each C lane's first agent holds 1.5 * 2^53, where a double's spacing is
    # 2, so each later 0.9 it adds is below half of it and rounds away. A lane
    # summed plainly over all 2^20 agents would drop its whole tail, 4e-12 of
    # the total; blocked, it drops at most the 63 that share its head's block.
    x = np.full(2**20, 0.9)
    x[:16] = 1.5 * 2.0**53
    target = math.fsum(x)
    _advance(name, x, days=1, target=target, **MODES[mode])
    assert abs(math.fsum(x) - target) / target <= 1e-12


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


def test_missing_compiler_falls_back_to_numpy_loudly(tmp_path, monkeypatch):
    # with no compiler on PATH no build is tried: no spawn, no temporary file
    def spawn(*args, **kwargs):
        raise AssertionError(f"a build was tried: {args}")

    monkeypatch.setattr(subprocess, "run", spawn)
    monkeypatch.setattr(backends, "_CC", "wealthsim-no-such-compiler")
    monkeypatch.setattr(backends, "_CACHE", str(tmp_path))
    with pytest.warns(RuntimeWarning, match="numpy kernel.*wealthsim-no-such-compiler"):
        selected = backends._select()
    assert selected == ("python", _kernels_py)
    assert os.listdir(tmp_path) == []


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
    assert selected == ("python", _kernels_py)
    assert sorted(os.listdir(tmp_path)) == ["cc"]  # no library, no temporary left


def test_compile_command_names_the_loaded_build():
    if backends.backend_name == "c":
        assert backends.compile_command == backends.BACKENDS["c"].compile_command
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
    name, backend = backends._select()
    assert name == "c" and backend is not _kernels_py
    assert not set(backends._NATIVE) & set(backend.compile_command)
    monkeypatch.setattr(backends, "advance", backend.advance)
    a = _advance("python", np.full(N, 600.0))
    b = _advance("c", np.full(N, 600.0))
    np.testing.assert_array_equal(a, b)
    monkeypatch.setattr(backends, "write_rows", backend.write_rows)
    for case, column in FORMATTER_CASES.items():
        wrong = [(v, got) for v, got in zip(column, c_cells(column)) if got != format_value(v)]
        assert not wrong[:5], case


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


# A cell of every layout format_rows writes, each at its longest: negative,
# with 17 significant digits, from exponent form at 1e-6 through '0.000' and
# fixed notation at every decade to exponent form at 1e17, then three-digit
# exponents, nan, infinities and the longest int64.
WIDEST = -2.2250738585072014e-308  # 25 bytes with its ','
CELL_LAYOUTS = [*(float(f"-1.2345678901234567e{k}") for k in range(-6, 18)),
                -1.2345678901234567e+300, WIDEST, np.nan, np.inf, -np.inf, INT64.min]


def _format_rows():
    """The loaded library's format_rows, declared as backends._writer
    declares it, and its cell_bytes."""
    lib = ctypes.CDLL(backends._build(backends.compile_command))
    fn = lib.format_rows
    fn.argtypes = backends._FORMAT_ARGTYPES
    fn.restype = ctypes.c_int64
    return fn, ctypes.c_int64.in_dll(lib, "cell_bytes").value


@pytest.mark.skipif(backends.backend_name != "c", reason="C library not built")
@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("cell", CELL_LAYOUTS, ids=repr)
def test_format_rows_writes_only_inside_its_buffer(rows, cell):
    # Every cell before the last is 25 bytes long, so the last one starts as
    # late as it can in a buffer of exactly rows * columns * cell_bytes; the
    # 64 guard bytes after it must not change.
    fn, cell_bytes = _format_rows()
    last = np.full(rows, cell, dtype=np.int64 if isinstance(cell, int) else np.float64)
    if last.dtype == np.float64:
        last[:-1] = WIDEST
    columns = [np.full(rows, WIDEST), last]
    size = rows * len(columns) * cell_bytes
    buf = np.full(size + 64, 0xAA, dtype=np.uint8)
    pointers = (ctypes.c_void_p * 2)(*(c.ctypes.data for c in columns))
    written = fn(pointers, bytes(c.dtype.kind == "f" for c in columns), 2, 0, rows, buf)
    assert (buf[size:] == 0xAA).all()
    assert buf[:written].tobytes().decode("ascii") == "".join(
        f"{format_value(WIDEST)},{format_value(v)}\n" for v in last)


# Each cell is formatted alone into a malloc'd block of exactly cell_bytes,
# so that AddressSanitizer sees any store past its cell.
_CELL_BY_CELL = """
import ctypes, sys
import numpy as np
lib, libc = ctypes.CDLL(sys.argv[1]), ctypes.CDLL(None)
libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)
libc.free.argtypes = (ctypes.c_void_p,)
fn = lib.format_rows
fn.restype = ctypes.c_int64
fn.argtypes = (ctypes.POINTER(ctypes.c_void_p), ctypes.c_char_p, ctypes.c_int64,
               ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p)
size = ctypes.c_int64.in_dll(lib, "cell_bytes").value
for path in sys.argv[2:]:
    column = np.load(path)
    pointer = (ctypes.c_void_p * 1)(column.ctypes.data)
    is_float = bytes([column.dtype.kind == "f"])
    for i in range(column.size):
        cell = libc.malloc(size)
        sys.stdout.buffer.write(ctypes.string_at(cell, fn(pointer, is_float, 1, i, 1, cell)))
        libc.free(cell)
"""
SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """(library, environment): the library built with SANITIZE, and the
    environment that runs a Python process with libasan preloaded."""
    if shutil.which(backends._CC) is None:
        pytest.skip("no C compiler")
    libasan = subprocess.run([backends._CC, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(libasan):  # a bare name: the compiler has none
        pytest.skip("the compiler has no libasan")
    lib = tmp_path_factory.mktemp("sanitized") / "_kernel_sanitized.so"
    cmd = backends.compile_command or (backends._CC, *backends._CFLAGS)
    subprocess.run([*cmd, *SANITIZE, "-o", str(lib), backends._SOURCE], check=True)
    return str(lib), dict(os.environ, LD_PRELOAD=libasan, ASAN_OPTIONS="detect_leaks=0")


def test_formatter_cases_pass_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized):
    lib, env = sanitized
    paths = []
    for case, column in FORMATTER_CASES.items():
        paths.append(str(tmp_path / f"{case}.npy"))
        np.save(paths[-1], column)
    done = subprocess.run([sys.executable, "-c", _CELL_BY_CELL, lib, *paths],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-4000:]
    cells = done.stdout.decode("ascii").split("\n")[:-1]
    values = [v for column in FORMATTER_CASES.values() for v in column]
    assert len(cells) == len(values)
    wrong = [(v, got) for v, got in zip(values, cells) if got != format_value(v)]
    assert not wrong[:5]


# record_rows's outputs, in order, as the C record_rows names them.
RECORD_OUTPUTS = ("max_out", "gini_out", "rank_out", "snap_out", "counts", "snap_counts")

# Each array record_rows reads or writes is a malloc'd block of exactly the
# bytes the call may touch, so that AddressSanitizer sees any access past it.
_RECORD_CALLS = """
import ctypes, sys
import numpy as np
lib, libc = ctypes.CDLL(sys.argv[1]), ctypes.CDLL(None)
libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)
libc.free.argtypes = (ctypes.c_void_p,)
fn = lib.record_rows
fn.restype = ctypes.c_int64
fn.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_double,
               *[ctypes.c_void_p] * 4, ctypes.c_int64, *[ctypes.c_void_p] * 3,
               ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
               ctypes.c_void_p, ctypes.c_void_p)
for path in sys.argv[2:]:
    case = dict(np.load(path))
    k, n = case["block"].shape
    ticks, snaps = int(case["ticks"].sum()), int(case["snaps"].sum())
    case.update(max_out=np.zeros(ticks), gini_out=np.zeros(ticks),
                rank_out=np.zeros((case["rank_ids"].size, ticks)),
                snap_out=np.zeros((snaps, n)),
                counts=np.zeros(case["edges"].size + 1, dtype=np.int64),
                snap_counts=np.zeros((snaps, case["edges"].size + 1), dtype=np.int64))
    wp = float(case.pop("wp"))
    at = {name: libc.malloc(a.nbytes) for name, a in case.items()}
    for name, a in case.items():
        ctypes.memmove(at[name], a.ctypes.data, a.nbytes)
    bad = fn(at["block"], k, n, wp, at["ticks"], at["snaps"],
             at["window"], at["rank_ids"], case["rank_ids"].size, at["max_out"],
             at["gini_out"], at["rank_out"], ticks, at["snap_out"], at["edges"],
             case["edges"].size, at["counts"], at["snap_counts"])
    assert bad == -1, bad
    out = {name: np.frombuffer(ctypes.string_at(at[name], case[name].nbytes),
                               dtype=case[name].dtype).reshape(case[name].shape)
           for name in ("max_out", "gini_out", "rank_out", "snap_out", "counts",
                        "snap_counts")}
    np.savez(path + ".out.npz", **out)
    for p in at.values():
        libc.free(p)
"""


def _record_case(n, k, ranks, edges, rng):
    """One call's inputs: k sorted rows of n, every kind of row flagged."""
    block = np.sort(rng.lognormal(3.0, 2.0, size=(k, n)), axis=1)
    flags = rng.random((3, k)) < 0.7
    flags[:, -1] = True  # a partial last group still has a tick at its end
    return dict(block=block, ticks=flags[0], snaps=flags[1], window=flags[2],
                rank_ids=np.asarray(ranks, dtype=np.int64), edges=edges, wp=400.0)


def test_recorder_cases_pass_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized):
    # rank N reads a row's first value and N = 1 rows of one value; 11 and 13
    # tick rows end in a partial group of interleaved rows, and N = 130 and
    # 3600 in a partial chunk of products, with edges past both ends of the data
    lib, env = sanitized
    rng = np.random.default_rng(20261021)
    wide = np.geomspace(1e-6, 1e9, 61)
    cases = [_record_case(1, 3, [1], wide, rng),
             _record_case(9, 5, [1, 9], np.array([1.0, 5.0]), rng),
             _record_case(130, 11, [1, 2, 130], wide, rng),
             _record_case(3600, 13, stats.default_ranks(3600), wide, rng)]
    paths = []
    for i, case in enumerate(cases):
        paths.append(str(tmp_path / f"case{i}.npz"))
        np.savez(paths[-1], **case)
    done = subprocess.run([sys.executable, "-c", _RECORD_CALLS, lib, *paths],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-4000:]
    for path, case in zip(paths, cases):
        got = np.load(path + ".out.npz")
        k, n = case["block"].shape
        block, record, want = _kernels_py.record_rows(
            k, n, case["wp"], case["ticks"], case["snaps"], case["window"],
            case["rank_ids"], case["edges"])
        block[:] = case["block"]
        record(0, k)
        for name, expect in zip(RECORD_OUTPUTS, want, strict=True):
            assert got[name].tobytes() == expect.tobytes(), (path, name)


# Each array advance reads or writes is a malloc'd block of exactly its size,
# out one of len(stops) rows of n values, or NULL when the case has none.
_ADVANCE_CALLS = """
import ctypes, sys
import numpy as np
lib, libc = ctypes.CDLL(sys.argv[1]), ctypes.CDLL(None)
libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)
libc.free.argtypes = (ctypes.c_void_p,)
fn = lib.advance
fn.restype = ctypes.c_int64
fn.argtypes = (ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64,
               ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
               *[ctypes.c_double] * 3, ctypes.c_int, ctypes.c_int,
               *[ctypes.c_double] * 2, ctypes.c_void_p)
for path in sys.argv[2:]:
    case = dict(np.load(path))
    arrays = {name: case[name] for name in ("excess", "stops", "out", "bad_total")
              if name in case}
    at = {name: libc.malloc(a.nbytes) for name, a in arrays.items()}
    for name, a in arrays.items():
        ctypes.memmove(at[name], a.ctypes.data, a.nbytes)
    beta, epsilon, w1, target_total, degen = case["reals"].tolist()
    key, run, t0, skewed, coupled = case["ints"].tolist()
    day = fn(at["excess"], case["excess"].size, key, run, t0, at["stops"],
             case["stops"].size, at.get("out"), beta, epsilon, w1, skewed, coupled,
             target_total, degen, at["bad_total"])
    out = {name: np.frombuffer(ctypes.string_at(at[name], a.nbytes),
                               dtype=a.dtype).reshape(a.shape)
           for name, a in arrays.items()}
    np.savez(path + ".out.npz", day=day, **out)
    for p in at.values():
        libc.free(p)
"""


def _advance_cases():
    """(name, case) of every advance call the sanitizer test makes: each mode,
    lane tail and block boundary through one stop and many, storing rows or
    not, and the coupled modes collapsing inside a block (a negative target
    flips the sign at the rescale that ends day 3, so day 4 returns early)."""
    t0, many = 3, np.array([3, 8, 9, 15])
    for mode, kw in MODES.items():
        for n in (1, 2, 15, 16, 17, 31, 33, 1023, 1024, 1025, 2065):
            good = 600.0 * n
            calls = [("one", many[-1:], True, good), ("many", many, True, good),
                     ("many-null-out", many, False, good)]
            if kw["coupled"]:
                calls.append(("collapse", many, True, -1.0))
            for name, stops, store, target in calls:
                case = dict(excess=np.full(n, 600.0), stops=stops, bad_total=np.zeros(1),
                            reals=np.array([0.06, kw["epsilon"], 1000.0, target,
                                            target * DEGENERACY_RELATIVE]),
                            ints=np.array([KEY, 5, t0, kw["skewed"], kw["coupled"]],
                                          dtype=np.uint64))
                if store:
                    case["out"] = np.full((stops.size, n), np.nan)
                yield f"{mode}-{n}-{name}", case


def test_kernel_cases_pass_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized):
    # advance's stores into out and its reads of every lane tail, checked
    # against the numpy kernel: free mode bit for bit, coupled to roundoff
    lib, env = sanitized
    cases = dict(_advance_cases())
    paths = {name: str(tmp_path / f"{name}.npz") for name in cases}
    for name, case in cases.items():
        np.savez(paths[name], **case)
    done = subprocess.run([sys.executable, "-c", _ADVANCE_CALLS, lib, *paths.values()],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-4000:]
    for name, case in cases.items():
        got = np.load(paths[name] + ".out.npz")
        beta, epsilon, w1, target, _ = case["reals"].tolist()
        _, run, t0, skewed, coupled = case["ints"].tolist()
        excess = case["excess"].copy()
        out = case["out"].copy() if "out" in case else None
        day, total = -1, 0.0
        try:
            _kernels_py.advance(excess, KEY, run, t0, case["stops"][-1] - t0, beta, epsilon,
                                w1, skewed, coupled, target, case["stops"], out)
        except NormalizationDegenerate as exc:
            day, total = exc.t, exc.total
        assert got["day"] == day, name
        rtol = 5e-13 if coupled else 0.0
        np.testing.assert_allclose(got["excess"], excess, rtol=rtol, atol=0.0, err_msg=name)
        if out is not None:
            np.testing.assert_allclose(got["out"], out, rtol=rtol, atol=0.0, err_msg=name)
        if day >= 0:
            np.testing.assert_allclose(got["bad_total"][0], total, rtol=rtol, atol=0.0)


# band_lu factors a malloc'd band of exactly m * (p + q + 1) doubles, and
# band_solve solves into a malloc'd vector of exactly m, for each case.
_BAND_CALLS = """
import ctypes, sys
import numpy as np
lib, libc = ctypes.CDLL(sys.argv[1]), ctypes.CDLL(None)
libc.malloc.restype, libc.malloc.argtypes = ctypes.c_void_p, (ctypes.c_size_t,)
libc.free.argtypes = (ctypes.c_void_p,)
lib.band_lu.restype = lib.band_solve.restype = None
lib.band_lu.argtypes = (ctypes.c_void_p, *[ctypes.c_int64] * 3)
lib.band_solve.argtypes = (ctypes.c_void_p, *[ctypes.c_int64] * 3, ctypes.c_void_p)
cases, solved = np.load(sys.argv[2]), {}
for name in cases.files:
    if not name.startswith("ab"):
        continue
    i = name[2:]
    ab, r, p = cases[name], cases["r" + i], int(cases["p" + i])
    m, q = ab.shape[0], ab.shape[1] - 1 - p
    at = {"ab": libc.malloc(ab.nbytes), "x": libc.malloc(r.nbytes)}
    ctypes.memmove(at["ab"], ab.ctypes.data, ab.nbytes)
    ctypes.memmove(at["x"], r.ctypes.data, r.nbytes)
    lib.band_lu(at["ab"], m, p, q)
    lib.band_solve(at["ab"], m, p, q, at["x"])
    solved["x" + i] = np.frombuffer(ctypes.string_at(at["x"], r.nbytes))
    for a in at.values():
        libc.free(a)
np.savez(sys.argv[3], **solved)
"""


def _band_case(m, p, q, rng):
    """(ab, dense, r): a strictly column diagonally dominant m x m band with p
    sub- and q super-diagonals, as band_lu stores it, NaN where the stored
    rows reach outside the matrix, the same matrix dense, and a right-hand
    side."""
    dense = np.zeros((m, m))
    for i in range(m):
        lo, hi = max(0, i - p), min(m, i + q + 1)
        dense[i, lo:hi] = rng.uniform(-1.0, 1.0, hi - lo)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=0) + rng.uniform(0.5, 1.5, m))
    ab = np.full((m, p + q + 1), np.nan)
    for i in range(m):
        for j in range(max(0, i - p), min(m, i + q + 1)):
            ab[i, j - i + p] = dense[i, j]
    return ab, dense, rng.uniform(-1.0, 1.0, m)


def test_band_cases_pass_address_and_undefined_behaviour_sanitizers(tmp_path, sanitized):
    # every band with m <= 11 and p, q <= 5, so p = 0, q = 0 and bands wider
    # than the matrix (p + q >= m) among them, against a dense solve; a read
    # of a stored entry outside the matrix brings in its NaN
    lib, env = sanitized
    rng = np.random.default_rng(20261022)
    cases = {(m, p, q): _band_case(m, p, q, rng)
             for m in range(1, 12) for p in range(6) for q in range(6)}
    arrays = {}
    for (m, p, q), (ab, _, r) in cases.items():
        name = f"{m}-{p}-{q}"
        arrays.update({"ab" + name: ab, "r" + name: r, "p" + name: p})
    path, solved = tmp_path / "bands.npz", tmp_path / "solved.npz"
    np.savez(path, **arrays)
    done = subprocess.run([sys.executable, "-c", _BAND_CALLS, lib, str(path), str(solved)],
                          capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode(errors="replace")[-4000:]
    got = np.load(solved)
    for (m, p, q), (_, dense, r) in cases.items():
        want = np.linalg.solve(dense, r)
        np.testing.assert_allclose(got[f"x{m}-{p}-{q}"], want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max(), err_msg=(m, p, q))


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
    for backend in backends.BACKENDS.values():
        with pytest.raises(ValueError, match="right-hand side"):
            backend.band_solver(_band(p=2, q=2), 2, 2)(r)


# ---- The two recorders ----

# Every branch of numpy's pairwise sum and of its recursion: under 8 terms,
# one 8-accumulator leaf with and without a tail, and halves split at a
# multiple of 8, once and many times.
RECORD_N = (1, 7, 8, 9, 127, 128, 129, 130, 3600, 8193)


def _run_flags(draw, events):
    """ticks, snaps and window flags of a run: each all set, none, or mixed."""
    def one():
        kind = draw(hyp.sampled_from(["all", "none", "mixed"]))
        if kind != "mixed":
            return np.full(events, kind == "all")
        return np.array(draw(hyp.lists(hyp.booleans(), min_size=events, max_size=events)))
    return one(), one(), one()


@hyp.composite
def recordings(draw, n):
    """A run's worth of sorted blocks of n values, with its flags, ranks and
    edges."""
    rows = draw(hyp.integers(1, 20))
    events = draw(hyp.integers(1, 3 * rows))
    rng = np.random.default_rng(draw(hyp.integers(0, 2**32 - 1)))
    ties = draw(hyp.booleans())
    values = (rng.choice(rng.lognormal(3.0, 2.0, size=5), size=(events, n)) if ties
              else rng.lognormal(3.0, 2.0, size=(events, n)))
    values.sort(axis=1)
    edges = {
        "geometric": np.geomspace(1e-6, 1e8, 41),      # past both ends of the data
        "on-values": np.unique(rng.choice(values.ravel(), size=12)),
        "below-all": np.geomspace(1e-12, 1e-9, 5),
        "above-all": np.geomspace(1e12, 1e15, 5),
    }[draw(hyp.sampled_from(["geometric", "on-values", "below-all", "above-all"]))]
    ranks = np.unique(np.concatenate([[1, n], rng.integers(1, n + 1, size=7)]))
    return dict(values=values, rows=rows, flags=_run_flags(draw, events),
                rank_ids=ranks.astype(np.int64), edges=edges,
                wp=draw(hyp.sampled_from([0.0, 400.0, -1.5])))


def _record(record_rows, case):
    """The outputs of one run recorded block by block with ``record_rows``,
    by name. Float outputs start as NaN, so an entry left unwritten shows."""
    values, rows, (ticks, snaps, window) = case["values"], case["rows"], case["flags"]
    block, record, out = record_rows(rows, values.shape[1], case["wp"], ticks, snaps,
                                     window, case["rank_ids"], case["edges"])
    for lo in range(0, len(values), rows):  # the last block may be partly full
        k = min(rows, len(values) - lo)
        block[:k] = values[lo:lo + k]
        record(lo, k)
    return dict(zip(RECORD_OUTPUTS, out, strict=True))


@needs_both
@pytest.mark.parametrize("n", RECORD_N)
@settings(max_examples=25, deadline=None)
@given(data=hyp.data())
def test_compiled_recorder_matches_the_numpy_recorder_bit_for_bit(n, data):
    case = data.draw(recordings(n))
    want = _record(_kernels_py.record_rows, case)
    got = _record(backends.BACKENDS["c"].record_rows, case)
    for name, expect in want.items():
        assert got[name].tobytes() == expect.tobytes(), name


def test_window_counts_put_nan_last_as_searchsorted_does():
    # numpy sorts NaN last, and searchsorted counts it at or above every edge,
    # NaN edges included; decreasing edges count back down
    row = np.array([0.5, 1.0, 1.0, 2.0, np.nan, np.nan])
    edges = np.array([1.0, 2.0, np.nan, 0.75, 5.0])
    case = dict(values=row[None, :], rows=1, rank_ids=np.array([1, 6]), edges=edges,
                wp=0.0, flags=(np.zeros(1, bool), np.zeros(1, bool), np.ones(1, bool)))
    for backend in backends.BACKENDS.values():
        counts = _record(backend.record_rows, case)["counts"]
        below = np.searchsorted(row, edges, side="left")
        assert counts.tolist() == np.diff(below, prepend=0, append=row.size).tolist()


def test_snapshot_counts_bin_the_exported_snapshot_less_wp():
    # 0.1 + 400 - 400 rounds to 0.10000000000002274, where an edge lies: the
    # snapshot exported less wp sits at the edge, the raw excess below it,
    # and the window bins the raw excess
    wp, edges = 400.0, np.array([(0.1 + 400.0) - 400.0, 2.0])
    assert edges[0] != 0.1
    case = dict(values=np.array([[0.1, 1.0]]), rows=1, rank_ids=np.array([1, 2]),
                edges=edges, wp=wp, flags=(np.zeros(1, bool), np.ones(1, bool), np.ones(1, bool)))
    for backend in backends.BACKENDS.values():
        out = _record(backend.record_rows, case)
        assert out["snap_counts"].tolist() == [[0, 2, 0]]
        assert out["snap_counts"].tolist() == stats.bin_excess(
            edges, (out["snap_out"] - wp)[:, ::-1]).tolist()
        assert out["counts"].tolist() == [1, 1, 0]


@pytest.mark.parametrize("name", sorted(backends.BACKENDS))
def test_a_tick_with_a_zero_total_is_degenerate_on_every_recorder(name):
    values = np.zeros((3, 9))
    values[0] = np.arange(9.0)  # one good tick before it, in the same block
    case = dict(values=values, rows=3, rank_ids=np.array([1, 9]), edges=np.ones(1),
                wp=0.0, flags=(np.ones(3, bool), np.zeros(3, bool), np.zeros(3, bool)))
    with pytest.raises(DegenerateInput, match="all-zero"):
        _record(backends.BACKENDS[name].record_rows, case)


def _recorder_args(events=4, rows=2, n=5, **change):
    """Good arguments for record_rows, as a dict, with ``change`` applied."""
    args = dict(rows=rows, n=n, wp=400.0, ticks=np.array([True, False, True, True])[:events],
                snaps=np.array([False, True, True, False])[:events],
                window=np.ones(events, bool), rank_ids=np.array([1, n]),
                edges=np.array([1.0, 2.0]))
    args.update(change)
    return args


@pytest.mark.parametrize("change", [
    pytest.param(dict(n=0), id="block-of-empty-rows"),
    pytest.param(dict(rows=0), id="block-of-no-rows"),
    pytest.param(dict(ticks=np.ones(3, bool)), id="ticks-short"),
    pytest.param(dict(snaps=np.zeros(5, bool)), id="snaps-long"),
    pytest.param(dict(window=np.ones(4, np.uint8)), id="window-uint8"),
    pytest.param(dict(rank_ids=np.array([0, 5])), id="rank-0"),
    pytest.param(dict(rank_ids=np.array([1, 6])), id="rank-past-N"),
    pytest.param(dict(rank_ids=np.array([1, 5], dtype=np.int32)), id="ranks-int32"),
    pytest.param(dict(edges=np.array([1.0, 2.0], dtype=np.float32)), id="edges-float32"),
])
def test_record_rows_refuses_arguments_that_would_overrun(change):
    # either record_rows checks the run's inputs once, before it allocates
    # the block and the outputs that fit them
    lib = types.SimpleNamespace(record_rows=lambda *a: pytest.fail("a C call was made"))
    for record_rows in (backends._recorder(lib), _kernels_py.record_rows):
        with pytest.raises(ValueError):
            record_rows(**_recorder_args(**change))


@pytest.mark.parametrize("lo, k", [(-1, 1), (0, 3), (3, 2), (4, 1)])
def test_record_refuses_events_outside_the_run_or_the_block(lo, k):
    calls = []
    lib = types.SimpleNamespace(record_rows=lambda *a: calls.append(a) or -1)
    _, record, _ = backends._recorder(lib)(**_recorder_args())
    with pytest.raises(ValueError):
        record(lo, k)
    record(2, 2)  # the last two events: good
    assert len(calls) == 1
