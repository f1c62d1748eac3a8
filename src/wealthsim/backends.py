"""Kernel backend selection.

The day loop runs in ``_kernel.c`` when it can be built: on first import the
system C compiler turns it into a shared library for the host CPU at its full
vector width (``-march=native -mprefer-vector-width=512``) in this package's
``__pycache__/`` as ``_kernel.<source digest>.<build digest>.so``. The build
digest covers the compile command and the CPU's identity (the first ``flags``
line of ``/proc/cpuinfo``), so a shared cache never hands one CPU a library
built for another. Each new build removes the cached libraries of other
sources, and keeps those of its own source for other CPUs and commands.
``ctypes`` loads it and releases the GIL for each call; ``subprocess`` and
``tempfile`` are imported only on a cache miss, to build. If the native build
or load fails, the kernel is built once more without those two flags;
``compile_command`` holds the command that built the loaded library. Without a
compiler, or if that retry fails too, a warning names the cause and the numpy
kernel of ``_kernels_py`` runs instead (``compile_command`` is then ``None``).

Either backend also writes CSV rows: ``write_rows`` writes int64 and float64
columns as the text ``_kernels_py.format_value`` defines, through the same
library's ``format_rows`` or, under the numpy kernel, cell by cell. And
either solves band systems: ``band_solver(ab, p, q)`` factors a band matrix
once and returns ``solve(r)``, through the library's ``band_lu`` and
``band_solve`` or, under the numpy kernel, by block cyclic reduction.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import warnings

import numpy as np

from . import _kernels_py
from .errors import NormalizationDegenerate
from .model import DEGENERACY_RELATIVE
from .rng import GOLDEN, MASK64, MIX1, MIX2, RUN_SHIFT, T_SHIFT

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernel.c")
_CACHE = os.path.join(_HERE, "__pycache__")

_CC = "cc"
# Tuned for the host CPU, at the full vector width: GCC's tuning for some
# AVX-512 hosts prefers 256-bit vectors, which halves the day loop's width.
_NATIVE = ("-march=native", "-mprefer-vector-width=512")
# No -ffast-math: contracted or reassociated arithmetic would break free
# mode's bit identity with the numpy kernel.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC",
           f"-DGOLDEN={GOLDEN:#x}u", f"-DMIX1={MIX1:#x}u", f"-DMIX2={MIX2:#x}u",
           f"-DRUN_SHIFT={RUN_SHIFT}", f"-DT_SHIFT={T_SHIFT}")

_ARGTYPES = (
    np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS, WRITEABLE"),
    ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64,    # n, key, run
    ctypes.c_int64,                                      # t0
    np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS"),
    ctypes.c_int64, ctypes.c_void_p,                     # n_stops, out
    ctypes.c_double, ctypes.c_double, ctypes.c_double,   # beta, epsilon, w1
    ctypes.c_int, ctypes.c_int,                          # skewed, coupled
    ctypes.c_double, ctypes.c_double,                    # target_total, degen
    ctypes.POINTER(ctypes.c_double),                     # bad_total
)
_FORMAT_ARGTYPES = (
    ctypes.POINTER(ctypes.c_void_p), ctypes.c_char_p,    # columns, is_float
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,      # n_columns, row0, n_rows
    np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS, WRITEABLE"),
)
_FORMAT_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))
_BAND_ARGTYPES = (
    np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS, WRITEABLE"),
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,      # m, p, q
)


def _cpu_identity() -> str:
    """The first ``flags`` line of ``/proc/cpuinfo``, or "" if unreadable."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            return next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        return ""


def _library_path(cmd, cpu: str) -> str:
    """Cache path of the library that ``cmd`` builds on the CPU ``cpu``."""
    with open(_SOURCE, "rb") as fh:
        source = hashlib.sha256(fh.read()).hexdigest()[:16]
    build = hashlib.sha256("\0".join([*cmd, cpu]).encode()).hexdigest()[:16]
    return os.path.join(_CACHE, f"_kernel.{source}.{build}.so")


def _remove_other_sources(lib: str) -> None:
    """Remove the cached libraries built from another source than ``lib``;
    ``.so.tmp`` files of builds in progress stay."""
    keep = os.path.basename(lib).split(".")[1]
    for name in os.listdir(_CACHE):
        if (name.startswith("_kernel.") and name.endswith(".so")
                and name.split(".")[1] != keep):
            with contextlib.suppress(OSError):  # another build removed it first
                os.unlink(os.path.join(_CACHE, name))


def _build(cmd) -> str:
    """Path of the kernel that ``cmd`` compiles, compiling it if not cached."""
    lib = _library_path(cmd, _cpu_identity())
    if os.path.exists(lib):
        return lib
    import subprocess
    import tempfile
    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel.", suffix=".so.tmp", dir=_CACHE)
    os.close(fd)
    try:
        done = subprocess.run([*cmd, "-o", tmp, _SOURCE], capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"{cmd[0]} exited with {done.returncode}: {done.stderr}")
        os.replace(tmp, lib)  # atomic: concurrent importers never see half a file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _remove_other_sources(lib)
    return lib


def _load(cmd):
    """The library that ``cmd`` compiles, as (advance, write_rows,
    band_solver): an ``advance`` with the numpy kernel's signature and a
    ``compile_command`` attribute, and a ``write_rows`` and a ``band_solver``
    with those of ``_kernels_py``."""
    lib = ctypes.CDLL(_build(cmd))
    fn = lib.advance
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64

    def advance(excess, key, run, t0, n_days, beta, epsilon, w1, skewed,
                coupled, target_total, stops=None, out=None):
        """Advance the excess-wealth vector in place over days [t0, t0 + n_days),
        storing the vector at each of ``stops`` in ``out`` as
        ``_kernels_py.advance`` does."""
        target_total = float(target_total)
        stops, out = _kernels_py.checked_block(excess, t0, n_days, stops, out)
        degen = target_total * DEGENERACY_RELATIVE
        bad_total = ctypes.c_double()
        bad_t = fn(excess, excess.shape[0], key & MASK64, run, t0, stops,
                   stops.size, None if out is None else out.ctypes.data,
                   beta, epsilon, w1, skewed, coupled, target_total, degen,
                   ctypes.byref(bad_total))
        if bad_t >= 0:
            raise NormalizationDegenerate(bad_total.value, degen, run_id=run, t=bad_t)

    advance.compile_command = tuple(cmd)
    return advance, _writer(lib), _band_solver(lib)


def _writer(lib):
    """``write_rows`` through the loaded library's ``format_rows``."""
    fn = lib.format_rows
    fn.argtypes = _FORMAT_ARGTYPES
    fn.restype = ctypes.c_int64
    cell_bytes = ctypes.c_int64.in_dll(lib, "cell_bytes").value

    def write_rows(fh, columns, rows):
        """Write every row of ``columns``, equally long 1-d C-contiguous int64
        or float64 arrays, to the binary file ``fh`` as the CSV lines
        ``_kernels_py.write_rows`` writes, ``rows`` >= 1 rows at a time."""
        if rows < 1 or not columns or any(
                c.dtype not in _FORMAT_DTYPES or c.ndim != 1 or c.shape != columns[0].shape
                or not c.flags.c_contiguous for c in columns):
            raise ValueError("write_rows needs rows >= 1 and equally long 1-d "
                             "C-contiguous int64 or float64 columns")
        n = columns[0].shape[0]
        pointers = (ctypes.c_void_p * len(columns))(*(c.ctypes.data for c in columns))
        is_float = bytes(c.dtype.kind == "f" for c in columns)
        buf = np.empty(rows * len(columns) * cell_bytes, dtype=np.uint8)
        for start in range(0, n, rows):
            size = fn(pointers, is_float, len(columns), start, min(rows, n - start), buf)
            fh.write(buf[:size])

    write_rows.cell_bytes = cell_bytes
    return write_rows


def _band_solver(lib):
    """``band_solver`` through the loaded library's ``band_lu`` and ``band_solve``."""
    factor, substitute = lib.band_lu, lib.band_solve
    factor.argtypes = _BAND_ARGTYPES
    factor.restype = None
    substitute.argtypes = (*_BAND_ARGTYPES,
                           np.ctypeslib.ndpointer(np.float64, ndim=1,
                                                  flags="C_CONTIGUOUS, WRITEABLE"))
    substitute.restype = None

    def band_solver(ab, p, q):
        """``solve(r)`` for the m x m matrix M whose band ``ab``, a C-contiguous
        float64 array of shape (m, p + q + 1), holds M[i, j] at
        ``ab[i, j - i + p]``, as ``_kernels_py.band_solver`` does. ``ab`` is
        factored once, in a copy, without pivoting: M must be strictly
        column diagonally dominant."""
        if p < 0 or q < 0 or not (
                isinstance(ab, np.ndarray) and ab.dtype == np.float64 and ab.ndim == 2
                and ab.shape[1] == p + q + 1 and ab.flags.c_contiguous):
            raise ValueError("band_solver needs p, q >= 0 and a C-contiguous "
                             "float64 band of shape (m, p + q + 1)")
        lu = ab.copy()
        m = lu.shape[0]
        factor(lu, m, p, q)

        def solve(r):
            """The x with M x = r, for a length-m vector r."""
            x = np.array(r, dtype=np.float64)
            if x.shape != (m,):
                raise ValueError(f"right-hand side of shape {x.shape}, not ({m},)")
            substitute(lu, m, p, q, x)
            return x

        return solve

    return band_solver


def _select():
    """(name, advance, write_rows, band_solver) of the C library, built for
    the host CPU or else portably, or of the pure-Python backend if neither
    build loads."""
    for cmd in ([_CC, *_NATIVE, *_CFLAGS], [_CC, *_CFLAGS]):
        try:
            return ("c", *_load(cmd))
        except OSError as exc:
            failure = exc
    warnings.warn(f"C kernel unavailable, using the numpy kernel: {failure}",
                  RuntimeWarning, stacklevel=2)
    return "python", _kernels_py.advance, _kernels_py.write_rows, _kernels_py.band_solver


backend_name, advance, write_rows, band_solver = _select()
compile_command = getattr(advance, "compile_command", None)


def available():
    """Name -> advance-callable for every backend that loads here."""
    return {"python": _kernels_py.advance, backend_name: advance}


def band_solvers():
    """Name -> band_solver for every backend that loads here."""
    return {"python": _kernels_py.band_solver, backend_name: band_solver}
