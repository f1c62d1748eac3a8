"""Kernel backend selection.

The day loop runs in ``_kernel.c`` when it can be built: on first import the
system C compiler turns it into a shared library in this package's
``__pycache__/``, named by a hash of the source and the compile command, and
``ctypes`` loads it (and releases the GIL for each call). Without a compiler,
or if the build or the load fails, a warning names the cause and the numpy
kernel of ``_kernels_py`` runs instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
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
# No -ffast-math or -march=native: contracted or reassociated arithmetic
# would break free mode's bit identity with the numpy kernel.
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC",
           f"-DGOLDEN={GOLDEN:#x}u", f"-DMIX1={MIX1:#x}u", f"-DMIX2={MIX2:#x}u",
           f"-DRUN_SHIFT={RUN_SHIFT}", f"-DT_SHIFT={T_SHIFT}")

_ARGTYPES = (
    np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS, WRITEABLE"),
    ctypes.c_int64, ctypes.c_uint64, ctypes.c_uint64,    # n, key, run
    ctypes.c_int64, ctypes.c_int64,                      # t0, n_days
    ctypes.c_double, ctypes.c_double, ctypes.c_double,   # beta, epsilon, w1
    ctypes.c_int, ctypes.c_int,                          # skewed, coupled
    ctypes.c_double, ctypes.c_double,                    # target_total, degen
    ctypes.POINTER(ctypes.c_double),                     # bad_total
)


def _build() -> str:
    """Path of the compiled kernel, compiling it if the cache lacks it."""
    cmd = [_CC, *_CFLAGS]
    with open(_SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read() + "\0".join(cmd).encode())
    lib = os.path.join(_CACHE, f"_kernel.{digest.hexdigest()[:16]}.so")
    if os.path.exists(lib):
        return lib
    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernel.", suffix=".so.tmp", dir=_CACHE)
    os.close(fd)
    try:
        subprocess.run([*cmd, "-o", tmp, _SOURCE], check=True,
                       capture_output=True, text=True)
        os.replace(tmp, lib)  # atomic: concurrent importers never see half a file
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _load():
    """The C kernel as an ``advance`` with the numpy kernel's signature."""
    fn = ctypes.CDLL(_build()).advance
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64

    def advance(excess, key, run, t0, n_days, beta, epsilon, w1, skewed,
                coupled, target_total):
        """Advance the excess-wealth vector in place over days [t0, t0 + n_days)."""
        degen = target_total * DEGENERACY_RELATIVE
        bad_total = ctypes.c_double()
        bad_t = fn(excess, excess.shape[0], key & MASK64, run, t0, n_days,
                   beta, epsilon, w1, skewed, coupled, target_total, degen,
                   ctypes.byref(bad_total))
        if bad_t >= 0:
            raise NormalizationDegenerate(bad_total.value, degen, t=bad_t)

    return advance


def _select():
    """(name, advance) of the C kernel, or of the numpy kernel if C fails."""
    try:
        return "c", _load()
    except (OSError, subprocess.CalledProcessError) as exc:
        cause = getattr(exc, "stderr", None) or exc
        warnings.warn(f"C kernel unavailable, using the numpy kernel: {cause}",
                      RuntimeWarning, stacklevel=2)
        return "python", _kernels_py.advance


backend_name, advance = _select()


def available():
    """Name -> advance-callable for every backend that loads here."""
    return {"python": _kernels_py.advance, backend_name: advance}
