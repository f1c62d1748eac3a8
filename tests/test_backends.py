"""C kernel vs numpy fallback: same random stream, same physics.

Free-mode trajectories must agree bit for bit (no reductions involved).
Coupled modes renormalize by a population sum that the two kernels
accumulate in different orders (compensated scalar loop vs numpy pairwise),
so those trajectories agree to float roundoff rather than exactly.
"""

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


def _advance(name, excess, *, beta=0.06, epsilon=0.0, skewed=False,
             coupled=False, run=1, t0=0, days=400):
    fn = backends.available()[name]
    target = excess.sum()
    fn(excess, KEY, run, t0, days, beta, epsilon, 1000.0, skewed, coupled, target)
    return excess


@needs_both
def test_free_mode_bit_identical():
    a = _advance("python", np.full(N, 600.0))
    b = _advance("c", np.full(N, 600.0))
    np.testing.assert_array_equal(a, b)


@needs_both
def test_free_mode_bit_identical_at_counter_bounds():
    # The last run and the last days set the counter's top bits, which only
    # land right if both kernels shift by rng.RUN_SHIFT and rng.T_SHIFT.
    bounds = dict(run=MAX_RUNS - 1, t0=MAX_DAYS - 5, days=5)
    a = _advance("python", np.full(N, 600.0), **bounds)
    b = _advance("c", np.full(N, 600.0), **bounds)
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
def test_both_backends_flag_degenerate_totals():
    for name in ("python", "c"):
        excess = np.full(N, 1e-305)
        with pytest.raises(NormalizationDegenerate) as ei:
            backends.available()[name](
                excess, KEY, 0, 0, 5, 0.06, 0.0, 1000.0, False, True,
                600.0 * N)
        assert ei.value.t == 0


def test_selected_backend_is_reported():
    assert backends.backend_name in backends.available()
    assert callable(backends.advance)


def test_missing_compiler_falls_back_to_numpy_loudly(monkeypatch):
    monkeypatch.setattr(backends, "_CC", "wealthsim-no-such-compiler")
    with pytest.warns(RuntimeWarning, match="numpy kernel"):
        name, advance = backends._select()
    assert (name, advance) == ("python", _kernels_py.advance)
