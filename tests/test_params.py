"""Parameter validation: every violation reported, strings coerced to Mode."""

import pytest

from wealthsim import Mode, ModelParams, ParameterError


def good(**overrides):
    base = dict(n_agents=100, beta=0.06, mode="reset", t_max=100, seed=1)
    base.update(overrides)
    return ModelParams(**base)


def test_mode_string_coercion():
    assert good(mode="free").mode is Mode.FREE
    assert good(mode="RESET").mode is Mode.RESET
    assert good(mode=Mode.SKEWED, epsilon=-0.01).mode is Mode.SKEWED


def test_defaults():
    p = good()
    assert (p.w1, p.wp, p.n_runs, p.epsilon) == (1000.0, 400.0, 1, 0.0)
    assert p.target_excess == 600.0
    assert p.coupled


def test_free_mode_is_uncoupled():
    assert not good(mode="free").coupled


@pytest.mark.parametrize("overrides,needle", [
    (dict(beta=1.5), "beta"),
    (dict(beta=-0.1), "beta"),
    (dict(n_agents=0), "n_agents"),
    (dict(epsilon=1.0, mode="skewed"), "epsilon"),
    (dict(wp=1000.0), "wp"),
    (dict(wp=-1.0), "wp"),
    (dict(t_max=-1), "t_max"),
    (dict(n_runs=0), "n_runs"),
    (dict(mode="weird"), "mode"),
    (dict(mode="free", epsilon=-0.01), "epsilon = 0"),
    (dict(mode="reset", epsilon=0.5), "epsilon = 0"),
])
def test_single_violations(overrides, needle):
    with pytest.raises(ParameterError) as exc_info:
        good(**overrides)
    assert needle in str(exc_info.value)


def test_all_violations_collected():
    with pytest.raises(ParameterError) as exc_info:
        ModelParams(n_agents=0, beta=2.0, mode="nope", t_max=-5, seed=1)
    problems = exc_info.value.problems
    assert len(problems) >= 4
    text = str(exc_info.value)
    for needle in ("n_agents", "beta", "mode", "t_max"):
        assert needle in text


def test_rng_capacity_limits():
    with pytest.raises(ParameterError):
        good(n_agents=(1 << 24) + 1)
    with pytest.raises(ParameterError):
        good(n_runs=(1 << 14) + 1)
    with pytest.raises(ParameterError):
        good(t_max=(1 << 26) + 1)


def test_beta_zero_allowed():
    assert good(beta=0.0).beta == 0.0


def test_skewed_epsilon_zero_allowed():
    # the degenerate skew is the reset model; allowed for sweeps through 0
    p = good(mode="skewed", epsilon=0.0)
    assert p.coupled


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # the RNG keys on the seed's low 64 bits: outside [0, 2**64) two seeds
    # would give the same data under different hashes
    with pytest.raises(ParameterError, match="seed"):
        good(seed=seed)


def test_seed_range_ends_accepted():
    assert good(seed=0).seed == 0
    assert good(seed=2**64 - 1).seed == 2**64 - 1
