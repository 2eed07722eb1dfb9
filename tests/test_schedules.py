import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpconsensus.schedules import (
    DivergentSeriesError,
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
    step_product_bound,
    sum_alpha2_b2_bound,
    validate_assumptions,
)


def test_power_step_values():
    assert PowerStep(0.3, 1, 1).alpha(0) == pytest.approx(0.3)
    assert PowerStep(1, 1, 0.9).alpha(0) == pytest.approx(1.0)
    assert PowerStep(1, 2, 1).alpha(1) == pytest.approx(1 / 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: PowerStep(v, 1.0, 1.0),
        lambda v: PowerStep(0.3, v, 1.0),
        lambda v: PowerNoise(v, 0.1),
        lambda v: PowerNoise(1.0, v),
        lambda v: PowerNoise(1.0, -v),
        lambda v: PowerNoise(1.0, 0.1, a2=v),
        lambda v: GeometricNoise(v, 0.9),
        lambda v: PowerNoise(v, 0.0, a2=1.0),
    ],
    ids=["step-a1", "step-a2", "b_floor", "gamma", "minus-gamma", "noise-a2", "geometric-c", "constant-b"],
)
def test_non_finite_parameters_rejected(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


def test_power_step_monotone():
    s = PowerStep(1.7, 0.5, 0.8)
    vals = [s.alpha(k) for k in range(200)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_power_step_validation():
    with pytest.raises(ValueError, match="a2 must be finite and > 0"):
        PowerStep(0.3, 0, 1)  # alpha(0) = a1 / 0
    with pytest.raises(ValueError, match=r"alpha\(0\) = a1 / a2\*\*beta must be finite"):
        PowerStep(0.5, 1e-310, 1.0)  # a2 > 0, but a1 / a2 overflows
    assert PowerStep(0.0, 1e-310, 1.0).alpha(0) == 0.0  # no step size at all is finite
    assert math.isfinite(PowerStep(0.5, 1e-310, 0.5).alpha(0))  # 0.5 / 1e-155
    with pytest.raises(ValueError):
        PowerStep(1, 1, 0.0)
    with pytest.raises(ValueError):
        PowerStep(1, 1, 1.5)
    with pytest.raises(ValueError):
        PowerStep(-1, 1, 1)


def test_noise_scale_values():
    assert PowerNoise(1, 0.1, 0, 0).scale(16) == pytest.approx(16**0.1)
    assert GeometricNoise(1, 0.9).scale(2) == pytest.approx(0.81)
    assert PowerNoise(2, 0.0, a2=1.0).scale(123456) == 2.0


def test_power_noise_offset_domain():
    # The offset-1 schedule starts at k = 1: no noise before it, whatever gamma.
    n = PowerNoise(1.0, 0.1, a2=1, offset=1)
    assert n.scale(0) == 0.0
    assert n.scale(1) == pytest.approx(1.0)
    flat = PowerNoise(1.5, 0.0, a2=1, offset=1)
    assert flat.scale(0) == 0.0
    assert flat.scale(1) == 1.5
    decaying = PowerNoise(1.0, -0.2, a2=1, offset=1)
    assert decaying.scale(0) == 0.0
    assert decaying.scale(2) == pytest.approx(2**-0.2)


@pytest.mark.parametrize(
    "sched",
    [
        PowerStep(0.7, 0.37, 0.6),
        GeometricStep(0.8),
        PowerNoise(1.3, -0.3, a2=1, offset=1),
        PowerNoise(2.5, 0.2, a2=0.5, offset=0),
        GeometricNoise(3.1, 0.9),
        PowerNoise(1.7, 0.0, a2=1.0),
    ],
)
def test_array_evaluation_matches_scalar(sched):
    f = sched.alpha if hasattr(sched, "alpha") else sched.scale
    ks = np.arange(200)
    got = f(ks)
    assert got.shape == ks.shape and got.dtype == np.float64
    # NumPy's array pow and the C library's scalar pow may differ in the last bit.
    np.testing.assert_allclose(got, [f(int(k)) for k in ks], rtol=2 * np.finfo(float).eps, atol=0)


def _pow(x: float, p: float) -> float:
    """NumPy's array power at one element.

    NumPy's SIMD pow and the C library's may differ in the last bit, so the
    references below take pow from NumPy, one element at a time, and do every
    other operation in Python floats.
    """
    return float((np.array([x]) ** p)[0])


def _alpha_ref(a1, a2, beta, k):
    return a1 / _pow(float(k) + a2, beta)


def _scale_ref(b_floor, gamma, a2, offset, k):
    base = float(k) + a2 - offset
    return b_floor * _pow(base, gamma) if base > 0 else 0.0


_A2 = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0), st.floats(0.0, 5.0))
_EXPONENT = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))


@st.composite
def _step_arrays(draw):
    """Step indices in any order, as an int or a float array, starting at 0 or anywhere."""
    ks = draw(st.lists(st.integers(0, 10**7), max_size=40))
    if draw(st.booleans()):
        ks = [0, 1] + ks
    return np.array(ks, dtype=draw(st.sampled_from([np.int64, np.float64])))


@settings(max_examples=200, deadline=None, database=None)
@given(
    a1=st.floats(0.0, 5.0),
    a2=_A2.filter(lambda v: v > 0),
    beta=st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.01, 1.0)),
    ks=_step_arrays(),
)
def test_array_alpha_equals_scalar_formula_bit_for_bit(a1, a2, beta, ks):
    assume(math.isfinite(a1 / a2**beta))  # a power step needs alpha(0) = a1 / a2**beta finite
    got = PowerStep(a1, a2, beta).alpha(ks)
    assert got.dtype == np.float64
    assert np.array_equal(got, [_alpha_ref(a1, a2, beta, k) for k in ks.tolist()])


@settings(max_examples=200, deadline=None, database=None)
@given(
    b_floor=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    gamma=_EXPONENT,
    a2=_A2,
    offset=st.sampled_from([0, 1]),
    ks=_step_arrays(),
)
def test_array_scale_equals_scalar_formula_bit_for_bit(b_floor, gamma, a2, offset, ks):
    try:
        noise = PowerNoise(b_floor, gamma, a2, offset)
    except ValueError:  # a subnormal a2 overflows b where the schedule starts
        assume(False)
    got = noise.scale(ks)
    assert got.dtype == np.float64
    assert np.array_equal(got, [_scale_ref(b_floor, gamma, a2, offset, k) for k in ks.tolist()])


@pytest.mark.parametrize(
    "b_floor, gamma, a2, offset",
    [
        (1.0, -1.0, 2.2e-309, 0),
        (0.0, -1.0, 2.2e-309, 0),
        (1.0, -1.0, 1e-310, 0),
        (1.0, 2.0, 1e300, 0),
        (1e308, 0.5, 5.0, 1),
    ],
    ids=["subnormal-a2-inf", "subnormal-a2-nan", "subnormal-a2-offset0", "huge-base", "huge-b-floor"],
)
def test_power_noise_needs_a_finite_first_scale(b_floor, gamma, a2, offset):
    """b where the schedule starts must be finite, as alpha(0) must for a power step."""
    with pytest.raises(ValueError, match="must be finite where the schedule starts"):
        PowerNoise(b_floor, gamma, a2, offset)


@settings(max_examples=200, deadline=None, database=None)
@given(
    b=st.floats(0.0, 1e300, exclude_min=True),
    a2=st.one_of(st.sampled_from([1.0, 5e-324, 1e6]), st.floats(0.0, 1e6, exclude_min=True)),
    k_len=st.integers(1, 300),
)
def test_gamma_zero_power_noise_is_constant(b, a2, k_len):
    """Constant noise b is power noise with gamma = 0 and a2 > 0: b(k) = b on every step, bit for bit."""
    noise = PowerNoise(b, 0.0, a2)
    got = noise.scale(np.arange(k_len))
    assert got.dtype == np.float64
    assert np.array_equal(got, np.full(k_len, b))
    assert noise.scale(k_len - 1) == b
    # With the default a2 = 0 the base at k = 0 is 0, where the schedule has not started.
    assert PowerNoise(b, 0.0).scale(0) == 0.0
    assert np.array_equal(PowerNoise(b, 0.0).scale(np.arange(k_len))[1:], np.full(k_len - 1, b))


def test_power_noise_starts_where_its_base_turns_positive():
    # Offset 1 with a subnormal a2: (1 + a2) - 1 rounds to 0, so b starts at k = 2.
    np.testing.assert_array_equal(PowerNoise(1.0, -1.0, 1e-310, 1).scale(np.arange(4)), [0.0, 0.0, 1.0, 0.5])
    np.testing.assert_array_equal(PowerNoise(2.0, -1.0, 1.0, 1).scale(np.arange(3)), [0.0, 2.0, 1.0])
    assert PowerNoise(0.0, -1.0, 0.0, 1).scale(5) == 0.0


def test_scalar_calls_keep_their_types():
    step, noise = PowerStep(0.3, 1.0, 0.9), PowerNoise(1.0, -0.2, 1.0, offset=1)
    assert type(step.alpha(3)) is float
    assert type(step.alpha(np.int64(3))) is np.float64
    assert type(noise.scale(3)) is float and type(noise.scale(0)) is float
    assert type(noise.scale(np.int64(3))) is float


def test_geometric_step_baseline_only():
    s = GeometricStep(0.8)
    assert s.alpha(3) == pytest.approx(0.512)
    with pytest.raises(ValueError):
        GeometricStep(1.0)


def test_validate_assumptions_verdicts():
    # The verdict is why condition (a) fails, or None where it holds.
    assert validate_assumptions(PowerStep(1, 1, 1.0), PowerNoise(1, 0.1, 1, 1)) is None
    assert validate_assumptions(PowerStep(1, 1, 0.4), PowerNoise(1, -0.2, 1, 0)) is None
    bad = validate_assumptions(PowerStep(1, 1, 1.0), PowerNoise(1, 0.6, 1, 0))
    assert "sum alpha^2 b^2 diverges" in bad
    assert validate_assumptions(PowerStep(1, 1, 0.9), GeometricNoise(1, 0.9)) is None
    const_bad = validate_assumptions(PowerStep(1, 1, 0.5), PowerNoise(1, 0.0, a2=1.0))
    assert "sum alpha^2 b^2 diverges" in const_bad


def test_sum_bound_direct_values():
    assert sum_alpha2_b2_bound(PowerStep(1, 1, 1.0), PowerNoise(1, 0.0, 1, 0)) == pytest.approx(2.0)
    assert sum_alpha2_b2_bound(PowerStep(0, 1, 1.0), PowerNoise(1, 0.0, 1, 0)) == 0.0
    with pytest.raises(DivergentSeriesError):
        sum_alpha2_b2_bound(PowerStep(1, 1, 1.0), PowerNoise(1, 0.5, 1, 0))
    with pytest.raises(DivergentSeriesError):  # a1 = 0 makes every term 0, but gamma still fails
        sum_alpha2_b2_bound(PowerStep(0, 1, 1.0), PowerNoise(1, 0.6, 1, 0))


def test_sum_bound_dominates_partial_sums():
    rng = np.random.default_rng(5)
    ks = np.arange(10**6)
    for _ in range(20):
        a1 = rng.uniform(0.05, 2.0)
        a2 = rng.uniform(0.5, 10.0)
        beta = rng.uniform(0.55, 1.0)
        gamma = beta - 0.51 - rng.uniform(0.0, 1.0)
        bound = sum_alpha2_b2_bound(PowerStep(a1, a2, beta), PowerNoise(1.0, gamma, a2, 0))
        partial = np.sum((a1 / (ks + a2) ** beta) ** 2 * ((ks + a2) ** gamma) ** 2)
        assert partial <= bound


@pytest.mark.parametrize("beta", [1.0, 0.9, 0.7])
def test_step_product_bound_dominates(beta):
    rng = np.random.default_rng(int(beta * 100))
    for _ in range(50):
        alpha = rng.uniform(0.05, 1.5)
        k0 = rng.uniform(0.0, 5.0)
        l = rng.integers(0, 20)
        k = l + rng.integers(0, 200)
        if alpha >= (l + k0) ** beta:
            continue
        i = np.arange(l, k + 1)
        prod = np.prod(1.0 - alpha / (i + k0) ** beta)
        assert prod <= step_product_bound(alpha, beta, int(l), int(k), k0) + 1e-15


def test_step_product_bound_edge_cases():
    assert step_product_bound(0.5, 1.0, 5, 4, 1.0) == 1.0  # empty product
    with pytest.raises(ValueError):
        step_product_bound(2.0, 1.0, 0, 5, 1.0)
