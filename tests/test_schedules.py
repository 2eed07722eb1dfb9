import math

import numpy as np
import pytest

from dpconsensus.schedules import (
    ConstantNoise,
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
    assert PowerStep(1, 0, 1).alpha(3) == pytest.approx(1 / 3)


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
        lambda v: ConstantNoise(v),
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
    with pytest.raises(ValueError):
        PowerStep(1, 1, 0.0)
    with pytest.raises(ValueError):
        PowerStep(1, 1, 1.5)
    with pytest.raises(ValueError):
        PowerStep(-1, 1, 1)


def test_noise_scale_values():
    assert PowerNoise(1, 0.1, 0, 0).scale(16) == pytest.approx(16**0.1)
    assert GeometricNoise(1, 0.9).scale(2) == pytest.approx(0.81)
    assert ConstantNoise(2).scale(123456) == 2.0


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
        ConstantNoise(1.7),
    ],
)
def test_array_evaluation_matches_scalar(sched):
    f = sched.alpha if hasattr(sched, "alpha") else sched.scale
    ks = np.arange(200)
    got = f(ks)
    assert got.shape == ks.shape and got.dtype == np.float64
    # NumPy's array pow and the C library's scalar pow may differ in the last bit.
    np.testing.assert_allclose(got, [f(int(k)) for k in ks], rtol=2 * np.finfo(float).eps, atol=0)


def test_geometric_step_baseline_only():
    s = GeometricStep(0.8)
    assert s.alpha(3) == pytest.approx(0.512)
    with pytest.raises(ValueError):
        GeometricStep(1.0)


def test_validate_assumptions_verdicts():
    good = validate_assumptions(PowerStep(1, 1, 1.0), PowerNoise(1, 0.1, 1, 1))
    assert (good.satisfies_a, good.satisfies_b) == (True, True)
    a_only = validate_assumptions(PowerStep(1, 1, 0.4), PowerNoise(1, -0.2, 1, 0))
    assert (a_only.satisfies_a, a_only.satisfies_b) == (True, False)
    assert "alpha^2" in a_only.reason
    bad = validate_assumptions(PowerStep(1, 1, 1.0), PowerNoise(1, 0.6, 1, 0))
    assert (bad.satisfies_a, bad.satisfies_b) == (False, False)
    geo = validate_assumptions(PowerStep(1, 1, 0.9), GeometricNoise(1, 0.9))
    assert (geo.satisfies_a, geo.satisfies_b) == (True, True)
    const_bad = validate_assumptions(PowerStep(1, 1, 0.5), ConstantNoise(1))
    assert (const_bad.satisfies_a, const_bad.satisfies_b) == (False, False)


def test_sum_bound_direct_values():
    assert sum_alpha2_b2_bound(PowerStep(1, 1, 1.0), PowerNoise(1, 0.0, 1, 0)) == pytest.approx(2.0)
    assert sum_alpha2_b2_bound(PowerStep(0, 1, 1.0), PowerNoise(1, 0.0, 1, 0)) == 0.0
    with pytest.raises(DivergentSeriesError):
        sum_alpha2_b2_bound(PowerStep(1, 1, 1.0), PowerNoise(1, 0.5, 1, 0))


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
