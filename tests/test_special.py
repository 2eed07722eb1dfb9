import math
import timeit
from unittest import mock

import numpy as np
import pytest
from scipy import integrate
from scipy import special as ssp

from dpconsensus import special
from dpconsensus.special import log_scaled_upper_gamma, t975

from conftest import upper_incomplete_gamma


def test_exponential_identity():
    # Gamma(1, z) = exp(-z)
    assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(0.05, 30.0)
        z = rng.uniform(0.0, 50.0)
        ref = ssp.gammaincc(a, z) * ssp.gamma(a)
        assert upper_incomplete_gamma(a, z) == pytest.approx(ref, rel=1e-10, abs=1e-300)


def test_recurrence():
    # Gamma(a+1, z) = a*Gamma(a, z) + z^a * exp(-z)
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = rng.uniform(0.1, 20.0)
        z = rng.uniform(0.0, 30.0)
        lhs = upper_incomplete_gamma(a + 1.0, z)
        rhs = a * upper_incomplete_gamma(a, z) + z**a * math.exp(-z)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_integral_substitution_identity():
    # int_1^inf x^-g exp(-v x^(1-b)) dx
    #   = v^(-(1-g)/(1-b)) / (1-b) * Gamma((1-g)/(1-b), v)
    g, b, v = 0.3, 0.6, 1.2
    left = integrate.quad(lambda x: x**-g * math.exp(-v * x ** (1 - b)), 1, np.inf)[0]
    shape = (1 - g) / (1 - b)
    right = v**-shape / (1 - b) * upper_incomplete_gamma(shape, v)
    assert left == pytest.approx(right, rel=1e-8)


def test_domain_errors():
    with pytest.raises(ValueError):
        log_scaled_upper_gamma(1.0, -0.5)
    with pytest.raises(ValueError):
        log_scaled_upper_gamma(0.0, 0.0)


def test_log_scaled_matches_direct_form():
    # log(e^z z^-a Gamma(a, z)) against mpmath's gammainc, on both branches,
    # and for shapes down to -4, which take the continued fraction at any z.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    draws = [(rng.uniform(0.05, 30.0), rng.uniform(0.01, 60.0)) for _ in range(200)]
    draws += [(rng.uniform(-4.0, 0.05), rng.uniform(0.05, 60.0)) for _ in range(100)]
    for a, z in draws:
        with mpmath.workdps(50):
            ref = mpmath.log(mpmath.exp(z) * mpmath.power(z, -a) * mpmath.gammainc(a, z))
        assert log_scaled_upper_gamma(a, z) == pytest.approx(float(ref), rel=1e-12, abs=1e-12)


def test_unconverged_fraction_raises():
    # Near z = 0 the fraction needs many terms; cut short, it raises rather
    # than return a partial value.
    assert math.isfinite(log_scaled_upper_gamma(-0.5, 0.05))
    with mock.patch.object(special, "_MAX_ITER", 50), pytest.raises(ValueError, match="converge"):
        log_scaled_upper_gamma(-0.5, 0.05)


@pytest.mark.parametrize("a", [1e6, 1e7, 1e8])
def test_log_scaled_large_shape_just_below_a(a):
    # At z = a - 10 the power series cancels in 1 - P (an error of 2.5e-9 at
    # a = 1e6) and, from about a = 1e6 on, runs out of terms (1.5e-3 at 1e7,
    # 0.28 at 1e8); the continued fraction converges there to full precision.
    mpmath = pytest.importorskip("mpmath")
    z = a - 10.0
    with mpmath.workdps(40):
        ref = mpmath.log(mpmath.exp(z) * mpmath.power(z, -a) * mpmath.gammainc(a, z))
    assert log_scaled_upper_gamma(a, z) == pytest.approx(float(ref), rel=1e-12)


def test_unconverged_series_raises():
    # A large shape with z a few sqrt(a) below it needs more series terms than
    # _MAX_ITER and lies outside the fraction's range: it raises rather than
    # return the cut-short sum.
    assert math.isfinite(log_scaled_upper_gamma(30.0, 25.0))
    with mock.patch.object(special, "_MAX_ITER", 20), pytest.raises(ValueError, match="converge"):
        log_scaled_upper_gamma(30.0, 25.0)
    with pytest.raises(ValueError, match="converge"):
        log_scaled_upper_gamma(1e7, 1e7 - 1e4)


@pytest.mark.parametrize("a, z", [(7e4, 1.5e5), (7e3, 2e4), (300.0, 100.0)])
def test_log_scaled_beyond_float_range(a, z):
    # e^z and Gamma(a, z) overflow here; their scaled product does not.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = mpmath.log(mpmath.exp(z) * mpmath.power(z, -a) * mpmath.gammainc(a, z))
        assert log_scaled_upper_gamma(a, z) == pytest.approx(float(ref), rel=1e-12)


def _t975_mpmath(dof, mpmath):
    """The 97.5% t point at 50 digits: the root of P(|T| > t) = I_x(dof/2, 1/2) = 0.05."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(dof)
        tail = lambda t: mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) - mpmath.mpf("0.05")
        return mpmath.findroot(tail, mpmath.mpf(t975(dof)))


@pytest.mark.parametrize(
    "dofs",
    [range(1, 61), sorted({round(d) for d in np.logspace(np.log10(61), 7, 36)} | {999, 1000})],
    ids=["1-60", "log-spaced"],
)
def test_t975_against_mpmath(dofs):
    mpmath = pytest.importorskip("mpmath")
    for dof in dofs:
        ref = _t975_mpmath(dof, mpmath)
        assert abs(t975(dof) - ref) <= 1e-13 * ref, dof


def test_t975_against_scipy():
    got = np.array([t975(dof) for dof in range(1, 5001)])
    ref = ssp.stdtrit(np.arange(1, 5001), 0.975)
    assert np.all(np.abs(got - ref) <= 1e-13 * ref)


@pytest.mark.parametrize("dof", [1, 2, 998, 999, 1000, 10**7])
def test_t975_costs_under_a_millisecond(dof):
    # Below dof = 1000 each Newton step sums about dof / 2 terms; the best of
    # five timings keeps a busy host from failing the test.
    best = min(timeit.timeit(lambda: t975(dof), number=10) / 10 for _ in range(5))
    assert best <= 1e-3


@pytest.mark.parametrize("dof", [0, -1])
def test_t975_rejects_dof_below_one(dof):
    with pytest.raises(ValueError):
        t975(dof)
