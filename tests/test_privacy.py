import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus import privacy
from dpconsensus.experiments import named_config
from dpconsensus.graphs import check_structural_balance, spectrum
from dpconsensus.schedules import PowerNoise, PowerStep

from oracles import apply_update, epsilon_case2_paper, epsilon_finite_blocked, sensitivity_series


def offset1_noise(b_floor, gamma, a2):
    return PowerNoise(b_floor=b_floor, gamma=gamma, a2=a2, offset=1)


@st.composite
def accounting_setups(draw):
    """(sched, noise, c_min, delta) with a1*c_min < a2^beta and gamma < beta - 1/2."""
    a2 = draw(st.floats(0.5, 4.0))
    beta = draw(st.one_of(st.just(1.0), st.floats(0.51, 1.0)))
    c_min = draw(st.floats(0.5, 3.0))
    a1 = draw(st.floats(0.01, 0.99)) * a2**beta / c_min
    gamma = draw(st.floats(-1.0, beta - 0.5, exclude_max=True))
    noise = offset1_noise(draw(st.floats(0.1, 10.0)), gamma, a2)
    return PowerStep(a1, a2, beta), noise, c_min, draw(st.floats(0.1, 2.0))


class TestAccountingProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(setup=accounting_setups(), t1=st.integers(1, 3000), extra=st.integers(0, 3000))
    def test_epsilon_nondecreasing_in_horizon(self, setup, t1, extra):
        sched, noise, c_min, delta = setup
        shorter = privacy.epsilon_finite(sched, noise, c_min, delta, t1)
        longer = privacy.epsilon_finite(sched, noise, c_min, delta, t1 + extra)
        # Pairwise summation of <= 6000 nonnegative terms is exact to about
        # log2(6000) ulp; once the terms drop below an ulp the longer sum may
        # round one ulp lower.
        assert longer >= shorter * (1 - 64 * np.finfo(float).eps)

    @settings(max_examples=60, deadline=None, database=None)
    @given(setup=accounting_setups(), t=st.integers(1, 20_000))
    def test_epsilon_below_convergent_bound(self, setup, t):
        sched, noise, c_min, delta = setup
        bound = privacy.epsilon_infinity_bound(sched, noise, c_min, delta)
        if bound.convergent:
            assert privacy.epsilon_finite(sched, noise, c_min, delta, t) <= bound.value * (1 + 1e-12)

    @settings(max_examples=60, deadline=None, database=None)
    @given(setup=accounting_setups(), t=st.integers(1, 500), data=st.data())
    def test_sensitivity_matches_series(self, setup, t, data):
        # S(k) alone, as the last entry of a length-k series, is the series' k-th entry.
        sched, _, c_min, delta = setup
        k = data.draw(st.integers(1, t))
        series = sensitivity_series(t, sched, c_min, delta)
        assert sensitivity_series(k, sched, c_min, delta)[-1] == series[k - 1]


# Horizons on either side of block edges, or anywhere in the first three blocks.
_EDGES = (1, privacy._BLOCK, 2 * privacy._BLOCK, 3 * privacy._BLOCK)
_HORIZON = st.one_of(
    st.builds(lambda edge, d: max(1, edge + d), st.sampled_from(_EDGES), st.integers(-2, 2)),
    st.builds(lambda block, off: block * privacy._BLOCK + off, st.integers(0, 2), st.integers(1, privacy._BLOCK)),
)


class _ZeroAt:
    """b(k) = 1 except b(k0) = 0: no noise at one step in mid-stream."""

    def __init__(self, k0):
        self.k0 = k0

    def scale(self, k):
        return np.where(np.asarray(k) == self.k0, 0.0, 1.0)


class TestStreamedAccounting:
    """One pass to the largest horizon equals a blocked pass per horizon, bit for bit."""

    @settings(max_examples=25, deadline=None, database=None)
    @given(
        setup=accounting_setups(),
        offset=st.sampled_from([0, 1]),
        hs=st.lists(_HORIZON, min_size=1, max_size=4),
        data=st.data(),
    )
    def test_report_and_finite_equal_blocked_oracle(self, setup, offset, hs, data):
        sched, noise, c_min, delta = setup
        noise = PowerNoise(noise.b_floor, noise.gamma, noise.a2, offset=offset)
        hs = data.draw(st.permutations(hs + hs[:1]))  # unsorted, with a repeat
        expected = [epsilon_finite_blocked(sched, noise, c_min, delta, h) for h in hs]
        rep = privacy.privacy_report(sched, noise, c_min, delta, horizons=hs)
        assert list(rep.epsilon_at) == expected
        assert [privacy.epsilon_finite(sched, noise, c_min, delta, h) for h in hs] == expected

    @pytest.mark.parametrize(
        "noise, finite",
        [(offset1_noise(0.0, 0.1, 1.0), 0), (_ZeroAt(privacy._BLOCK + 5), 3)],
        ids=["b_floor-0", "zero-mid-stream"],
    )
    def test_zero_scale_is_infinite_from_its_step_on(self, noise, finite):
        sched = PowerStep(0.3, 1.0, 1.0)
        hs = (privacy._BLOCK + 1, 1, privacy._BLOCK + 4, privacy._BLOCK + 5, 3 * privacy._BLOCK)
        rep = privacy.privacy_report(sched, noise, 1.0, 1.0, horizons=hs)
        expected = [epsilon_finite_blocked(sched, noise, 1.0, 1.0, h) for h in hs]
        assert list(rep.epsilon_at) == expected
        assert sum(map(math.isfinite, expected)) == finite
        assert not rep.infinity.convergent
        assert [privacy.epsilon_finite(sched, noise, 1.0, 1.0, h) for h in hs] == expected

    def test_early_stop_once_sensitivity_underflows(self):
        # At beta = 1/2, S(k) ~ exp(-sqrt(k)) drops below 1e-300 after about
        # 476,000 steps, so the pass stops at the end of that block and every
        # longer horizon stops there.
        sched = PowerStep(0.5, 1.0, 0.5)
        noise = offset1_noise(1.0, 0.5, 1.0)
        hs = (10_000_000, 1000, 3_000_017, 1_000_001)
        rep = privacy.privacy_report(sched, noise, 1.0, 1.0, horizons=hs)
        expected = [epsilon_finite_blocked(sched, noise, 1.0, 1.0, h) for h in hs]
        assert list(rep.epsilon_at) == expected
        assert expected[0] == expected[2] == expected[3] > expected[1]


class TestSensitivity:
    def test_first_step_is_delta(self):
        sched = PowerStep(0.3, 1.0, 1.0)
        assert sensitivity_series(1, sched, c_min=2.0, delta=1.0)[-1] == 1.0
        assert sensitivity_series(1, sched, c_min=2.0, delta=0.5)[-1] == 0.5

    def test_hand_computed_product(self):
        # a1=0.3, a2=1, beta=1, c_min=2: factors (1-0.6), (1-0.3)
        sched = PowerStep(0.3, 1.0, 1.0)
        got = sensitivity_series(3, sched, c_min=2.0, delta=1.0)[-1]
        assert got == pytest.approx(0.4 * 0.7, rel=1e-14)

    def test_series_matches_scalar(self):
        sched = PowerStep(0.2, 2.0, 0.8)
        series = sensitivity_series(50, sched, c_min=1.5, delta=2.0)
        for k in (1, 2, 10, 50):
            scalar = 2.0 * math.prod(1.0 - 1.5 * sched.alpha(l) for l in range(k - 1))
            assert series[k - 1] == pytest.approx(scalar, rel=1e-13)

    def test_monotone_decreasing_when_contractive(self):
        sched = PowerStep(0.4, 1.0, 1.0)
        series = sensitivity_series(200, sched, c_min=1.0, delta=1.0)
        assert np.all(np.diff(series) < 0)
        assert np.all(series > 0)

    def test_matches_coupled_trajectory_gap(self):
        # Two runs with identical shared observations y: the state gap obeys
        # d(k+1) = (1 - alpha(k) c_i) d(k) exactly, so the worst-agent gap
        # equals the c_min-based sensitivity when the perturbed agent has
        # degree c_min.
        rng = np.random.default_rng(5)
        weights = np.array(
            [
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 1.0, 0.0, -1.0],
                [0.0, 1.0, 0.0, -1.0, 0.0],
            ]
        )
        degrees = np.abs(weights).sum(axis=1)
        c_min = degrees.min()
        agent = int(np.argmin(degrees))  # degree-1 agent
        delta = 0.7
        sched = PowerStep(0.3, 1.0, 1.0)
        x_a = rng.normal(size=5)
        x_b = x_a.copy()
        x_b[agent] += delta
        series = sensitivity_series(13, sched, c_min, delta)
        for k in range(12):
            y = x_a + rng.laplace(scale=1.0, size=5)  # shared observations
            alpha_k = sched.alpha(k)
            x_a = apply_update(x_a, weights, alpha_k, y)
            x_b = apply_update(x_b, weights, alpha_k, y)
            gap = abs(x_b[agent] - x_a[agent])
            expect = series[k + 1]  # S(k + 2)
            assert gap == pytest.approx(expect, rel=1e-12)
            # other agents never diverge: they see the same observations
            others = np.delete(np.abs(x_b - x_a), agent)
            assert np.all(others == 0.0)


class TestEpsilonFinite:
    def test_single_step(self):
        sched = PowerStep(0.3, 1.0, 1.0)
        noise = offset1_noise(2.0, 0.5, 1.0)
        got = privacy.epsilon_finite(sched, noise, 1.0, delta=1.0, horizon=1)
        assert got == pytest.approx(1.0 / noise.scale(1), rel=1e-14)

    def test_zero_step_constant_noise(self):
        # alpha == 0 keeps S(k) = delta forever, so epsilon(T) = delta*T/b.
        sched = PowerStep(0.0, 1.0, 1.0)
        got = privacy.epsilon_finite(sched, PowerNoise(2.0, 0.0, a2=1.0), 1.0, 1.0, horizon=400)
        assert got == pytest.approx(400 / 2.0, rel=1e-13)

    def test_matches_naive_sum(self):
        sched = PowerStep(0.3, 1.0, 1.0)
        noise = offset1_noise(1.5, -0.2, 1.0)
        c_min, delta, t = 2.0, 1.3, 500
        series = sensitivity_series(t, sched, c_min, delta)
        naive = sum(series[k - 1] / noise.scale(k) for k in range(1, t + 1))
        got = privacy.epsilon_finite(sched, noise, c_min, delta, t)
        assert got == pytest.approx(naive, rel=1e-12)

    def test_monotone_in_horizon(self):
        sched = PowerStep(0.5, 1.0, 1.0)
        noise = offset1_noise(1.0, 0.6, 1.0)
        vals = [
            privacy.epsilon_finite(sched, noise, 1.0, 1.0, h) for h in (1, 10, 100, 1000)
        ]
        assert vals == sorted(vals)

    def test_decreasing_in_noise_floor(self):
        sched = PowerStep(0.5, 1.0, 1.0)
        lo = privacy.epsilon_finite(sched, offset1_noise(1.0, 0.6, 1.0), 1.0, 1.0, 100)
        hi = privacy.epsilon_finite(sched, offset1_noise(4.0, 0.6, 1.0), 1.0, 1.0, 100)
        assert hi == pytest.approx(lo / 4.0, rel=1e-12)

    def test_zero_scale_gives_infinite_loss(self):
        sched = PowerStep(0.3, 1.0, 1.0)
        noise = PowerNoise(b_floor=0.0, gamma=0.0, a2=1.0, offset=1)
        assert privacy.epsilon_finite(sched, noise, 1.0, 1.0, 10) == math.inf

    def test_long_horizon_early_stop(self):
        # With beta < 1 the sensitivity decays like exp(-sqrt(k)) and
        # underflows well before 2M steps, triggering the early break; the
        # loss must then agree across horizons many blocks apart.
        sched = PowerStep(0.5, 1.0, 0.5)
        noise = offset1_noise(1.0, 0.5, 1.0)
        short = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 2_000_000)
        long = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 10_000_000)
        assert long == pytest.approx(short, rel=1e-12)


def _bound_50_digits(a1, a2, beta, gamma):
    """The beta < 1 closed form at b_floor = c_min = delta = 1, in 50-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a1, a2, beta, gamma = map(mpmath.mpf, (a1, a2, beta, gamma))
        shape, z = (1 - gamma) / (1 - beta), a1 * a2 ** (1 - beta) / (1 - beta)
        rest = mpmath.exp(z) / (1 - beta) * (a1 / (1 - beta)) ** -shape * mpmath.gammainc(shape, z)
        x_peak = (-gamma / a1) ** (-1 / beta) if gamma < 0 else 0
        if x_peak - a2 + 1 >= 2:
            rest += mpmath.exp(z) * (-gamma / a1) ** (gamma / beta) * mpmath.exp(gamma / (1 - beta) * x_peak)
        return float(a2**-gamma + rest)


class TestEpsilonInfinity:
    def test_case1_tag_and_dominates_finite(self):
        sched = PowerStep(0.95, 1.0, 1.0)
        noise = offset1_noise(1.0, 0.3, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case1" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)
        assert bound.value >= fin

    def test_negative_gamma_at_beta_one_is_case1_and_dominates_finite(self):
        # Needs a1*c_min > 1 - gamma, which the contraction condition only
        # allows once a2 > 1.
        sched = PowerStep(0.9, 2.0, 1.0)
        noise = offset1_noise(1.0, -0.3, 2.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, c_min=2.0, delta=1.0)
        assert bound.case == "case1" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 2.0, 1.0, 1_000_000)
        assert bound.value >= fin

    def test_case3_tag_and_dominates_finite(self):
        sched = PowerStep(0.5, 1.0, 0.7)
        noise = offset1_noise(1.0, 0.2, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case3" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)
        assert bound.value >= fin

    def test_case3_covers_gamma_of_one_and_above(self):
        # Shape (1 - gamma) / (1 - beta) <= 0 here, which the continued
        # fraction covers; the bound must still dominate the loss at T = 1e6.
        sched, noise = PowerStep(0.5, 1.0, 0.75), offset1_noise(1.0, 1.0, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case3" and bound.convergent
        assert bound.value == pytest.approx(2.445, abs=1e-3)
        assert privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000) == pytest.approx(1.680, abs=1e-3)
        rng = np.random.default_rng(24)
        for _ in range(20):
            beta, a2, c_min = rng.uniform(0.51, 0.99), rng.uniform(0.5, 4.0), rng.uniform(0.5, 3.0)
            sched = PowerStep(rng.uniform(0.01, 0.99) * a2**beta / c_min, a2, beta)
            noise, delta = offset1_noise(rng.uniform(0.1, 10.0), rng.uniform(1.0, 3.0), a2), rng.uniform(0.1, 2.0)
            bound = privacy.epsilon_infinity_bound(sched, noise, c_min, delta)
            assert bound.case == "case3" and bound.convergent
            assert bound.value >= privacy.epsilon_finite(sched, noise, c_min, delta, 1_000_000)

    def test_case4_tag_and_dominates_finite(self):
        sched = PowerStep(0.5, 1.0, 0.7)
        noise = offset1_noise(1.0, -0.4, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case4" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)
        assert bound.value >= fin

    def test_divergent_branch(self):
        # beta = 1 with a1*c_min + gamma <= 1 gives no finite bound.
        sched = PowerStep(0.3, 1.0, 1.0)
        noise = offset1_noise(1.0, 0.1, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "divergent"
        assert not bound.convergent and math.isinf(bound.value)

    def test_beta_one_continuity_at_gamma_zero(self):
        sched = PowerStep(0.95, 2.0, 1.0)
        plus = privacy.epsilon_infinity_bound(
            sched, offset1_noise(1.0, 1e-6, 2.0), 2.0, 1.0
        )
        minus = privacy.epsilon_infinity_bound(
            sched, offset1_noise(1.0, -1e-6, 2.0), 2.0, 1.0
        )
        assert plus.case == "case1" and minus.case == "case1"
        assert minus.value == pytest.approx(plus.value, rel=1e-5)

    def test_negative_gamma_at_beta_one_is_the_case1_expression(self):
        a1, a2, gamma, c_min, bf, delta = 0.9, 2.0, -0.3, 2.0, 1.5, 0.7
        bound = privacy.epsilon_infinity_bound(
            PowerStep(a1, a2, 1.0), offset1_noise(bf, gamma, a2), c_min, delta
        )
        acm = a1 * c_min
        first = delta / (bf * a2**gamma)
        rest = delta * (1 + a2) ** acm * a2 ** (1 - acm - gamma) / (bf * (acm + gamma - 1))
        assert bound.case == "case1" and bound.value == first + rest

    def test_beta_one_bound_is_below_the_papers_negative_gamma_form(self):
        # The paper's floor(-gamma)-term series for beta = 1, gamma < 0 is a
        # valid bound; the one form for every gamma is never above it.
        rng = np.random.default_rng(22)
        for _ in range(2000):
            a2 = rng.uniform(1.05, 6.0)
            gamma = rng.uniform(1.0 - a2, 0.0)
            acm = rng.uniform(1.0 - gamma, a2)
            c_min, bf, delta = rng.uniform(0.5, 3.0), rng.uniform(0.1, 10.0), rng.uniform(0.1, 2.0)
            sched, noise = PowerStep(acm / c_min, a2, 1.0), offset1_noise(bf, gamma, a2)
            bound = privacy.epsilon_infinity_bound(sched, noise, c_min, delta)
            assert bound.case == "case1"
            assert bound.value <= epsilon_case2_paper(sched, noise, c_min, delta)

    def test_beta_one_termwise_envelope(self):
        # S(k)/b(k) <= (delta/b_floor) a2^acm (k - 1 + a2)^-(acm + gamma) for
        # k >= 2 and either sign of gamma: the step the beta = 1 bound sums.
        rng = np.random.default_rng(23)
        k = np.arange(2, 100_001, dtype=float)
        convergent = 0
        for _ in range(200):
            a2, gamma, c_min = rng.uniform(0.5, 5.0), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 3.0)
            acm = rng.uniform(0.0, 1.0) * a2
            sched, noise = PowerStep(acm / c_min, a2, 1.0), offset1_noise(1.0, gamma, a2)
            q = sensitivity_series(100_000, sched, c_min, 1.0)[1:] / noise.scale(k)
            envelope = a2**acm * (k - 1 + a2) ** -(acm + gamma)
            assert np.all(q <= envelope * (1 + 1e-12))
            if acm + gamma > 1.0:
                # The envelope's sum over k >= 2 is at most a2^(1 - gamma)/(acm + gamma - 1).
                bound = privacy.epsilon_infinity_bound(sched, noise, c_min, 1.0)
                assert bound.case == "case1"
                assert a2**-gamma + a2 ** (1 - gamma) / (acm + gamma - 1) <= bound.value
                convergent += 1
        assert convergent >= 20

    def test_float_range_edges(self):
        # Near beta = 1 with a1*c_min + gamma < 1 the bound itself (about
        # 1e8391 here) leaves the float range: no finite bound, no crash.
        near_one = privacy.epsilon_infinity_bound(
            PowerStep(0.5, 1.0, 0.99999), offset1_noise(1.0, 0.0, 1.0), 1.0, 1.0
        )
        assert near_one.case == "overflow" and not near_one.convergent
        assert math.isinf(near_one.value)
        # gamma -> 0-: the interior peak recedes to infinity and adds nothing.
        sched = PowerStep(0.5, 1.0, 0.75)
        tiny = privacy.epsilon_infinity_bound(sched, offset1_noise(1.0, -1e-300, 1.0), 1.0, 1.0)
        flat = privacy.epsilon_infinity_bound(sched, offset1_noise(1.0, 0.0, 1.0), 1.0, 1.0)
        assert tiny.case == "case4" and tiny.value == pytest.approx(flat.value, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.999, 0.9999, 0.99999])
    @pytest.mark.parametrize(
        "a1, a2, gamma, case", [(0.9, 1.0, 0.6, "case3"), (2.9, 3.0, -0.3, "case4")]
    )
    def test_near_one_matches_50_digit_oracle(self, a1, a2, gamma, case, beta):
        # e^z overflows for these beta; the bound itself is a few units.
        # (z/shape >= 2 keeps mpmath's 2F0 series for gammainc convergent.)
        bound = privacy.epsilon_infinity_bound(
            PowerStep(a1, a2, beta), offset1_noise(1.0, gamma, a2), 1.0, 1.0
        )
        assert bound.case == case and bound.convergent
        assert bound.value == pytest.approx(_bound_50_digits(a1, a2, beta, gamma), rel=1e-10)

    def test_random_sublinear_points_match_50_digit_oracle(self):
        # beta uniform over [0.51, 0.9999], so mostly away from 1; the corner
        # near 1, where mpmath's gammainc is slow, is the parametrized test above.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            beta = rng.uniform(0.51, 0.9999)
            a2 = rng.uniform(1.0, 4.0)
            a1 = rng.uniform(0.05, 0.95) * a2**beta
            gamma = rng.uniform(-1.0, 0.95)
            bound = privacy.epsilon_infinity_bound(
                PowerStep(a1, a2, beta), offset1_noise(1.0, gamma, a2), 1.0, 1.0
            )
            ref = _bound_50_digits(a1, a2, beta, gamma)
            if bound.case == "overflow":
                assert math.isinf(ref)
                continue
            assert bound.case == ("case3" if gamma >= 0 else "case4")
            assert bound.value == pytest.approx(ref, rel=1e-10)
            checked += 1
        assert checked >= 200

    def test_no_contraction_takes_the_beta_one_forms(self):
        # a1 = 0: S(k) = delta for all k, so beta plays no part and the loss
        # is a plain p-series in gamma.
        sched = PowerStep(0.0, 1.0, 0.8)
        divergent = privacy.epsilon_infinity_bound(sched, offset1_noise(1.0, 0.1, 1.0), 1.0, 1.0)
        assert divergent.case == "divergent" and math.isinf(divergent.value)
        noise = offset1_noise(1.0, 1.5, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case1" and bound.convergent
        assert bound.value >= privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)

    def test_underflowing_power_keeps_the_integral_term(self):
        # c^-shape = 390^-125 underflows to 0; that dropped the integral term
        # and left a "bound" below the loss at T = 1e6.
        sched, noise = PowerStep(3.9, 4.0, 0.99), offset1_noise(1.0, -0.25, 4.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case4"
        assert bound.value == pytest.approx(_bound_50_digits(3.9, 4.0, 0.99, -0.25), rel=1e-10)
        assert bound.value > privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)

    def test_contraction_guard(self):
        sched = PowerStep(1.0, 1.0, 1.0)
        noise = offset1_noise(1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="too aggressive"):
            privacy.epsilon_infinity_bound(sched, noise, c_min=2.0, delta=1.0)

    def test_requires_shared_offset_one_power_noise(self):
        sched = PowerStep(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            privacy.epsilon_infinity_bound(
                sched, PowerNoise(1.0, 0.5, a2=1.0, offset=0), 1.0, 1.0
            )
        with pytest.raises(ValueError):
            privacy.epsilon_infinity_bound(
                sched, PowerNoise(1.0, 0.5, a2=3.0, offset=1), 1.0, 1.0
            )
        with pytest.raises(ValueError):
            privacy.epsilon_infinity_bound(sched, PowerNoise(1.0, 0.0, a2=1.0), 1.0, 1.0)


class TestDesignCheck:
    def test_loose_target_feasible(self):
        sched = PowerStep(0.5, 1.0, 0.7)
        noise = offset1_noise(1.0, 0.2, 1.0)
        ok, bound = privacy.check_epsilon_design(sched, noise, 1.0, 1.0, 1e18)
        assert ok and bound.convergent

    def test_target_below_first_step_infeasible(self):
        sched = PowerStep(0.5, 1.0, 0.7)
        noise = offset1_noise(1.0, 0.2, 1.0)
        # epsilon(1) alone is delta/b(1) = 1, so a target below that fails.
        ok, _ = privacy.check_epsilon_design(sched, noise, 1.0, 1.0, 0.5)
        assert not ok


class TestReport:
    def test_report_fields(self):
        sched = PowerStep(0.95, 1.0, 1.0)
        noise = offset1_noise(1.0, 0.3, 1.0)
        rep = privacy.privacy_report(sched, noise, 1.0, 1.0, horizons=(10, 1000))
        assert rep.horizons == (10, 1000)
        assert rep.epsilon_at[0] < rep.epsilon_at[1] <= rep.infinity.value
        assert rep.params["beta"] == 1.0

    def test_report_survives_invalid_closed_form(self):
        sched = PowerStep(1.0, 1.0, 1.0)  # violates the contraction condition
        noise = offset1_noise(1.0, 0.3, 1.0)
        rep = privacy.privacy_report(sched, noise, c_min=2.0, delta=1.0, horizons=(5,))
        assert rep.infinity.case == "no-case-applies"
        assert math.isnan(rep.infinity.value)
        assert np.isfinite(rep.epsilon_at[0])

    def test_noise_overflowing_past_the_horizon_counts_as_zero_terms(self):
        # b(k) = 1e306 * k^0.4 overflows to inf from k ~ 4.3e5: Lap(0, inf)
        # releases nothing, so those steps add 0, and no warning is raised.
        sched, noise = PowerStep(0.5, 1.0, 1.0), offset1_noise(1e306, 0.4, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = privacy.privacy_report(sched, noise, 1.0, 1.0)
        terms, s_k = [], 1.0
        for k in range(1, 10**6 + 1):
            terms.append(s_k / (1e306 * float(k) ** 0.4))  # a Python float: inf past the range
            s_k *= 1.0 - 0.5 / k
        assert terms[-1] == 0.0
        assert rep.epsilon_at[1] == pytest.approx(math.fsum(terms[: 10**4]), rel=1e-12, abs=0)
        assert rep.epsilon_at[2] == pytest.approx(math.fsum(terms), rel=1e-12, abs=0)


def _shipped_accounting(name):
    """(sched, noise, c_min, delta) as ``privacy report --config name`` builds them."""
    cfg = named_config(name)
    c_min = spectrum(cfg.graph, check_structural_balance(cfg.graph)).c_min
    noise = PowerNoise(cfg.noise.b_floor, cfg.noise.gamma, cfg.step.a2, offset=1)
    return cfg.step, noise, c_min, cfg.design.delta if cfg.design else 1.0


_FIG2A_PIN = ("0x1.40bf18195d969p+4", "0x1.423706bb49e12p+8", "0x1.3f747b1e10d6ep+12", "0x1.3df51ea7cd2e2p+14")

# (sched, noise, c_min, delta) builders for the pinned setups, by test id.
_PINNED_SETUPS = {
    "fig2a": lambda: _shipped_accounting("fig2a"),
    "fig2_caption": lambda: _shipped_accounting("fig2_caption"),
    "fig3a": lambda: _shipped_accounting("fig3a"),
    "sec4_text": lambda: _shipped_accounting("sec4_text"),
    "beta-0.8": lambda: (PowerStep(0.7, 1.5, 0.8), offset1_noise(2.0, -0.3, 1.5), 0.9, 0.5),
    "offset1-a2-0.6": lambda: (PowerStep(0.4, 0.6, 1.0), offset1_noise(1.0, 0.2, 0.6), 1.0, 1.0),
}


@pytest.mark.parametrize(
    "setup, pinned",
    [
        (_PINNED_SETUPS["fig2a"], _FIG2A_PIN),
        (_PINNED_SETUPS["fig2_caption"], _FIG2A_PIN),
        (_PINNED_SETUPS["fig3a"], ("0x1.0000000000000p+0",) * 4),
        (
            _PINNED_SETUPS["sec4_text"],
            ("0x1.1163ec0c27f09p+3", "0x1.be669bb013780p+5", "0x1.61f1844ba00edp+8", "0x1.bccc7462ab4e5p+9"),
        ),
        (
            _PINNED_SETUPS["beta-0.8"],
            ("0x1.564c6ecbacb80p+1", "0x1.c5662f09ce3acp+1", "0x1.c576b7c947633p+1", "0x1.c576b7c947640p+1"),
        ),
        (
            _PINNED_SETUPS["offset1-a2-0.6"],
            ("0x1.61ffdadeca80cp+2", "0x1.05a67c9079f9bp+5", "0x1.984029c4da0d2p+7", "0x1.000d05d35f550p+9"),
        ),
    ],
    ids=list(_PINNED_SETUPS),
)
def test_report_epsilon_pinned_bit_for_bit(setup, pinned):
    # The blocked oracle calls the same alpha and scale, so it cannot see a
    # change in how they round; these pins, at the default horizons up to
    # T = 1e7, can.
    rep = privacy.privacy_report(*setup())
    assert tuple(e.hex() for e in rep.epsilon_at) == pinned


@pytest.mark.parametrize("setup", list(_PINNED_SETUPS.values()), ids=list(_PINNED_SETUPS))
def test_epsilon_across_blocks_matches_fsum(setup):
    # An independent sum: S(k) by sequential scalar products, b(k) one step
    # at a time, and an exactly rounded total; it shares none of the
    # streamed pass's grouping.
    sched, noise, c_min, delta = setup()
    t = 3 * privacy._BLOCK + 17
    terms, s_k = [], delta
    for k in range(1, t + 1):
        terms.append(s_k / noise.scale(k))
        s_k *= 1.0 - c_min * sched.alpha(k - 1)
    assert privacy.epsilon_finite(sched, noise, c_min, delta, t) == pytest.approx(math.fsum(terms), rel=1e-12, abs=0)
