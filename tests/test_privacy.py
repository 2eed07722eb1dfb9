import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus import privacy
from dpconsensus.schedules import ConstantNoise, PowerNoise, PowerStep

from oracles import apply_update


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
        sched, _, c_min, delta = setup
        k = data.draw(st.integers(1, t))
        series = privacy.sensitivity_series(t, sched, c_min, delta)
        assert privacy.sensitivity(k, sched, c_min, delta) == series[k - 1]


class TestSensitivity:
    def test_first_step_is_delta(self):
        sched = PowerStep(0.3, 1.0, 1.0)
        assert privacy.sensitivity(1, sched, c_min=2.0, delta=1.0) == 1.0
        assert privacy.sensitivity(1, sched, c_min=2.0, delta=0.5) == 0.5

    def test_hand_computed_product(self):
        # a1=0.3, a2=1, beta=1, c_min=2: factors (1-0.6), (1-0.3)
        sched = PowerStep(0.3, 1.0, 1.0)
        got = privacy.sensitivity(3, sched, c_min=2.0, delta=1.0)
        assert got == pytest.approx(0.4 * 0.7, rel=1e-14)

    def test_series_matches_scalar(self):
        sched = PowerStep(0.2, 2.0, 0.8)
        series = privacy.sensitivity_series(50, sched, c_min=1.5, delta=2.0)
        for k in (1, 2, 10, 50):
            assert series[k - 1] == pytest.approx(
                privacy.sensitivity(k, sched, c_min=1.5, delta=2.0), rel=1e-13
            )

    def test_monotone_decreasing_when_contractive(self):
        sched = PowerStep(0.4, 1.0, 1.0)
        series = privacy.sensitivity_series(200, sched, c_min=1.0, delta=1.0)
        assert np.all(np.diff(series) < 0)
        assert np.all(series > 0)

    def test_invalid_step_index(self):
        with pytest.raises(ValueError):
            privacy.sensitivity(0, PowerStep(0.3, 1.0, 1.0), 1.0, 1.0)

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
        for k in range(12):
            y = x_a + rng.laplace(scale=1.0, size=5)  # shared observations
            alpha_k = sched.alpha(k)
            x_a = apply_update(x_a, weights, alpha_k, y)
            x_b = apply_update(x_b, weights, alpha_k, y)
            gap = abs(x_b[agent] - x_a[agent])
            expect = privacy.sensitivity(k + 2, sched, c_min, delta)
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
        got = privacy.epsilon_finite(sched, ConstantNoise(2.0), 1.0, 1.0, horizon=400)
        assert got == pytest.approx(400 / 2.0, rel=1e-13)

    def test_matches_naive_sum(self):
        sched = PowerStep(0.3, 1.0, 1.0)
        noise = offset1_noise(1.5, -0.2, 1.0)
        c_min, delta, t = 2.0, 1.3, 500
        naive = sum(
            privacy.sensitivity(k, sched, c_min, delta) / noise.scale(k)
            for k in range(1, t + 1)
        )
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

    def test_long_horizon_chunking(self):
        # With beta < 1 the sensitivity decays like exp(-sqrt(k)) and
        # underflows well before 2M steps, triggering the early break; the
        # loss must then agree across horizons spanning chunk boundaries.
        sched = PowerStep(0.5, 1.0, 0.5)
        noise = offset1_noise(1.0, 0.5, 1.0)
        short = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 2_000_000)
        long = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 10_000_000)
        assert long == pytest.approx(short, rel=1e-12)


class TestEpsilonInfinity:
    def test_case1_tag_and_dominates_finite(self):
        sched = PowerStep(0.95, 1.0, 1.0)
        noise = offset1_noise(1.0, 0.3, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case1" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)
        assert bound.value >= fin

    def test_case2_tag_and_dominates_finite(self):
        # Needs a1*c_min > 1 - gamma, which the contraction condition only
        # allows once a2 > 1.
        sched = PowerStep(0.9, 2.0, 1.0)
        noise = offset1_noise(1.0, -0.3, 2.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, c_min=2.0, delta=1.0)
        assert bound.case == "case2" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 2.0, 1.0, 1_000_000)
        assert bound.value >= fin

    def test_case3_tag_and_dominates_finite(self):
        sched = PowerStep(0.5, 1.0, 0.7)
        noise = offset1_noise(1.0, 0.2, 1.0)
        bound = privacy.epsilon_infinity_bound(sched, noise, 1.0, 1.0)
        assert bound.case == "case3" and bound.convergent
        fin = privacy.epsilon_finite(sched, noise, 1.0, 1.0, 1_000_000)
        assert bound.value >= fin

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

    def test_case2_continuity_at_gamma_zero(self):
        sched = PowerStep(0.95, 2.0, 1.0)
        plus = privacy.epsilon_infinity_bound(
            sched, offset1_noise(1.0, 1e-6, 2.0), 2.0, 1.0
        )
        minus = privacy.epsilon_infinity_bound(
            sched, offset1_noise(1.0, -1e-6, 2.0), 2.0, 1.0
        )
        assert plus.case == "case1" and minus.case == "case2"
        assert minus.value == pytest.approx(plus.value, rel=0.05)

    def test_float_range_edges(self):
        # Near beta = 1, e^z and Gamma(shape) overflow: no finite bound, no crash.
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
            privacy.epsilon_infinity_bound(sched, ConstantNoise(1.0), 1.0, 1.0)


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
