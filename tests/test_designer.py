import math

import numpy as np
import pytest

from dpconsensus import designer
from dpconsensus.designer import (
    DesignTarget,
    as_exponent_infimum,
    check_accuracy_design,
    default_grid,
    design_search,
    predict_as_rate,
    predict_ms_rate,
)
from dpconsensus.engine import limit_statistics
from dpconsensus.graphs import spectrum
from dpconsensus.schedules import DivergentSeriesError, PowerNoise, PowerStep

SEC4_TARGET = DesignTarget(s_star=0.59, r_star=9.0, epsilon_star=2.5, delta=1.0)


class TestTarget:
    def test_valid(self):
        t = SEC4_TARGET
        assert t.s_star == 0.59 and t.r_star == 9.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s_star=-0.1, r_star=1.0, epsilon_star=1.0, delta=1.0),
            dict(s_star=1.5, r_star=1.0, epsilon_star=1.0, delta=1.0),
            dict(s_star=0.5, r_star=0.0, epsilon_star=1.0, delta=1.0),
            dict(s_star=0.5, r_star=1.0, epsilon_star=-1.0, delta=1.0),
            dict(s_star=0.5, r_star=1.0, epsilon_star=1.0, delta=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DesignTarget(**kwargs)


class TestAccuracyCondition:
    def test_tiny_noise_passes(self, stats1a):
        ok, margin = check_accuracy_design(
            SEC4_TARGET,
            PowerStep(0.5, 1.0, 1.0),
            PowerNoise(1e-6, 0.1, 1.0, offset=0),
            stats1a,
        )
        assert ok and margin > 0

    def test_huge_noise_fails(self, stats1a):
        ok, margin = check_accuracy_design(
            SEC4_TARGET,
            PowerStep(0.5, 1.0, 1.0),
            PowerNoise(100.0, 0.1, 1.0, offset=0),
            stats1a,
        )
        assert not ok and margin < 0

    def test_lhs_scales_with_noise_squared(self, stats1a):
        # Quadrupling b_floor multiplies the bound by 16, so the gap between
        # the two margins is exactly 15x the original bound contribution.
        sched = PowerStep(0.5, 1.0, 1.0)
        rhs = 0.59 * 81 * 25 / (2 * stats1a.degree_square_sum)
        _, m1 = check_accuracy_design(
            SEC4_TARGET, sched, PowerNoise(0.5, 0.1, 1.0, offset=0), stats1a
        )
        _, m4 = check_accuracy_design(
            SEC4_TARGET, sched, PowerNoise(2.0, 0.1, 1.0, offset=0), stats1a
        )
        lhs1 = rhs - m1
        lhs4 = rhs - m4
        assert lhs4 == pytest.approx(16.0 * lhs1, rel=1e-12)

    def test_sec4_text_point_passes(self, stats1a):
        # alpha(k) = 0.5/(k+1), b(k) = (k+1)^0.1: bound well under the
        # target right-hand side s* r*^2 N^2 / (2 sum c^2) = 27.15...
        ok, margin = check_accuracy_design(
            SEC4_TARGET,
            PowerStep(0.5, 1.0, 1.0),
            PowerNoise(1.0, 0.1, 1.0, offset=0),
            stats1a,
        )
        assert ok
        rhs = 0.59 * 81 * 25 / 44.0
        assert rhs == pytest.approx(27.1534, abs=1e-4)
        assert margin < rhs

    def test_divergent_series_raises(self, stats1a):
        with pytest.raises(DivergentSeriesError):
            check_accuracy_design(
                SEC4_TARGET,
                PowerStep(0.5, 1.0, 1.0),
                PowerNoise(1.0, 0.6, 1.0, offset=0),
                stats1a,
            )

    def test_convention_guard(self, stats1a):
        with pytest.raises(ValueError):
            check_accuracy_design(
                SEC4_TARGET,
                PowerStep(0.5, 1.0, 1.0),
                PowerNoise(1.0, 0.1, 1.0, offset=1),
                stats1a,
            )


class TestAchievedAccuracy:
    """Exact-series accuracy s = Var(x*) / r^2 from ``limit_statistics``."""

    @staticmethod
    def accuracy(sched, noise, stats, r):
        n = len(stats.degrees)
        return limit_statistics(np.zeros(n), np.ones(n), stats.degrees, sched, noise).limit_variance / r**2

    def test_vanishes_as_radius_grows(self, stats1a):
        sched = PowerStep(0.5, 1.0, 1.0)
        noise = PowerNoise(1.0, 0.1, 1.0, offset=0)
        small = self.accuracy(sched, noise, stats1a, r=1e6)
        assert small < 1e-10

    def test_unit_radius_known_series(self, stats1a):
        # alpha(k) = 1/(k+1), b(k) = 1: Var = (2*22/25) * sum 1/(k+1)^2
        #          = (44/25) * pi^2/6.
        sched = PowerStep(1.0, 1.0, 1.0)
        noise = PowerNoise(1.0, 0.0, 1.0, offset=0)
        got = self.accuracy(sched, noise, stats1a, r=1.0)
        assert got == pytest.approx((44.0 / 25.0) * math.pi**2 / 6.0, rel=1e-6)


class TestMsRate:
    def test_power_step_example(self):
        # beta = 0.9, gamma = 0.1: exponent 1 + 2(0.1) - 2(0.9) = -0.6.
        pred = predict_ms_rate(0.9, 0.1, 1.0, 0.83)
        assert pred.regime == "power-step"
        assert pred.exponent == pytest.approx(-0.6, abs=1e-12)
        assert pred.log_factor == "none"

    def test_gain_limited_example(self):
        # beta = 1, gamma = 0.1, alpha_lower*lambda2 = 0.2 < 0.4 short of 1/2.
        pred = predict_ms_rate(1.0, 0.1, 0.2, 1.0)
        assert pred.regime == "harmonic-step gain-limited"
        assert pred.exponent == pytest.approx(-0.4, abs=1e-12)

    def test_critical_example(self):
        pred = predict_ms_rate(1.0, 0.1, 0.4, 1.0)
        assert pred.regime == "harmonic-step critical"
        assert pred.exponent == pytest.approx(-0.8, abs=1e-12)
        assert pred.log_factor == "ln k"

    def test_noise_limited_example(self):
        pred = predict_ms_rate(1.0, 0.25, 1.0, 0.83)
        assert pred.regime == "harmonic-step noise-limited"
        assert pred.exponent == pytest.approx(-0.5, abs=1e-12)

    def test_continuity_toward_beta_one(self):
        # As beta -> 1 the power-step exponent 1 + 2g - 2b -> 2g - 1, the
        # noise-limited exponent when the gain is strong enough.
        near = predict_ms_rate(1.0 - 1e-9, 0.1, 5.0, 1.0)
        at = predict_ms_rate(1.0, 0.1, 5.0, 1.0)
        assert near.exponent == pytest.approx(at.exponent, abs=1e-8)

    def test_guards(self):
        with pytest.raises(ValueError):
            predict_ms_rate(0.0, -0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            predict_ms_rate(0.9, 0.4, 1.0, 1.0)  # gamma >= beta - 1/2


class TestAsRate:
    def test_noise_limited_example(self):
        pred = predict_as_rate(1.0, 0.1, 1.0, 0.83)
        assert pred.regime == "harmonic-step noise-limited"
        assert pred.exponent == pytest.approx(-0.4, abs=1e-12)
        assert pred.log_factor == "sqrt(ln ln k)"

    def test_gain_limited_example(self):
        pred = predict_as_rate(1.0, 0.1, 0.3, 1.0)
        assert pred.regime == "harmonic-step gain-limited"
        assert pred.exponent == pytest.approx(-0.3, abs=1e-12)

    def test_critical_example(self):
        pred = predict_as_rate(1.0, 0.1, 0.4, 1.0)
        assert pred.regime == "harmonic-step critical"
        assert pred.log_factor == "sqrt(ln k * ln ln ln k)"

    def test_power_step_at_explicit_eta(self):
        # beta = 0.9, gamma = 0.1, eta = 0.3: 0.1 + 0.3 - 0.8*0.9 = -0.32.
        pred = predict_as_rate(0.9, 0.1, 1.0, 0.83, eta=0.3)
        assert pred.regime == "power-step"
        assert pred.exponent == pytest.approx(-0.32, abs=1e-12)

    def test_infimum_is_limit_of_admissible_exponents(self):
        beta, gamma = 0.9, 0.1
        inf_exp = as_exponent_infimum(beta, gamma)
        assert inf_exp == pytest.approx(gamma + 0.25 * (1 - beta) - beta / 2, abs=1e-14)
        near = predict_as_rate(beta, gamma, 1.0, 0.83, eta=0.25 + 1e-9)
        assert near.exponent == pytest.approx(inf_exp, abs=1e-8)
        # smaller admissible eta gives a smaller (better) exponent
        lo = predict_as_rate(beta, gamma, 1.0, 0.83, eta=0.26)
        hi = predict_as_rate(beta, gamma, 1.0, 0.83, eta=0.35)
        assert lo.exponent < hi.exponent

    def test_eta_range_guard(self):
        with pytest.raises(ValueError, match="eta"):
            predict_as_rate(0.9, 0.1, 1.0, 0.83, eta=0.2)
        with pytest.raises(ValueError, match="eta"):
            predict_as_rate(0.9, 0.1, 1.0, 0.83, eta=10.0)

    def test_beta_guard(self):
        with pytest.raises(ValueError):
            predict_as_rate(0.5, -0.3, 1.0, 1.0)


class TestDesignSearch:
    def test_sec4_targets_feasible(self, fig1a, gauge1a):
        stats = spectrum(fig1a, gauge1a)
        result = design_search(SEC4_TARGET, stats)
        assert result.feasible
        best = result.points[0]
        # points sorted fastest mean-square rate first
        exps = [p.ms_exponent for p in result.points]
        assert exps == sorted(exps)
        assert best.ms_exponent <= exps[-1]
        assert best.epsilon_bound <= SEC4_TARGET.epsilon_star
        assert best.accuracy_margin >= 0

    def test_vacuous_target_accepts_convergent_grid(self, stats1a):
        target = DesignTarget(s_star=1.0, r_star=1e6, epsilon_star=1e12, delta=1e-9)
        grid = dict(default_grid(), beta=[0.8], gamma=[-0.3], a1=[0.5], a2=[1.0])
        result = design_search(target, stats1a, grid)
        assert result.feasible
        assert len(result.points) == len(default_grid()["b_floor"])

    def test_epsilon_floor_reason(self, stats1a):
        # Target below delta/b(1) for every grid noise floor.
        target = DesignTarget(s_star=0.59, r_star=9.0, epsilon_star=1e-6, delta=1.0)
        grid = dict(default_grid(), b_floor=[0.1, 1.0], gamma=[-0.3])
        result = design_search(target, stats1a, grid)
        assert not result.feasible
        assert result.reason == "epsilon floor"
        assert result.failure_counts["epsilon"] > 0

    def test_empty_grid_raises(self, stats1a):
        with pytest.raises(ValueError, match="empty"):
            design_search(SEC4_TARGET, stats1a, {"beta": []})

    def test_accuracy_privacy_tradeoff(self, stats1a):
        # Raising the noise floor helps privacy but hurts accuracy: with a
        # fixed schedule, feasibility flips from accuracy-limited to
        # epsilon-limited as b_floor moves through the grid.
        grid = dict(
            default_grid(),
            a1=[0.7],
            a2=[2.0],
            beta=[0.8],
            gamma=[-0.4],
            b_floor=[0.01, 100.0],
        )
        target = DesignTarget(s_star=0.59, r_star=9.0, epsilon_star=2.5, delta=1.0)
        result = design_search(target, stats1a, grid)
        assert result.failure_counts["epsilon"] >= 1  # tiny floor: too little noise
        assert result.failure_counts["accuracy"] >= 1  # huge floor: too much noise


def test_default_grid_shape():
    grid = default_grid()
    assert set(grid) == {"a1", "a2", "beta", "gamma", "b_floor"}
    assert grid["gamma"] is None
    assert len(grid["b_floor"]) == 7


@pytest.mark.parametrize("beta", default_grid()["beta"])
def test_default_gammas_have_no_negative_zero(beta):
    for g in designer._gammas_for(beta, {}):
        assert g != 0 or math.copysign(1.0, g) == 1.0
