"""End-to-end acceptance checks for the full library.

Each test prints exactly one PASS/FAIL line (written straight to the real
stdout so it survives pytest capture) and then asserts the same condition.
Criterion 4 derives its rate-slope window from the schedule: the slope of
the mean disagreement may not exceed the exponent of the paper's O(k^e)
mean-square bound (``designer.predict_ms_rate``), and it cannot fall below
the noise floor k^(2*gamma - beta) that any faithful simulation keeps.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from dpconsensus import designer, engine, experiments, privacy, schedules
from dpconsensus.graphs import check_structural_balance, fixture_graph, spectrum
from dpconsensus.schedules import (
    PowerNoise,
    PowerStep,
    step_product_bound,
)

import conftest
from conftest import random_balanced_graph, upper_incomplete_gamma
from oracles import apply_update, sensitivity_series

X0 = np.array([10.0, -8.0, 6.0, -4.0, 2.0])
STEP_A = PowerStep(0.3, 1.0, 1.0)  # alpha(k) = 0.3/(k+1)
NOISE_A = PowerNoise(1.0, 0.1, 1.0, offset=1)  # b(k) = k^0.1
STEP_B = PowerStep(1.0, 1.0, 0.9)  # alpha(k) = 1/(k+1)^0.9
SEED = 20260826


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    text = f"[criterion {num:2d}] {name:<28s} {status}  ({detail})"
    conftest.ACCEPTANCE_LINES.append(text)
    print(text)


@pytest.fixture(scope="module")
def fig1a():
    return fixture_graph("fig1a")


@pytest.fixture(scope="module")
def gauge(fig1a):
    return check_structural_balance(fig1a)


@pytest.fixture(scope="module")
def batch_a(fig1a, gauge):
    """Shared batch for criteria 1 and 3: T=1e4, M=2000, decade records."""
    rec = np.array([0, 100, 1000, 10_000])
    return engine.run_many(
        X0, fig1a, gauge, STEP_A, NOISE_A, 10_000, 2000,
        seed=SEED, record_idx=rec,
    )


def test_criterion_01_unbiased_consensus(batch_a, gauge):
    _, res = batch_a
    terminal = (res.x_final * gauge).mean(axis=1)
    target = float((X0 * gauge).mean())
    gap = abs(terminal.mean() - target)
    tol = 4.0 * terminal.std(ddof=1) / math.sqrt(len(terminal))
    ok = gap <= tol
    _line(1, "unbiased-consensus", ok, f"|bias|={gap:.3e} <= 4*sem={tol:.3e}")
    assert ok


def test_criterion_02_variance_law(fig1a, gauge):
    t, m = 1000, 5000
    _, res = engine.run_many(
        X0, fig1a, gauge, STEP_A, NOISE_A, t, m,
        seed=SEED + 1, record_idx=np.array([0, t]),
    )
    terminal = (res.x_final * gauge).mean(axis=1)
    emp = terminal.var(ddof=1)
    alphas = STEP_A.alpha(np.arange(t))
    scales = NOISE_A.scale(np.arange(t))
    sq_sum = float(np.sum(fig1a.degrees**2))
    n = fig1a.n
    pred = (2.0 * sq_sum / n**2) * float(np.sum(alphas**2 * scales**2))
    rel = abs(emp - pred) / pred
    ok = rel <= 0.15
    _line(2, "variance-law", ok, f"empirical={emp:.4f} predicted={pred:.4f} rel={rel:.3f}")
    assert ok


def test_criterion_03_mean_square_convergence(batch_a):
    rec, res = batch_a
    v_mean = res.v.mean(axis=0)  # at k = 0, 100, 1000, 10000
    small = v_mean[-1] < 1e-2 * v_mean[0]
    drops = np.diff(v_mean[1:])  # across the decade checkpoints
    slack = 0.05 * v_mean[1:-1]
    violations = int(np.sum(drops > slack))
    ok = small and violations <= 1
    _line(
        3, "mean-square-convergence", ok,
        f"V: {v_mean[0]:.3g} -> {v_mean[-1]:.3g}, checkpoint increases over slack: {violations}",
    )
    assert ok


def test_criterion_04_mean_square_rate(fig1a, gauge):
    # The fitted slope of log V(k) over k in [1e3, 1e4] must lie in a window
    # derived from the schedule (beta = 0.9, gamma = 0.1 gives [-0.75, -0.6]):
    # - upper end: predict_ms_rate's exponent e = 1 + 2*gamma - 2*beta.  The
    #   paper proves E V(k) = O(k^e), so V may decay faster but not slower.
    # - lower end: each step injects noise of variance ~ alpha(k)^2 b(k)^2 and
    #   removes at most a fraction ~ alpha(k) of V, so E V(k) >= c*alpha(k)*b(k)^2
    #   ~ k^(2*gamma - beta).  The 0.05 margin covers the finite-horizon
    #   approach to that floor, measured at most 0.02 at this seed, M and T.
    # The OLS interval is far narrower than the seed-to-seed spread (the
    # residuals are autocorrelated), so the point slope is tested.
    t, m = 10_000, 1000
    noise = PowerNoise(1.0, 0.1, 1.0, offset=1)
    bound = designer.predict_ms_rate(
        STEP_B.beta, noise.gamma, STEP_B.a1, spectrum(fig1a, gauge).lambda2
    )
    floor = 2 * noise.gamma - STEP_B.beta
    low, high = floor - 0.05, bound.exponent
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rec, res = engine.run_many(X0, fig1a, gauge, STEP_B, noise, t, m, seed=SEED + 2)
    fit = experiments.estimate_rate(rec, res.v.mean(axis=0), (1000, 10_000))
    ok = low <= fit.slope <= high
    _line(
        4, "mean-square-rate", ok,
        f"slope={fit.slope:.3f}, window [{low:.2f}, {high:.2f}] from "
        f"floor 2*gamma-beta={floor:+.2f} and bound O(k^{bound.exponent:+.2f})",
    )
    assert ok


def test_criterion_05_almost_sure_proxy(fig1a, gauge):
    t, m = 100_000, 1000
    noise = PowerNoise(1.0, 0.1, 1.0, offset=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, res = engine.run_many(
            X0, fig1a, gauge, STEP_B, noise, t, m,
            seed=SEED + 3, record_idx=np.array([0, t]),
        )
    z = res.x_final * gauge
    dev = np.max(np.abs(z - np.median(z, axis=1, keepdims=True)), axis=1)
    spread = float(np.ptp(X0 * gauge))
    frac = float(np.mean(dev < 0.05 * spread))
    ok = frac >= 0.95
    _line(5, "almost-sure-proxy", ok, f"{frac:.1%} of runs within {0.05 * spread:.2f}")
    assert ok


def test_criterion_06_sensitivity_correctness():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        weights, _ = random_balanced_graph(rng, n)
        degrees = np.abs(weights).sum(axis=1)
        c_max = float(degrees.max())
        c_min = float(degrees.min())
        a2 = float(rng.choice([1.0, 2.0]))
        beta = float(rng.uniform(0.6, 1.0))
        a1 = float(rng.uniform(0.1, 0.95)) * a2**beta / c_max
        sched = PowerStep(a1, a2, beta)
        k = int(rng.integers(2, 31))
        i0 = int(rng.integers(n))
        delta = float(rng.uniform(0.1, 2.0))

        x_a = rng.normal(size=n)
        x_b = x_a.copy()
        x_b[i0] += delta
        for step_idx in range(k - 1):
            y = x_a + rng.laplace(scale=1.0, size=n)  # identical observations
            alpha_k = sched.alpha(step_idx)
            x_a = apply_update(x_a, weights, alpha_k, y)
            x_b = apply_update(x_b, weights, alpha_k, y)
        gap = float(np.sum(np.abs(x_b - x_a)))
        exact = delta * math.prod(
            1.0 - sched.alpha(j) * degrees[i0] for j in range(k - 1)
        )
        bound = sensitivity_series(k, sched, c_min, delta)[-1]
        worst = max(worst, abs(gap - exact) / max(exact, 1e-30))
        assert gap == pytest.approx(exact, rel=1e-12, abs=1e-15)
        assert gap <= bound * (1 + 1e-12)
    _line(6, "sensitivity-correctness", True, f"50 tuples, worst rel err {worst:.1e}")


def test_criterion_07_epsilon_bounds():
    rng = np.random.default_rng(SEED + 7)
    c_min = 2.0
    horizon = 10_000_000
    checked, min_slack = 0, math.inf
    violations = 0
    cases_seen = set()
    for case in range(4):
        for _ in range(50):
            a2 = 2.0
            bf = float(rng.uniform(0.5, 2.0))
            if case == 0:  # beta = 1, gamma >= 0, contraction drive strong
                beta = 1.0
                gamma = float(rng.uniform(0.0, 0.45))
                acm = float(rng.uniform(1.05 - gamma + 0.05, 1.95))
            elif case == 1:  # beta = 1, gamma < 0
                beta = 1.0
                gamma = float(rng.uniform(-0.8, -0.05))
                acm = float(rng.uniform(1.1 - gamma, 1.95))
            elif case == 2:  # beta < 1, gamma >= 0
                beta = float(rng.uniform(0.6, 0.95))
                gamma = float(rng.uniform(0.0, 0.44))
                acm = float(rng.uniform(0.2, 0.95)) * a2**beta
            else:  # beta < 1, gamma < 0
                beta = float(rng.uniform(0.6, 0.95))
                gamma = float(rng.uniform(-1.0, -0.05))
                acm = float(rng.uniform(0.2, 0.95)) * a2**beta
            sched = PowerStep(acm / c_min, a2, beta)
            noise = PowerNoise(bf, gamma, a2, offset=1)
            bound = privacy.epsilon_infinity_bound(sched, noise, c_min, 1.0)
            assert bound.convergent
            cases_seen.add(bound.case)
            numeric = privacy.epsilon_finite(sched, noise, c_min, 1.0, horizon)
            slack = (bound.value - numeric) / numeric
            min_slack = min(min_slack, slack)
            if numeric > bound.value * (1 + 1e-12):
                violations += 1
            checked += 1
    ok = violations == 0 and cases_seen == {"case1", "case3", "case4"}
    _line(
        7, "epsilon-bounds", ok,
        f"{checked} points, cases {sorted(cases_seen)}, min rel slack {min_slack:.3f}, "
        f"{violations} violations",
    )
    assert ok


def test_criterion_08_incomplete_gamma():
    rng = np.random.default_rng(SEED + 8)
    worst_int, worst_rec = 0.0, 0.0
    for _ in range(100):
        g = float(rng.uniform(-1.0, 0.95))
        b = float(rng.uniform(0.3, 0.9))
        v = float(rng.uniform(0.2, 3.0))
        # u = ln x turns the slowly decaying integrand into a doubly
        # exponential one that adaptive quadrature resolves reliably.
        def integrand(u, g=g, b=b, v=v):
            expo = (1 - g) * u - v * math.exp(min((1 - b) * u, 700.0))
            return math.exp(expo) if expo > -700.0 else 0.0

        left = integrate.quad(integrand, 0, np.inf, limit=200)[0]
        shape = (1 - g) / (1 - b)
        right = v**-shape / (1 - b) * upper_incomplete_gamma(shape, v)
        worst_int = max(worst_int, abs(left - right) / right)
        assert left == pytest.approx(right, rel=1e-7)
        a = float(rng.uniform(0.1, 10.0))
        z = float(rng.uniform(0.0, 10.0))
        lhs = upper_incomplete_gamma(a + 1.0, z)
        rhs = a * upper_incomplete_gamma(a, z) + z**a * math.exp(-z)
        worst_rec = max(worst_rec, abs(lhs - rhs) / abs(rhs))
        assert lhs == pytest.approx(rhs, rel=1e-9)
    _line(
        8, "incomplete-gamma", True,
        f"100 identities, worst rel err integral {worst_int:.1e} / recurrence {worst_rec:.1e}",
    )


def test_criterion_09_design_pipeline(fig1a, gauge):
    stats = spectrum(fig1a, gauge)
    target = designer.DesignTarget(s_star=0.59, r_star=9.0, epsilon_star=2.5, delta=1.0)
    result = designer.design_search(target, stats)
    nonempty = result.feasible
    frac = 0.0
    if nonempty:
        p = result.points[0]
        sched = PowerStep(p.a1, p.a2, p.beta)
        noise = PowerNoise(p.b_floor, p.gamma, p.a2, offset=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, res = engine.run_many(
                X0, fig1a, gauge, sched, noise, 10_000, 5000,
                seed=SEED + 9, record_idx=np.array([0, 10_000]),
            )
        terminal = (res.x_final * gauge).mean(axis=1)
        true_avg = float((X0 * gauge).mean())
        frac = float(np.mean(np.abs(terminal - true_avg) <= target.r_star))
    ok = nonempty and frac >= 1.0 - target.s_star
    _line(
        9, "design-pipeline", ok,
        f"{len(result.points)} feasible, empirical coverage {frac:.3f} >= {1 - target.s_star:.2f}",
    )
    assert ok


def test_criterion_10_baseline_contrast():
    good = 0
    for s in range(10):
        cfg = dataclasses.replace(experiments.named_config("fig2a"), runs=20, seed=SEED + 100 + s)
        verdicts = {v.name: v for v in experiments.compare_baselines(cfg)}
        base = verdicts["geometric"]
        if base.froze and base.noise_std_last < 1e-4 and verdicts["protocol"].noise_alive:
            good += 1
    ok = good == 10
    _line(10, "baseline-contrast", ok, f"{good}/10 seeds show freeze vs live noise")
    assert ok


def test_criterion_11_product_bounds():
    rng = np.random.default_rng(SEED + 11)
    worst = -math.inf
    for _ in range(500):
        beta = float(rng.choice([1.0, rng.uniform(0.55, 0.99)]))
        k0 = float(rng.uniform(1.0, 3.0))
        l = int(rng.integers(0, 20))
        k = l + int(rng.integers(0, 200))
        alpha = float(rng.uniform(0.05, 0.95)) * (l + k0) ** beta
        prod = float(
            np.prod(1.0 - alpha / (np.arange(l, k + 1) + k0) ** beta)
        )
        bound = step_product_bound(alpha, beta, l, k, k0)
        worst = max(worst, prod - bound)
        assert prod <= bound * (1 + 1e-12)
    _line(11, "product-bounds", True, f"500 tuples, max (product - bound) = {worst:.2e}")
