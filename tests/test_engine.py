import math
import warnings

import numpy as np
import pytest

from dpconsensus import _kernels, engine
from dpconsensus.engine import (
    DivergenceError,
    disagreement,
    limit_statistics,
    record_points,
    run,
    run_many,
)
from dpconsensus.graphs import SignedGraph, check_structural_balance
from dpconsensus.noise import DEFAULT_SEED, laplace_matrix
from dpconsensus.schedules import (
    ConstantNoise,
    DivergentSeriesError,
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
)

from conftest import random_balanced_graph
from oracles import apply_update, step

TWO_PLUS = SignedGraph.from_edges(2, [(1, 2, 1.0)])
TWO_MINUS = SignedGraph.from_edges(2, [(1, 2, -1.0)])
HALF = PowerStep(0.5, 1.0, 1.0)  # alpha(0) = 0.5


def test_noiseless_averaging_step():
    out = step(np.array([0.0, 2.0]), TWO_PLUS, HALF, None, k=0)
    np.testing.assert_allclose(out, [1.0, 1.0])


def test_antagonistic_fixed_points():
    out = step(np.array([2.0, 2.0]), TWO_MINUS, HALF, None, k=0)
    np.testing.assert_allclose(out, [0.0, 0.0])
    out = step(np.array([2.0, -2.0]), TWO_MINUS, HALF, None, k=0)
    np.testing.assert_allclose(out, [2.0, -2.0])


def test_injected_noise_hand_expansion():
    x = np.array([3.0, -1.0])
    omega = np.array([0.7, -0.4])
    out = step(x, TWO_PLUS, HALF, None, k=0, omega=omega)
    # x_1(1) = x_1 - alpha*(x_1 - x_2 - w_2)
    assert out[0] == pytest.approx(x[0] - 0.5 * (x[0] - x[1] - omega[1]))
    assert out[1] == pytest.approx(x[1] - 0.5 * (x[1] - x[0] - omega[0]))


def test_scalar_update_matches_matrix_form():
    rng = np.random.default_rng(19)
    for n in (3, 6, 12):
        w, _ = random_balanced_graph(rng, n)
        g = SignedGraph(w)
        lap = g.laplacian()
        x = rng.normal(size=n)
        for _ in range(100):
            omega = rng.normal(size=n)
            a = 0.08
            scalar = apply_update(x, g.weights, a, x + omega)
            matrix = x - a * (lap @ x) + a * (g.weights @ omega)
            np.testing.assert_allclose(scalar, matrix, rtol=1e-13, atol=1e-13)
            x = matrix


def test_gauge_equivariance_exact():
    rng = np.random.default_rng(23)
    w, _ = random_balanced_graph(rng, 6)
    g = SignedGraph(w)
    s = check_structural_balance(g)
    flipped = SignedGraph(s[:, None] * w * s[None, :])
    x = rng.normal(size=6)
    xf = s * x
    for k in range(50):
        omega = rng.normal(size=6)
        x = step(x, g, HALF, None, k, omega=omega)
        xf = step(xf, flipped, HALF, None, k, omega=s * omega)
        np.testing.assert_array_equal(xf, s * x)


def test_kernel_matches_reference_step(fig1a, gauge1a, x0):
    from dpconsensus.noise import laplace_sample

    sched, noise = PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1)
    tr = run(x0, fig1a, gauge1a, sched, noise, 30, stride=1, run_index=4)
    x = np.array(x0, dtype=float)
    for k in range(30):
        b = noise.scale(k)
        omega = np.array(
            [laplace_sample(DEFAULT_SEED, 4, a, k, b) for a in range(5)]
        )
        x = step(x, fig1a, sched, noise, k, omega=omega)
        np.testing.assert_allclose(tr.x_series[k + 1], x, rtol=1e-12, atol=1e-12)


def test_zero_noise_conserves_gauge_sum(fig1a, gauge1a, x0):
    tr = run(x0, fig1a, gauge1a, PowerStep(0.3, 1, 1), None, 500, stride=1)
    np.testing.assert_allclose(
        tr.gauge_mean_series, np.full(len(tr.ks), 3.6), rtol=0, atol=1e-12
    )


def test_noiseless_star_reaches_average():
    g = SignedGraph.from_edges(5, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0)])
    s = check_structural_balance(g)
    x0 = np.array([5.0, -1.0, 2.0, 8.0, -3.0])
    tr = run(x0, g, s, PowerStep(0.5, 1, 0.6), None, 20_000)
    np.testing.assert_allclose(tr.x_series[-1], np.full(5, x0.mean()), atol=1e-3)


def test_geometric_baseline_freezes(fig1a, gauge1a, x0):
    _, res = run_many(
        x0, fig1a, gauge1a, GeometricStep(0.8), GeometricNoise(1, 0.9),
        1000, runs=3, tail_start=200,
    )
    assert res.max_tail_delta.max() < 1e-9


def test_record_points_structure():
    pts = record_points(1000, stride=10)
    assert pts[0] == 0 and pts[-1] == 1000
    assert {1, 2, 3} <= set(pts.tolist())  # log densification near zero
    assert np.all(np.diff(pts) > 0)


def test_run_records_consistent_series(fig1a, gauge1a, x0):
    tr = run(x0, fig1a, gauge1a, PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), 200, collect_y=True)
    assert tr.v_series[0] == pytest.approx(155.2)
    assert np.all(tr.v_series >= 0)
    for idx in (0, len(tr.ks) - 1):
        assert tr.v_series[idx] == pytest.approx(disagreement(tr.x_series[idx], gauge1a))
        assert tr.gauge_mean_series[idx] == pytest.approx((gauge1a * tr.x_series[idx]).mean())
    assert np.isnan(tr.y_series[-1]).all()  # no transmission recorded at k = T


def test_trajectory_csv(tmp_path, fig1a, gauge1a, x0):
    tr = run(x0, fig1a, gauge1a, PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), 100, collect_y=True)
    p = tmp_path / "t.csv"
    tr.to_csv(p)
    header = p.read_text().splitlines()[0]
    assert header == "k,V,gauge_mean," + ",".join(
        [f"x_{i}" for i in range(1, 6)] + [f"y_{i}" for i in range(1, 6)]
    )


def test_divergence_abort(fig1a, gauge1a, x0):
    diverging = PowerStep(50.0, 1.0, 1.0)  # alpha(0)*lambda_max >> 2
    with pytest.raises(DivergenceError), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run(x0, fig1a, gauge1a, diverging, None, 100)


def _reference_batch(x0, graph, gauge, sched, noise, t, runs, tail_start):
    """The kernel's contract, one step at a time on ``laplace_matrix`` draws.

    A run diverges at the first step with a non-finite entry or one above
    the limit; from then on its state is zero and its records are NaN.
    """
    lap, w = graph.laplacian(), graph.weights  # both symmetric: L^T = L, A^T = A
    alpha, bscale = sched.alpha(np.arange(t)), noise.scale(np.arange(t))
    ks = record_points(t)
    slot = {int(k): i for i, k in enumerate(ks)}
    run_ids = np.arange(runs)
    x = np.tile(np.asarray(x0, dtype=float), (runs, 1))
    alive = np.ones(runs, dtype=bool)
    diverged_at = np.full(runs, -1)
    tail = np.zeros(runs)
    v = np.full((runs, len(ks)), np.nan)
    x_rec = np.full((runs, len(ks), graph.n), np.nan)
    y_rec = np.full((runs, len(ks), graph.n), np.nan)
    for k in range(t + 1):
        noisy = k < t and bscale[k] > 0
        omega = laplace_matrix(DEFAULT_SEED, run_ids, graph.n, k, bscale[k]) if noisy else 0.0
        if k in slot:
            z = x * gauge
            dev = z - z.mean(axis=1)[:, None]
            v[alive, slot[k]] = (dev**2).sum(axis=1)[alive]
            x_rec[alive, slot[k]] = x[alive]
            if k < t:
                y_rec[alive, slot[k]] = (x + omega)[alive]
        if k == t:
            break
        x_new = x - alpha[k] * (x @ lap)
        if noisy:
            x_new = x_new + alpha[k] * (omega @ w)
        if k >= tail_start:
            tail[alive] = np.maximum(tail, np.abs(x_new - x).max(axis=1))[alive]
        x = x_new
        bad = alive & ~(np.abs(x).max(axis=1) <= engine.DIVERGENCE_LIMIT)
        diverged_at[bad] = k + 1
        alive &= ~bad
        x[~alive] = 0.0
    x_final = np.where(alive[:, None], x, np.nan)
    return ks, diverged_at, v, x_final, x_rec, y_rec, tail


@pytest.mark.parametrize(
    "sched, noise, diverges",
    [
        (PowerStep(0.7, 1, 0.02), ConstantNoise(1e3), True),
        (PowerStep(0.7, 1, 0.02), PowerNoise(1e3, 0.1, 1, 1), True),  # b(0) = 0
        (PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), False),
    ],
    ids=["constant-noise-diverges", "offset1-noise-diverges", "offset1-noise-stable"],
)
def test_kernel_matches_stepwise_reference(fig1a, gauge1a, x0, sched, noise, diverges):
    """Block noise and the one-reduction divergence check change no output.

    T = 3001 is not a multiple of the block length, so the last block is
    short, and the runs that diverge do so at different steps.
    """
    t, runs, tail_start = 3001, 40, 2500
    assert t % (_kernels._BLOCK_ELEMENTS // (runs * fig1a.n)) != 0
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        ks, res = run_many(
            x0, fig1a, gauge1a, sched, noise, t, runs,
            collect_states=True, collect_y=True, tail_start=tail_start,
        )
        want = _reference_batch(x0, fig1a, gauge1a, sched, noise, t, runs, tail_start)
    ref_ks, diverged_at, v, x_final, x_rec, y_rec, tail = want
    np.testing.assert_array_equal(ks, ref_ks)
    np.testing.assert_array_equal(res.diverged_at, diverged_at)
    np.testing.assert_array_equal(res.v, v)
    np.testing.assert_array_equal(res.x_final, x_final)
    np.testing.assert_array_equal(res.x_rec, x_rec[0])  # states are recorded for run 0 only
    np.testing.assert_array_equal(res.y_rec, y_rec[0])
    np.testing.assert_array_equal(res.max_tail_delta, tail)
    if diverges:
        assert (res.diverged_at > 0).all()
        assert len(set(res.diverged_at.tolist())) > 1  # not all at one step
    else:
        assert (res.diverged_at == -1).all()


def test_stability_warning(fig1a, gauge1a, x0):
    with pytest.warns(RuntimeWarning, match="transiently amplify"):
        run_many(x0, fig1a, gauge1a, PowerStep(1.0, 1.0, 0.9), None, 10, runs=1)


def test_runs_reproducible(fig1a, gauge1a, x0):
    sched, noise = PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1)
    _, a = run_many(x0, fig1a, gauge1a, sched, noise, 300, 5, seed=DEFAULT_SEED)
    _, b = run_many(x0, fig1a, gauge1a, sched, noise, 300, 5, seed=DEFAULT_SEED)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.x_final, b.x_final)


def test_disagreement_values(gauge1a):
    assert disagreement(gauge1a, gauge1a) == 0.0
    assert disagreement(np.ones(4), np.ones(4)) == 0.0
    assert disagreement(np.array([1.0, 0.0]), np.ones(2)) == pytest.approx(0.5)


def test_limit_statistics_zero_noise(stats1a, gauge1a, x0):
    ls = limit_statistics(x0, gauge1a, stats1a.degrees, PowerStep(0.3, 1, 1), None)
    assert ls.limit_mean == pytest.approx(3.6)
    assert ls.limit_variance == 0.0


def test_limit_statistics_basel():
    ls = limit_statistics(
        [0.0, 0.0], [1.0, 1.0], np.array([1.0, 1.0]), PowerStep(1, 1, 1), ConstantNoise(1.0)
    )
    assert ls.limit_variance == pytest.approx(math.pi**2 / 6, rel=1e-6)
    assert ls.limit_variance >= math.pi**2 / 6  # truncation + tail over-bounds


def test_limit_statistics_tail_shrinks_with_truncation(stats1a, gauge1a, x0):
    sched, noise = PowerStep(1, 1, 0.9), PowerNoise(1, 0.1, 1, 0)
    small = limit_statistics(x0, gauge1a, stats1a.degrees, sched, noise, k_trunc=10_000)
    large = limit_statistics(x0, gauge1a, stats1a.degrees, sched, noise, k_trunc=1_000_000)
    assert large.tail_bound < small.tail_bound
    assert small.limit_variance >= large.limit_variance  # bound tightens
    assert abs(small.limit_variance - large.limit_variance) < 1e-3


def test_limit_statistics_divergent(stats1a, gauge1a, x0):
    with pytest.raises(DivergentSeriesError):
        limit_statistics(x0, gauge1a, stats1a.degrees, PowerStep(1, 1, 0.9), PowerNoise(1, 0.5, 1, 0))
