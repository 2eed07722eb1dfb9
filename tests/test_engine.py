import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpconsensus import _kernels, engine
from dpconsensus.engine import limit_statistics, record_points, run_many
from dpconsensus.experiments import ExperimentConfig, run_experiment
from dpconsensus.graphs import SignedGraph, check_structural_balance
from dpconsensus.noise import DEFAULT_SEED, laplace_matrix
from dpconsensus.schedules import (
    DivergentSeriesError,
    GeometricNoise,
    GeometricStep,
    PowerNoise,
    PowerStep,
)

from conftest import random_balanced_graph
from oracles import aggregate_by_copy, apply_update, disagreement, laplace_sample, step

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
    sched, noise = PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1)
    x = np.array(x0, dtype=float)
    for k in range(30):
        b = noise.scale(k)
        omega = np.array(
            [laplace_sample(DEFAULT_SEED, 4, a, k, b) for a in range(5)]
        )
        x = step(x, fig1a, sched, noise, k, omega=omega)
        _, res = run_many(x0, fig1a, gauge1a, sched, noise, k + 1, 5, record_idx=np.array([0, k + 1]))
        np.testing.assert_allclose(res.x_final[4], x, rtol=1e-12, atol=1e-12)  # run 4 after k + 1 steps


def test_zero_noise_conserves_gauge_sum(fig1a, gauge1a, x0):
    ks, res = run_many(x0, fig1a, gauge1a, PowerStep(0.3, 1, 1), None, 500, 1, record_idx=record_points(500, 1))
    np.testing.assert_allclose(res.gmean, np.full(len(ks), 3.6), rtol=0, atol=1e-12)


def test_noiseless_star_reaches_average():
    g = SignedGraph.from_edges(5, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (1, 5, 1.0)])
    s = check_structural_balance(g)
    x0 = np.array([5.0, -1.0, 2.0, 8.0, -3.0])
    _, res = run_many(x0, g, s, PowerStep(0.5, 1, 0.6), None, 20_000, 1)
    np.testing.assert_allclose(res.x_final[0], np.full(5, x0.mean()), atol=1e-3)


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
    sched, noise = PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1)
    ks, res = run_many(x0, fig1a, gauge1a, sched, noise, 200, 1)
    v = res.v0
    assert v[0] == pytest.approx(155.2)
    assert np.all(v >= 0)
    for idx in (0, len(ks) - 1):
        assert v[idx] == pytest.approx(disagreement(res.x_rec[idx], gauge1a))
        assert res.gmean[idx] == pytest.approx((gauge1a * res.x_rec[idx]).mean())
    assert np.isnan(res.y_rec[-1]).all()  # no transmission recorded at k = T


def test_trajectory_csv(tmp_path, fig1a, x0):
    cfg = ExperimentConfig("t", fig1a, x0, PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), 100, 1)
    run_experiment(cfg, out_dir=str(tmp_path))
    header = (tmp_path / "trajectory_000.csv").read_text().splitlines()[0]
    assert header == "k,V,gauge_mean," + ",".join(
        [f"x_{i}" for i in range(1, 6)] + [f"y_{i}" for i in range(1, 6)]
    )


def test_divergence_abort(fig1a, gauge1a, x0):
    diverging = PowerStep(50.0, 1.0, 1.0)  # alpha(0)*lambda_max >> 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, res = run_many(x0, fig1a, gauge1a, diverging, None, 100, 1)
    assert 0 < res.diverged_at[0] <= 100
    assert np.isnan(res.x_final[0]).all()


def _reference_batch(x0, graph, gauge, sched, noise, t, runs, tail_start, stride):
    """The kernel's contract, one step at a time on ``laplace_matrix`` draws.

    A run diverges at the first step with a non-finite entry or one above
    the limit; from then on its state is zero and its records are NaN.
    """
    lap, w = graph.laplacian(), graph.weights  # both symmetric: L^T = L, A^T = A
    alpha, bscale = sched.alpha(np.arange(t)), noise.scale(np.arange(t))
    ks = record_points(t, stride)
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


def _same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def _check_aggregates(batch, v, dead):
    """``batch(drop)``'s run 0 V, mean and deciles, bit for bit, against the reference's full V.

    The batch runs with no ``drop`` and with ``dead`` dropped; the oracle aggregates a copy of
    V's kept rows, and over no row the aggregate is NaN.  The two passes differ in nothing
    else.  Returns the first pass.
    """
    first = batch(None)
    for drop, (_, res) in [(None, first), (dead, batch(dead))]:
        keep = np.ones(len(v), dtype=bool) if drop is None else ~drop
        want = aggregate_by_copy(v, keep) if keep.any() else (np.full(v.shape[1], np.nan),) * 4
        for got, w in zip((res.v_mean, *res.v_deciles), want):
            _same_bits(got, w)
        _same_bits(res.v0, v[0])
        for name in ("diverged_at", "x_final", "x_rec", "y_rec", "gmean", "max_tail_delta"):
            _same_bits(getattr(res, name), getattr(first[1], name))
    return first


# Fig. 1(a) has n = 5 agents, so a block spans max(1, 2**16 // (5 * runs)) steps.
@pytest.mark.parametrize(
    "sched, noise, t, runs, stride, tail_start, block, diverges, shift",
    [
        (PowerStep(0.7, 1, 0.02), PowerNoise(1e3, 0.0, a2=1.0), 3001, 40, 10, 2500, 327, "all", 0.0),
        (PowerStep(0.7, 1, 0.02), PowerNoise(1e3, 0.1, 1, 1), 3001, 40, 10, 2500, 327, "all", 0.0),  # b(0) = 0
        (PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), 3001, 40, 10, 2500, 327, "none", 0.0),
        (PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), 25, 13_200, 10, 20, 1, "none", 0.0),
        (PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1), 655, 40, 10, 600, 327, "none", 0.0),
        (PowerStep(8.7, 1, 1), PowerNoise(1e3, 0.0, a2=1.0), 60, 1638, 1, 10, 8, "some", 0.0),
        (PowerStep(10, 10, 1), PowerNoise(1, 0.1, 10, 1), 60, 1638, 1, 10, 8, "none", 3e11),
    ],
    ids=[
        "constant-noise-diverges", "offset1-noise-diverges", "offset1-noise-stable",
        "one-step-blocks", "one-step-last-block", "run0-diverges-mid-block",
        "bound-fails-then-holds",
    ],
)
def test_kernel_matches_stepwise_reference(
    fig1a, gauge1a, x0, sched, noise, t, runs, stride, tail_start, block, diverges, shift
):
    """Block noise, the reused buffers and the skipped divergence screen change no output.

    The first three cases end on a short block (T = 3001 is not a multiple
    of 327) with runs diverging at different steps; the others cover blocks
    of one step (M * n > 2**16), a last block of one step (655 = 2 * 327 + 1),
    and run 0 diverging mid-block while y is recorded at every step, so dead
    rows are reset while the live ones go on through the swapped states.
    The last starts at |x0| = 3e11 along the gauge, which L leaves alone, with
    alpha(0) * c_max = 3: while alpha(k) * c_max > 1 the a-priori bound on
    max |x| grows past half the limit, so the first three blocks (k < 24)
    screen every step, and the later ones, anchored at the measured 3e11,
    skip the screen.
    """
    assert max(1, _kernels._BLOCK_ELEMENTS // (runs * fig1a.n)) == block
    assert t % block != 0 or block == 1
    x0 = x0 + shift * gauge1a
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        want = _reference_batch(x0, fig1a, gauge1a, sched, noise, t, runs, tail_start, stride)
        ref_ks, diverged_at, v, x_final, x_rec, y_rec, tail = want
        ks, res = _check_aggregates(
            lambda drop: run_many(
                x0, fig1a, gauge1a, sched, noise, t, runs,
                record_idx=record_points(t, stride), tail_start=tail_start, drop=drop,
            ),
            v, diverged_at >= 0,
        )
    np.testing.assert_array_equal(ks, ref_ks)
    np.testing.assert_array_equal(res.diverged_at, diverged_at)
    np.testing.assert_array_equal(res.x_final, x_final)
    np.testing.assert_array_equal(res.x_rec, x_rec[0])  # states are recorded for run 0 only
    np.testing.assert_array_equal(res.y_rec, y_rec[0])
    np.testing.assert_array_equal(res.max_tail_delta, tail)
    dead = res.diverged_at > 0
    if diverges == "all":
        assert dead.all()
        assert len(set(res.diverged_at.tolist())) > 1  # not all at one step
    elif diverges == "some":
        assert 0 < dead.sum() < runs
        assert res.diverged_at[0] > block and res.diverged_at[0] % block != 0
        assert len(set(res.diverged_at[dead].tolist())) > block  # across blocks
        assert not np.isnan(res.y_rec[res.diverged_at[0] - 1]).any()  # y recorded up to it
    else:
        assert not dead.any()


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(2, 12),
    runs=st.sampled_from([1, 2, 7]),
    ratio=st.floats(0.2, 12.0, exclude_min=True, exclude_max=True),
    beta=st.floats(0.5, 1.0),
    a2=st.floats(1.0, 5.0),
    b_floor=st.floats(0.0, 10.0),
    gamma=st.floats(-0.5, 0.5),
    x_mag=st.floats(0.0, 11.0),
    t=st.integers(1, 200),
    data=st.data(),
)
def test_kernel_matches_reference_on_random_graphs(n, runs, ratio, beta, a2, b_floor, gamma, x_mag, t, data):
    """Skipping the divergence screen hides no divergence and changes no output.

    alpha(0) * c_max = ``ratio`` up to 12 lets the a-priori state bound fail
    early and hold later, and some batches diverge; |x0| runs up to 1e11.
    Blocks of 1 to 64 steps give a call many blocks, so screened blocks
    re-anchor the bound and the record stash fills and flushes mid-run.
    """
    w, _ = random_balanced_graph(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), n)
    graph = SignedGraph(w)
    gauge = check_structural_balance(graph)
    sched = PowerStep(ratio * a2**beta / graph.degrees.max(), a2, beta)
    noise = PowerNoise(b_floor, gamma, a2, data.draw(st.sampled_from([0, 1])))
    x0 = np.random.default_rng(n).uniform(-1.0, 1.0, n) * 10.0**x_mag
    stride, tail_start = data.draw(st.integers(1, 10)), data.draw(st.integers(0, t))
    block = data.draw(st.integers(1, 64))
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore")
        _, diverged_at, v, x_final, _, _, tail = _reference_batch(
            x0, graph, gauge, sched, noise, t, runs, tail_start, stride
        )
        with mock.patch.object(_kernels, "_BLOCK_ELEMENTS", block * runs * n):
            _, res = _check_aggregates(
                lambda drop: run_many(
                    x0, graph, gauge, sched, noise, t, runs,
                    record_idx=record_points(t, stride), tail_start=tail_start, drop=drop,
                ),
                v, diverged_at >= 0,
            )
    np.testing.assert_array_equal(res.diverged_at, diverged_at)
    np.testing.assert_array_equal(res.x_final, x_final)
    np.testing.assert_array_equal(res.max_tail_delta, tail)


@pytest.mark.parametrize("n, runs", [(5, 1), (17, 40)], ids=["one-run", "n17"])
def test_block_drive_rounds_as_one_step_at_a_time(n, runs):
    """A block's drive keeps the bits of its steps' own products.

    On OpenBLAS one 2-D product over the whole block, (B * M, n) @ (n, n),
    rounds otherwise in both cases: for one run NumPy hands each step's
    single row to gemv, and at n = 17 a gemm of B * M rows takes other
    kernels than one of M rows.
    """
    w, _ = random_balanced_graph(np.random.default_rng(n), n)
    graph = SignedGraph(w)
    gauge = check_structural_balance(graph)
    x0 = np.linspace(-10.0, 10.0, n)
    sched, noise = PowerStep(0.5 / graph.degrees.max(), 1, 1), PowerNoise(1, 0.1, 1, 1)
    t = 400
    _, _, v, x_final, x_rec, y_rec, _ = _reference_batch(x0, graph, gauge, sched, noise, t, runs, t, 10)
    _, res = _check_aggregates(
        lambda drop: run_many(x0, graph, gauge, sched, noise, t, runs, record_idx=record_points(t, 10), drop=drop),
        v, np.zeros(runs, dtype=bool),
    )
    np.testing.assert_array_equal(res.x_final, x_final)
    np.testing.assert_array_equal(res.x_rec, x_rec[0])
    np.testing.assert_array_equal(res.y_rec, y_rec[0])


@pytest.mark.parametrize(
    "runs, t, stride, cols, last",
    [(400, 326, 1, 163, 1), (1, 200, 10, 84, 84)],
    ids=["last-chunk-one-record", "one-run"],
)
def test_aggregate_chunks_match_the_whole_matrix(fig1a, gauge1a, x0, runs, t, stride, cols, last):
    """The aggregate of V in buffer chunks has the bits of the whole (M, R) matrix's.

    At M = 400 the buffer holds 163 records, so the 327 records of T = 326 end
    on a chunk of the lone k = T record, which NumPy would sum pairwise were it
    reduced as one column.  At M = 1 each mean is a single run's V.
    """
    sched, noise = PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1)
    rec = record_points(t, stride)
    assert max(2, min(len(rec), _kernels._BLOCK_ELEMENTS // runs)) == cols
    assert (len(rec) - 1) % cols + 1 == last
    _, diverged_at, v, *_ = _reference_batch(x0, fig1a, gauge1a, sched, noise, t, runs, t, stride)
    _check_aggregates(
        lambda drop: run_many(x0, fig1a, gauge1a, sched, noise, t, runs, record_idx=rec, drop=drop),
        v, diverged_at >= 0,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 31])
def test_row_sum_is_numpys_row_sum_bit_for_bit(n):
    """``row_sum`` and ``row_sum / n`` give the bits of NumPy's last-axis sum and mean.

    Rows of -0.0 sum to +0.0 in NumPy, so they are mixed in, and the values
    span enough magnitudes that any other summation order rounds differently.
    """
    rng = np.random.default_rng(n)
    z = rng.standard_normal((6, 50, n)) * 10.0 ** rng.integers(-12, 12, size=(6, 50, n))
    z[0, :10] = -0.0
    z[1, :10, 0] = -0.0
    z[2, :10] = 0.0
    z[2, :5, -1] = -0.0
    for got, want in [(_kernels.row_sum(z), z.sum(axis=-1)), (_kernels.row_sum(z) / n, z.mean(axis=-1))]:
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(z.sum(axis=-1)[0, :10]).sum() == 0  # NumPy's +0.0, which row_sum must keep


_LIMIT = engine.DIVERGENCE_LIMIT


# a1 = 0 and zero noise hold x(k) = x0, so a run diverges at step 1 or never.
@pytest.mark.parametrize(
    "graph, x0, diverged_at",
    [
        ("fig1a", [_LIMIT, 0.0, 0.0, 0.0, 0.0], -1),
        ("fig1a", [np.nextafter(_LIMIT, np.inf), 0.0, 0.0, 0.0, 0.0], 1),
        # Equal entries keep V = 0, so no record overflows; the sum of squares does.
        ("two", [1e200, 1e200], 1),
        ("fig1a", [np.nan, 0.0, 0.0, 0.0, 0.0], 1),
        ("fig1a", [0.9 * _LIMIT] * 5, -1),  # sum of squares 4.05e24 > 1e24, every entry below
    ],
    ids=["at-limit", "next-above-limit", "1e200", "nan", "squares-above-limit"],
)
def test_divergence_screen_matches_per_entry_check(fig1a, gauge1a, graph, x0, diverged_at):
    """The max |x| check trips just above the limit, on NaN and on inf, whatever the sum of squares, and warns of nothing."""
    graph, gauge = (fig1a, gauge1a) if graph == "fig1a" else (TWO_PLUS, np.ones(2))
    frozen, silent = PowerStep(0.0, 1.0, 1.0), PowerNoise(0.0, 0.1)
    t, runs = 30, 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = _reference_batch(x0, graph, gauge, frozen, silent, t, runs, 20, 1)
        _, ref_diverged_at, v, x_final, x_rec, y_rec, tail = want
        _, res = _check_aggregates(
            lambda drop: run_many(
                x0, graph, gauge, frozen, silent, t, runs, record_idx=record_points(t, 1), tail_start=20, drop=drop
            ),
            v, ref_diverged_at >= 0,
        )
    np.testing.assert_array_equal(res.diverged_at, np.full(runs, diverged_at))
    np.testing.assert_array_equal(res.diverged_at, ref_diverged_at)
    np.testing.assert_array_equal(res.x_final, x_final)
    np.testing.assert_array_equal(res.x_rec, x_rec[0])
    np.testing.assert_array_equal(res.y_rec, y_rec[0])
    np.testing.assert_array_equal(res.max_tail_delta, tail)


def test_stability_warning(fig1a, gauge1a, x0):
    with pytest.warns(RuntimeWarning, match="transiently amplify"):
        run_many(x0, fig1a, gauge1a, PowerStep(1.0, 1.0, 0.9), None, 10, runs=1)


def test_runs_reproducible(fig1a, gauge1a, x0):
    sched, noise = PowerStep(0.3, 1, 1), PowerNoise(1, 0.1, 1, 1)
    _, a = run_many(x0, fig1a, gauge1a, sched, noise, 300, 5, seed=DEFAULT_SEED)
    _, b = run_many(x0, fig1a, gauge1a, sched, noise, 300, 5, seed=DEFAULT_SEED)
    for got, want in [(a.v0, b.v0), (a.v_mean, b.v_mean), (a.v_deciles, b.v_deciles)]:
        np.testing.assert_array_equal(got, want)
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
        [0.0, 0.0], [1.0, 1.0], np.array([1.0, 1.0]), PowerStep(1, 1, 1), PowerNoise(1.0, 0.0, a2=1.0)
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


@pytest.mark.parametrize("k_trunc", [0, 20, 60])
def test_limit_statistics_geometric_tail(stats1a, gauge1a, x0, k_trunc):
    """Partial sum plus the geometric tail bound encloses the whole series from above."""
    ls = limit_statistics(x0, gauge1a, stats1a.degrees, PowerStep(0.3, 1, 1), GeometricNoise(2.0, 0.9), k_trunc)
    terms, k = [], 0
    while k == 0 or terms[-1] > 0.0:  # alpha(k)^2 b(k)^2 until it underflows
        terms.append((0.3 / (k + 1)) ** 2 * (2.0 * 0.9**k) ** 2)
        k += 1
    series = 2.0 * float((stats1a.degrees**2).sum()) / len(x0) ** 2 * math.fsum(terms)
    assert ls.truncation_steps == k_trunc and ls.tail_bound > 0.0
    assert series <= ls.limit_variance <= series + ls.tail_bound


def test_limit_statistics_divergent(stats1a, gauge1a, x0):
    with pytest.raises(DivergentSeriesError):
        limit_statistics(x0, gauge1a, stats1a.degrees, PowerStep(1, 1, 0.9), PowerNoise(1, 0.5, 1, 0))
