import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from dpconsensus.noise import (
    DEFAULT_SEED,
    laplace_from_keys,
    laplace_into,
    laplace_matrix,
    stream_keys,
)

from oracles import _splitmix, laplace_sample


def _bulk(seed, n, b=1.0, run=0, agent=0):
    return np.array([laplace_sample(seed, run, agent, k, b) for k in range(n)])


def test_determinism():
    a = laplace_sample(DEFAULT_SEED, 3, 1, 42, 1.5)
    b = laplace_sample(DEFAULT_SEED, 3, 1, 42, 1.5)
    assert a == b
    assert laplace_sample(DEFAULT_SEED + 1, 3, 1, 42, 1.5) != a


def test_scale_is_linear():
    base = laplace_sample(DEFAULT_SEED, 0, 0, 7, 1.0)
    assert laplace_sample(DEFAULT_SEED, 0, 0, 7, 3.0) == pytest.approx(3 * base)
    assert laplace_sample(DEFAULT_SEED, 0, 0, 7, 1e-12) == pytest.approx(0.0, abs=1e-10)


def test_matrix_matches_scalar_samples():
    m = laplace_matrix(DEFAULT_SEED, np.arange(4), 3, step=9, b=2.0)
    assert m.shape == (4, 3)
    for r in range(4):
        for a in range(3):
            assert m[r, a] == laplace_sample(DEFAULT_SEED, r, a, 9, 2.0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    runs=st.lists(st.integers(0, 2**62), min_size=1, max_size=5, unique=True),
    n=st.integers(1, 6),
    k0=st.integers(0, 2**62),
    length=st.integers(1, 8),
    b=st.floats(1e-6, 1e6),
)
def test_block_draws_equal_per_step_draws(seed, runs, n, k0, length, b):
    """A (B, M, n) block from hoisted keys is the per-step stream, bit for bit."""
    runs = np.array(runs, dtype=np.int64)
    keys = stream_keys(seed, runs[:, None], np.arange(n)[None, :])
    scales = b * np.arange(1, length + 1)  # one scale per step, as in the kernel
    steps = np.arange(k0, k0 + length, dtype=np.uint64)
    block = laplace_from_keys(keys, steps[:, None, None], scales[:, None, None])
    assert block.shape == (length, len(runs), n)
    for j in range(length):
        k = k0 + j
        np.testing.assert_array_equal(block[j], laplace_matrix(seed, runs, n, k, scales[j]))
        for r, run in enumerate(runs.tolist()):
            for a in range(n):
                assert block[j, r, a] == laplace_sample(seed, run, a, k, scales[j])


@settings(max_examples=80, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    runs=st.lists(st.integers(0, 2**62), min_size=1, max_size=4, unique=True),
    n=st.integers(1, 5),
    k0=st.integers(0, 2**62),
    length=st.integers(1, 6),
    b=st.floats(0.0, 1e6),
    shapes=st.sampled_from(
        [
            ("scalar", "scalar", "scalar"),  # all 0-d
            ("matrix", "scalar", "block"),  # b alone widens the broadcast of keys ^ step
            ("matrix", "block", "block"),  # (B, 1, 1) steps and scales against (M, n) keys
            ("scalar", "block", "scalar"),
            ("matrix", "block", "scalar"),
        ]
    ),
)
def test_in_place_draw_fills_the_callers_buffer_with_the_stream(seed, runs, n, k0, length, b, shapes):
    """``laplace_into`` writes each key's oracle draw into the given buffer, whatever broadcasts."""
    key_shape, step_shape, b_shape = shapes
    runs = np.array(runs, dtype=np.int64)
    run, agent = (runs[:, None], np.arange(n)[None, :]) if key_shape == "matrix" else (runs[0], n - 1)
    keys = stream_keys(seed, run, agent)
    step = np.arange(k0, k0 + length, dtype=np.uint64)[:, None, None]
    scale = b * np.arange(1, length + 1)[:, None, None]
    if step_shape == "scalar":
        step = np.asarray(step[0, 0, 0])
    if b_shape == "scalar":
        scale = b
    shape = np.broadcast_shapes(np.shape(keys), step.shape, np.shape(scale))
    out, tmp = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    draw = laplace_into(keys, step, scale, out, tmp)
    assert draw.shape == shape and draw.dtype == np.float64
    assert np.shares_memory(draw, out)
    grids = np.broadcast_arrays(run, agent, step, scale, draw)
    for r, a, k, s, d in zip(*(g.ravel().tolist() for g in grids)):
        assert d == laplace_sample(seed, r, a, k, s)
    wrapped = laplace_from_keys(keys, step, scale)
    assert np.array_equal(wrapped, draw)
    assert isinstance(wrapped, np.float64) if shape == () else wrapped.shape == shape


def _unmix(h: int) -> int:
    """The z with ``_splitmix(z) == h``: each xorshift undone, each multiplier inverted mod 2**64."""
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9)):
        z = h
        for _ in range(64 // shift):
            z = h ^ (z >> shift)
        h = (z * pow(mult, -1, 2**64)) & (2**64 - 1)
    z = h
    for _ in range(64 // 30):
        z = h ^ (z >> 30)
    return (z - 0x9E3779B97F4A7C15) & (2**64 - 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("h, sign", [(2**64 - 1, 1.0), (0, -1.0)], ids=["top", "bottom"])
def test_extreme_hashes_draw_finite_tails(h, sign):
    # The top hash's u = (2^53 - 1 + 1/2) 2^-53 - 1/2 rounds to 1/2; the draw
    # takes |u| = 1/2 - 2^-54, as the bottom hash does, so both tails are
    # 53 ln 2 at b = 1.
    prefix = _splitmix(_splitmix(5) ^ 2)  # stream_keys(5, 0, 2)
    step = prefix ^ _unmix(h)
    assert _splitmix(prefix ^ step) == h
    draw = laplace_from_keys(stream_keys(5, 0, 2), np.uint64(step), 1.0)
    assert draw == laplace_sample(5, 0, 2, step, 1.0)
    assert draw == pytest.approx(sign * 53 * math.log(2), rel=1e-15)


@pytest.mark.filterwarnings("error")
def test_zero_draws_keep_the_oracles_sign_bits():
    """At the u = +0 hash and in b = 0 rows a draw is a zero with the oracle's sign bit.

    The hash 2^63 gives u = (2^52 + 1/2) 2^-53 - 1/2, which rounds to +0, so
    the draw is +0 at any b; a b = 0 draw is -0 where u < 0 and +0 where u > 0.
    """
    prefix = _splitmix(_splitmix(5) ^ 2)  # stream_keys(5, 0, 2)
    zero_step = prefix ^ _unmix(2**63)
    assert _splitmix(prefix ^ zero_step) == 2**63
    step_list = [zero_step, zero_step, 0, 1, 2, 3, 4, 5]
    scale_list = [1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 0.0]
    runs, n = np.arange(3), 4
    keys = stream_keys(5, runs[:, None], np.arange(n)[None, :])
    steps = np.array(step_list, dtype=np.uint64)[:, None, None]
    scales = np.array(scale_list)[:, None, None]
    shape = (len(step_list), len(runs), n)
    draw = laplace_into(keys, steps, scales, np.empty(shape, np.uint64), np.empty(shape, np.uint64))
    want = np.array(
        [
            [[laplace_sample(5, r, a, k, b) for a in range(n)] for r in runs.tolist()]
            for k, b in zip(step_list, scale_list)
        ]
    )
    np.testing.assert_array_equal(draw.view(np.uint64), want.view(np.uint64))
    assert draw[0, 0, 2] == draw[1, 0, 2] == 0.0 and not np.signbit(draw[:2, 0, 2]).any()
    zeros = draw[np.array(scale_list) == 0.0]
    assert (zeros == 0.0).all() and 0 < np.signbit(zeros).sum() < zeros.size  # both signed zeros


def test_moments_at_unit_scale():
    # Lap(0, 1) has mean 0 and variance 2; tolerances sized for n = 1e6.
    big = np.concatenate(
        [laplace_matrix(DEFAULT_SEED, np.arange(1000), 1, s, 1.0).ravel() for s in range(1000)]
    )
    assert abs(big.mean()) < 0.01
    assert 1.98 < big.var() < 2.02


def test_median_absolute_deviation():
    big = np.concatenate(
        [laplace_matrix(DEFAULT_SEED, np.arange(1000), 1, s, 3.0).ravel() for s in range(1000)]
    )
    frac = np.mean(np.abs(big) > 3.0 * math.log(2))
    assert abs(frac - 0.5) < 0.01


def test_kolmogorov_smirnov():
    big = np.concatenate(
        [laplace_matrix(DEFAULT_SEED, np.arange(100), 1, s, 1.0).ravel() for s in range(1000)]
    )
    stat = sstats.kstest(big, sstats.laplace.cdf).statistic
    assert stat < 0.006


def test_cross_stream_independence_proxy():
    a = _bulk(DEFAULT_SEED, 20_000, agent=0)
    b = _bulk(DEFAULT_SEED, 20_000, agent=1)
    c = _bulk(DEFAULT_SEED, 20_000, run=1)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.02
