import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from dpconsensus.noise import (
    DEFAULT_SEED,
    laplace_from_keys,
    laplace_matrix,
    laplace_sample,
    stream_keys,
)


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
