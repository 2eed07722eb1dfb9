"""Counter-based Laplace noise streams.

Every sample is a pure function of ``(master_seed, run, agent, step)``, so
Monte Carlo runs parallelize while staying exactly reproducible: the sample
drawn for a given key never depends on how many other samples were drawn
before it.  Keys are mixed through chained splitmix64 finalizers,
``mix(mix(mix(seed + run) ^ agent) ^ step)``, and mapped to Lap(0, b) by the
inverse CDF.  ``stream_keys`` computes the (run, agent) prefix once, so the
simulation kernel pays one finalizer per draw and can draw a block of steps
at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "laplace_sample",
    "laplace_matrix",
    "laplace_from_keys",
    "stream_keys",
    "DEFAULT_SEED",
]

# Documented default master seed; the shipped acceptance numbers use it.
DEFAULT_SEED = 1618033988

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_U53 = 2.0**-53


def _mix(z: np.ndarray) -> np.ndarray:
    z = z + _GOLD  # uint64 wraps, so no mask is needed
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def stream_keys(seed: int, run, agent) -> np.ndarray:
    """Per-(run, agent) hash prefix ``mix(mix(seed + run) ^ agent)``; broadcasts."""
    with np.errstate(over="ignore"):
        h = _mix(np.uint64(seed) + np.asarray(run, dtype=np.uint64))
        return _mix(h ^ np.asarray(agent, dtype=np.uint64))


def laplace_from_keys(keys: np.ndarray, step, b) -> np.ndarray:
    """Lap(0, b) draws for hoisted ``stream_keys`` at ``step``.

    ``keys``, ``step`` and ``b`` broadcast together, so a block of steps
    shaped (B, 1, 1) against (M, n) keys gives (B, M, n) draws in one call.
    """
    with np.errstate(over="ignore"):
        h = _mix(keys ^ np.asarray(step, dtype=np.uint64))
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * _U53 - 0.5  # on (-1/2, 1/2)
    # Inverse CDF of Lap(0, b); branch-free.
    return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def laplace_sample(seed: int, run: int, agent: int, step: int, b: float) -> float:
    """One Lap(0, b) draw for the given stream key."""
    if b < 0:
        raise ValueError("scale must be >= 0")
    if b == 0.0:
        return 0.0
    return float(laplace_from_keys(stream_keys(seed, run, agent), step, b))


def laplace_matrix(seed: int, runs: np.ndarray, n_agents: int, step: int, b: float) -> np.ndarray:
    """Lap(0, b) noise for all (run, agent) pairs at one step; shape (M, n)."""
    if b == 0.0:
        return np.zeros((len(runs), n_agents))
    keys = stream_keys(seed, np.asarray(runs)[:, None], np.arange(n_agents)[None, :])
    return laplace_from_keys(keys, step, b)
