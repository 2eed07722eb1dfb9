"""Counter-based Laplace noise streams.

Every sample is a pure function of ``(master_seed, run, agent, step)``, so
Monte Carlo runs parallelize while staying exactly reproducible: the sample
drawn for a given key never depends on how many other samples were drawn
before it.  Keys are mixed through chained splitmix64 finalizers,
``mix(mix(mix(seed + run) ^ agent) ^ step)``, and mapped to Lap(0, b) by the
inverse CDF.  ``stream_keys`` computes the (run, agent) prefix once, so the
simulation kernel pays one finalizer per draw and can draw a block of steps
at a time; ``laplace_into`` writes such a block into caller-given buffers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "laplace_matrix",
    "laplace_from_keys",
    "laplace_into",
    "stream_keys",
    "DEFAULT_SEED",
]

# Documented default master seed; the shipped acceptance numbers use it.
DEFAULT_SEED = 1618033988

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_U53 = 2.0**-53


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of ``z + golden``, in place on the uint64 array ``z``.

    ``tmp`` is scratch of ``z``'s shape; uint64 wraps, so no mask is needed.
    """
    z += _GOLD
    z ^= np.right_shift(z, np.uint64(30), out=tmp)
    z *= _M1
    z ^= np.right_shift(z, np.uint64(27), out=tmp)
    z *= _M2
    z ^= np.right_shift(z, np.uint64(31), out=tmp)
    return z


def stream_keys(seed: int, run, agent) -> np.ndarray:
    """Per-(run, agent) hash prefix ``mix(mix(seed + run) ^ agent)``; broadcasts."""
    with np.errstate(over="ignore"):
        z = np.asarray(np.uint64(seed) + np.asarray(run, dtype=np.uint64))
        z = np.asarray(_mix(z, np.empty_like(z)) ^ np.asarray(agent, dtype=np.uint64))
        return _mix(z, np.empty_like(z))


def laplace_into(keys: np.ndarray, step: np.ndarray, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Lap(0, b) draws for hoisted ``stream_keys`` at uint64 ``step``, written into ``out``.

    ``out`` and ``tmp`` are uint64 arrays of the broadcast shape of ``keys``,
    ``step`` and ``b``.  Every operation writes into one of them, so the draw
    makes no temporary of its size.  Returns ``out`` viewed as float64.
    """
    with np.errstate(over="ignore"):
        _mix(np.bitwise_xor(keys, step, out=out), tmp)
    out >>= np.uint64(11)
    u = np.add(out, 0.5, out=tmp.view(np.float64))  # the top 53 bits as a float ...
    u *= _U53
    u -= 0.5  # ... on (-1/2, 1/2)
    # Inverse CDF of Lap(0, b), branch-free: -b * sign(u) * log1p(-2|u|).
    draw = np.sign(u, out=out.view(np.float64))
    np.multiply(-b, draw, out=draw)
    np.abs(u, out=u)
    np.multiply(-2.0, u, out=u)
    draw *= np.log1p(u, out=u)
    return draw


def laplace_from_keys(keys: np.ndarray, step, b) -> np.ndarray:
    """Lap(0, b) draws for hoisted ``stream_keys`` at ``step``.

    ``keys``, ``step`` and ``b`` broadcast together, so a block of steps
    shaped (B, 1, 1) against (M, n) keys gives (B, M, n) draws in one call.
    A 0-d input gives a scalar.
    """
    step = np.asarray(step, dtype=np.uint64)
    shape = np.broadcast_shapes(np.shape(keys), step.shape, np.shape(b))
    draw = laplace_into(keys, step, b, np.empty(shape, np.uint64), np.empty(shape, np.uint64))
    return draw[()] if draw.ndim == 0 else draw


def laplace_matrix(seed: int, runs: np.ndarray, n_agents: int, step: int, b: float) -> np.ndarray:
    """Lap(0, b) noise for all (run, agent) pairs at one step; shape (M, n)."""
    if b == 0.0:
        return np.zeros((len(runs), n_agents))
    keys = stream_keys(seed, np.asarray(runs)[:, None], np.arange(n_agents)[None, :])
    return laplace_from_keys(keys, step, b)
