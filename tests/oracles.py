"""Scalar reference forms of the consensus update, used only as test oracles."""

import numpy as np

from dpconsensus.engine import DIVERGENCE_LIMIT, DivergenceError
from dpconsensus.noise import laplace_from_keys, stream_keys


def laplace_sample(seed: int, run: int, agent: int, step: int, b: float) -> float:
    """One Lap(0, b) draw for the given stream key."""
    return float(laplace_from_keys(stream_keys(seed, run, agent), step, b))


def disagreement(x: np.ndarray, gauge: np.ndarray) -> float:
    """V = ||(I - J) S x||^2, the squared deviation from the gauge mean."""
    z = np.asarray(x, dtype=float) * np.asarray(gauge, dtype=float)
    dev = z - z.mean()
    return float(dev @ dev)


def apply_update(x: np.ndarray, weights: np.ndarray, alpha_k: float, y: np.ndarray) -> np.ndarray:
    """Per-agent (scalar form) update from received transmissions ``y``."""
    n = len(x)
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            a_ij = weights[i, j]
            if a_ij != 0.0:
                acc += abs(a_ij) * (x[i] - np.sign(a_ij) * y[j])
        out[i] = x[i] - alpha_k * acc
    return out


def step(x, graph, sched, noise_sched, k: int, omega: np.ndarray | None = None) -> np.ndarray:
    """One reference step with injected noise ``omega`` (zero when omitted).

    ``noise_sched`` is not read: the caller draws ``omega`` at its scale.
    """
    y = x + (np.zeros(graph.n) if omega is None else omega)
    out = apply_update(x, graph.weights, sched.alpha(k), y)
    if not np.all(np.isfinite(out)) or np.abs(out).max() > DIVERGENCE_LIMIT:
        raise DivergenceError(k + 1)
    return out
