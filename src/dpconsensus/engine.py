"""Execution of the privacy-preserving consensus recursion.

Each step draws Laplace noise on the transmitted states and applies

    x(k+1) = (I - alpha(k) L) x(k) + alpha(k) A w(k)

which is the compact form of the per-agent update
``x_i(k+1) = x_i(k) - alpha(k) sum_j |a_ij| (x_i(k) - sgn(a_ij) y_j(k))``.
Noise is injected at every step k >= 0; a zero scale (e.g. the k = 0 value
of an offset-1 power schedule) means no noise at that step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import DIVERGENCE_LIMIT
from .graphs import SignedGraph
from .noise import DEFAULT_SEED
from .schedules import DivergentSeriesError, GeometricNoise, PowerNoise, PowerStep

__all__ = [
    "LimitStatistics",
    "DivergenceError",
    "run_many",
    "limit_statistics",
    "record_points",
    "BACKEND_NAME",
]

# Reported in ``report.json``; the name predates the single kernel and is
# kept so that same-seed artifacts stay byte-identical.
BACKEND_NAME = "pure"


class DivergenceError(RuntimeError):
    def __init__(self, step_index: int):
        super().__init__(
            f"state magnitude exceeded {DIVERGENCE_LIMIT:g} at step {step_index}; "
            "check the step-size/graph pairing"
        )
        self.step_index = step_index


@dataclass(frozen=True)
class LimitStatistics:
    """Mean and variance of the random bipartite consensus limit."""

    limit_mean: float
    limit_variance: float
    truncation_steps: int
    tail_bound: float


def record_points(t: int, stride: int = 10) -> np.ndarray:
    """Record set: 0, T, every ``stride`` steps, log-densified near k = 0."""
    pts = set(range(0, t + 1, stride))
    pts.update({0, t})
    if t >= 1:
        logs = np.unique(np.round(np.logspace(0, np.log10(t), 120)).astype(int))
        pts.update(int(v) for v in logs if 0 <= v <= t)
    return np.array(sorted(pts), dtype=np.int64)


def run_many(
    x0,
    graph: SignedGraph,
    gauge: np.ndarray,
    sched,
    noise_sched,
    t: int,
    runs: int,
    seed: int = DEFAULT_SEED,
    record_idx: np.ndarray | None = None,
    tail_start: int | None = None,
):
    """Simulate runs 0, ..., runs - 1; returns (record_idx, KernelResult).

    ``record_idx`` defaults to ``record_points(t)``; run 0's x and y are recorded.
    """
    if t < 1:
        raise ValueError("horizon must be >= 1")
    ks = np.arange(t)
    alpha = sched.alpha(ks)
    c_max = float(np.max(graph.degrees))
    if alpha[0] * c_max >= 1.0:
        warnings.warn(
            f"alpha(0)*c_max = {alpha[0] * c_max:g} >= 1: early steps may "
            "transiently amplify disagreement",
            RuntimeWarning,
            stacklevel=2,
        )
    if record_idx is None:
        record_idx = record_points(t)
    res = _kernels.simulate(
        np.asarray(graph.weights, dtype=float),
        graph.laplacian(),
        np.asarray(gauge, dtype=float),
        np.asarray(x0, dtype=float),
        alpha,
        np.zeros(t) if noise_sched is None else noise_sched.scale(ks),
        seed,
        np.arange(runs, dtype=np.int64),
        record_idx,
        tail_start=tail_start,
    )
    return record_idx, res


def _series_sum_and_tail(sched: PowerStep, noise, k_trunc: int) -> tuple[float, float, int]:
    """Partial sum of alpha^2 b^2 over 0..K plus an upper bound on the tail."""
    if isinstance(noise, PowerNoise):
        if noise.gamma >= sched.beta - 0.5:
            raise DivergentSeriesError("gamma >= beta - 1/2: variance series diverges")
        # Push the truncation past the peak of the integrand so the
        # integral from K dominates the remaining sum.
        u = sched.a2
        w = noise.a2 - noise.offset
        if noise.gamma > 0 and sched.beta > noise.gamma:
            x_dec = (noise.gamma * u - sched.beta * w) / (sched.beta - noise.gamma)
            k_trunc = max(k_trunc, int(np.ceil(x_dec)) + 1)

        # Beyond the (bumped) truncation the summand decreases, so the sum is
        # at most the integral of the envelope C*(x+u)^(2g-2b), where C caps
        # the ratio ((x+w)/(x+u))^(2g) on [K, inf).
        two_g, two_b = 2 * noise.gamma, 2 * sched.beta
        ratio = (k_trunc + w) / (k_trunc + u)
        cap = max(1.0, ratio**two_g)
        tail = (
            sched.a1**2
            * noise.b_floor**2
            * cap
            * (k_trunc + u) ** (two_g - two_b + 1)
            / (two_b - two_g - 1)
        )
    elif isinstance(noise, GeometricNoise):
        a_next = sched.alpha(k_trunc + 1)
        tail = a_next**2 * noise.c**2 * noise.q ** (2 * (k_trunc + 1)) / (1 - noise.q**2)
    else:
        raise TypeError(f"unsupported noise schedule {type(noise).__name__}")
    ks = np.arange(k_trunc + 1)
    partial = float(np.sum(sched.alpha(ks) ** 2 * noise.scale(ks) ** 2))
    return partial, float(tail), k_trunc


def limit_statistics(
    x0,
    gauge: np.ndarray,
    degrees: np.ndarray,
    sched: PowerStep,
    noise,
    k_trunc: int = 100_000,
) -> LimitStatistics:
    """Mean and variance of the consensus limit x*.

    ``Var(x*) = (2 sum_i c_i^2 / N^2) * sum_{j>=0} alpha(j)^2 b(j)^2``,
    evaluated as a truncated sum plus an integral tail bound.
    """
    x0 = np.asarray(x0, dtype=float)
    gauge = np.asarray(gauge, dtype=float)
    n = len(x0)
    mean = float((gauge * x0).mean())
    coeff = 2.0 * float((np.asarray(degrees) ** 2).sum()) / n**2
    if noise is None or (isinstance(noise, PowerNoise) and noise.b_floor == 0.0) or sched.a1 == 0.0:
        return LimitStatistics(mean, 0.0, k_trunc, 0.0)
    partial, tail, k_eff = _series_sum_and_tail(sched, noise, k_trunc)
    return LimitStatistics(mean, coeff * (partial + tail), k_eff, coeff * tail)
